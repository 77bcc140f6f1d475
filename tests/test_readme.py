"""README.md read against the code, as ``doctest`` reads a docstring.

Each check reads a part of README and compares it with what the code does:
the test files it names, each command of "Command line" (run in a fresh
interpreter on small fixtures), the operator table, the natives the prelude
and template mode add, the step counts it gives, the default step limit and
the CI steps beyond tier-1.  A measured number in README (a step count, a
size, a depth, MB or seconds) is checked here or stands in a paragraph that
names the test that pins it.
"""

import argparse
import io
import re
import shlex
from pathlib import Path

import pytest

from fresh_interpreter import run_python
from termxform.cli import _build_parser
from termxform.logic_engine import _BUILTINS, DEFAULT_STEP_LIMIT, Solver, SolverOptions
from termxform.rule_language import default_operators, parse_query
from termxform.term_core import render_term
from termxform.transform_prelude import load_prelude

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PROSE = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)  # README without its code blocks
FLAT = " ".join(PROSE.split())  # the prose with each run of white space one space
PRELUDE = load_prelude()


def section(title):
    """README's section *title*, up to the next section."""
    found = re.search(r"^## %s\n(.*?)(?=^## |\Z)" % re.escape(title), README, re.M | re.S)
    assert found, title
    return found.group(1)


def table(header):
    """The rows, as lists of cells, of the README table whose header row starts with *header*."""
    found = re.search(r"^%s.*\n\|[- |]+\n((?:\|.*\n)+)" % re.escape(header), README, re.M)
    assert found, header
    return [[cell.strip() for cell in row.strip().strip("|").split(" | ")] for row in found.group(1).splitlines()]


# ---------------------------------------------------------------------------
# Names and numbers


@pytest.mark.parametrize("name", sorted(set(re.findall(r"`(tests/[^`\s]+)`", README))))
def test_every_test_file_readme_names_exists(name):
    path, _, test = name.partition("::")
    assert (ROOT / path).exists(), path
    if test:
        assert re.search(r"^def %s\(" % re.escape(test), (ROOT / path).read_text(encoding="utf-8"), re.M), name


# A number with a unit of work, size, depth, memory or time.
MEASURED = re.compile(
    r"\b\d[\d,.]*[ -](?:steps?|MB|GB|ms|s|levels?|deep|cells?|rows?|terms?|goals?|digits|files?)\b"
    r"|\b\d[\d,.]* or less\b|\d%"
)


def blocks():
    """README's paragraphs, list items and tables, each table joined to the paragraph before it."""
    found = []
    for block in re.split(r"\n\s*\n", PROSE):
        if block.lstrip().startswith("|") and found:
            found[-1] += "\n" + block
        elif block.lstrip().startswith("- "):
            found.extend(re.split(r"\n(?=- )", block))
        else:
            found.append(block)
    return found


def test_every_measured_number_names_the_test_that_pins_it():
    unnamed = [block for block in blocks() if MEASURED.search(block) and "`tests/" not in block]
    assert unnamed == []


def test_the_step_limit_readme_gives_is_the_default():
    stated = re.search(r"step limit defaults to ([\d,]+)", FLAT)
    assert stated and int(stated.group(1).replace(",", "")) == DEFAULT_STEP_LIMIT


# ---------------------------------------------------------------------------
# Operators, natives and steps


def operator_name(code):
    """The operator a table entry shows: `E op x`, `op E` or a bare `op`."""
    words = code.split()
    return words[1] if len(words) == 3 else words[0]


def test_the_operator_table_names_the_precedence_100_operators_and_the_prefix_minus():
    rows = table("| Operators |")
    shown = {operator_name(code) for row in rows for code in re.findall(r"`([^`]+)`", row[0])}
    ops = default_operators()
    assert shown == {op.name for op in ops if op.precedence == 100} | {"-"}
    (minus,) = [op for op in ops if op.name == "-" and op.fixity in ("fy", "fx")]
    (slash,) = [op for op in ops if op.name == "/"]
    (text,) = [row[1] for row in rows if row[0] == "`- X`"]
    assert "prefix `-`, %d `%s`" % (minus.precedence, minus.fixity) in text
    assert "`/` (%d)" % slash.precedence in text


def reads_as(text):
    """*text* read as a term, rendered with its variables named _."""
    return re.sub(r"_\w*?\d+", "_", render_term(parse_query("X = (%s)" % text, PRELUDE.operators).goal.args[1]))


def test_the_minus_row_reads_as_it_says():
    (text,) = [row[1] for row in table("| Operators |") if row[0] == "`- X`"]
    pairs = re.findall(r"`([^`]+)` is `([^`]+)`", text)
    assert len(pairs) == 3
    for written, read in pairs:
        assert reads_as(written) == reads_as(read), written
    assert "`- 1` is the number -1" in text and reads_as("- 1") == "-1"
    assert "`6 / (- Y)` reads" in text and reads_as("6 / (- Y)") == "/(6,-(_))"


def test_the_natives_readme_lists_are_those_the_prelude_and_template_mode_add():
    listed = re.search(r"The prelude and template mode add these natives: (.*?)\. ", FLAT)
    assert listed
    named = set(re.findall(r"`(\w+)/(\d+)`", listed.group(1)))
    modules = ("termxform.transform_prelude", "termxform.template_engine")
    added = {(name, str(arity)) for (name, arity), native in _BUILTINS.items() if native.__module__ in modules}
    assert named == added


def steps(text):
    """(steps to the first answer, steps in all) of the query *text* on the prelude."""
    solver = Solver(PRELUDE, SolverOptions(diagnostics=io.StringIO()))
    first = [solver.steps for _ in solver.solve(parse_query(text, PRELUDE.operators).goal)]
    assert first, text
    return first[0], solver.steps


# One goal or more per row of the step table; CH is the rest of the child
# list and AT of the attribute list, each empty and then 100 entries long.
STEP_GOALS = {
    "`E ^ name`": ["transform(element(a,[],[element(b,[],[]),element(c,[],[element(b,[],[])])|CH]) ^ b, X)"],
    "`E @ att`": ["transform(element(a,['k=\"1\"'|AT],CH) @ k, X)"],
    "`E / name`": ["transform(element(a,[],[element(b,[],[]),element(b,[],[])|CH]) / b, X)"],
    "`E sort att`": ["transform(element(a,[],[element(b,['k=\"2\"'],[]),element(b,['k=\"1\"'],[])|CH]) sort k, X)"],
    "`insertBefore(E, New, P, R)`, `insertAfter(E, New, P, R)`": [
        "insertBefore(element(a,[],[element(b,[],[])|CH]), n, 1, R)",
        "insertAfter(element(a,[],[element(b,[],[])|CH]), n, element(b,[],[]), R)",
    ],
    "`removeAttribute(E, att, R)`": ["removeAttribute(element(a,['k=\"1\"'|AT],CH), k, R)"],
}


def test_the_step_table_gives_the_steps_of_a_call_on_small_and_large_elements():
    rows = table("| Call on a bound element |")
    assert [row[0] for row in rows] == list(STEP_GOALS)
    for call, _, stated in rows:
        for goal in STEP_GOALS[call]:
            for size in (0, 100):
                children = "[%s]" % ",".join(["element(z,['k=\"5\"'],[text(t)])"] * size)
                attributes = "[%s]" % ",".join(["'z=\"5\"'"] * size)
                first, total = steps(goal.replace("CH", children).replace("AT", attributes))
                counted = "%d" % total if first == total else "%d to the first answer, %d in all" % (first, total)
                assert counted == stated, (goal, size)


def test_each_goal_readme_counts_takes_its_steps():
    counted = re.findall(r"`([^`]+)` takes (\d+) steps", FLAT)
    assert counted
    for goal, stated in counted:
        assert steps(goal)[1] == int(stated), goal


# ---------------------------------------------------------------------------
# Commands


def commands():
    """The commands of the "Command line" block: (words outside brackets, each bracketed group's words)."""
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [
        (shlex.split(re.sub(r"\[[^]]*\]", "", line)), [group.split() for group in re.findall(r"\[([^]]*)\]", line)])
        for line in lines
        if line.startswith("termxform ")
    ]


def test_the_command_block_shows_every_flag_of_each_command():
    (subcommands,) = [action.choices for action in _build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    shown = {}
    for required, optional in commands():
        words = required + [word for group in optional for word in group]
        shown.setdefault(required[1], set()).update(word for word in words if word.startswith("--"))
    flags = {
        name: {flag for action in parser._actions for flag in action.option_strings if flag not in ("-h", "--help")}
        for name, parser in subcommands.items()
    }
    assert shown == flags


@pytest.fixture
def fixtures(tmp_path):
    """README's placeholders, each bound to a small fixture, and ``gcd.tx``, README's gcd/3 rules."""
    gcd = re.search(r"```prolog\n(.*?)```", section("Command line"), re.S).group(1)
    (tmp_path / "gcd.tx").write_text(gcd, encoding="utf-8")
    (tmp_path / "conv.cfg").write_text("functor_as=operand\n", encoding="utf-8")
    return {
        "rules.tx": str(ROOT / "tests" / "data" / "books.tx"),
        "doc.xml": str(ROOT / "tests" / "data" / "corpus" / "02_nested.xml"),
        "out.xml": str(tmp_path / "out.xml"),
        "conv.cfg": str(tmp_path / "conv.cfg"),
        "name": "books",
        "N": "100000",
        "gcd.tx": str(tmp_path / "gcd.tx"),
    }


def runs(required, optional):
    """The argument lists a command runs with: without its options, then with all of them, once per alternative."""
    alternatives = max((len(group[-1].split("|")) for group in optional), default=0)
    found = [required[1:]]
    for pick in range(alternatives):
        words = required[1:]
        for group in optional:
            choices = group[-1].split("|")
            words = words + group[:-1] + [choices[min(pick, len(choices) - 1)]]
        found.append(words)
    return found


def test_each_command_of_the_block_runs_with_and_without_its_options(fixtures):
    for required, optional in commands():
        for words in runs(required, optional):
            args = [fixtures.get(word, word) for word in words]
            if args[0] == "query":  # the gcd example's rules
                args[args.index("--rules") + 1] = fixtures["gcd.tx"]
            done = run_python("-m", "termxform.cli", *args, timeout=60)
            assert done.returncode == 0, (args, done.stderr)
            if args[0] == "query":
                assert done.stdout == "YES.\nC/6\n", args


# Sentences of README that give a command's exit code, and the command.
EXITS = [
    ("`nth(1000000000, [a, b], X)` is NO (exit 1)", ["nth(1000000000, [a, b], X)"], 1),
    ("`6 / - Y` is a syntax error (exit 2)", ["X = 6 / - Y"], 2),
    ("such as `X = f(X)` without `--occurs-check`", ["X = f(X)"], 2),
    ("any other value is an input error (exit 2) that names the flag", ["--max", "0", "true"], 2),
    ("`length(Y, Y)`, which has no answer, runs to the step limit (exit 3)", ["--depth-limit", "1000", "length(Y, Y)"], 3),
]


@pytest.mark.parametrize("sentence, args, code", EXITS, ids=["no", "syntax", "cyclic", "max", "limit"])
def test_each_exit_code_readme_gives_is_the_commands(sentence, args, code):
    assert sentence in FLAT
    done = run_python("-m", "termxform.cli", "query", "--rules", "prelude-only", *args, timeout=60)
    assert done.returncode == code, done.stderr


# ---------------------------------------------------------------------------
# CI and install


def test_the_ci_steps_readme_lists_are_the_workflows_other_steps():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    names = re.findall(r"^\s*- name: (.+?)\s*$", workflow, re.M)
    listed = re.findall(r"^- \*\*(.+?)\*\*:", section("Tests"), re.M)
    assert listed == [name for name in names if name not in ("Install test dependencies", "Tier-1 tests")]
    versions = re.search(r"python-version: \[(.*?)\]", workflow).group(1).replace('"', "").split(", ")
    assert "on Python %s to %s." % (versions[0], versions[-1]) in FLAT
    command = re.search(r"```sh\n(.*?)\n```", section("Tests"), re.S).group(1)
    assert re.search(r"^\s*run: %s\b" % re.escape(command), workflow, re.M)


def test_the_python_version_readme_gives_is_the_packages():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    required = re.search(r'requires-python = ">=([\d.]+)"', pyproject).group(1)
    assert "Python ≥ %s, no runtime dependencies" % required in FLAT
