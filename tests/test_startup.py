"""What a transformation loads, and the records that keep that set small.

``import termxform`` and a transformation load neither ``dataclasses``
(which pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``) nor the
metrics calculator (and ``csv``): the package's own records are named
tuples or plain classes with ``__slots__``, and ``termxform.metrics`` loads
on first use.  Each import case runs in a fresh interpreter, since this
test process has long since imported everything.  The second half checks
that the hand-written records behave as the dataclasses they replaced.
"""

import os
import subprocess
import sys

import pytest

import termxform
from termxform.logic_engine import DEFAULT_STEP_LIMIT, SolverOptions
from termxform.rule_language import OperatorDef, Token, tokenize
from termxform.template_engine import TransformOptions, TransformReport

SRC = os.path.dirname(os.path.dirname(os.path.abspath(termxform.__file__)))
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "corpus")
HEAVY = ("dataclasses", "inspect", "csv", "termxform.metrics")
BOOKS = (
    "template(element(book, _, C), [element(item, [], T)]) :- titles(C, T).\n"
    "titles(C, T) :- findall(X, member(element(title, _, X), C), L), concat(L, T).\n"
)


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONPROFILEIMPORTTIME", None)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_import_prelude_and_a_transform_load_no_dataclasses_or_metrics(tmp_path):
    rules = tmp_path / "books.tx"
    rules.write_text(BOOKS, encoding="utf-8")
    code = (
        "import sys, termxform\n"
        "termxform.load_prelude()\n"
        "report = termxform.transform_file(sys.argv[1], sys.argv[2])\n"
        "print(report.documents)\n"
        "print(sorted(m for m in %r if m in sys.modules))\n" % (HEAVY,)
    )
    done = run_python("-c", code, os.path.join(CORPUS, "02_nested.xml"), str(rules))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "['<item>Logic</item>']\n[]\n"


def test_the_transform_command_loads_no_dataclasses_or_metrics(tmp_path):
    rules = tmp_path / "books.tx"
    rules.write_text(BOOKS, encoding="utf-8")
    done = run_python(
        "-X", "importtime", "-m", "termxform.cli", "transform",
        "--rules", str(rules), "--in", os.path.join(CORPUS, "02_nested.xml"),
    )
    assert (done.returncode, done.stdout) == (0, "<item>Logic</item>\n")
    # Every import is one "import time: self | cumulative | name" line.
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert "termxform.template_engine" in imported
    assert sorted(imported.intersection(HEAVY)) == []


def test_metrics_still_load_on_first_use():
    code = (
        "import sys, termxform\n"
        "assert 'termxform.metrics' not in sys.modules\n"
        "print(round(termxform.halstead(termxform.HalsteadCounts(14, 20, 62, 36)).volume, 4))\n"
        "namespace = {}\n"
        "exec('from termxform import *', namespace)\n"
        "print(sorted(set(termxform.__all__) - set(namespace)))\n"
        "print(namespace['tokenize_classify'] is termxform.metrics.tokenize_classify)\n"
    )
    done = run_python("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "498.5714\n[]\nTrue\n"


def test_the_metrics_command_still_works():
    done = run_python("-m", "termxform.cli", "metrics", "--counts", "14,20,62,36")
    assert (done.returncode, done.stderr) == (0, "")
    assert "volume             (V)    = 498.5714\n" in done.stdout


def test_an_unknown_package_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        termxform.no_such_name  # noqa: B018


# ---------------------------------------------------------------------------
# The records that replaced dataclasses


def test_solver_options_take_the_same_arguments_and_defaults():
    default = SolverOptions()
    assert (default.occurs_check, default.depth_limit, default.diagnostics) == (
        False, DEFAULT_STEP_LIMIT, None
    )
    stream = object()
    keyword = SolverOptions(occurs_check=True, depth_limit=50, diagnostics=stream)
    for options in (SolverOptions(True, 50, stream), keyword):
        assert (options.occurs_check, options.depth_limit, options.diagnostics) == (True, 50, stream)


def test_solver_options_can_be_assigned_but_not_extended():
    options = SolverOptions()
    options.occurs_check = True
    options.depth_limit = 7
    assert (options.occurs_check, options.depth_limit) == (True, 7)
    with pytest.raises(AttributeError):
        options.occurs = True


def test_transform_options_take_the_same_arguments_and_defaults():
    names = ("all_solutions", "no_wrap", "keep_ws", "pretty", "unmatched_text", "depth_limit", "occurs_check")
    default = TransformOptions()
    assert tuple(getattr(default, name) for name in names) == (
        False, False, False, False, "drop", DEFAULT_STEP_LIMIT, False
    )
    values = (True, True, True, True, "copy", 9, True)
    for options in (TransformOptions(*values), TransformOptions(**dict(zip(names, values)))):
        assert tuple(getattr(options, name) for name in names) == values


def test_transform_reports_never_share_containers():
    first, second = TransformReport("ok", 1), TransformReport(status="no_solution", solutions=0)
    assert (first.outputs, first.documents, first.timings) == ([], [], {})
    assert first.outputs is not second.outputs
    assert first.documents is not second.documents
    assert first.timings is not second.timings
    outputs, documents, timings = ["a.xml"], ["<a/>"], {"parse": 0.5}
    given = TransformReport("ok", 1, outputs, documents, timings=timings)
    assert (given.outputs, given.documents, given.timings) == (outputs, documents, timings)
    assert given.outputs is outputs and given.timings is timings


def test_operator_defs_and_tokens_compare_and_hash_by_value():
    assert OperatorDef("~~>", 150, "xfx") == OperatorDef(name="~~>", precedence=150, fixity="xfx")
    assert OperatorDef("~~>", 150, "xfx") != OperatorDef("~~>", 150, "xfy")
    assert len({OperatorDef("~~>", 150, "xfx"), OperatorDef("~~>", 150, "xfx")}) == 1
    token = Token("atom", "a", 1, 1)
    assert token.quoted is False
    assert token == Token(kind="atom", value="a", line=1, col=1, quoted=False)
    assert token != Token("atom", "a", 1, 1, True)
    assert hash(token) == hash(Token("atom", "a", 1, 1))
    assert tokenize("f('a')") == tokenize("f('a')")
    with pytest.raises(AttributeError):
        token.kind = "var"

