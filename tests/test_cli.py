"""End-to-end tests for the command-line interface."""

import os
import re

import pytest

from fresh_interpreter import termxform
from termxform.cli import _divergence_path, main
from termxform.xml_io import parse_document

GCD_RULES = """
gcd(X, X, X).
gcd(X, Y, D) :- X < Y, Z is Y - X, gcd(X, Z, D).
gcd(X, Y, D) :- Y < X, gcd(Y, X, D).
"""


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# transform


def test_transform_to_stdout(tmp_path, capsys):
    rules = write(
        tmp_path, "rules.tx", "template(element(b, _, C), [element(strong, [], C)])."
    )
    source = write(tmp_path, "in.xml", "<a><b>hi</b></a>")
    code = main(["transform", "--rules", rules, "--in", source])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "<strong>hi</strong>\n"
    assert "solution(s)" in captured.err


def test_transform_to_file(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "go(Doc, [Doc]).")
    source = write(tmp_path, "in.xml", "<a><b/></a>")
    out = tmp_path / "out.xml"
    code = main(["transform", "--rules", rules, "--in", source, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert out.read_text(encoding="utf-8") == "<a><b/></a>\n"


def test_transform_all_solutions_numbered(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(Doc, [R]) :- transform(Doc / i, R).")
    source = write(tmp_path, "in.xml", "<r><i>1</i><i>2</i></r>")
    out = tmp_path / "out.xml"
    code = main(
        ["transform", "--rules", rules, "--in", source, "--out", str(out), "--all"]
    )
    assert code == 0
    assert (tmp_path / "out.1.xml").read_text(encoding="utf-8") == "<i>1</i>\n"
    assert (tmp_path / "out.2.xml").read_text(encoding="utf-8") == "<i>2</i>\n"


def test_transform_prelude_only_no_solution(tmp_path, capsys):
    source = write(tmp_path, "in.xml", "<a>text only</a>")
    code = main(["transform", "--rules", "prelude-only", "--in", source])
    captured = capsys.readouterr()
    assert code == 1
    assert "no solution" in captured.err


def test_transform_default_text_copy(tmp_path, capsys):
    source = write(tmp_path, "in.xml", "<a>kept</a>")
    code = main(
        [
            "transform",
            "--rules",
            "prelude-only",
            "--in",
            source,
            "--default-text",
            "copy",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "kept\n"


@pytest.mark.parametrize(
    "rule, code, out",
    [("template(text(_), _) :- !, fail.", 1, ""), ("template(text(_), _) :- fail.", 0, "keep\n")],
)
def test_default_text_copy_comes_after_the_programs_own_templates(tmp_path, capsys, rule, code, out):
    # A text template that cuts commits to its clause, so its failure
    # blocks the built-in copy; one that fails without a cut lets it through.
    rules = write(tmp_path, "rules.tx", rule)
    source = write(tmp_path, "in.xml", "<a>keep</a>")
    assert main(["transform", "--rules", rules, "--in", source, "--default-text", "copy"]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert ("no solution" in captured.err) == (code == 1)


def test_transform_pretty_and_no_wrap(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "go(Doc, [Doc, Doc]).")
    source = write(tmp_path, "in.xml", "<a><b/></a>")
    code = main(
        ["transform", "--rules", rules, "--in", source, "--no-wrap"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "<a><b/></a><a><b/></a>\n"


def test_transform_keep_ws(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "go(Doc, [Doc]).")
    source = write(tmp_path, "in.xml", "<a> <b/></a>")
    code = main(["transform", "--rules", rules, "--in", source, "--keep-ws"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "<a> <b/></a>\n"


def test_transform_malformed_input_is_an_input_error(tmp_path, capsys):
    source = write(tmp_path, "in.xml", "<a><b></a>")
    code = main(["transform", "--rules", "prelude-only", "--in", source])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_transform_missing_file_is_an_input_error(tmp_path, capsys):
    code = main(
        ["transform", "--rules", "prelude-only", "--in", str(tmp_path / "nope.xml")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_transform_depth_limit_exhaustion(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "go(D, R) :- go(D, R).")
    source = write(tmp_path, "in.xml", "<a/>")
    code = main(
        ["transform", "--rules", rules, "--in", source, "--depth-limit", "200"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:")


# ---------------------------------------------------------------------------
# query


def test_query_first_solution(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", GCD_RULES)
    code = main(["query", "--rules", rules, "gcd(24, 30, C)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "YES.\nC/6\n"


def test_query_max_solutions(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "p(1).\np(2).\np(3).")
    code = main(["query", "--rules", rules, "--max", "2", "p(X)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "YES.\nX/1\nYES.\nX/2\n"


def test_query_failure_prints_no(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "p(1).")
    code = main(["query", "--rules", rules, "p(2)"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "NO\n"


def test_query_binds_doc_and_hides_it(tmp_path, capsys):
    source = write(tmp_path, "in.xml", '<r><item id="7">x</item></r>')
    code = main(
        [
            "query",
            "--rules",
            "prelude-only",
            "--in",
            source,
            "transform(Doc / item @ id, V)",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "YES.\nV/'7'\n"


def test_query_prelude_goal_without_document(capsys):
    code = main(["query", "--rules", "prelude-only", "nth(2, [a, b, c], X)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "YES.\nX/b\n"


@pytest.mark.parametrize("goal", ["nth(1000000000, [a, b], X)", "nth(a, [a, b], X)"])
def test_nth_past_the_end_or_at_no_number_fails_at_once(goal, capsys):
    # nth/3 counts with an integer as it walks the list.  When it counted
    # the position down as a church numeral first, 1,000,000,000 ran to the
    # step limit (exit 3), and `a` warned from is/2.
    code = main(["query", "--rules", "prelude-only", goal])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "NO\n", "")


@pytest.mark.parametrize("goal", ["nth(-1, [a, b], X)", "church(X, -1)", "church(X, 1.5)"])
def test_church_of_a_negative_or_fractional_number_fails(tmp_path, goal):
    # Counting such a number down never reached 0, and the recursive solver
    # overflowed the C stack (exit 139) before the step limit stopped it;
    # a subprocess keeps such a crash out of the test run.
    done = termxform(tmp_path, "query", goal, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (1, "NO\n", "")


@pytest.mark.parametrize(
    "goal, answers",
    [
        ("last(L, a)", ["L/[a]", "L/[_,a]", "L/[_,_,a]"]),
        (
            "transform(last E, text(a))",
            ["E/element(_,_,[text(a)])", "E/element(_,_,[_,text(a)])", "E/element(_,_,[_,_,text(a)])"],
        ),
    ],
)
def test_last_of_an_open_list_enumerates_longer_lists(tmp_path, goal, answers):
    # last/2 tried its recursive clause first, so on an open list it
    # recursed until the C stack overflowed (exit 139); with the base clause
    # first it gives [a], [_,a], ... as other Prologs do.
    done = termxform(tmp_path, "query", "--max", "3", goal, timeout=120)
    expected = "".join("YES.\n%s\n" % answer for answer in answers)
    assert (done.returncode, re.sub(r"_\d+", "_", done.stdout), done.stderr) == (0, expected, "")


@pytest.mark.parametrize("goal", ["X = f(X)", "X = f(X), Y = 1"])
def test_a_cyclic_answer_is_an_input_error_that_names_its_variable(tmp_path, goal):
    # A cyclic answer has no finite text, so printing one would never end; it
    # is rejected before any of it is printed.  With the occurs check the
    # unification fails instead.
    done = termxform(tmp_path, "query", goal, timeout=20)
    assert (done.returncode, done.stdout) == (2, "")
    assert "binds X to a cyclic term" in done.stderr and "--occurs-check" in done.stderr
    done = termxform(tmp_path, "query", goal, "--occurs-check", timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (1, "NO\n", "")


@pytest.mark.parametrize(
    "command, rules, goal, output",
    [
        ("check", "p :- %s." % ", ".join(["true"] * 20_000), None, ""),
        ("query", "p(%sa%s)." % ("f(" * 20_000, ")" * 20_000), "p(%sX%s)" % ("f(" * 20_000, ")" * 20_000), "YES.\nX/a\n"),
        ("query", None, "X = %sa%s, X = %sY%s" % ("f(" * 20_000, ")" * 20_000, "f(" * 20_000, ")" * 20_000), None),
        ("query", "p :- %s." % ", ".join(["true"] * 20_000), "p", "YES.\n"),
        ("query", "p(%s1)." % ("- " * 20_000), "p(_)", "YES.\n"),
    ],
    ids=["a-body-of-20000-goals", "a-clause-20000-deep", "a-query-20000-deep", "a-body-of-20000-goals-runs",
         "20000-prefix-minus-signs"],
)
def test_a_rule_text_nested_20000_deep_reads(tmp_path, command, rules, goal, output):
    # The reader keeps its open terms on a stack of its own: at 1,000 goals
    # or 600 levels, the recursive reader it replaced ran past the Python
    # stack and answered "term nested too deeply" (exit 2).  A fresh
    # interpreter has the default recursion limit.  A 20,000-goal body and
    # 20,000 prefix `-` signs also run as queries.
    done = termxform(tmp_path, command, *([goal] if goal is not None else []), rules=rules, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    if output is None:  # X is printed whole; Y is the atom a
        assert done.stdout.startswith("YES.\nX/" + "f(" * 20_000 + "a" + ")" * 20_000 + "\n")
        assert done.stdout.endswith("\nY/a\n")
    else:
        assert done.stdout == output


def test_the_books_example_lints_clean(capsys):
    # Its transform is run by tests/test_startup.py.
    books = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "books.tx")
    assert (main(["check", "--rules", books]), capsys.readouterr().out) == (0, "")


def test_write_of_a_cyclic_term_warns_and_fails(tmp_path):
    # write/1 shares the answer printer's check, so it does not render for ever.
    done = termxform(tmp_path, "query", "X = f(X, a), (write(X) ; write(done))", timeout=20)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(
        "warning: write/1 cannot print a cyclic term (goal fails)\ndone"
    ), done.stderr


def test_shared_subterms_of_an_answer_are_not_cycles(capsys):
    code = main(["query", "--rules", "prelude-only", "Y = f(a), X = g(Y, [Y, Y])"])
    assert (code, capsys.readouterr().out) == (0, "YES.\nY/f(a)\nX/g(f(a),[f(a),f(a)])\n")


@pytest.mark.parametrize(
    "goal, out",
    [
        # `-` is a prefix operator (fy 200), and is/2 negates; a sign before
        # a number still reads as a negative number.
        ("Y = 2, X is - Y", "YES.\nY/2\nX/-2\n"),
        ("X = -a", "YES.\nX/-(a)\n"),
        ("X is -(1+2)", "YES.\nX/-3\n"),
        ("X = - 1, Y = a - -1", "YES.\nX/-1\nY/-(a,-1)\n"),
        # A prefix operator atom before `-` is an operand of the infix `-`,
        # since the prefix `-` (200) does not fit its argument (100).
        ("X = name - 1", "YES.\nX/-(name,1)\n"),
        ("X = count-N, N = 2", "YES.\nX/-(count,2)\nN/2\n"),
        ("member(name-V, [name-1])", "YES.\nV/1\n"),
        # `/` (100) binds tighter than the prefix `-` (200), so a negation
        # is `/`'s right operand only in brackets.
        ("Y = 2, X is 6 / (- Y)", "YES.\nY/2\nX/-3.0\n"),
    ],
)
def test_prefix_minus_reads_and_negates(goal, out, capsys):
    code = main(["query", "--rules", "prelude-only", goal])
    assert (code, capsys.readouterr()) == (0, (out, ""))


def test_last_of_a_proper_list_has_one_answer(capsys):
    code = main(["query", "--rules", "prelude-only", "--max", "5", "last([a, b, c], X)"])
    assert (code, capsys.readouterr().out) == (0, "YES.\nX/c\n")


def test_query_depth_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    rules = write(tmp_path, "rules.tx", "loop :- loop.\n" + GCD_RULES)
    monkeypatch.setenv("TERMXFORM_DEPTH", "150")
    code = main(["query", "--rules", rules, "loop"])
    assert code == 3
    capsys.readouterr()
    # An explicit flag must out-rank the environment setting.
    code = main(
        ["query", "--rules", rules, "--depth-limit", "100000", "gcd(24, 30, C)"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "YES.\nC/6\n"


def test_query_open_append_enumeration_hits_the_step_limit(capsys):
    code = main(
        ["query", "--rules", "prelude-only", "--depth-limit", "300",
         "findall(X, append(X, [a], Y), L)"]
    )
    assert code == 3
    assert "step limit of 300" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max", "0"], "argument --max: must be at least 1, got 0"),
        (["--max", "-3"], "argument --max: must be at least 1, got -3"),
        (["--depth-limit", "0"], "argument --depth-limit: must be at least 1, got 0"),
        (["--depth-limit", "-1"], "argument --depth-limit: must be at least 1, got -1"),
        (["--depth-limit", "many"], "argument --depth-limit: expected an integer, got 'many'"),
    ],
)
def test_query_counts_below_one_are_input_errors(flags, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["query", "--rules", "prelude-only", *flags, "member(X, [a, b])"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def test_transform_depth_limit_below_one_is_an_input_error(tmp_path, capsys):
    source = write(tmp_path, "in.xml", "<a/>")
    with pytest.raises(SystemExit) as excinfo:
        main(["transform", "--rules", "prelude-only", "--in", source, "--depth-limit", "-1"])
    assert excinfo.value.code == 2
    assert "argument --depth-limit: must be at least 1, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, message",
    [("0", "must be at least 1, got 0"), ("-5", "must be at least 1, got -5"), ("lots", "expected an integer, got 'lots'")],
)
def test_a_depth_environment_value_below_one_is_an_input_error(value, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TERMXFORM_DEPTH", value)
    assert main(["query", "--rules", "prelude-only", "member(X, [a])"]) == 2
    assert capsys.readouterr().err == "error: TERMXFORM_DEPTH: %s\n" % message
    source = write(tmp_path, "in.xml", "<a/>")
    assert main(["transform", "--rules", "prelude-only", "--in", source]) == 2
    assert capsys.readouterr().err == "error: TERMXFORM_DEPTH: %s\n" % message
    # The flag still wins over the environment.
    assert main(["query", "--rules", "prelude-only", "--depth-limit", "10", "member(X, [a])"]) == 0
    assert capsys.readouterr().out == "YES.\nX/a\n"


def test_query_bad_goal_is_an_input_error(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "p(1).")
    code = main(["query", "--rules", rules, "p("])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_ok(tmp_path, capsys):
    source = write(
        tmp_path,
        "in.xml",
        '<library><book id="1">A &amp; B<!--note--></book><empty/></library>',
    )
    code = main(["roundtrip", "--in", source])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "roundtrip OK\n"


def test_roundtrip_malformed_input(tmp_path, capsys):
    source = write(tmp_path, "in.xml", "<a><b></a>")
    code = main(["roundtrip", "--in", source])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_a_repeated_attribute_name_is_an_input_error_both_ways(tmp_path, capsys):
    source = write(tmp_path, "in.xml", '<a x="1" x="2"/>')
    assert main(["roundtrip", "--in", source]) == 2
    assert capsys.readouterr().err == "error: repeated attribute 'x' (line 1, column 10)\n"
    rules = write(tmp_path, "rules.tx", "go(_, element(a, ['x=\"1\"', 'x=\"2\"'], [])).")
    source = write(tmp_path, "in.xml", "<a/>")
    assert main(["transform", "--rules", rules, "--in", source]) == 2
    assert capsys.readouterr().err == "error: Error in attributes list: repeated attribute x (at path [])\n"


def test_divergence_path_points_at_first_difference():
    first = parse_document("<a><b>x</b><c/></a>")
    second = parse_document("<a><b>x</b><d/></a>")
    assert _divergence_path(first, second) == [1]
    nested_a = parse_document("<a><b><c>x</c></b></a>")
    nested_b = parse_document("<a><b><c>y</c></b></a>")
    assert _divergence_path(nested_a, nested_b) == [0, 0, 0]
    shorter = parse_document("<a><b/></a>")
    longer = parse_document("<a><b/><c/></a>")
    assert _divergence_path(shorter, longer) == [1]


# ---------------------------------------------------------------------------
# metrics


def test_metrics_from_counts(capsys):
    code = main(["metrics", "--counts", "14,20,62,36"])
    captured = capsys.readouterr()
    assert code == 0
    assert "theoretical length (N_T)  = 139.7415" in captured.out
    assert "length deviation   (D%)   = 29.8705" in captured.out


def test_metrics_from_source_csv(tmp_path, capsys):
    src = write(tmp_path, "gcd.tx", GCD_RULES)
    code = main(["metrics", "--src", src, "--csv", "--label", "euclid"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "label,LOC,Bytes,eta1,eta2,N1,N2,N1/N2,N_T,Delta_N,lambda,B"
    assert lines[1].startswith("euclid,3,")


def test_metrics_default_label_is_file_name(tmp_path, capsys):
    src = write(tmp_path, "sample.tx", "a(b).")
    code = main(["metrics", "--src", src, "--csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1].startswith("sample.tx,")


def test_metrics_with_config(tmp_path, capsys):
    src = write(tmp_path, "sample.tx", "p(f(a)).")
    config = write(tmp_path, "conv.cfg", "functor_as=operand\n")
    code = main(["metrics", "--src", src, "--config", config])
    captured = capsys.readouterr()
    assert code == 0
    assert "distinct operands  (eta2) = 3" in captured.out


def test_metrics_degenerate_counts(capsys):
    code = main(["metrics", "--counts", "0,0,0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_metrics_malformed_counts(capsys):
    code = main(["metrics", "--counts", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "four comma-separated" in captured.err


# ---------------------------------------------------------------------------
# check


def test_check_reports_unknown_predicates(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "p(X) :- mystery(X), q(X).\nq(1).")
    code = main(["check", "--rules", rules])
    captured = capsys.readouterr()
    assert code == 0
    assert "unknown predicate mystery/1 referenced in p/1" in captured.out
    assert "q/1" not in captured.out.replace("p/1", "")


def test_check_reports_never_matching_template_heads(tmp_path, capsys):
    rules = write(
        tmp_path,
        "rules.tx",
        "template(banana, [text(x)]).\ntemplate(element(a, _, _), [text(y)]).",
    )
    code = main(["check", "--rules", rules])
    captured = capsys.readouterr()
    assert code == 0
    assert "template head banana can never match" in captured.out
    assert "element" not in captured.out


def test_check_clean_file_is_silent(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "p(X) :- member(X, [a, b]).")
    code = main(["check", "--rules", rules])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""


def test_check_knows_the_native_traverse_and_check_serializable(tmp_path, capsys):
    rules = write(
        tmp_path,
        "rules.tx",
        "go(Doc, R) :- traverse(Doc, R), checkSerializable(element(result, [], R)).",
    )
    code = main(["check", "--rules", rules])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""


@pytest.mark.parametrize(
    "body, unknown",
    [
        ("not(a, b)", "not/2"),
        ("findall(X, X)", "findall/2"),
        ("call", "call/0"),
        ("true(1)", "true/1"),
        ("call((ghost, true))", "ghost/0"),
        ("call(call, ghost(X))", "ghost/1"),
    ],
)
def test_check_warns_for_built_in_names_at_other_arities(tmp_path, capsys, body, unknown):
    rules = write(tmp_path, "rules.tx", "p(X) :- %s." % body)
    code = main(["check", "--rules", rules])
    assert code == 0
    assert capsys.readouterr().out == "warning: unknown predicate %s referenced in p/1\n" % unknown
    # The solver agrees: it finds no construct, native or clause for the goal.
    assert main(["query", "--rules", rules, "p(x)"]) == 1
    assert "unknown predicate %s (goal fails)" % unknown in capsys.readouterr().err


def test_check_is_silent_on_control_goals_and_their_natives(tmp_path, capsys):
    rules = write(
        tmp_path,
        "rules.tx",
        "p(X) :- not(X = a), findall(Y, member(Y, [a]), _), call(member, X, [a]).\n"
        "q :- true, (fail ; false ; !).",
    )
    code = main(["check", "--rules", rules])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_check_warns_once_per_message(tmp_path, capsys):
    rules = write(tmp_path, "rules.tx", "p :- ghost.\nq :- ghost.\nr :- ghost.")
    code = main(["check", "--rules", rules])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.out.splitlines() if "ghost" in l]
    assert len(lines) == 3  # one per referencing predicate, not per clause
    assert len(set(lines)) == 3


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
