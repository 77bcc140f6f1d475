"""Tests for template traversal and whole-file transformation."""

import re

import pytest

from fresh_interpreter import run_script
from termxform.logic_engine import ResourceLimitError, Solver
from termxform.rule_language import parse_program
from termxform.template_engine import (
    TemplateError,
    TransformOptions,
    transform_file,
    traverse,
)
from termxform.term_core import (
    Atom,
    Compound,
    fresh_var,
    mk_comment,
    mk_element,
    mk_list,
    mk_pi,
    mk_text,
    render_term,
)
from termxform.transform_prelude import load_prelude
from termxform.xml_io import parse_document


def program_with(rules_text):
    return load_prelude(parse_program(rules_text))


def rendered(nodes):
    return [render_term(n) for n in nodes]


def test_template_replaces_matched_element():
    program = program_with("template(element(b, _, C), [element(strong, [], C)]).")
    doc = parse_document("<a><b>hi</b><c/></a>")
    assert rendered(traverse(doc, program)) == ["element(strong,[],[text(hi)])"]


def test_first_matching_template_commits():
    program = program_with(
        """
        template(element(b, _, _), [text(first)]).
        template(element(b, _, _), [text(second)]).
        """
    )
    doc = parse_document("<a><b/></a>")
    assert rendered(traverse(doc, program)) == ["text(first)"]


def test_template_with_failing_body_is_skipped():
    program = program_with(
        """
        template(element(b, _, _), [text(no)]) :- fail.
        template(element(b, _, _), [text(yes)]).
        """
    )
    doc = parse_document("<a><b/></a>")
    assert rendered(traverse(doc, program)) == ["text(yes)"]


def test_cut_in_template_body_commits_to_its_clause():
    rules = """
        template(element(b, _, _), [text(no)]) :- !, fail.
        template(element(b, _, _), [text(yes)]).
        template(element(c, _, _), [text(c)]).
        """
    program = program_with(rules)
    doc = parse_document("<a><b><c/></b></a>")
    # b has no template match (the cut commits to the failing clause), so
    # traversal recurses into its children, in Python and through traverse/2.
    assert rendered(traverse(doc, program)) == ["text(c)"]
    out = fresh_var("R")
    solutions = [render_term(out) for _ in Solver(program).solve(Compound("traverse", (doc, out)))]
    assert solutions == ["[text(c)]"]


def test_template_result_variables_stay_shared():
    program = program_with("template(element(b, _, _), [element(x, [], [X]), element(y, [], [X])]).")
    first, second = traverse(parse_document("<a><b/></a>"), program)
    assert first.args[2].args[0] is second.args[2].args[0]


def test_template_body_can_use_navigation():
    program = program_with(
        "template(element(item, A, C), [text(V)]) :-"
        " transform(element(item, A, C) @ v, V)."
    )
    doc = parse_document('<r><item v="one"/><item v="two"/></r>')
    assert rendered(traverse(doc, program)) == ["text(one)", "text(two)"]


def test_unmatched_element_recurses_and_concatenates():
    program = program_with("template(element(x, _, _), [text(hit)]).")
    doc = parse_document("<a><p><x/></p><q><x/><x/></q></a>")
    assert rendered(traverse(doc, program)) == ["text(hit)"] * 3


def test_comments_and_pis_contribute_nothing():
    program = program_with("template(element(x, _, _), [text(hit)]).")
    doc = parse_document("<a><!--c--><?p?><x/></a>")
    assert rendered(traverse(doc, program)) == ["text(hit)"]


def test_unmatched_text_dropped_by_default_copied_on_request():
    program = program_with("template(element(x, _, _), [text(hit)]).")
    doc = parse_document("<a>keep<x/></a>")
    assert rendered(traverse(doc, program)) == ["text(hit)"]
    copied = traverse(doc, program, unmatched_text="copy")
    assert rendered(copied) == ["text(keep)", "text(hit)"]


def test_copy_extends_a_copy_of_the_program():
    program = program_with("template(element(x, _, _), [text(hit)]).")
    clauses = list(program.get("template", 2))
    doc = parse_document("<a>keep</a>")
    assert rendered(traverse(doc, program, unmatched_text="copy")) == ["text(keep)"]
    assert program.get("template", 2) == clauses
    assert traverse(doc, program) == []


@pytest.mark.parametrize("policy", ["Copy", "keep", ""])
def test_an_unknown_text_policy_is_rejected(policy, tmp_path):
    with pytest.raises(ValueError, match=re.escape(repr(policy))):
        TransformOptions(unmatched_text=policy)
    program = program_with("template(element(x, _, _), [text(hit)]).")
    with pytest.raises(ValueError, match=re.escape(repr(policy))):
        traverse(parse_document("<a>keep</a>"), program, unmatched_text=policy)
    options = TransformOptions()
    options.unmatched_text = policy
    with pytest.raises(ValueError, match=re.escape(repr(policy))):
        transform_file(write(tmp_path, "in.xml", "<a>keep</a>"), None, options=options)


def test_template_matching_text_nodes():
    program = program_with("template(text(T), [text(U)]) :- U is cat(T, '!').")
    doc = parse_document("<a>hi</a>")
    assert rendered(traverse(doc, program)) == ["text('hi!')"]


def test_template_result_must_be_a_list():
    program = program_with("template(element(b, _, _), oops).")
    doc = parse_document("<a><b/></a>")
    with pytest.raises(TemplateError, match="not a result list"):
        traverse(doc, program)


def test_template_may_produce_empty_list():
    program = program_with("template(element(b, _, _), []).")
    doc = parse_document("<a><b/>text</a>")
    assert traverse(doc, program) == []


def test_traverse_elements_skips_non_nodes():
    program = program_with("template(element(x, _, _), [text(hit)]).")
    nodes = [
        Atom("stray"),
        7,
        mk_element("x"),
        mk_text("plain"),
        mk_comment("c"),
        mk_pi("p"),
        mk_list([mk_element("x")]),
    ]
    assert rendered(traverse(mk_element("a", [], nodes), program)) == ["text(hit)"]


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def test_transform_file_template_mode(tmp_path):
    rules = write(
        tmp_path, "rules.tx", "template(element(b, _, C), [element(strong, [], C)])."
    )
    source = write(tmp_path, "in.xml", "<a><b>hi</b></a>")
    out = tmp_path / "out.xml"
    report = transform_file(source, rules, str(out))
    assert report.status == "ok"
    assert report.solutions == 1
    assert report.documents == ["<strong>hi</strong>"]
    assert out.read_text(encoding="utf-8") == "<strong>hi</strong>\n"
    assert set(report.timings) == {"parse", "rules", "solve", "serialize"}


def test_transform_file_wraps_multiple_results(tmp_path):
    rules = write(tmp_path, "rules.tx", "template(element(b, _, C), C).")
    source = write(tmp_path, "in.xml", "<a><b>one</b><b>two</b></a>")
    report = transform_file(source, rules)
    assert report.documents == ["<result>onetwo</result>"]


def test_transform_file_singleton_text_emitted_bare(tmp_path):
    rules = write(tmp_path, "rules.tx", "template(element(b, _, C), C).")
    source = write(tmp_path, "in.xml", "<a><b>solo</b></a>")
    report = transform_file(source, rules)
    assert report.documents == ["solo"]


def test_transform_file_no_wrap_emits_fragment_stream(tmp_path):
    rules = write(tmp_path, "rules.tx", "template(element(b, _, C), C).")
    source = write(tmp_path, "in.xml", "<a><b>one</b><b>two</b></a>")
    report = transform_file(source, rules, options=TransformOptions(no_wrap=True))
    assert report.documents == ["onetwo"]


def test_transform_file_goal_mode(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(Doc, [Res]) :- transform(Doc / item, Res).")
    source = write(tmp_path, "in.xml", "<r><item>1</item><item>2</item></r>")
    report = transform_file(source, rules)
    assert report.solutions == 1
    assert report.documents == ["<item>1</item>"]


def test_transform_file_all_solutions_numbered_outputs(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(Doc, [Res]) :- transform(Doc / item, Res).")
    source = write(tmp_path, "in.xml", "<r><item>1</item><item>2</item></r>")
    out = tmp_path / "out.xml"
    report = transform_file(
        source, rules, str(out), TransformOptions(all_solutions=True)
    )
    assert report.solutions == 2
    assert report.outputs == [str(tmp_path / "out.1.xml"), str(tmp_path / "out.2.xml")]
    assert (tmp_path / "out.1.xml").read_text(encoding="utf-8") == "<item>1</item>\n"
    assert (tmp_path / "out.2.xml").read_text(encoding="utf-8") == "<item>2</item>\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, numbered",
    [
        ("out.xml", ["out.1.xml", "out.2.xml"]),
        ("out", ["out.1", "out.2"]),
        ("d.x/out", ["d.x/out.1", "d.x/out.2"]),
        ("d.x/a.tar.gz", ["d.x/a.tar.1.gz", "d.x/a.tar.2.gz"]),
        (".hidden", [".hidden.1", ".hidden.2"]),
        ("out.", ["out..1", "out..2"]),
    ],
)
def test_all_solutions_number_each_output_before_its_suffix(tmp_path, name, numbered):
    # The suffix is pathlib's: from the last dot of the file name, unless
    # that dot is its first or last character.
    rules = write(tmp_path, "rules.tx", "go(Doc, [Res]) :- transform(Doc / item, Res).")
    source = write(tmp_path, "in.xml", "<r><item>1</item><item>2</item></r>")
    (tmp_path / "d.x").mkdir()
    out = tmp_path / name
    stem, suffix = (out.stem, out.suffix)
    assert [out.with_name("%s.%d%s" % (stem, n, suffix)) for n in (1, 2)] == [tmp_path / p for p in numbered]
    report = transform_file(source, rules, str(out), TransformOptions(all_solutions=True))
    assert report.outputs == [str(tmp_path / p) for p in numbered]
    assert [(tmp_path / p).read_text(encoding="utf-8") for p in numbered] == ["<item>1</item>\n", "<item>2</item>\n"]
    assert not out.exists()


def test_transform_file_goal_failure_writes_nothing(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(_, _) :- fail.")
    source = write(tmp_path, "in.xml", "<a/>")
    out = tmp_path / "out.xml"
    report = transform_file(source, rules, str(out))
    assert report.status == "no_solution"
    assert report.solutions == 0
    assert report.outputs == []
    assert not out.exists()


def test_transform_file_empty_traversal_is_no_solution(tmp_path):
    source = write(tmp_path, "in.xml", "<a>only text</a>")
    report = transform_file(source, None)
    assert report.status == "no_solution"


def test_transform_file_keep_ws(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(Doc, [Doc]).")
    source = write(tmp_path, "in.xml", "<a> <b/></a>")
    plain = transform_file(source, rules)
    kept = transform_file(source, rules, options=TransformOptions(keep_ws=True))
    assert plain.documents == ["<a><b/></a>"]
    assert kept.documents == ["<a> <b/></a>"]


def test_transform_file_pretty(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(Doc, [Doc]).")
    source = write(tmp_path, "in.xml", "<a><b><c/></b></a>")
    report = transform_file(source, rules, options=TransformOptions(pretty=True))
    assert report.documents == ["<a>\n  <b>\n    <c/>\n  </b>\n</a>\n"]


def test_transform_file_depth_limit(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(D, R) :- go(D, R).")
    source = write(tmp_path, "in.xml", "<a/>")
    with pytest.raises(ResourceLimitError):
        transform_file(source, rules, options=TransformOptions(depth_limit=200))


def test_transform_file_go_result_need_not_be_a_list(tmp_path):
    rules = write(tmp_path, "rules.tx", "go(Doc, Doc).")
    source = write(tmp_path, "in.xml", "<a><b/></a>")
    report = transform_file(source, rules)
    assert report.documents == ["<a><b/></a>"]


def test_copy_applies_to_traverse_in_a_template_and_in_go(tmp_path):
    # XSLT's built-in text rule applies at every level of the walk.
    copy = TransformOptions(unmatched_text="copy")
    rules = write(tmp_path, "rules.tx", "template(element(a,_,[C]), [element(b,[],R)]) :- traverse(C, R).")
    source = write(tmp_path, "in.xml", "<a><a>x</a></a>")
    assert transform_file(source, rules).documents == ["<b><b/></b>"]
    assert transform_file(source, rules, options=copy).documents == ["<b><b>x</b></b>"]
    rules = write(tmp_path, "go.tx", "go(element(a,_,[C]), [element(c,[],R)]) :- traverse(C, R).")
    source = write(tmp_path, "in.xml", "<a><x>y</x></a>")
    assert transform_file(source, rules).documents == ["<c/>"]
    assert transform_file(source, rules, options=copy).documents == ["<c>y</c>"]


def test_template_mode_makes_one_solve_per_document(tmp_path, monkeypatch):
    goals = []
    solve = Solver.solve

    def counted(solver, goal):
        goals.append(goal)
        return solve(solver, goal)

    rules = write(tmp_path, "rules.tx", "template(element(b, _, C), C).")
    source = write(tmp_path, "in.xml", "<a><b>one</b><c><b>two</b><d/></c>three</a>")
    monkeypatch.setattr(Solver, "solve", counted)
    for options in (TransformOptions(), TransformOptions(all_solutions=True), TransformOptions(unmatched_text="copy")):
        goals.clear()
        assert transform_file(source, rules, options=options).status == "ok"
        assert [(goal.name, len(goal.args)) for goal in goals] == [("traverse", 2)]
    goals.clear()
    program = program_with("template(element(b, _, C), C).")
    assert rendered(traverse(parse_document("<a><b>one</b></a>"), program)) == ["text(one)"]
    assert [(goal.name, len(goal.args)) for goal in goals] == [("traverse", 2)]


def test_template_mode_all_numbers_its_one_output_and_go_may_give_none(tmp_path):
    rules = write(tmp_path, "rules.tx", "template(element(b, _, C), C).")
    source = write(tmp_path, "in.xml", "<a><b>one</b><b>two</b></a>")
    out = tmp_path / "out.xml"
    report = transform_file(source, rules, str(out), TransformOptions(all_solutions=True))
    assert report.outputs == [str(tmp_path / "out.1.xml")]
    assert (tmp_path / "out.1.xml").read_text(encoding="utf-8") == "<result>onetwo</result>\n"
    # An empty walk is no solution, but go/2 may answer the empty list.
    rules = write(tmp_path, "go.tx", "go(_, []).")
    assert transform_file(source, rules).documents == ["<result/>"]


def test_the_demo_script_runs():
    done = run_script("demo_transform.py")
    assert done.returncode == 0, done.stdout + done.stderr
