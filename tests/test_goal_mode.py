"""Goal mode commits to ``go/2``'s first answer instead of copying it.

``transform_file`` serializes the first solution's own terms, as template
traversal does, and only ``all_solutions`` copies each answer before the next
solution undoes it.  The oracle here is the copy-then-serialize path that
goal mode ran before: every answer is copied with ``copy_term`` and the copy
is serialized.  Both must give the same report and the same bytes on disk,
over the corpus and over random trees, for ``go/2`` programs whose answers
hold the input, bound variables, fresh variables bound later, and copies
made by ``findall/3``.  An answer that holds an unbound variable is rejected
either way; the message names the solver's own variable rather than a copy,
so it may differ in that variable's number only.
"""

import glob
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings

from termxform import template_engine
from termxform.logic_engine import Solver, SolverOptions
from termxform.template_engine import TransformOptions, _serialize_results, rule_program, transform_file
from termxform.term_core import Compound, copy_term, fresh_var, list_items
from termxform.xml_io import ValidationError, parse_document, serialize_document
from xmlgen import elements

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "corpus", "*.xml")))

PROGRAMS = [
    # the answer is the input document, in a list and on its own
    "go(Doc, [Doc]).",
    "go(Doc, Doc).",
    "go(Doc, [Doc, Doc]).",
    # head variables bound by the body
    "go(element(N, A, C), [element(N, A, R)]) :- reverse(C, R).",
    # fresh variables, bound later in the body
    "go(Doc, [element(out, [], L)]) :- L = [X | T], X = element(copy, [], [Doc]), T = [text(done)].",
    # one answer per child: all_solutions writes several documents
    "go(element(_, _, C), [element(hit, [], [X])]) :- member(X, C).",
    # findall/3's answers are copies already
    "go(element(_, _, C), [element(all, [], L)]) :- findall(X, (member(X, C), X = element(_, _, _)), L).",
    # an unbound variable in the answer: a ValidationError
    "go(Doc, [element(a, [], [X]), Doc]).",
    "go(_, [element(a, [], Children)]).",
]

OPTIONS = [
    TransformOptions(),
    TransformOptions(all_solutions=True),
    TransformOptions(no_wrap=True),
    TransformOptions(pretty=True, keep_ws=True),
]


def copied_documents(text, rules, options):
    """Goal mode as it was: each answer copied, and the copies serialized."""
    _, program = rule_program(rules)
    doc = parse_document(text, keep_ws=options.keep_ws)
    solver = Solver(program, SolverOptions(occurs_check=options.occurs_check, depth_limit=options.depth_limit))
    result = fresh_var("Result")
    solutions = []
    for _ in solver.solve(Compound("go", (doc, result))):
        solutions.append(copy_term(result))
        if not options.all_solutions:
            break
    documents = []
    for solution in solutions:
        items = list_items(solution)
        documents.append(_serialize_results(items if items is not None else [solution], options))
    return documents


def without_variable_numbers(message):
    return re.sub(r"(_[A-Za-z]*)\d+", r"\1N", message)


def outcome(run):
    try:
        return "ok", run()
    except ValidationError as error:
        return "rejected", without_variable_numbers(str(error))


def assert_same_as_copied(tmp_path, text, rules):
    source, rules_path = tmp_path / "in.xml", tmp_path / "rules.tx"
    source.write_text(text, encoding="utf-8")
    rules_path.write_text(rules, encoding="utf-8")
    for options in OPTIONS:
        expected = outcome(lambda: copied_documents(text, rules, options))
        got = outcome(lambda: transform_file(str(source), str(rules_path), options=options).documents)
        assert got == expected, (rules, options.all_solutions)
        if expected[0] == "ok" and expected[1]:
            out = tmp_path / "out.xml"
            report = transform_file(str(source), str(rules_path), str(out), options)
            written = [open(path, encoding="utf-8").read() for path in report.outputs]
            assert written == [doc if doc.endswith("\n") else doc + "\n" for doc in expected[1]]


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_corpus_documents_give_what_copied_answers_gave(path, tmp_path):
    with open(path, encoding="utf-8") as source:
        text = source.read()
    for rules in PROGRAMS:
        assert_same_as_copied(tmp_path, text, rules)


@settings(max_examples=20, deadline=None)
@given(elements(max_depth=2))
def test_random_documents_give_what_copied_answers_gave(tree):
    text = serialize_document(tree)
    with tempfile.TemporaryDirectory() as directory:
        for rules in PROGRAMS:
            assert_same_as_copied(pathlib.Path(directory), text, rules)


def counting_copy_term(monkeypatch):
    calls = []

    def counted(t, mapping=None):
        calls.append(t)
        return copy_term(t, mapping)

    monkeypatch.setattr(template_engine, "copy_term", counted)
    return calls


def test_default_goal_mode_copies_no_answer(tmp_path, monkeypatch):
    calls = counting_copy_term(monkeypatch)
    source = tmp_path / "in.xml"
    source.write_text("<r><a/><b>x</b></r>", encoding="utf-8")
    for rules in PROGRAMS[:6]:
        rules_path = tmp_path / "rules.tx"
        rules_path.write_text(rules, encoding="utf-8")
        report = transform_file(str(source), str(rules_path))
        assert report.status == "ok"
    assert calls == []


def test_all_solutions_copies_each_answer_once(tmp_path, monkeypatch):
    calls = counting_copy_term(monkeypatch)
    source, rules = tmp_path / "in.xml", tmp_path / "rules.tx"
    source.write_text("<r><a/><b>x</b><c/></r>", encoding="utf-8")
    rules.write_text(PROGRAMS[5], encoding="utf-8")
    report = transform_file(str(source), str(rules), options=TransformOptions(all_solutions=True))
    assert report.documents == ["<hit><a/></hit>", "<hit><b>x</b></hit>", "<hit><c/></hit>"]
    assert len(calls) == 3


def test_an_unbound_answer_variable_is_named_by_the_solver_not_by_a_copy(tmp_path):
    # The one difference from copied answers: the committed answer's own
    # variable is named, where the copy named a fresh one.
    source, rules = tmp_path / "in.xml", tmp_path / "rules.tx"
    source.write_text("<r/>", encoding="utf-8")
    rules.write_text("go(Doc, [element(a, [], [X])]).", encoding="utf-8")
    with pytest.raises(ValidationError) as committed:
        transform_file(str(source), str(rules))
    with pytest.raises(ValidationError) as copied:
        copied_documents("<r/>", "go(Doc, [element(a, [], [X])]).", TransformOptions())
    pattern = r"Error: _X(\d+) was not expected here! \(at path \[0\]\)"
    committed_id = int(re.fullmatch(pattern, str(committed.value)).group(1))
    copied_id = int(re.fullmatch(pattern, str(copied.value)).group(1))
    assert committed_id != copied_id
    with pytest.raises(ValidationError) as listed:
        transform_file(str(source), str(rules), options=TransformOptions(all_solutions=True))
    assert re.fullmatch(pattern, str(listed.value))
