"""``transform_file`` pauses the cyclic garbage collector and leaves it as found.

Terms are trees, so reference counting frees them and a collection inside a
transformation only rescans live terms.  ``transform_file`` turns the
collector off for the call and back on afterwards if it was on before.
These tests pin that the collector's state is the same after every exit
path, that a large document starts no collection while it is transformed,
that a transformation leaves no cyclic garbage for a later collection, and
that the compiled clauses of a program ``rule_program`` drops are freed by
reference counting.
"""

import gc
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from fresh_interpreter import run_script
from termxform import rule_language, xml_io
from termxform.logic_engine import ResourceLimitError, Solver
from termxform.rule_language import parse_query
from termxform.template_engine import TemplateError, TransformOptions, rule_program, transform_file
from termxform.xml_io import serialize_document

from xmlgen import plain_trees

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import template_rows  # noqa: E402


def collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


# (rules, document, options, the exception expected or None)
EXITS = {
    "template mode": ("template(element(b,_,C), [element(c,[],C)]).", "<a><b>x</b></a>", None, None),
    "goal mode": ("go(D, [D]).", "<a><b/></a>", None, None),
    "malformed XML": ("go(D, [D]).", "<a><b></a>", None, xml_io.ParseError),
    "malformed rules": ("go(D, [D]) :- .", "<a/>", None, rule_language.ParseError),
    "depth limit": ("go(D, R) :- go(D, R).", "<a/>", TransformOptions(depth_limit=200), ResourceLimitError),
    "template result not a list": ("template(element(b,_,_), oops).", "<a><b/></a>", None, TemplateError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("case", list(EXITS))
def test_the_collector_is_left_as_found_on_every_exit_path(case, enabled, tmp_path):
    rules_text, xml_text, options, error = EXITS[case]
    rules, source = tmp_path / "rules.tx", tmp_path / "in.xml"
    rules.write_text(rules_text, encoding="utf-8")
    source.write_text(xml_text, encoding="utf-8")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = collector_state()
        if error is None:
            assert transform_file(str(source), str(rules), options=options).status == "ok"
        else:
            with pytest.raises(error):
                transform_file(str(source), str(rules), options=options)
        assert collector_state() == before  # a collector that was off stays off
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_large_document_starts_no_collection_while_it_is_transformed(tmp_path):
    workload = template_rows(17, 1, 2000, 2000)
    rules, source = tmp_path / "rules.tx", tmp_path / "in.xml"
    rules.write_text(workload.rules, encoding="utf-8")
    source.write_text(workload.docs[0].text, encoding="utf-8")
    inside = []

    def hook(phase, info):
        # A collection that starts with transform_file on the stack ran
        # during the call; one right after it (the collector back on and
        # seeing the objects the call allocated) does not count.
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not transform_file.__code__:
                frame = frame.f_back
            inside.append(frame is not None)

    assert gc.isenabled()
    gc.callbacks.append(hook)
    try:
        report = transform_file(str(source), str(rules))
    finally:
        gc.callbacks.remove(hook)
    assert report.documents == [workload.docs[0].expected]
    assert not any(inside), "%d of %d collections started during the call" % (sum(inside), len(inside))


# Rules that reach findall/3, not/1, ^, @ and an is/2 that warns, in template
# and in goal mode, over xmlgen's plain trees (elements a-e, attributes k, m
# and n, texts t1, t2 and 9).
TEMPLATE_RULES = """\
template(element(b,_,C), [element(n,[],[text(T)])]) :-
  findall(X, member(X, C), L), length(L, N), not(N = 99), T is cat(n, N).
template(element(c,A,C), [element(c,[],[text(V)])]) :- attval(element(c,A,C), V).
template(element(d,A,C), [element(d,A,Found)]) :-
  findall(X, transform(element(d,A,C) ^ e, X), Found).
template(text(T), [text(T)]) :- not(X is T + 1).
template(text(T), [text(T)]).
attval(E, V) :- transform(E @ k, V), !.
attval(_, none).
"""

GOAL_RULES = """\
go(D, [element(out,[],[text(T)])]) :-
  findall(V, (transform(D ^ b, E), not(transform(E @ k, '0')), attval(E, V)), Vs),
  length(Vs, N),
  warned(W),
  T is cat(N, W).
attval(E, V) :- transform(E @ k, V), !.
attval(_, none).
warned(x) :- X is foo + 1.
warned(y).
"""


@settings(max_examples=40, deadline=None)
@given(tree=plain_trees())
def test_a_transformation_leaves_no_cyclic_garbage(tree):
    with tempfile.TemporaryDirectory() as directory:
        source = Path(directory, "in.xml")
        source.write_text(serialize_document(tree), encoding="utf-8")
        rule_files = []
        for name, text in (("template.tx", TEMPLATE_RULES), ("goal.tx", GOAL_RULES)):
            rule_files.append(Path(directory, name))
            rule_files[-1].write_text(text, encoding="utf-8")
        # A program that rule_program's cache evicts leaves a few reference
        # cycles in its compiled clauses; an empty cache keeps those out of
        # the count, while both programs are still parsed and compiled here.
        rule_program.cache_clear()
        gc.collect()
        template = transform_file(str(source), str(rule_files[0]))
        goal = transform_file(str(source), str(rule_files[1]))
        assert gc.collect() == 0
    assert template.status in ("ok", "no_solution")
    assert goal.status == "ok"


def test_the_clause_code_of_dropped_programs_is_freed_by_reference_counting():
    # Each clause's generated functions have its namespace as their globals;
    # a namespace that held them back would make a cycle per clause.
    gc.collect()
    for n in range(20):  # rule_program's cache holds 8, so 12 programs are dropped here
        user, program = rule_program("p(X, Y) :- q(X, Z), Y is Z + %d.\nq(a, %d)." % (n, n))
        assert Solver(program).solve_once(parse_query("p(a, %d)" % (2 * n)).goal)
    del user, program
    rule_program.cache_clear()  # and the other 8
    assert gc.collect() == 0


def test_the_size_sweep_transforms_90_and_9000_rows_to_the_oracle():
    """The sweep transforms one template-rows document of 90 and one of
    9,000 rows, each in a child of its own, and exits 1 when an output
    differs from the workload's oracle or a child fails.  No wall time is
    checked, as host speed varies; the gc.callbacks test above is the
    deterministic guard."""
    done = run_script("size_sweep.py", "--rows", "90", "9000", timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
