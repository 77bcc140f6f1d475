"""Compiled clauses and the first-argument index.

The solver tries only the clauses in the call's first-argument bucket and
matches each against its goal without copying the clause.  The first part
pins how ``Program`` keeps the index and how heads are matched; the second
runs the same goals three ways, with the index, with the full clause list
in its place, and with the full list and every clause copied on each call
(as before the index and compiled clauses existed), and compares rendered
solutions in order, diagnostics and step counts.
"""

import io
import random

import pytest
from hypothesis import given, settings

from termxform.logic_engine import TERM, Clause, Program, ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    TRUE,
    Atom,
    Compound,
    copy_term,
    deref,
    fresh_var,
    list_items,
    render_term,
    split_attr,
    term_variables,
)
from termxform.transform_prelude import load_prelude
from xmlgen import elements, elements_of


def answers(program, goal_text, var="X"):
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    query = parse_query(goal_text, program.operators)
    return [render_term(query.variables[var]) for _ in solver.solve(query.goal)]


# ---------------------------------------------------------------------------
# Index maintenance


def test_a_clause_added_after_a_solve_is_found_by_the_next_solve():
    program = parse_program("p(a, 1).")
    assert answers(program, "p(b, X)") == []
    program.add(Compound("p", (Atom("b"), 2)))
    program.add(Compound("p", (Atom("a"), 3)))
    assert answers(program, "p(b, X)") == ["2"]
    assert answers(program, "p(a, X)") == ["1", "3"]


def test_extend_appends_after_the_existing_clauses_in_every_bucket():
    program = parse_program("p(a, 1). p(f(x), 2). p(V, 3).")
    program.extend(parse_program("p(f(y), 4). p(a, 5). p(V, 6). p(b, 7)."))
    assert answers(program, "p(a, X)") == ["1", "3", "5", "6"]
    assert answers(program, "p(f(Y), X)") == ["2", "3", "4", "6"]
    assert answers(program, "p(b, X)") == ["3", "6", "7"]
    assert answers(program, "p(c, X)") == ["3", "6"]


def test_copy_gives_an_independent_index():
    original = parse_program("p(a, 1). p(V, 2).")
    dup = original.copy()
    dup.add(Compound("p", (Atom("a"), 3)))
    dup.add(Compound("p", (fresh_var("V"), 4)))
    original.add(Compound("p", (Atom("b"), 5)))
    assert answers(original, "p(a, X)") == ["1", "2"]
    assert answers(original, "p(b, X)") == ["2", "5"]
    assert answers(dup, "p(a, X)") == ["1", "2", "3", "4"]
    assert answers(dup, "p(b, X)") == ["2", "4"]


def test_a_clause_shared_by_programs_calls_the_callee_of_the_program_that_runs_it():
    # copy() and extend() share Clause objects, and a compiled call site names
    # its callee only by name and arity, so each program finds its own q/0.
    base = parse_program("p(X) :- q, X = yes.")
    with_q = base.copy()
    with_q.extend(parse_program("q."))
    failing_q = parse_program("q :- fail.")
    failing_q.extend(base)
    shared = base.clauses[("p", 1)][0]
    assert with_q.clauses[("p", 1)] == [shared] and failing_q.clauses[("p", 1)] == [shared]
    for _ in range(2):  # compiled by the first solve, reused by the others
        assert answers(with_q, "p(X)") == ["yes"]
        assert answers(failing_q, "p(X)") == []
        solver = Solver(base, SolverOptions(diagnostics=io.StringIO()))
        assert list(solver.solve(parse_query("p(X)").goal)) == []
        assert solver.options.diagnostics.getvalue() == "warning: unknown predicate q/0 (goal fails)\n"
    assert shared.code is not None


def test_a_variable_first_argument_keeps_its_text_position():
    program = parse_program("p(a, 1). p(b, 2). p(V, 3). p(a, 4). p(c, 5). p(_, 6).")
    assert answers(program, "p(a, X)") == ["1", "3", "4", "6"]
    assert answers(program, "p(b, X)") == ["2", "3", "6"]
    assert answers(program, "p(c, X)") == ["3", "5", "6"]
    assert answers(program, "p(z, X)") == ["3", "6"]


def test_an_unbound_first_argument_sees_every_clause():
    program = parse_program("p(a, 1). p(f(x), 2). p(V, 3). p(1, 4). p(1.0, 5). p(foo, 6).")
    assert answers(program, "p(_, X)") == ["1", "2", "3", "4", "5", "6"]
    firsts = answers(program, "p(A, X)", var="A")
    assert firsts[:2] + firsts[3:] == ["a", "f(x)", "1", "1.0", "foo"]
    assert firsts[2].startswith("_")


def test_keys_tell_apart_atoms_compounds_and_number_types():
    program = parse_program("p(foo, 1). p(foo(x), 2). p(foo(x, y), 3). p(1, 4). p(1.0, 5).")
    assert answers(program, "p(foo, X)") == ["1"]
    assert answers(program, "p(foo(_), X)") == ["2"]
    assert answers(program, "p(foo(_, _), X)") == ["3"]
    assert answers(program, "p(1, X)") == ["4"]
    assert answers(program, "p(1.0, X)") == ["5"]
    buckets, unkeyed = program.index[("p", 2)]
    assert unkeyed == []
    assert sorted(len(bucket) for bucket in buckets.values()) == [1, 1, 1, 1, 1]


def test_a_clause_is_compiled_once_and_only_when_tried():
    program = parse_program("p(a, X) :- q(X). p(b, 2). q(1).")
    first, second = program.clauses[("p", 2)]
    assert first.code is None and second.code is None
    assert answers(program, "p(a, X)") == ["1"]
    code = first.code
    assert code is not None and second.code is None
    assert answers(program, "p(a, X)") == ["1"]
    assert first.code is code


def test_ground_subterms_are_shared_and_repeated_variables_unified():
    program = parse_program("p(f(a, [b, c]), Y, Y) :- true.")
    solver = Solver(program)
    x = fresh_var("X")
    bound = []
    for _ in range(2):
        for _ in solver.solve(Compound("p", (x, 1, 1))):
            bound.append(deref(x))
    assert render_term(bound[0]) == "f(a,[b,c])" and bound[0] is bound[1]
    assert answers(program, "p(f(a, [b, c]), 1, X)") == ["1"]
    assert answers(program, "p(X, 1, 2)") == []
    assert answers(program, "p(f(a, X), 1, 1)") == ["[b,c]"]


def test_an_unbound_goal_variable_is_bound_to_the_built_head_subterm():
    program = parse_program("p(f(X, g(X)), X).")
    assert answers(program, "p(Y, 1)", var="Y") == ["f(1,g(1))"]
    occurs = Solver(program, SolverOptions(occurs_check=True, diagnostics=io.StringIO()))
    query = parse_query("p(Y, Y)", program.operators)
    assert list(occurs.solve(query.goal)) == []


def test_a_clash_fails_before_anything_is_built():
    # f(b) finds the clause through the index and clashes inside f(a).
    program = parse_program("p(f(a), f(X, g(Y)), Z) :- q(X, Y, Z).")
    goal = Compound("p", (Compound("f", (Atom("b"),)), fresh_var("U"), fresh_var("V")))
    before = fresh_var().id
    assert list(Solver(program).solve(goal)) == []
    assert fresh_var().id == before + 1


def test_matching_runs_left_to_right():
    # The first occurrence of X takes A, and the second unifies A with B, so
    # A is bound to B.  Unifying a copied head bound B to A instead.
    program = parse_program("p(X, X).")
    solver = Solver(program)
    a, b = fresh_var("A"), fresh_var("B")
    for _ in solver.solve(Compound("p", (a, b))):
        assert a.ref is b and b.ref is None


# ---------------------------------------------------------------------------
# Differential test: the index and compiled clauses against the old way


def _full_list(self, name, arity, args):
    return self.clauses.get((name, arity))


def _copied(self):
    """The clause as calls used to try it: head and body copied on every call.

    With no slots, the matcher unifies each copied head argument with the
    goal's, and the copied body is one goal-term site, so a conjunction runs
    as a ``,`` goal rather than as the compiled site sequence.  A body
    ``true`` is no goal, as in the compiled clause.
    """
    mapping = {}
    head = deref(self.head)
    args = tuple(copy_term(arg, mapping) for arg in getattr(head, "args", ()))
    body = deref(self.body)
    goals = () if body == TRUE else (copy_term(body, mapping),)

    def match(goal_args, env, solver):
        return all(solver.unify(arg, goal_arg) for arg, goal_arg in zip(args, goal_args))

    return 0, match, tuple((TERM, lambda env, goal=goal: goal) for goal in goals)


def _render(term):
    """Render a copy of *term* with its variables named by first occurrence."""
    term = copy_term(term)
    for number, var in enumerate(term_variables(term)):
        var.ref = Atom("_V%d" % number)
    return render_term(term)


def _outcome(program, goal, out, depth_limit, solver_class=Solver):
    solver = solver_class(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit))
    found = []
    try:
        for _ in solver.solve(goal):
            found.append(_render(out))
    except ResourceLimitError:
        found.append("limit")
    return found, solver.options.diagnostics.getvalue(), solver.steps


def assert_same_as_every_clause_copied(program, goal, out, depth_limit=20_000):
    """The same solutions, diagnostics and steps with the index, without it,
    and with neither the index nor compiled clauses."""
    indexed = _outcome(program, goal, out, depth_limit)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Program, "candidates", _full_list)
        every_clause = _outcome(program, goal, out, depth_limit)
        patch.setattr(Clause, "code", None)  # hides compiled code; compile runs each call
        patch.setattr(Clause, "compile", _copied)
        every_clause_copied = _outcome(program, goal, out, depth_limit)
    assert indexed == every_clause == every_clause_copied, render_term(goal)


def test_the_machine_finds_clauses_only_through_program_candidates(monkeypatch):
    # The differential test swaps Program.candidates for the full clause
    # list; it compares anything only while the machine calls it.
    program = parse_program("p(a). q(X) :- p(X).")
    assert answers(program, "q(X)") == ["a"]
    calls = []

    def no_clauses(self, name, arity, args):
        calls.append((name, arity))
        return []

    monkeypatch.setattr(Program, "candidates", no_clauses)
    assert answers(program, "q(X)") == []
    assert calls == [("q", 1)]
    monkeypatch.setattr(Program, "candidates", _full_list)
    assert answers(program, "q(X)") == ["a"]


PRELUDE = load_prelude()


def _operator_goals(element):
    names = [Atom("z0")]
    for child in elements_of(element)[1:3]:
        names.append(child.args[0])
    atts = [Atom(split_attr(a)[0]) for a in list_items(element.args[1])] + [Atom("z0")]
    values = [Atom(split_attr(a)[1]) for a in list_items(element.args[1])][:1]
    for name in names:
        yield Compound("/", (element, name))
        yield Compound("^", (element, name))
    for att in atts:
        yield Compound("@", (element, att))
        yield Compound("sort", (element, att))
    for value in values:
        yield Compound("id", (element, value))
    for op in ("child", "descendant", "sortbyName"):
        yield Compound(op, (element,))


@settings(max_examples=25, deadline=None)
@given(elements(max_depth=2))
def test_prelude_operators_give_the_same_answers_as_copied_clauses(tree):
    for element in elements_of(tree)[:3]:
        for expression in _operator_goals(element):
            out = fresh_var("Y")
            assert_same_as_every_clause_copied(
                PRELUDE, Compound("transform", (expression, out)), out
            )


FIRST_ARGS = ["foo", "foo(x)", "foo(Y)", "foo(x, y)", "bar", "g(a, [b])", "1", "1.0", "2", "X", "_"]
BODIES = ["true", "!", "q(X)", "q(X), !", "!, q(X)", "p(X, Z)", "p(Y, Z), !", "X = Y", "fail"]
GOAL_ARGS = FIRST_ARGS + ["foo(Z)", "g(A, B)", "1.5"]


def random_program(rng):
    lines = ["q(%s)." % rng.choice(["1", "foo", "x", "f(Y)"]) for _ in range(rng.randint(0, 3))]
    for number in range(rng.randint(1, 8)):
        first = rng.choice(FIRST_ARGS)
        second = rng.choice(["X", "Y", str(number), first])
        body = rng.choice(BODIES)
        lines.append("p(%s, %s)%s." % (first, second, "" if body == "true" else " :- " + body))
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(60))
def test_random_programs_give_the_same_answers_as_copied_clauses(seed):
    rng = random.Random(seed)
    text = random_program(rng)
    program = parse_program(text)
    for first in GOAL_ARGS:
        for second in ("W", "0", "foo"):
            query = parse_query("p(%s, %s)" % (first, second))
            out = Compound("r", (query.goal,))
            assert_same_as_every_clause_copied(program, query.goal, out, depth_limit=300)
