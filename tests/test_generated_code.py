"""Generated clause code against the skeleton interpreter it replaced.

``Clause.compile`` writes each clause as Python: a head matcher and one
builder per body goal.  ``skeleton_oracle`` keeps the interpreter that ran
clauses before.  For every clause and goal below, both run on the same goal
arguments, each from an empty slot list, and the tests compare whether the
head matched, the goal arguments, slots and built goals (rendered together,
so that shared variables show, and with the order in which fresh variables
were made), and how many bindings went on the trail.  Every comparison runs
with ``occurs_check`` off and on.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeleton_oracle import _build, _match, skeletons
from termxform.logic_engine import Clause, ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import Atom, Compound, copy_term, deref, fresh_var, mk_list, term_variables
from termxform.transform_prelude import load_prelude
from test_clause_index import GOAL_ARGS, _operator_goals, _render, random_program
from test_solver_machine import PROGRAMS
from xmlgen import elements, elements_of

UNFILLED = Atom("$unfilled")


def _run(solver, clause, args, generated):
    """(matched, rendered state, fresh-variable order, trail entries) of one match and build."""
    mark = len(solver.trail)
    first_id = fresh_var().id
    if generated:
        count, match, builders = clause.code or clause.compile()
        env = [None] * count
        matched = match(args, env, solver)
        goals = [build(env) for build in builders * 2] if matched else []
    else:
        count, head, body = skeletons(clause)
        env = [None] * count
        matched = all(_match(solver, skel, arg, env) for skel, arg in zip(head, args))
        goals = [_build(goal, env) for goal in body * 2] if matched else []
    slots = [UNFILLED if term is None else term for term in env]
    state = mk_list([mk_list(args), mk_list(slots), mk_list(goals)])
    made = sorted((var.id, position) for position, var in enumerate(term_variables(state)) if var.id > first_id)
    outcome = (matched, _render(state), [position for _, position in made], len(solver.trail) - mark)
    solver.undo_to(mark)
    return outcome


def assert_same_as_skeletons(solver, clause, args):
    for occurs_check in (False, True):
        solver.options.occurs_check = occurs_check
        assert _run(solver, clause, args, True) == _run(solver, clause, args, False), repr(clause)
    solver.options.occurs_check = False


class CheckedSolver(Solver):
    """A solver that compares generated and skeleton code on every clause it enters."""

    def _enter(self, clause, args, cut, rest):
        assert_same_as_skeletons(self, clause, args)
        return super()._enter(clause, args, cut, rest)


def _solver(program):
    return Solver(program, SolverOptions(diagnostics=io.StringIO()))


def _solve_checked(program, goal, depth_limit):
    solver = CheckedSolver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit))
    try:
        for _ in solver.solve(goal):
            pass
    except ResourceLimitError:  # the limit ends enumerations without end
        pass


def _variants(term, replacements):
    """*term*, then *term* with one subterm (in pre-order) replaced by each of *replacements*."""
    yield term
    positions = []
    stack = [(term, ())]
    while stack and len(positions) < 12:
        node, path = stack.pop()
        node = deref(node)
        positions.append(path)
        if isinstance(node, Compound):
            stack.extend(reversed([(arg, path + (i,)) for i, arg in enumerate(node.args)]))
    for path in positions:
        for replacement in replacements:
            yield _replace(term, path, replacement())


def _replace(term, path, replacement):
    if not path:
        return replacement
    term = deref(term)
    args = list(term.args)
    args[path[0]] = _replace(args[path[0]], path[1:], replacement)
    return Compound(term.name, args)


def _goal_args(clause, others):
    """Argument tuples for *clause*: copies of its head, each argument varied in turn."""
    head = deref(clause.head)
    heads = [copy_term(arg) for arg in getattr(head, "args", ())]
    yield tuple(heads)
    yield tuple(fresh_var("G") for _ in heads)
    replacements = [lambda: fresh_var("R")] + [lambda other=other: other for other in others]
    for i, arg in enumerate(heads):
        for variant in _variants(arg, replacements):
            yield tuple(heads[:i]) + (variant,) + tuple(copy_term(other) for other in heads[i + 1 :])


# ---------------------------------------------------------------------------
# test_clause_index's random programs


@pytest.mark.parametrize("seed", range(60))
def test_random_program_clauses_match_and_build_as_skeletons_do(seed):
    program = parse_program(random_program(random.Random(seed)))
    solver = _solver(program)
    clauses = [clause for clauses in program.clauses.values() for clause in clauses]
    for first in GOAL_ARGS:
        for second in ("W", "0", "foo"):
            goal = parse_query("p(%s, %s)" % (first, second)).goal
            for clause in program.clauses[("p", 2)]:
                assert_same_as_skeletons(solver, clause, goal.args)
    for clause in clauses:
        for args in _goal_args(clause, [Atom("foo"), 1, 1.0]):
            assert_same_as_skeletons(solver, clause, args)


# ---------------------------------------------------------------------------
# The control programs of test_solver_machine, every clause entered


@pytest.mark.parametrize("text, goal_text", PROGRAMS)
def test_control_program_clauses_match_and_build_as_skeletons_do(text, goal_text):
    program = load_prelude(parse_program(text) if text else None)
    goal = parse_query(goal_text, program.operators).goal
    _solve_checked(program, goal, 400)


# ---------------------------------------------------------------------------
# Every prelude clause against random trees


PRELUDE = load_prelude()
PRELUDE_CLAUSES = [clause for clauses in PRELUDE.clauses.values() for clause in clauses]


@settings(max_examples=4, deadline=None)
@given(elements(max_depth=2), st.randoms(use_true_random=False))
def test_prelude_clauses_match_and_build_as_skeletons_do(tree, rng):
    solver = _solver(PRELUDE)
    nodes = elements_of(tree)
    others = [tree, rng.choice(nodes), Atom("z0"), 2]
    for clause in PRELUDE_CLAUSES:
        for args in _goal_args(clause, others):
            assert_same_as_skeletons(solver, clause, args)


@settings(max_examples=5, deadline=None)
@given(elements(max_depth=2))
def test_prelude_operators_enter_clauses_as_skeletons_do(tree):
    for element in elements_of(tree)[:2]:
        for expression in _operator_goals(element):
            _solve_checked(PRELUDE, Compound("transform", (expression, fresh_var("Y"))), 3000)


# ---------------------------------------------------------------------------
# No rule text becomes Python code


HOSTILE = [
    "it's",
    'say "hi"',
    "back\\slash",
    "\\",
    "\\n not a newline",
    "new\nline",
    "carriage\rreturn",
    '"""',
    "'''",
    "# not a comment",
    "ünïcødé €",
    " ",
    "{0} %s %(x)s",
    "'); import os; os._exit(1); ('",
    '"); import os; os._exit(1); ("',
    "\nimport os\nos._exit(1)\n",
    "e[0]",
    "x0",
    "solver",
]


def _hostile_clauses():
    for i, name in enumerate(HOSTILE):
        other = HOSTILE[(i + 1) % len(HOSTILE)]
        x, y = fresh_var(name), fresh_var(other)
        head = Compound(name, (Atom(other), Compound(other, (x, Atom(name), Compound(name, (y,)))), x))
        body = Compound(",", (Compound(other, (y, Compound(name, (fresh_var(name), x)))), Atom(name)))
        yield Clause(head, body), name, other


@pytest.mark.parametrize("number", range(len(HOSTILE)))
def test_hostile_names_match_and_build_as_skeletons_do(number):
    clause, name, other = list(_hostile_clauses())[number]
    solver = _solver(parse_program(""))
    for args in _goal_args(clause, [Atom(name), Atom(other), Compound(name, (Atom(other),))]):
        assert_same_as_skeletons(solver, clause, args)
    # The names come back as they were written.
    count, match, builders = clause.code
    env = [None] * count
    out = fresh_var("Out")
    assert match((Atom(other), out, fresh_var()), env, solver)
    assert deref(out).name == other and deref(out).args[1].name == name
    goals = [build(env) for build in builders]
    assert [goal.name for goal in goals] == [other, name]
    assert deref(goals[0].args[1].args[0]).name == name


def test_a_deep_head_and_body_compile():
    # A 300-element list holds more nesting than Python source allows.
    items = [fresh_var("X%d" % i) for i in range(300)]
    tail = fresh_var("T")
    head = Compound("p", (mk_list(items, tail), items[0]))
    clause = Clause(head, Compound("q", (mk_list(items[::-1], tail),)))
    solver = _solver(parse_program(""))
    for args in _goal_args(clause, [Atom("a")]):
        assert_same_as_skeletons(solver, clause, args)
    assert clause.code[0] == 301


def test_a_subterm_object_shared_by_two_head_arguments_matches_as_skeletons_do():
    # A program built in Python may use one compound object twice; its second
    # occurrence is built with its variables already filled.
    x = fresh_var("X")
    shared = Compound("f", (x, Compound("g", (x,))))
    clause = Clause(Compound("p", (shared, shared)))
    solver = _solver(parse_program(""))
    for args in _goal_args(clause, [Atom("a")]):
        assert_same_as_skeletons(solver, clause, args)
