"""Generated clause code against the skeleton interpreter it replaced.

``Clause.compile`` writes each clause as Python: a head matcher and one
site per body goal.  ``skeleton_oracle`` keeps the interpreter that ran
clauses before.  For every clause and goal below, both run on the same goal
arguments, each from an empty slot list, and the tests compare whether the
head matched, the goal arguments, slots and built goals (rendered together,
so that shared variables show, and with the order in which fresh variables
were made), and how many bindings went on the trail.  A site's goal is
rebuilt from what it holds (see ``site_goal``); an ``is/2`` site, which
builds no goal, is run on a solver that binds nothing, so that it fills its
slots, and its goal is rebuilt over them.  Every comparison runs with
``occurs_check`` off and on.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeleton_oracle import _build, _match, skeletons
from termxform.logic_engine import (
    CALL,
    CUT,
    EVAL,
    OR,
    Clause,
    EvalError,
    ResourceLimitError,
    Solver,
    SolverOptions,
    _copy_in,
)
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import Atom, Compound, copy_term, deref, fresh_var, mk_list, term_variables
from termxform.transform_prelude import load_prelude
from test_clause_index import GOAL_ARGS, _operator_goals, _render, random_program
from test_solver_machine import PROGRAMS
from xmlgen import elements, elements_of

UNFILLED = Atom("$unfilled")


def site_goal(site, env):
    """The goal term *site* stands for, its arguments built from *env* as entering it builds them.

    A call site's goal is its name over its built arguments, a cut site's
    is ``!``, and a ``;`` site's is the ``;`` of its branches' goals, left
    branch first, each branch one goal or a right-nested ``,`` chain.  An
    ``is/2`` site evaluates instead of building: it runs on a solver whose
    ``unify`` binds nothing, which fills the goal's unfilled slots as
    building the goal would, and its goal is the clause's ``is/2`` term
    rebuilt over the slots.
    """
    kind = site[0]
    if kind is CALL:
        _, build, name, arity, _ = site
        args = build(env)
        assert len(args) == arity
        return Compound(name, args) if args else Atom(name)
    if kind is CUT:
        return Atom("!")
    if kind is OR:
        return Compound(";", (_conjunction(site[1], env), _conjunction(site[2], env)))
    if kind is EVAL:
        try:
            site[1](env, _Unbinding)
        except EvalError:
            pass
        return _copy_in(site[2], env, site[1].__globals__["slots"])
    return site[1](env)


class _Unbinding:
    """A solver for an ``is/2`` site that unifies without binding anything."""

    @staticmethod
    def unify(a, b):
        return True


def _conjunction(sites, env):
    goals = [site_goal(site, env) for site in sites]
    conjunction = goals.pop()
    while goals:
        conjunction = Compound(",", (goals.pop(), conjunction))
    return conjunction


def _run(solver, clause, args, generated):
    """(matched, rendered state, fresh-variable order, trail entries) of one match and build."""
    mark = len(solver.trail)
    first_id = fresh_var().id
    if generated:
        count, match, sites = clause.code or clause.compile()
        env = [None] * count
        matched = match(args, env, solver)
        goals = [site_goal(site, env) for site in sites * 2] if matched else []
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
    """Generated and skeleton code agree on *clause* and *args*; True if the head matches."""
    for occurs_check in (True, False):
        solver.options.occurs_check = occurs_check
        outcome = _run(solver, clause, args, True)
        assert outcome == _run(solver, clause, args, False), repr(clause)
    return outcome[0]


class CheckedSolver(Solver):
    """A solver that compares generated and skeleton code on every clause it tries."""

    tried = 0

    def _select(self, choicepoints, clauses, index, args, rest):
        # The clauses the machine tries: from *index* to the first whose head matches.
        for clause in clauses[index:]:
            self.tried += 1
            if assert_same_as_skeletons(self, clause, args):
                break
        return super()._select(choicepoints, clauses, index, args, rest)


def _solver(program):
    return Solver(program, SolverOptions(diagnostics=io.StringIO()))


def _solve_checked(program, goal, depth_limit):
    """The number of clause tries checked while solving *goal*."""
    solver = CheckedSolver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit))
    try:
        for _ in solver.solve(goal):
            pass
    except ResourceLimitError:  # the limit ends enumerations without end
        pass
    return solver.tried


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
# is/2 sites: the slots they fill, in order, and what they build


IS_CLAUSES = [
    "p(X, Y) :- Z is W + V * X, q(Z, W, V).",
    "p(X, Y) :- f(A, B) is plus(element(n, C, [text(D)|E]), Y), q(A, B, C, D, E).",
    "p(X, Y) :- X is cat(A, Y, [], B), Y is string(mult(element(p, [], [text(C)]), X)).",
    "p(X, Y) :- (Z is X - U ; Z is substring(U, Y, V)), q(Z, U, V).",
    "p(X, Y) :- Z is 1 + a, W is cat(foo, 2.5, X), q(Z, W).",
]


@pytest.mark.parametrize("text", IS_CLAUSES)
def test_is_sites_fill_and_build_as_skeletons_do(text):
    program = parse_program(text)
    (clause,) = program.clauses[("p", 2)]
    solver = _solver(program)
    for args in _goal_args(clause, [Atom("a"), 2, Compound("element", (Atom("n"), Atom("[]"), mk_list([])))]):
        assert_same_as_skeletons(solver, clause, args)
    assert list(_kinds(clause.code[2])).count(EVAL) == text.count(" is ")


def _kinds(sites):
    for site in sites:
        yield site[0]
        if site[0] is OR:
            yield from _kinds(site[1] + site[2])





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
            assert _solve_checked(PRELUDE, Compound("transform", (expression, fresh_var("Y"))), 3000) > 0


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
    count, match, sites = clause.code
    env = [None] * count
    out = fresh_var("Out")
    assert match((Atom(other), out, fresh_var()), env, solver)
    assert deref(out).name == other and deref(out).args[1].name == name
    goals = [site_goal(site, env) for site in sites]
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
