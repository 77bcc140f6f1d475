"""The solver's one loop against the nested-generator solver it replaced.

``Solver.solve`` resolves goals on an explicit list of frames and a stack
of choicepoints.  Before it, two cooperating generator paths did the same
work: ``_solve`` for ``;`` ``!`` ``call/N``, natives and the clause loop, and
``_solve_body`` for goal sequences, with cut barriers held in one-element
lists.  That code is kept below as ``GeneratorSolver``, the oracle, changed
only by a default barrier, by the machine's step rule, one step per goal
entered other than ``,``: ``_solve_body`` takes no step of its own, and a
fact, whose compiled body has no goals, succeeds at once, and by the native
protocol: a native that returns True succeeds once, False fails, and
anything else is its generator, whose requests (``not/1``, ``findall/3``,
``traverse/2``) the oracle answers with a nested solve, as the machine did
before it ran them on its own lists.  Its ``solve`` enters its own
``_solve``, as the machine's did when ``solve`` wrapped ``_solve``.  It matches and
builds clauses with the skeleton interpreter of ``skeleton_oracle``, which
the generated clause code replaced, so it shares no clause code with the
machine; its ``_call_goal`` is the solver method that the machine's loop
later took in.  Both solvers
run the same goals, and the tests compare the rendered solutions (order and
multiplicity), the diagnostics, ``Solver.steps``, and the answers given
before a ``ResourceLimitError`` at every step limit from 1 to 40.  Each
shape of goal term also runs both as a query and as a compiled clause body.
"""

import random

import pytest
from hypothesis import given, settings

from termxform.logic_engine import _BUILTINS, _CONTROL, _EXHAUSTED, CALL, Solver, _conjuncts, call_goal, goal_kind
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    Atom,
    Compound,
    Var,
    copy_term,
    deref,
    fresh_var,
    list_items,
    mk_list,
    render_term,
    split_attr,
)
from termxform.transform_prelude import load_prelude
from skeleton_oracle import _build, _match, skeletons
from test_clause_index import GOAL_ARGS, _outcome, random_program
from xmlgen import elements, elements_of


class GeneratorSolver(Solver):
    """The solver as it was: one Python generator per goal and per sequence."""

    def solve(self, goal):
        return self._solve(goal)

    def _solve(self, goal, barrier=None):
        if barrier is None:
            barrier = [False]
        mark = len(self.trail)
        try:
            goal = deref(goal)
            if type(goal) is Compound and goal.name == "," and len(goal.args) == 2:
                yield from self._solve_body(_conjuncts(goal), None, barrier)
                return
            self._step()
            if isinstance(goal, Var):
                self.warn("unbound variable called as a goal")
                return
            if isinstance(goal, (int, float)):
                self.warn("number called as a goal: %s" % render_term(goal))
                return
            if isinstance(goal, Atom):
                name, args = goal.name, ()
            else:
                name, args = goal.name, goal.args
            arity = len(args)

            if name == ";" and arity == 2:
                branch_mark = len(self.trail)
                yield from self._solve(args[0], barrier)
                self.undo_to(branch_mark)
                if barrier[0]:
                    return
                yield from self._solve(args[1], barrier)
                return
            if name == "!" and arity == 0:
                yield
                barrier[0] = True
                return
            if name == "call" and arity >= 1:
                target = self._call_goal(args[0], args[1:])
                if target is not None:
                    yield from self._solve(target, [False])
                return

            native = _BUILTINS.get((name, arity))
            if native is not None:
                result = native(self, args)  # True, False or a generator
                if result is True:
                    yield
                elif result is not False:
                    yield from self._native_solutions(result)
                return

            clauses = self.program.candidates(name, arity, args)
            if clauses is None:
                self.warn("unknown predicate %s/%d (goal fails)" % (name, arity))
                return
            clause_barrier = [False]
            for clause in clauses:
                slot_count, head_args, goals = skeletons(clause)
                env = [None] * slot_count
                clause_mark = len(self.trail)
                for skel, arg in zip(head_args, args):
                    if not _match(self, skel, arg, env):
                        break
                else:
                    if not goals:
                        yield
                    elif len(goals) == 1:
                        yield from self._solve(_build(goals[0], env), clause_barrier)
                    else:
                        yield from self._solve_body(goals, env, clause_barrier)
                self.undo_to(clause_mark)
                if clause_barrier[0]:
                    return
        finally:
            self.undo_to(mark)

    def _call_goal(self, target, extra):
        goal = call_goal(target, extra)
        if goal is None:
            self.warn("call/N target is not callable: %s" % render_term(target))
        return goal

    def _native_solutions(self, native):
        """A native generator's solutions, each request answered by a nested solve."""
        answer = None
        while True:
            try:
                request = native.send(answer)
            except StopIteration as last:
                if last.value:
                    yield
                return
            if request is None:
                yield
                answer = None
            elif request[1] is None:
                answer = self._first(request[0])
            else:
                answer = [copy_term(request[1], {}) for _ in self._solve(request[0])]

    def _first(self, goal):
        """True iff *goal* has a solution, whose bindings stay on the trail."""
        mark = len(self.trail)
        solutions = self._solve(goal)
        if next(solutions, _EXHAUSTED) is _EXHAUSTED:
            return False
        kept = self.trail[mark:]
        del self.trail[mark:]  # so that closing the solve undoes none of them
        solutions.close()
        self.trail.extend(kept)
        return True

    def _solve_body(self, goals, env, barrier):
        last = len(goals) - 1
        built = goals if env is None else [None] * len(goals)
        running = []
        while True:
            index = len(running)
            goal = built[index]
            if goal is None:
                goal = built[index] = _build(goals[index], env)
            if index < last:
                running.append(self._solve(goal, barrier))
            else:
                yield from self._solve(goal, barrier)
                if barrier[0]:
                    return
            while running:
                if next(running[-1], _EXHAUSTED) is None:
                    break
                running.pop()
                if barrier[0]:
                    return
            else:
                return


def test_the_oracle_solves_with_its_own_generators():
    solver = GeneratorSolver(parse_program("p."))
    assert solver.solve(Atom("p")).gi_code is GeneratorSolver._solve.__code__


def assert_same_as_generators(program, goal, out, depth_limit):
    machine = _outcome(program, goal, out, depth_limit)
    generators = _outcome(program, goal, out, depth_limit, GeneratorSolver)
    assert machine == generators, (render_term(goal), depth_limit)


# ---------------------------------------------------------------------------
# Prelude operators over random trees


PRELUDE = load_prelude()
UNARY = ("atts", "child", "descendant", "sortbyName", "copy", "copy_of", "last", "count", "name", "distinct")


def _operator_goals(element):
    """(goal, limit) pairs: every operator with its operands bound, then unbound."""
    kids = list_items(element.args[2])
    names = [Atom("z0")] + [child.args[0] for child in elements_of(element)[1:3]]
    entries = [split_attr(a) for a in list_items(element.args[1])]
    atts = [Atom(key) for key, _ in entries] + [Atom("z0")]
    binary = [("/", name) for name in names] + [("^", name) for name in names]
    binary += [("@", att) for att in atts] + [("sort", att) for att in atts]
    binary += [("id", Atom(value)) for _, value in entries[:1]]
    binary += [(op, n) for op in ("#", "?", "c") for n in (1, 2)]
    binary += [("level", kid) for kid in kids[:1]]
    bound = [Compound(op, (element, arg)) for op, arg in binary]
    bound += [Compound(op, (element,)) for op in UNARY]
    for expression in bound:
        yield Compound("transform", (expression, fresh_var("Y"))), 5000
    for op in ("/", "^", "@", "id", "#", "?", "c", "sort", "level"):
        yield Compound("transform", (Compound(op, (element, fresh_var("A"))), fresh_var("Y"))), 5000
    yield Compound("transform", (Compound("?", (element, fresh_var("A"))),)), 5000
    for expression in bound:  # the element unbound: most enumerate without end
        unbound = Compound(expression.name, (fresh_var("E"),) + expression.args[1:])
        yield Compound("transform", (unbound, fresh_var("Y"))), 60
    first = kids[0] if kids else Compound("text", (Atom("t"),))
    edits = [
        ("removeElement", Atom("z0")), ("remove", first), ("removeAttribute", atts[0]),
        ("equals", element), ("equals", fresh_var("Y")), ("flatten",), ("nodes",), ("printTree",),
    ]
    for name, *args in edits:
        yield Compound(name, (element, *args, fresh_var("Y"))), 5000
    for name in ("insertBefore", "insertAfter"):
        for position in (first, 1, 2):
            yield Compound(name, (element, Compound("text", (Atom("new"),)), position, fresh_var("Y"))), 5000
    yield Compound("position", (element, fresh_var("C"), fresh_var("P"))), 5000
    yield Compound("checkSerializable", (element,)), 5000


@settings(max_examples=20, deadline=None)
@given(elements(max_depth=2))
def test_prelude_operators_give_the_same_outcome_as_nested_generators(tree):
    for element in elements_of(tree)[:2]:
        for goal, limit in _operator_goals(element):
            assert_same_as_generators(PRELUDE, goal, goal, limit)


# ---------------------------------------------------------------------------
# Control: cut, `;`, call/N, not/1 and findall/3, at every small step limit


PROGRAMS = [
    # Cuts in clause bodies: the acceptance factorials and a cut in findall.
    ("fact(N,R) :- N>0, N1 is N-1, fact(N1,R2), R is N*R2.\nfact(0,1) :- !.", "fact(5, R)"),
    ("fact(N,R) :- !, N>0, N1 is N-1, fact(N1,R2), R is N*R2.\nfact(0,1).", "fact(3, R)"),
    ("k(X) :- findall(Y, h(Y), L), member(X, L).\nk(done).\nh(1) :- !.\nh(2).", "k(X)"),
    ("m(X) :- member(X, [a, b, c]), !.\nm(z).", "m(X)"),
    ("m(X) :- member(X, [a, b, c]).\nm(z).", "m(X)"),
    ("m(X, Y) :- member(X, [1, 2]), !, member(Y, [a, b]).\nm(9, 9).", "m(X, Y)"),
    ("m(X) :- member(X, [1, 2, 3]), X > 1, !.\nm(0).", "m(X)"),
    # `;` alone, with cuts in either branch, nested.
    ("t(X) :- X = 1 ; X = 2 ; X = 3.", "t(X)"),
    ("t(X) :- (member(X, [1, 2, 3]), X > 1, ! ; X = 9).\nt(0).", "t(X)"),
    ("t(X) :- (X = 1 ; X = 2), !.\nt(3).", "t(X)"),
    ("t(X) :- (fail ; !, X = 2 ; X = 3).\nt(4).", "t(X)"),
    ("t(X) :- ((X = 1 ; X = 2), X > 1 ; X = 5).", "t(X)"),
    # A nested `,` body goal runs as a term, its cut the clause's; `true` as a
    # branch; a clause variable that one branch makes and the other does not;
    # an unknown predicate in a branch; a variable goal bound to a `;` that
    # holds a cut.
    ("p(X, Y) :- (member(X, [1, 2]), member(Y, [a, b])), Y \\= a.", "p(X, Y)"),
    ("p(X) :- (member(X, [1, 2, 3]), !), X > 0.\np(9).", "p(X)"),
    ("t(X) :- (true ; X = 2), (X = 1 ; true).", "t(X)"),
    ("t(R) :- (fail, X = 1 ; X = 2), R = X.", "t(R)"),
    ("t(R) :- (true ; X = 1), R = f(X).", "t(R)"),
    ("u(X) :- (nope(X) ; X = 1 ; nope).\nu(2).", "u(X)"),
    ("v(G) :- G.\nv(_).", "v((member(X, [1, 2]), ! ; X = 3))"),
    ("v(G, X) :- G, X > 1.\nv(_, 9).", "v((fail ; member(X, [1, 2, 3]), !), X)"),
    # call/N: extra arguments, a cut inside stays inside; a variable body
    # goal is transparent to cut, as before.
    ("c(X) :- call(member, X, [a, b]).", "c(X)"),
    ("c(X) :- call((member(X, [1, 2, 3]), !)).\nc(9).", "c(X)"),
    ("c(X) :- call(member(X), [1, 2]), call(!).\nc(9).", "c(X)"),
    ("v(G) :- G.\nv(_).", "v((member(X, [1, 2]), !))"),
    ("v(G, X) :- G, X = done.", "v((member(Y, [1, 2]), Y > 1), X)"),
    ("", "call(3)"),
    # not/1: nested, with cuts inside.
    ("n(X) :- member(X, [1, 2, 3]), not(X = 2).", "n(X)"),
    ("n(X) :- not(not((member(X, [1, 2]), !))).", "n(X)"),
    ("n(X) :- member(X, [1, 2]), not((member(Y, [1, 2]), Y > X, !, fail)).", "n(X)"),
    # findall/3 over backtracking natives and rules.
    ("", "findall(X-Y, append(X, Y, [1, 2, 3]), L)"),
    ("p(1). p(2). p(3).", "findall(X, (p(X), X > 1), L)"),
    ("p(1). p(2).", "findall(X, (p(X) ; X = 3), L), member(Y, L)"),
    # Natives that keep bindings between their solutions (the mark is the
    # trail height after each resume), and ones that enumerate without end.
    ("", "append(X, [b], L)"),
    ("", "append([a|X], Y, Z)"),
    ("", "append(X, Y, [a|T])"),
    ("", "member(a, L)"),
    ("", "length(L, N)"),
    ("", "last(L, a)"),
    # Recursion, deterministic and not, with and without a one-clause bucket.
    ("cnt(0) :- !.\ncnt(N) :- M is N - 1, cnt(M).", "cnt(12)"),
    ("cnt(0).\ncnt(N) :- N > 0, M is N - 1, cnt(M).", "cnt(12)"),
    ("len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.", "len([a, b, c, d, e], N)"),
    ("len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.", "len(L, N)"),
    (
        "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n"
        "nrev([], []).\nnrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).",
        "nrev([1, 2, 3, 4, 5], R)",
    ),
    ("", "church(X, 4), nth(N, [a, b, c], E)"),
    ("", "quicksort([c, a, b, a], leStrings, S)"),
    # Diagnostics and output: unknown predicates, bad goals, write/1.
    ("w :- nope(1).\nw :- X.\nw :- 3.\nw :- X is foo + 1.\nw.", "w"),
    ("w :- member(X, [a, b]), write(X), fail.\nw :- write(end).", "w"),
]


@pytest.mark.parametrize("text, goal_text", PROGRAMS)
def test_control_programs_give_the_same_outcome_at_every_step_limit(text, goal_text):
    program = load_prelude(parse_program(text) if text else None)
    goal = parse_query(goal_text, program.operators).goal
    for limit in list(range(1, 41)) + [400]:
        assert_same_as_generators(program, goal, goal, limit)


@pytest.mark.parametrize("seed", range(30))
def test_random_programs_give_the_same_outcome_as_nested_generators(seed):
    program = parse_program(random_program(random.Random(seed)))
    for first in GOAL_ARGS:
        for second in ("W", "0", "foo"):
            query = parse_query("p(%s, %s)" % (first, second))
            for limit in (7, 300):
                assert_same_as_generators(program, query.goal, Compound("r", (query.goal,)), limit)


# ---------------------------------------------------------------------------
# A goal term runs as the same goal compiled into a clause body


GOAL_BASE = "q(1).\nq(2).\nr.\n"
GOAL_SHAPES = [
    "X",  # a variable
    "3",  # a number
    "r",  # an atom: a program predicate
    "true",  # an atom: a native
    "q(X)",  # a program predicate
    "member(X, [a, b])",  # a native generator
    "X = f(Y)",  # a native that succeeds once
    "((q(X), X > 1), r)",  # `,` nested on the left
    "(q(X), (r, X < 2))",  # `,` nested on the right
    "(q(X) ; X = 3)",
    "((q(X), ! ; X = 3), r)",
    "!",
    "(q(X), !)",
    "(q(X), (!, X > 1 ; X = 4))",
    "call(q, X)",  # call/N with an extra argument
    "call(member(X), [a, b])",
    "call((q(X), !))",  # a cut inside call/N stays inside
    "(call(q, X), X > 1)",
    "call(3)",
    "call",  # call/0 is no control construct: an unknown predicate
    "not(q(3))",
    "findall(X, q(X), L)",
]


def _goal_forms(text):
    """(program, goal, out) for *text* run as a query, then as the body of ``p(Vars) :- G``."""
    base = load_prelude(parse_program(GOAL_BASE))
    query = parse_query(text, base.operators)
    names = sorted(query.variables)
    head = "p(%s)" % ", ".join(names) if names else "p"
    program = load_prelude(parse_program(GOAL_BASE + "%s :- %s.\n" % (head, text)))
    called = parse_query(head, program.operators)
    return (
        (base, query.goal, mk_list([query.variables[name] for name in names])),
        (program, called.goal, mk_list([called.variables[name] for name in names])),
    )


@pytest.mark.parametrize("text", GOAL_SHAPES)
def test_goal_terms_run_as_compiled_bodies_run(text):
    as_query, as_body = _goal_forms(text)
    for program, goal, out in (as_query, as_body):
        for limit in list(range(1, 16)) + [400]:
            assert_same_as_generators(program, goal, out, limit)
    # The body takes one step more, the call to p, except `p :- true`: a
    # body `true` compiles to no sites, so it is a fact.
    found, warnings, steps = _outcome(*as_query, 400)
    assert _outcome(*as_body, 400) == (found, warnings, steps + (text != "true"))


def test_is_builtin_holds_for_every_control_construct_and_native():
    import termxform  # noqa: F401 - registers the template and prelude natives

    for name, (kind, arity) in _CONTROL.items():
        for n in (arity,) if arity is not None else (1, 2, 8):
            assert Solver.is_builtin(name, n)
            goal = Compound(name, tuple(Atom("a") for _ in range(n))) if n else Atom(name)
            assert goal_kind(goal) == (kind, name, goal.args if n else ())
    assert all(Solver.is_builtin(name, arity) for name, arity in _BUILTINS)
    program = parse_program(GOAL_BASE)
    assert program.defines("q", 1) and not Solver.is_builtin("q", 1) and not Solver.is_builtin("r", 0)
    assert not Solver.is_builtin("call", 0)
    assert goal_kind(Compound("q", (1,)))[0] is goal_kind(Atom("r"))[0] is CALL
