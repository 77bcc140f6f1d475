"""An open list grows in one place: ``_grow``, one cell at one step.

``member/2``, ``length/2`` with an integer length, and ``descendantOrSelf/3``
(the native behind ``E ^ Name``) add cells to an open list only through
``logic_engine._grow``, and an unbound node in the walk is bound to an
element of fresh variables and read as any element is.  Each used to build
its open structure its own way; that code is kept below as the oracle.  The
differential tests run both on random partial lists and on ``xmlgen`` trees
with holes and compare the first answers, their order and the steps at
which they come, under small step limits and a large one.  ``length/2``'s
integer mode is the one change of steps: it adds each missing cell at one
step, where the old code built all of them in one, so the step limit now
bounds the list it builds.  Its answers are compared, and its steps pinned.
"""

import io
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fresh_interpreter import termxform
from termxform.logic_engine import _BUILTINS, ResourceLimitError, Solver, SolverOptions, _grow
from termxform.rule_language import parse_query
from termxform.term_core import (
    CONS,
    Atom,
    Compound,
    Var,
    copy_term,
    deref,
    fresh_var,
    is_cyclic,
    list_items,
    list_parts,
    mk_list,
    render_term,
    term_variables,
)
from termxform.transform_prelude import load_prelude
from xmlgen import plain_trees

PRELUDE = load_prelude()

# ---------------------------------------------------------------------------
# The oracle: the natives' own growth code, as it was before each used _grow


def old_member(solver, args):
    x, lst = args[0], args[1]
    while True:
        lst = deref(lst)
        if isinstance(lst, Compound) and lst.name == CONS and len(lst.args) == 2:
            mark = len(solver.trail)
            if solver.unify(x, lst.args[0]):
                yield
            solver.undo_to(mark)
            lst = lst.args[1]
        elif isinstance(lst, Var):
            # Extend a partial list: [x|_], [_,x|_], ...
            solver._step()
            mark = len(solver.trail)
            tail = fresh_var("_")
            solver.bind(lst, Compound(CONS, (x, tail)))
            yield
            solver.undo_to(mark)
            skipped = fresh_var("_")
            tail = fresh_var("_")
            solver.bind(lst, Compound(CONS, (skipped, tail)))
            lst = tail
        else:
            return


NEW_LENGTH = _BUILTINS[("length", 2)]


def old_length(solver, args):
    """The old integer branch on an open list; any other call runs the native."""
    items, tail = list_parts(args[0])
    n = deref(args[1])
    if isinstance(tail, Var) and isinstance(n, int):
        missing = n - len(items)
        if missing < 0:
            return
        if solver.unify(tail, mk_list([fresh_var("_") for _ in range(missing)])):
            yield
        return
    yield from NEW_LENGTH(solver, args)


def old_descendant_or_self(solver, args):
    node, name, found = args
    trail = solver.trail
    lists = []
    while True:
        node = deref(node)
        if type(node) is Var:
            solver._step()
            mark = len(trail)
            named = Compound("element", (name, fresh_var("A"), fresh_var("C")))
            if solver.unify(node, named) and solver.unify(found, node):  # Name may hold the node: occurs check
                yield
            solver.undo_to(mark)
            children = fresh_var("C")
            solver.bind(node, Compound("element", (fresh_var("N"), fresh_var("A"), children)))
            lists.append(children)
        elif type(node) is Compound and node.name == "element" and len(node.args) == 3:
            mark = len(trail)
            if solver.unify(node.args[0], name) and solver.unify(found, node):
                yield
            solver.undo_to(mark)
            lists.append(node.args[2])
        while lists:
            rest = deref(lists[-1])
            if type(rest) is Compound and rest.name == CONS and len(rest.args) == 2:
                node, lists[-1] = rest.args
                break
            if type(rest) is Var:
                _grow(solver, rest)
                continue
            lists.pop()
        else:
            return


OLD = {("member", 2): old_member, ("length", 2): old_length, ("descendantOrSelf", 3): old_descendant_or_self}


def outcome(goal, depth_limit, first, old=False, occurs_check=False):
    """The first *first* answers as (steps, answer), then ("limit", steps) if the step limit ended the run.

    *goal* is goal text, or a term whose answer is the goal itself.  An
    answer names its variables v0, v1, ... in order of first occurrence.  A
    query goal looks its native up when it runs, so with *old* the oracle
    code answers it.
    """
    if isinstance(goal, str):
        query = parse_query(goal, PRELUDE.operators)
        goal, shown = query.goal, Compound("answer", tuple(query.variables.values()) or (Atom("yes"),))
    else:
        shown = goal
    saved = {key: _BUILTINS[key] for key in OLD}
    if old:
        _BUILTINS.update(OLD)
    solver = Solver(PRELUDE, SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit, occurs_check=occurs_check))
    found, solutions = [], solver.solve(goal)
    try:
        for _ in solutions:
            if is_cyclic(shown):
                found.append((solver.steps, "cyclic"))
            else:
                answer = copy_term(shown)
                for number, var in enumerate(term_variables(answer)):
                    var.ref = Atom("v%d" % number)
                found.append((solver.steps, render_term(answer)))
            if len(found) == first:
                break
    except ResourceLimitError:
        found.append(("limit", solver.steps))
    finally:
        solutions.close()
        _BUILTINS.update(saved)
    return found


def both(goal, depth_limit, first, occurs_check=False):
    return tuple(outcome(goal, depth_limit, first, old, occurs_check) for old in (False, True))


# ---------------------------------------------------------------------------
# Pins


@pytest.mark.parametrize(
    "goal, answers",
    [
        ("member(x, L)", [(2, "answer([x|v0])"), (3, "answer([v0,x|v1])"), (4, "answer([v0,v1,x|v2])")]),
        ("member(X, [a|T])", [(1, "answer(a,v0)"), (2, "answer(v0,[v0|v1])"), (3, "answer(v0,[v1,v0|v2])")]),
        ("descendantOrSelf(E, b, X)",
         [(2, "answer(element(b,v0,v1),element(b,v0,v1))"),
          (4, "answer(element(v0,v1,[element(b,v2,v3)|v4]),element(b,v2,v3))"),
          (6, "answer(element(v0,v1,[element(v2,v3,[element(b,v4,v5)|v6])|v7]),element(b,v4,v5))")]),
    ],
)
def test_an_open_structure_answers_as_the_oracle_did_at_the_same_steps(goal, answers):
    assert both(goal, 3_000, 3) == (answers, answers)


@pytest.mark.parametrize(
    "goal, steps, old_steps",
    [
        ("length(L, 3)", 4, 1),
        ("length([a|T], 3)", 3, 1),
        ("length([a, b|T], 2)", 1, 1),
        ("length(L, 0)", 1, 1),
    ],
)
def test_an_integer_length_adds_each_missing_cell_at_one_step(goal, steps, old_steps):
    new, old = both(goal, 3_000, 2)
    assert [answer for _, answer in new] == [answer for _, answer in old]
    assert (new[0][0], old[0][0]) == (steps, old_steps)
    assert len(new) == 1
    if steps > 1:  # one step short of the last cell, the limit ends it
        assert outcome(goal, steps - 1, 2) == [("limit", steps)]


def test_an_integer_length_shorter_than_the_list_fails_without_a_step():
    assert both("length([a, b, c|T], 2)", 3_000, 2) == ([], [])
    assert outcome("length([a, b, c|T], 2)", 1, 2) == []


# ---------------------------------------------------------------------------
# Differential tests: random partial lists

# No item holds X inside a compound: member(X, [f(X)]) binds X to a cyclic
# term, and findall/3's copy of it would never end.
ITEMS = ["a", "b", "x", "X", "Y", "_", "element(b,[],[])", "element(b,P,Q)", "f(Y)", "[]"]
MEMBER_GOALS = ["member(x, L)", "member(X, L)", "member(element(b,A,C), L)", "member(f(Z), L)",
                "findall(X, member(X, L), R)", "member(X, L), X == b"]


def list_text(items, tail):
    return "[%s|%s]" % (",".join(items), tail) if items else tail


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(ITEMS), max_size=4),
    st.sampled_from(["T", "[]", "c", "[x|T]"]),
    st.sampled_from(MEMBER_GOALS),
    st.integers(1, 50),
    st.booleans(),
)
def test_member_agrees_with_the_oracle_on_partial_lists(items, tail, goal, limit, occurs_check):
    goal = goal.replace("L", list_text(items, tail))
    for depth_limit in (limit, 3_000):
        new, old = both(goal, depth_limit, 4, occurs_check)
        assert new == old, (goal, depth_limit)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(ITEMS), max_size=4),
    st.sampled_from(["T", "[]", "c", "X"]),
    st.sampled_from(["0", "1", "2", "3", "6", "N", "-1", "x"]),
)
def test_length_agrees_with_the_oracle_on_partial_lists(items, tail, n):
    # Its integer mode on an open list takes a step per cell it adds, where
    # the oracle took none, so only the answers are compared.
    goal = "length(%s, %s)" % (list_text(items, tail), n)
    new, old = both(goal, 3_000, 4)
    assert [answer for _, answer in new] == [answer for _, answer in old], goal
    if not (tail in ("T", "X") and n.isdigit() and int(n) > len(items)):
        assert new == old, goal


# ---------------------------------------------------------------------------
# Differential tests: xmlgen trees with holes


def with_hole(tree, target, kind, at):
    """*tree* with element number *target* (pre-order) given a hole of *kind* at child position *at*.

    An "open" hole ends the child list there with a variable, a "child"
    hole puts an unbound child there, and an "element" hole replaces the
    element itself with a variable.
    """
    count = [0]

    def rebuild(node):
        node = deref(node)
        if not (isinstance(node, Compound) and node.name == "element"):
            return node
        number, count[0] = count[0], count[0] + 1
        if number == target and kind == "element":
            return fresh_var("E")
        kids, tail = [rebuild(kid) for kid in list_items(node.args[2])], Atom("[]")
        if number == target:
            position = min(at, len(kids))
            if kind == "open":
                kids, tail = kids[:position], fresh_var("T")
            else:
                kids.insert(position, fresh_var("C"))
        return Compound("element", (node.args[0], node.args[1], mk_list(kids, tail)))

    return rebuild(tree)


@settings(max_examples=120, deadline=None)
@given(
    plain_trees(max_depth=3),
    st.integers(0, 6),
    st.sampled_from(["open", "child", "element"]),
    st.integers(0, 4),
    st.integers(1, 50),
    st.booleans(),
)
def test_the_walk_agrees_with_the_oracle_on_trees_with_holes(tree, target, kind, at, limit, occurs_check):
    holed = with_hole(tree, target, kind, at)
    for name in (Atom("a"), Atom("b"), Atom("z0"), fresh_var("N")):
        goal = Compound("descendantOrSelf", (holed, name, fresh_var("X")))
        for depth_limit in (limit, 3_000):
            new, old = both(goal, depth_limit, 3, occurs_check)
            assert new == old, (render_term(goal), depth_limit)


# ---------------------------------------------------------------------------
# Growth stops at the step limit, in little memory


@pytest.mark.parametrize(
    "goal",
    [
        "length(L, 200000)",
        "length([a|T], 200000)",
        "member(x, L)",
        "length(L, N)",
        "insertAfter(element(a,[],T), n, 200000, R)",
        "findall(X, transform(E ^ b, X), _)",
    ],
)
def test_growth_stops_at_the_step_limit_in_little_memory(goal):
    # The old integer mode of length/2 built all 200,000 cells in one step
    # and answered, with a traced peak of 38.9 MiB (0.2-0.3 MiB now).
    query = parse_query(goal, PRELUDE.operators)
    solver = Solver(PRELUDE, SolverOptions(diagnostics=io.StringIO(), depth_limit=1000))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            for _ in solver.solve(query.goal):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.steps == 1001
    assert peak < 2 * 1024 * 1024, peak


def test_length_of_100000000_cells_stops_at_the_step_limit_under_100_mb(tmp_path):
    """length(L, N) with an integer N adds the cells L lacks through
    the one growth helper, one cell per step, so the step limit
    bounds the list it builds: 100,000,000 cells at a limit of
    100,000 must exit 3 inside the timeout, the child under 100 MB
    of RSS.  When all N cells were built in one step, this goal
    would have asked for about 20 GB."""
    done = termxform(tmp_path, "query", "--depth-limit", "100000", "length(L, 100000000)", timeout=10, peak=True)
    assert done.returncode == 3, done.stderr
    assert done.peak_mb < 100
