"""``E ^ Name``, ``E @ Att`` and ``E / Child`` on a bound element, at fewer steps.

``E ^ Name`` runs the native ``descendantOrSelf/3``, a pre-order walk over a
stack of its own; ``E @ Att`` runs the natives ``attributeValue/3`` and
``textValue/2`` around its cut; ``E / Child`` matches the element in its
clause head.  The clauses they replace are kept below as the oracle: the
old program is the prelude with them in place of the new ones.  The first
part pins the edges and the one difference, which only a user
``transform/2`` clause can show; the second compares the two programs on
random trees from ``xmlgen``, whole and with holes: rendered solutions,
their order and number, and the diagnostics.
"""

import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from termxform.logic_engine import _BUILTINS, ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    Atom,
    Compound,
    deref,
    fresh_var,
    is_cyclic,
    list_items,
    mk_list,
    render_term,
    split_attr,
)
from termxform.transform_prelude import PRELUDE_SRC, load_prelude, prelude_program
from xmlgen import elements, elements_of, plain_trees

# (the prelude's clauses, the clauses they replaced)
REPLACED = [
    (
        """\
transform(element(_,_,Children) / Child,
          element(Child,A,C)):-
  member(element(Child,A,C),Children).
""",
        """\
transform(E1 / Child,element(Child,A,C)):-
  E1=element(Name,AttList,Children),
  member(element(Child,A,C),Children).
""",
    ),
    (
        """\
transform(E ^ Name,X):-
  descendantOrSelf(E,Name,X).
""",
        """\
transform(element(Name,A,C) ^ Name,
          element(Name,A,C)).
transform(element(_,_,C) ^ Name,X):-
  member(H,C),
  transform(H ^ Name,X).
""",
    ),
    (
        """\
  attributeValue(AttList,Att,V), !,
  textValue(X,V).
""",
        """\
  atom(Att), attribute(AttList,Att,V), !,
  (X=V; number(X), V is string(X)).
""",
    ),
]


def _old_prelude_src():
    text = PRELUDE_SRC
    for new, old in REPLACED:
        assert text.count(new) == 1, new
        text = text.replace(new, old)
    return text


OLD_PRELUDE_SRC = _old_prelude_src()


def programs(user=""):
    """(the prelude, the old prelude), each with the *user* clauses after it."""
    return load_prelude(parse_program(user)), parse_program(OLD_PRELUDE_SRC + user)


NEW, OLD = programs()

_VAR = re.compile(r"_[A-Za-z]*[0-9]+")


def outcome(program, goal, first=None, depth_limit=20_000, occurs_check=False):
    """The goal rendered per solution, its first *first* only, then "limit" if the step limit ended it; the diagnostics.

    Unbound variables are renamed _1, _2, ... in order of first occurrence,
    so that runs of the two programs render alike.
    """
    if isinstance(goal, str):
        goal = parse_query(goal, program.operators).goal
    options = SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit, occurs_check=occurs_check)
    solver = Solver(program, options)
    found, solutions = [], solver.solve(goal)
    try:
        for _ in solutions:
            if is_cyclic(goal):  # it has no finite text
                found.append("cyclic")
                break
            names: dict[str, str] = {}
            found.append(_VAR.sub(lambda m: names.setdefault(m.group(), "_%d" % (len(names) + 1)), render_term(goal)))
            if len(found) == first:
                break
    except ResourceLimitError:
        found.append("limit")
    finally:
        solutions.close()
    return found, solver.options.diagnostics.getvalue()


def both(goal, first=None, user="", depth_limit=20_000, occurs_check=False):
    new, old = programs(user) if user else (NEW, OLD)
    return tuple(outcome(program, goal, first, depth_limit, occurs_check) for program in (new, old))


def steps(program, goal):
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    for _ in solver.solve(parse_query(goal, program.operators).goal):
        pass
    return solver.steps


# ---------------------------------------------------------------------------
# Edges


def test_the_operators_run_natives_and_their_old_clauses_are_gone():
    for key in (("descendantOrSelf", 3), ("attributeValue", 3), ("textValue", 2)):
        assert key in _BUILTINS and not prelude_program().defines(*key), key
    for _, old in REPLACED:
        assert old not in PRELUDE_SRC


@pytest.mark.parametrize(
    "goal, new_steps, old_steps",
    [
        # The walk is one native call however many nodes it visits; the
        # rules made two transform/2 calls per node, one of them the failing
        # path fallback.
        ("transform(element(a,[],[element(b,[],[]),text(x),element(c,[],[element(b,[],[])])]) ^ b, X)", 6, 29),
        ("transform(element(a,['k=\"1\"'],[]) @ k, X)", 4, 7),
        ("transform(element(a,['k=\"12\"'],[]) @ k, 12)", 4, 8),
        ("transform(element(a,[],[element(b,[],[]),element(b,[],[])]) / b, X)", 3, 4),
    ],
)
def test_each_operator_gives_its_answers_in_fewer_steps(goal, new_steps, old_steps):
    new, old = both(goal)
    assert new == old and new[0]
    assert (steps(NEW, goal), steps(OLD, goal)) == (new_steps, old_steps)


def test_an_unbound_node_and_each_cell_added_to_an_open_list_cost_a_step():
    # A walk that cannot end stops at the step limit, as the rules did.
    solver = Solver(NEW, SolverOptions(diagnostics=io.StringIO()))
    found = []
    for _ in solver.solve(parse_query("transform(E ^ b, X)", NEW.operators).goal):
        found.append(solver.steps)
        if len(found) == 3:
            break
    assert found == [6, 8, 10]


@pytest.mark.parametrize("name", ["N", "[]", "[b]"])
def test_a_name_that_is_unbound_or_a_list_gives_nothing(name):
    goal = "transform(element(a,[],[element(b,[],[])]) ^ %s, X)" % name
    new, old = both(goal)
    assert new == old == ([], "")


@pytest.mark.parametrize(
    "value, number, found",
    [("012", 12, False), ("12", 12, True), ("1.5", 1.5, True), ("1.50", 1.5, False), ("-3", -3, True)],
)
def test_a_number_matches_a_value_that_is_its_text(value, number, found):
    goal = "transform(element(a,['k=\"%s\"'],[]) @ k, %s)" % (value, number)
    new, old = both(goal)
    assert new == old and len(new[0]) == found


def test_the_cut_still_hides_a_user_clause_for_an_element_with_the_attribute():
    user = "transform(element(_,_,_) @ k, '0')."
    for entries, answers in (("['k=\"1\"']", ["'1'"]), ("['m=\"1\"']", ["'0'"]), ("['k=broken']", ["'0'"])):
        new, old = both("transform(element(a,%s,[]) @ k, X)" % entries, user=user)
        assert new == old
        assert [answer.rsplit(",", 1)[1][:-1] for answer in new[0]] == answers, entries


def test_user_transform_clauses_apply_only_at_the_top_of_the_walk():
    # The rules tried every transform/2 clause on each node they visited,
    # through the path fallback; the walk tries them once, on E itself.
    user = "transform(element(a,A,C), element(b,A,C))."
    nested = "transform(element(r,[],[element(a,[],[])]) ^ b, X)"
    (new, _), (old, _) = both(nested, user=user)
    assert new == []
    assert old == ["transform(^(element(r,[],[element(a,[],[])]),b),element(b,[],[]))"]
    new, old = both("transform(element(a,[],[]) ^ b, X)", user=user)
    assert new == old == (["transform(^(element(a,[],[]),b),element(b,[],[]))"], "")


@pytest.mark.parametrize(
    "goal",
    [
        # an open child list, an unbound child, an unbound element name, an unbound element
        "transform(element(a,[],[element(b,[],[]),text(x)|T]) ^ b, X)",
        "transform(element(a,[],[element(b,[],[]),text(x)|T]) ^ b, element(b,[],[]))",
        "transform(element(a,[],[element(b,[],[]),C,element(b,[],[])]) ^ b, X)",
        "transform(element(a,[],[element(N,[],[]),element(b,[],[])]) ^ b, X)",
        "transform(element(N,[],[element(N,[],[])]) ^ b, X)",
        "transform(E ^ b, X)",
        "transform(E ^ b, text(x))",
        "transform(element(a,[],[element(b,[],[])|T]) / b, X)",
        "transform(element(a,[],[C,element(b,[],[])]) / b, X)",
        "transform(E / b, X)",
        "transform(element(a,['k=\"1\"'|T],[]) @ k, X)",
        "transform(element(a,T,[]) @ k, X)",
    ],
)
def test_the_first_answers_over_partial_trees(goal):
    new, old = both(goal, first=3, depth_limit=3_000)
    assert new == old


@pytest.mark.parametrize(
    "goal, answers",
    [
        # The name holds the unbound node, so binding the node to an element
        # with that name fails the occurs check, at every level of the walk.
        ("transform(E ^ f(E), X)", ["limit"]),
        ("transform(element(a,[],[C,element(f(C),[],[])]) ^ f(C), X)", ["limit"]),
        (
            "transform(element(a,[],[element(f(b),[],[]),C]) ^ f(C), X)",
            ["transform(^(element(a,[],[element(f(b),[],[]),b]),f(b)),element(f(b),[],[]))", "limit"],
        ),
    ],
)
def test_the_walk_keeps_the_occurs_check(goal, answers):
    new, old = both(goal, first=3, depth_limit=500, occurs_check=True)
    assert new == old == (answers, "")


def test_the_walk_runs_on_a_stack_of_its_own():
    node = Compound("element", (Atom("b"), Atom("[]"), Atom("[]")))
    for _ in range(50_000):
        node = Compound("element", (Atom("a"), Atom("[]"), mk_list([node])))
    x = fresh_var("X")
    solver = Solver(NEW, SolverOptions(diagnostics=io.StringIO()))
    answers = [render_term(x) for _ in solver.solve(Compound("transform", (Compound("^", (node, Atom("b"))), x)))]
    assert answers == ["element(b,[],[])"]
    assert solver.steps == 6  # as for a tree of three levels


# ---------------------------------------------------------------------------
# Differential tests on random trees


def _goals(element):
    """Each operator on *element*, with the names and attributes it holds and one it does not."""
    names = sorted({deref(node.args[0]).name for node in elements_of(element)}) + ["z0"]
    for name in names:
        for op in ("^", "/"):
            yield Compound("transform", (Compound(op, (element, Atom(name))), fresh_var("X")))
        bound = Compound("element", (Atom(name), fresh_var("A"), Atom("[]")))
        yield Compound("transform", (Compound("^", (element, Atom(name))), bound))
    entries = [split_attr(entry) for entry in list_items(element.args[1])]
    for att, value in entries + [("z0", "")]:
        for x in (fresh_var("X"), Atom(value), int(value) if value.isdigit() else 7):
            yield Compound("transform", (Compound("@", (element, Atom(att))), x))


@settings(max_examples=60, deadline=None)
@given(plain_trees(max_depth=3))
def test_the_operators_agree_with_the_old_clauses(tree):
    for element in elements_of(tree)[:4]:
        for goal in _goals(element):
            new, old = both(goal)
            assert new == old, render_term(goal)


@settings(max_examples=30, deadline=None)
@given(elements(max_depth=2))
def test_the_operators_agree_with_the_old_clauses_on_mixed_content(tree):
    for goal in _goals(tree):
        new, old = both(goal)
        assert new == old, render_term(goal)


ENTRIES = ('k="1"', 'k="2"', "k=broken", 'm="3"', 'k="012"', 'k="1.5"', 'k=""', "[]")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(ENTRIES), max_size=4),
    st.sampled_from(["k", "m", "[]"]),
    st.sampled_from([None, Atom("2"), Atom("012"), 1, 2, 12, 1.5, 1.0]),
)
def test_at_reads_the_first_well_formed_entry_as_the_old_clause_did(entries, att, x):
    element = Compound("element", (Atom("a"), mk_list([Atom(entry) for entry in entries]), Atom("[]")))
    goal = Compound("transform", (Compound("@", (element, Atom(att))), fresh_var("X") if x is None else x))
    new, old = both(goal)
    assert new == old, render_term(goal)


def _with_hole(tree, target, kind, at):
    """*tree* with element number *target* (pre-order) given a hole of *kind* at child position *at*."""
    count = [0]

    def rebuild(node):
        node = deref(node)
        if not (isinstance(node, Compound) and node.name == "element"):
            return node
        number, count[0] = count[0], count[0] + 1
        name, atts, kids = node.args[0], node.args[1], [rebuild(kid) for kid in list_items(node.args[2])]
        tail = Atom("[]")
        if number == target:
            at_kid = min(at, len(kids))
            if kind == "open":
                kids, tail = kids[:at_kid], fresh_var("T")
            elif kind == "child":
                kids.insert(at_kid, fresh_var("C"))
            elif kind == "name":
                name = fresh_var("N")
            else:
                atts = mk_list(list_items(atts)[:at_kid], fresh_var("T"))
        return Compound("element", (name, atts, mk_list(kids, tail)))

    return rebuild(tree)


@settings(max_examples=80, deadline=None)
@given(
    plain_trees(max_depth=3),
    st.integers(0, 6),
    st.sampled_from(["open", "child", "name", "atts"]),
    st.integers(0, 4),
)
def test_the_first_answers_over_trees_with_holes_agree_with_the_old_clauses(tree, target, kind, at):
    holed = _with_hole(tree, target, kind, at)
    for name in ("a", "b", "z0"):
        for op in ("^", "/"):
            goal = Compound("transform", (Compound(op, (holed, Atom(name))), fresh_var("X")))
            new, old = both(goal, first=3, depth_limit=3_000)
            assert new == old, render_term(goal)
    for att in ("k", "z0"):
        goal = Compound("transform", (Compound("@", (holed, Atom(att))), fresh_var("X")))
        new, old = both(goal, first=3, depth_limit=3_000)
        assert new == old, render_term(goal)
