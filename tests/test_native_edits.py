"""``insertBefore/4``, ``insertAfter/4`` and ``removeAttribute/3`` as natives.

The nine clauses they replace are kept below as the oracle.  Native
predicates shadow program clauses, so the old program is the prelude with
the clauses put back under ``old_`` names and with the church-numeral
``nth/3`` they called (``nth_oracle.NTH``), and each goal runs as
``insertAfter(...)`` on the prelude and as ``old_insertAfter(...)`` on the
old program.  The first part pins the edges and the one change: an
integer position inserts at that cell, once, where the rules inserted at
every cell that unified with the cell's child, first to last.  The second
compares the two programs on ``xmlgen`` trees, whole and with holes:
rendered arguments per solution, their order and number, and the
diagnostics.  Position mode is also compared with Python's
``list.insert``.
"""

import io
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from termxform.logic_engine import _BUILTINS, ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    Atom,
    Compound,
    Var,
    deref,
    fresh_var,
    list_items,
    list_parts,
    mk_list,
    render_term,
    split_attr,
    term_equal,
)
from termxform.transform_prelude import PRELUDE_SRC, load_prelude, prelude_program
from nth_oracle import NTH
from xmlgen import elements, elements_of, plain_trees

NATIVES = "% insertBefore/4, insertAfter/4 and removeAttribute/3 are natives.\n"

REPLACED = """\
removeAttribute(element(N,As,L),Att,
                element(N,As2,L)):-
  atom(Att), attribute(As,Att,_,As2), !.

insertBefore(_,_,RecentNode,_):-
  (var(RecentNode);
   list(RecentNode)),
  !, fail.
insertBefore(_,NewNode,_,_):-
  (var(NewNode);
   list(NewNode)),
  !, fail.
insertBefore(E1,NewNode,RecentNode,
             element(N,A,List2)):-
  E1=element(N,A,List),
  compound(RecentNode),
  !,
  append(Pre,[RecentNode|Post],List),
  append(Pre,[NewNode,RecentNode|Post],
         List2).
insertBefore(E1,NewNode,Position,
             element(N,A,List2)):-
  E1=element(N,A,List),
  integer(Position),
  !, Position>=1,
  nth(Position,List,X),
  append(Pre,[X|Post],List),
  append(Pre,[NewNode,X|Post],List2).

insertAfter(_,_,RecentNode,_):-
  (var(RecentNode); list(RecentNode)),
  !, fail.
insertAfter(_,NewNode,_,_):-
  (var(NewNode); list(NewNode)),
  !, fail.
insertAfter(E1,NewNode,RecentNode,
    element(N,A,List2)):-
  E1=element(N,A,List),
  compound(RecentNode), !,
  append(Pre,[RecentNode|Post],List),
  append(Pre,[RecentNode,NewNode|Post],
         List2).
insertAfter(E1,NewNode,Position,
            element(N,A,List2)):-
  E1=element(N,A,List), integer(Position),
  !,
  Position>=1, nth(Position,List,X),
  append(Pre,[X|Post],List),
  append(Pre,[X,NewNode|Post],List2).
"""

EDITS = {"insertBefore": 4, "insertAfter": 4, "removeAttribute": 3}


def _old_prelude_src():
    """The prelude with the edits' clauses under ``old_`` names, and the ``nth/3`` they called."""
    assert PRELUDE_SRC.count(NATIVES) == 1 and PRELUDE_SRC.count(NTH[0]) == 1
    renamed = re.sub(r"\b(%s)\(" % "|".join(EDITS), r"old_\1(", REPLACED)
    return PRELUDE_SRC.replace(NATIVES, renamed).replace(*NTH)


NEW, OLD = load_prelude(), parse_program(_old_prelude_src())

_VAR = re.compile(r"_[A-Za-z]*[0-9]+")


def outcome(program, name, args, first=None, depth_limit=20_000):
    """The arguments rendered per solution of name(*args*), its first *first* only, then "limit" if the step limit ended it; the diagnostics.

    Unbound variables are renamed _1, _2, ... in order of first occurrence,
    so that runs of the two programs render alike.
    """
    if program is OLD:
        name = "old_" + name
    goal = Compound(name, tuple(args))
    shown = Compound("args", tuple(args))
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit))
    found, solutions = [], solver.solve(goal)
    try:
        for _ in solutions:
            names: dict[str, str] = {}
            found.append(_VAR.sub(lambda m: names.setdefault(m.group(), "_%d" % (len(names) + 1)), render_term(shown)))
            if len(found) == first:
                break
    except ResourceLimitError:
        found.append("limit")
    finally:
        solutions.close()
    return found, solver.options.diagnostics.getvalue()


def both(name, args, first=None, depth_limit=20_000):
    return tuple(outcome(program, name, args, first, depth_limit) for program in (NEW, OLD))


def term(text):
    """The term *text*, read as a query with the default operators."""
    return parse_query(text, NEW.operators).goal


def goal_args(text):
    goal = term(text)
    return goal.name, goal.args


def steps(program, text):
    name, args = goal_args(text)
    if program is OLD:
        name = "old_" + name
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    for _ in solver.solve(Compound(name, args)):
        pass
    return solver.steps


def shown(*args):
    return render_term(Compound("args", args))


# ---------------------------------------------------------------------------
# Edges


def test_the_edits_run_natives_and_their_old_clauses_are_gone():
    for key in EDITS.items():
        assert key in _BUILTINS and not prelude_program().defines(*key), key
    for clause in REPLACED.split("\n\n"):
        assert clause not in PRELUDE_SRC


@pytest.mark.parametrize(
    "goal, new_steps, old_steps",
    [
        ("insertAfter(element(x,[],[element(a,[],[]),element(b,[],[])]), element(n,[],[]), 1, R)", 1, 27),
        ("insertBefore(element(x,[],[text(p),text(q),text(r)]), text(n), 3, R)", 1, 41),
        ("insertAfter(element(x,[],[text(p),text(q),text(r)]), text(n), text(q), R)", 1, 12),
        ("removeAttribute(element(i,['cat=\"misc\"','price=\"3\"'],[]), cat, R)", 1, 4),
    ],
)
def test_each_edit_is_one_call(goal, new_steps, old_steps):
    name, args = goal_args(goal)
    new, old = both(name, args)
    assert new == old and len(new[0]) == 1
    assert (steps(NEW, goal), steps(OLD, goal)) == (new_steps, old_steps)


def test_a_position_inserts_at_that_cell_once():
    # The rules found the third child, text(x), and then inserted after
    # every cell that unified with it, the first one first.
    name, args = goal_args("insertAfter(element(a,[],[text(x),text(y),text(x)]), text(n), 3, R)")
    new, old = both(name, args)
    assert [answer.rsplit("element(a,[],", 1)[1] for answer in new[0]] == ["[text(x),text(y),text(x),text(n)]))"]
    assert [answer.rsplit("element(a,[],", 1)[1] for answer in old[0]] == [
        "[text(x),text(n),text(y),text(x)]))",
        "[text(x),text(y),text(x),text(n)]))",
    ]
    name, args = goal_args("insertBefore(element(a,[],[text(x),text(y),text(x)]), text(n), 3, R)")
    assert outcome(NEW, name, args)[0] == [shown(*args[:3], term("element(a,[],[text(x),text(y),text(n),text(x)])"))]


def test_a_position_extends_an_open_child_list_to_that_cell_once():
    name, args = goal_args("insertAfter(E, n, 2, element(a,[],[x,y,n,z]))")
    new, old = both(name, args, first=2, depth_limit=1_000)
    assert new == (["args(element(a,[],[x,y,z]),n,2,element(a,[],[x,y,n,z]))"], "")
    # The rules gave the same answer, then searched the open list until the step limit.
    assert old == (["args(element(a,[],[x,y,z]),n,2,element(a,[],[x,y,n,z]))", "limit"], "")
    # One step for the call and one per cell added.
    assert steps(NEW, "insertAfter(E, n, 2, element(a,[],[x,y,n,z]))") == 3
    assert steps(NEW, "insertBefore(element(a,[],[p|T]), n, 5, R)") == 5
    found, _ = outcome(NEW, *goal_args("insertBefore(element(a,[],[p|T]), n, 3, R)"))
    assert found == ["args(element(a,[],[p,_1,_2|_3]),n,3,element(a,[],[p,_1,n,_2|_3]))"]


def test_a_position_past_a_proper_list_fails_at_once():
    for goal in (
        "insertAfter(element(a,[],[x,y]), n, 3, R)",
        "insertBefore(element(a,[],[]), n, 1, R)",
        "insertAfter(element(a,[],[x,y|z]), n, 3, R)",
    ):
        assert outcome(NEW, *goal_args(goal)) == ([], ""), goal
        assert steps(NEW, goal) == 1
    # The church numeral for nth/3 took steps in proportion to the position.
    big = "insertAfter(element(a,[],[x,y]), n, 1000000000, R)"
    assert steps(NEW, big) == 1
    assert outcome(OLD, *goal_args(big), depth_limit=5_000) == (["limit"], "")


def test_the_last_of_many_children_is_a_position_like_any_other():
    children = mk_list([Compound("text", (Atom("c%d" % i),)) for i in range(50_000)])
    element, new, result = Compound("element", (Atom("a"), Atom("[]"), children)), Atom("n"), fresh_var("R")
    solver = Solver(NEW, SolverOptions(diagnostics=io.StringIO()))
    answers = [list_items(deref(result).args[2])[-2:] for _ in solver.solve(Compound("insertAfter", (element, new, 50_000, result)))]
    assert [[render_term(item) for item in answer] for answer in answers] == [["text(c49999)", "n"]]
    assert solver.steps == 1


@pytest.mark.parametrize(
    "anchor, node",
    [
        ("A", "text(n)"),
        ("[]", "text(n)"),
        ("[text(x)]", "text(n)"),
        ("text(x)", "N"),
        ("text(x)", "[]"),
        ("text(x)", "[text(n)]"),
        ("1", "N"),
        ("x", "text(n)"),
        ("1.0", "text(n)"),
        ("0", "text(n)"),
        ("-1", "text(n)"),
    ],
)
def test_guards_and_positions_that_fail(anchor, node):
    for name in ("insertBefore", "insertAfter"):
        args = term("f(element(a,[],[text(x),[text(x)],[]]), %s, %s, R)" % (node, anchor)).args
        assert both(name, args) == (([], ""), ([], "")), (name, anchor, node)


def test_a_partial_list_anchor_is_a_compound():
    for name in ("insertBefore", "insertAfter"):
        args = term("f(element(a,[],[x,[y|z],[y]]), n, [y|T], R)").args
        new, old = both(name, args)
        assert new == old and len(new[0]) == 2


@pytest.mark.parametrize(
    "goal",
    [
        # E must be an element, and R one with the same name and attributes.
        "insertAfter(text(x), n, 1, R)",
        "insertAfter(element(a,[],[x]), n, 1, element(b,[],R))",
        "insertAfter(element(a,[],[x]), n, x, element(a,['k=\"1\"'],R))",
        "insertAfter(element(a,[],[x]), n, x, text(y))",
        "removeAttribute(text(x), k, R)",
        "removeAttribute(element(a,['k=\"1\"'],[]), k, element(b,[],[]))",
        "removeAttribute(element(a,['k=\"1\"'],[]), k, element(a,[],[x]))",
    ],
)
def test_an_element_that_does_not_fit_fails(goal):
    new, old = both(*goal_args(goal))
    assert new == old == ([], "")


def test_remove_attribute_commits_to_the_first_entry_whose_removal_fits():
    cases = [
        ("removeAttribute(element(a,['k=\"1\"','k=\"2\"'],[]), k, element(a,['k=\"1\"'],[]))", 1),
        ("removeAttribute(element(a,['k=\"1\"','k=\"2\"'],[]), k, element(a,[X],[]))", 1),
        ("removeAttribute(element(a,['k=\"1\"','m=\"2\"','k=\"3\"'],[]), k, element(a,['k=\"1\"',_],[]))", 1),
        ("removeAttribute(element(a,['k=\"1\"',V,'k=\"2\"'],[]), k, element(a,[W,'k=\"2\"'],[]))", 1),
        ("removeAttribute(element(a,[k,'k=x','k=\"1\"'],[]), k, R)", 1),
        ("removeAttribute(element(a,['k=\"1\"'],[]), k, element(a,[z],[]))", 0),
    ]
    for goal, count in cases:
        new, old = both(*goal_args(goal))
        assert new == old and len(new[0]) == count, goal


@pytest.mark.parametrize(
    "goal",
    [
        "removeAttribute(E, k, R)",
        "removeAttribute(element(a,['k=\"1\"'|T],[]), k, R)",
        "removeAttribute(element(a,T,[]), k, R)",
        "removeAttribute(element(a,['k=\"1\"'],[]), K, R)",
        "removeAttribute(element(a,['k=\"1\"'],[]), 1, R)",
        "removeAttribute(element(a,['k=\"1\"'],[]), f(k), R)",
        "removeAttribute(element(a,['k=\"1\"'],[]), [], R)",
    ],
)
def test_remove_attribute_fails_without_an_element_an_atom_or_a_proper_list(goal):
    new, old = both(*goal_args(goal))
    assert new == old == ([], "")


@pytest.mark.parametrize(
    "goal",
    [
        # open child lists, unbound elements, unbound children and nodes, a partly bound result
        "insertAfter(element(a,[],[x,y|T]), n, y, R)",
        "insertBefore(element(a,[],[x,y|T]), n, z, R)",
        "insertAfter(E, n, x, R)",
        "insertBefore(E, n, x, element(a,[],[p,n,x,q]))",
        "insertAfter(E, n, x, element(a,A,[x,n|T]))",
        "insertAfter(element(a,[],[C,y,x]), n, x, R)",
        "insertBefore(element(a,[],[x,y,x]), n, x, element(a,[],[x,y,n,x]))",
        "insertBefore(element(a,[],[x,y,x]), n, x, element(a,[],[N|T]))",
        "insertAfter(element(a,[],[f(1),f(2),f(3)]), g(X), f(X), R)",
        "insertAfter(element(a,[],[f(1),f(2)|T]), n, f(X), R)",
        "insertAfter(element(a,[],[x,y]), N, x, R)",
        "insertBefore(element(N,A,[x,y]), n, y, R)",
        "insertAfter(element(a,[],L), n, x, element(a,[],[x,n]))",
        "insertAfter(element(a,[],[x,y]), n, x, element(a,[],[x,n,y|T]))",
        "insertAfter(element(a,[],[x,y]), n, x, element(a,[],[x,m,y]))",
    ],
)
def test_the_first_answers_by_anchor_agree_with_the_old_clauses(goal):
    new, old = both(*goal_args(goal), first=3, depth_limit=3_000)
    assert new == old


# ---------------------------------------------------------------------------
# Position mode against list.insert


def _insert_oracle(items, position, offset, node):
    """Python's list insert at cell *position*; None past the end."""
    if not 1 <= position <= len(items):
        return None
    out = list(items)
    out.insert(position - 1 + offset, node)
    return out


def _first_unifying_cell(items, index):
    """Whether no earlier child unifies with child *index* (all ground here)."""
    return not any(term_equal(item, items[index]) for item in items[:index])


def _check_positions(element, node):
    items = list_items(element.args[2])
    for name, offset in (("insertBefore", 0), ("insertAfter", 1)):
        for position in range(1, len(items) + 2):
            result = fresh_var("R")
            args = (element, node, position, result)
            new = outcome(NEW, name, args)
            expected = _insert_oracle(items, position, offset, node)
            edited = [] if expected is None else [Compound("element", (element.args[0], element.args[1], mk_list(expected)))]
            assert new == ([shown(element, node, position, e) for e in edited], ""), (name, position)
            if expected is None or _first_unifying_cell(items, position - 1):
                # The rules' first answer inserted at this cell.
                assert new[0] == outcome(OLD, name, args, first=1)[0], (name, position)
            # A bound result answers once when it is the list insert.
            for candidate in edited:
                assert outcome(NEW, name, (element, node, position, candidate))[0] == [shown(element, node, position, candidate)]


@settings(max_examples=60, deadline=None)
@given(plain_trees(max_depth=2))
def test_positions_insert_as_list_insert_does(tree):
    for element in elements_of(tree)[:3]:
        _check_positions(element, Compound("text", (Atom("new"),)))


# ---------------------------------------------------------------------------
# Differential tests on random trees


def _anchors(element):
    children = list_items(element.args[2])
    return children[:3] + [
        Compound("text", (Atom("z0"),)),
        Compound("text", (fresh_var("T"),)),
        Compound("element", (fresh_var("N"), fresh_var("A"), fresh_var("C"))),
    ]


@settings(max_examples=60, deadline=None)
@given(plain_trees(max_depth=3))
def test_anchors_agree_with_the_old_clauses(tree):
    for element in elements_of(tree)[:4]:
        node = Compound("element", (Atom("new"), Atom("[]"), Atom("[]")))
        for name in ("insertBefore", "insertAfter"):
            for anchor in _anchors(element):
                new, old = both(name, (element, node, anchor, fresh_var("R")))
                assert new == old, (name, render_term(element), render_term(anchor))


@settings(max_examples=40, deadline=None)
@given(elements(max_depth=2))
def test_the_edits_agree_with_the_old_clauses_on_mixed_content(tree):
    for element in elements_of(tree)[:4]:
        node = Compound("comment", (Atom("new"),))
        for name in ("insertBefore", "insertAfter"):
            for anchor in _anchors(element):
                new, old = both(name, (element, node, anchor, fresh_var("R")))
                assert new == old, (name, render_term(element), render_term(anchor))
        names = [Atom(split_attr(entry)[0]) for entry in list_items(element.args[1])]
        for att in names + [Atom("z0"), fresh_var("K")]:
            new, old = both("removeAttribute", (element, att, fresh_var("R")))
            assert new == old, (render_term(element), render_term(att))
        _check_positions(element, node)


ENTRIES = ('k="1"', 'k="2"', "k=broken", 'm="3"', 'k=""', "k", "[]", 'k="1"')


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(ENTRIES), max_size=5),
    st.sampled_from(["k", "m", "[]"]),
    st.sampled_from(["R", "element(a,As,C)", "element(a,[],[])", "element(a,[X|T],[])", "element(a,[_,Y],[])", "element(a,['k=\"1\"'|T],[])"]),
)
@example(['k="1"', 'k="2"'], "k", "element(a,['k=\"1\"'|T],[])")  # the first entry's removal does not fit
def test_remove_attribute_agrees_with_the_old_clause_on_duplicate_and_malformed_entries(entries, att, result):
    element = Compound("element", (Atom("a"), mk_list([Atom(entry) for entry in entries]), Atom("[]")))
    new, old = both("removeAttribute", (element, Atom(att), term(result)))
    assert new == old, (entries, att, result)


def _with_hole(element, kind, at):
    """*element* with a hole of *kind* at child position *at*."""
    name, atts, kids = element.args[0], element.args[1], list(list_items(element.args[2]))
    tail = Atom("[]")
    at = min(at, len(kids))
    if kind == "open":
        kids, tail = kids[:at], fresh_var("T")
    elif kind == "child":
        kids.insert(at, fresh_var("C"))
    elif kind == "name":
        name = fresh_var("N")
    else:
        atts = mk_list(list_items(atts)[:at], fresh_var("T"))
    return Compound("element", (name, atts, mk_list(kids, tail)))


@settings(max_examples=80, deadline=None)
@given(
    plain_trees(max_depth=2),
    st.sampled_from(["open", "child", "name", "atts"]),
    st.integers(0, 4),
    st.sampled_from(["fresh", "unbound element", "bound"]),
)
def test_the_first_answers_over_elements_with_holes_agree_with_the_old_clauses(tree, kind, at, result):
    element = _with_hole(tree, kind, at)
    node = Compound("text", (Atom("new"),))
    items = list_items(tree.args[2])
    for name, offset in (("insertBefore", 0), ("insertAfter", 1)):
        for anchor in _anchors(tree)[:2] + [Compound("text", (Atom("t1"),))]:
            if result == "bound" and items:
                out = Compound("element", (tree.args[0], tree.args[1], mk_list(_insert_oracle(items, 1, offset, node))))
            elif result == "unbound element":
                out = Compound("element", (fresh_var("N"), fresh_var("A"), fresh_var("L")))
            else:
                out = fresh_var("R")
            new, old = both(name, (element, node, anchor, out), first=3, depth_limit=300)
            assert new == old, (name, render_term(element), render_term(anchor), render_term(out))
    for att in ("k", "z0"):
        new, old = both("removeAttribute", (element, Atom(att), fresh_var("R")), first=3, depth_limit=300)
        assert new == old, (render_term(element), att)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 6), st.sampled_from([0, 1]))
def test_positions_on_open_lists_extend_them_to_that_cell(known, position, offset):
    # [c1, ..., c_known | T], insert at cell *position*: one answer, with
    # T extended to the missing cells at one step each.
    items = [Atom("c%d" % i) for i in range(known)]
    tail = fresh_var("T")
    element = Compound("element", (Atom("a"), Atom("[]"), mk_list(items, tail)))
    name = ("insertBefore", "insertAfter")[offset]
    result = fresh_var("R")
    solver = Solver(NEW, SolverOptions(diagnostics=io.StringIO()))
    answers = [list_parts(deref(result).args[2]) for _ in solver.solve(Compound(name, (element, Atom("n"), position, result)))]
    assert len(answers) == 1
    cells, rest = answers[0]
    assert type(rest) is Var
    assert len(cells) == max(known, position) + 1
    assert cells[position - 1 + offset] == Atom("n")
    assert [cell for cell in cells if cell in items] == items
    assert solver.steps == 1 + max(0, position - known)
