"""``level``, ``distinct``, ``atts``, ``E # N``, ``E ? N``, ``E c N``, ``nth/3`` and ``position/3`` against the rules they replace.

``Tree level Node`` and ``nth/3`` count each child's position with an
integer as ``childAt/4`` walks the list, so a node is found once, at its
own position, and ``position/3`` reads positions through ``nth/3``.
``distinct`` cuts after the first ``member/2`` that finds an equal later
item, so it answers once.  ``atts`` on an element is one
``findall/3`` behind a cut, and ``#``, ``?`` and ``c`` share ``nthNode/5``.
The rules they replace are kept below as the oracle (``nth/3``'s in
``nth_oracle``, which ``test_native_edits`` shares): the old program is the
prelude with each old block put back in place of the new one.

The named changes, each pinned in the first part:

- ``distinct`` gives only the first of its old answers (k equal children
  gave (k-1)! equal answers);
- a node inside a later one of equal sibling subtrees gets only its own
  position: the old rules found the subtree again with ``nth/3`` and gave
  the position of every sibling that unifies with it;
- ``atts E`` and ``E ? Att`` on an element no longer add answers through a
  user ``transform/2`` clause on that element;
- ``#``, ``?`` and ``c`` take the same 14 steps at positions 1, 2 and 3 of
  a three-node element, where the old rules took 18, 24 and 30;
- ``nth/3`` at a position past the end of a list that ends fails at that
  end: the old rules counted the position down as a church numeral first,
  to the step limit at 1,000,000,000;
- ``nth/3`` at a position that is no number fails without the warning
  ``is/2: expected a number, got ...``;
- ``level1/3``, ``level0/4``, ``levels0/5`` and ``nth0/3`` are gone.

The second part compares the two programs on ``xmlgen`` trees, whole and
with holes: rendered answers, their order and number, and the diagnostics,
and checks that each difference is one of the changes above.  The third
pins the exponent of the work of ``level`` and ``position/3``, counted as
Python-level calls.
"""

import io
import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from termxform.logic_engine import ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    Var,
    deref,
    fresh_var,
    is_ground,
    list_items,
    list_parts,
    mk_list,
    render_term,
    split_attr,
    term_equal,
)
from termxform.transform_prelude import PRELUDE_SRC, load_prelude, prelude_program
from nth_oracle import NTH
from xmlgen import elements, elements_of, plain_trees, punch

# (the prelude's text, the text it replaced)
ATTS = (
    """\
transform(atts element(_,L,_),Y):-
  !, findall(X,selectattribute(X,L),Y),
  Y=[_|_].
""",
    """\
transform(atts element(_,L,_),_):-
  findall(X,selectattribute(X,L),[]),
  !, fail.
transform(atts element(_,L,_),Y):-
  findall(X,selectattribute(X,L),Y).
""",
)

REPLACED = [
    ATTS,
    *(
        (
            """\
transform(element(_,_,L) %s N,Y):-
  nthNode(%s(X),X,L,N,Y).
"""
            % (operator, functor),
            """\
transform(element(_,_,L) %s N,Y):-
  integer(N), N>=1,
  findall(X,member(%s(X),L),Z),
  nth(N,Z,Y).
"""
            % (operator, functor),
        )
        for operator, functor in (("#", "text"), ("?", "pi"), ("c", "comment"))
    ),
    (
        """\
transform(Tree level Node,Y):-
  level0(Tree,Node,Y).
transform(Tree level Node,Y):-
  transform(Tree,Tree2),
  transform(Node,Node2),
  level0(Tree2,Node2,Y).
""",
        """\
transform(Tree level Node,Y):-
  level1(Tree,Node,Y).
transform(Tree level Node,Y):-
  transform(Tree,Tree2),
  transform(Node,Node2),
  level1(Tree2,Node2,Y).
""",
    ),
    (
        """\
level0(element(_,_,C),Y,[N]):-
  childAt(C,1,Y,N).
level0(element(_,_,C),Y,[N|P]):-
  childAt(C,1,H,N), level0(H,Y,P).

childAt([H|_],I,H,I).
childAt([_|T],I,H,N):-
  I2 is I+1, childAt(T,I2,H,N).

nthNode(Node,X,L,N,Y):-
  integer(N), N>=1,
  findall(X,member(Node,L),Z),
  nth(N,Z,Y).
""",
        """\
level1(Tree,Node,Result):-
  level0(Tree,Node,[],Result).

level0(element(_,_,Children),Y,Res0,Res):-
  nth(N,Children,Y), Res=[N|Res0].
level0(element(_,_,[H|T]),Y,Res0,Res):-
  level0(H,Y,Res0,Res1),
  Res=[1|Res1];
  levels0([H|T],T,Y,Res0,Res).

levels0(L,[H|T],Y,Res0,Res):-
  level0(H,Y,Res0,Res1),
  nth(N,L,H), Res=[N|Res1];
  levels0(L,T,Y,Res0,Res).
""",
    ),
    (
        """\
removeDuplicates([H|T],T2):-
  member(H,T), !,
  removeDuplicates(T,T2).
removeDuplicates([H|T],[H|T2]):-
  removeDuplicates(T,T2).
""",
        """\
removeDuplicates([H|T],T2):-
  member(H,T),
  removeDuplicates(T,T2).
removeDuplicates([H|T],[H|T2]):-
  not(member(H,T)),
  removeDuplicates(T,T2).
""",
    ),
    NTH,
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
USER = "transform(element(a,_,_), element(b,['k=\"9\"'],[])).\n"
NEW_USER, OLD_USER = programs(USER)

_VAR = re.compile(r"_[A-Za-z]*[0-9]+")


def outcome(program, goal, first=None, depth_limit=20_000):
    """The goal rendered per solution, its first *first* only, then "limit" if the step limit ended it; the diagnostics.

    Unbound variables are renamed _1, _2, ... in order of first occurrence,
    so that runs of the two programs render alike.
    """
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit))
    found, solutions = [], solver.solve(goal)
    try:
        for _ in solutions:
            names: dict[str, str] = {}
            found.append(_VAR.sub(lambda m: names.setdefault(m.group(), "_%d" % (len(names) + 1)), render_term(goal)))
            if len(found) == first:
                break
    except ResourceLimitError:
        found.append("limit")
    finally:
        solutions.close()
    return found, solver.options.diagnostics.getvalue()


def term(text):
    """The term *text*, read as a query with the default operators."""
    return parse_query(text, NEW.operators).goal


def steps(program, goal, first=False):
    """Steps to the first answer of *goal* (*first*), or to its end."""
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=10_000_000))
    for _ in solver.solve(goal):
        if first:
            break
    return solver.steps


def transform(operand, output):
    return Compound("transform", (operand, output))


def rows(count, same=False):
    """A flat element of *count* empty rows, each with an attribute i: 0, 1, 2, ... or always 0 (*same*)."""
    row = lambda i: Compound("element", (Atom("r"), mk_list([Atom('i="%d"' % (0 if same else i))]), EMPTY_LIST))
    return Compound("element", (Atom("t"), EMPTY_LIST, mk_list([row(i) for i in range(count)])))


def level_findall(tree):
    """findall(P, transform(tree level _, P), L)."""
    path = fresh_var("P")
    return Compound("findall", (path, transform(Compound("level", (tree, fresh_var("N"))), path), fresh_var("L")))


def distinct_goal(tree, output=None):
    return transform(Compound("distinct", (tree,)), fresh_var("X") if output is None else output)


# ---------------------------------------------------------------------------
# Edges and the named changes


def test_the_old_helpers_are_gone():
    program = prelude_program()
    for key in (("level1", 3), ("level0", 4), ("levels0", 5), ("nth0", 3)):
        assert not program.defines(*key), key
    assert program.defines("level0", 3) and program.defines("childAt", 4) and program.defines("nthNode", 5)
    for _, old in REPLACED:
        assert old not in PRELUDE_SRC


EQUAL = [
    # level
    "transform(element(a,[],[text(x),element(b,[],[text(y),pi(p)])]) level N, P)",
    "transform(element(a,[],[text(x),element(b,[],[text(y)])]) level text(y), P)",
    "transform(element(a,[],[text(x),element(b,[],[text(y)])]) level N, [2,1])",
    "transform(element(a,[],[text(x),element(b,[],[text(y)])]) level N, [2|P])",
    "transform(element(a,[],[text(x),element(b,[],[text(y)])]) level N, [1,1])",
    "transform(element(a,[],[element(b,[],[]),element(b,[],[])]) level N, P)",
    "transform(element(a,[],[text(x),text(x)]) level text(x), P)",
    "transform(element(a,[],[]) level N, P)",
    "transform(element(a,[],C) level N, P)",
    "transform(element(a,[],[text(x)|T]) level N, P)",
    "transform(element(a,[],[text(x)|T]) level text(y), P)",
    "transform(element(a,[],[X,text(y)]) level text(y), P)",
    "transform(element(a,[],[text(x)|foo]) level N, P)",
    "transform(element(a,[],foo) level N, P)",
    "transform(element(a,[],[5,[],foo(x),element(b,[],[5])]) level N, P)",
    "transform(element(a,[],[5,[],foo(x),element(b,[],[5])]) level 5, P)",
    "transform(text(x) level N, P)",
    "transform(X level N, P)",
    "transform((element(r,[],[element(b,[],[text(y)])]) / b) level N, P)",
    "transform((element(r,[],[element(b,[],[text(y)])]) / b) level text(y), P)",
    # distinct, where the old rules answer once
    "transform(distinct element(r,[],[text(a),text(b),text(a)]), X)",
    "transform(distinct element(r,[],[text(a),text(b)]), X)",
    "transform(distinct element(r,[],[text(a),text(a)]), element(r,[],[text(a)]))",
    "transform(distinct element(r,[],[text(a),text(a)]), element(r,[],[text(a),text(a)]))",
    "transform(distinct element(r,[],[]), X)",
    "transform(distinct element(r,[],C), X)",
    "transform(distinct element(r,[],[text(a)|T]), X)",
    "transform(distinct element(r,[],foo), X)",
    "transform(distinct text(a), X)",
    "transform(distinct X, Y)",
    # atts
    "transform(atts element(a,['k=\"1\"','m=\"2\"'],[]), X)",
    "transform(atts element(a,['k=\"1\"','m=\"2\"'],[]), [k,m])",
    "transform(atts element(a,['k=\"1\"','m=\"2\"'],[]), [m,k])",
    "transform(atts element(a,['k=\"1\"'],[]), [])",
    "transform(atts element(a,['k=\"1\"'],[]), [K|T])",
    "transform(atts element(a,['k=\"1\"'],[]), foo)",
    "transform(atts element(a,[],[]), X)",
    "transform(atts element(a,[],[]), [])",
    "transform(atts element(a,[junk,3,V,'k=\"1\"'],[]), X)",
    "transform(atts element(a,L,[]), X)",
    "transform(atts element(a,['k=\"1\"'|T],[]), X)",
    "transform(atts element(a,foo,[]), X)",
    "transform(atts text(x), X)",
    "transform(atts E, X)",
    "transform(atts (element(r,[],[element(b,['k=\"1\"'],[]),element(b,[],[])]) / b), X)",
    "transform(element(a,['k=\"1\"','m=\"2\"'],[]) ? m)",
    "transform(element(a,['k=\"1\"'],[]) ? z)",
    "transform(element(a,['k=\"1\"'],[]) ? K)",
    "transform(element(a,[],[]) ? k)",
    # # ? c
    *(
        "transform(element(a,[],[text(x),pi(p),comment(c),text(y),pi(q),comment(d)]) %s %s, Y)" % (op, n)
        for op in ("#", "?", "c")
        for n in ("1", "2", "3", "0", "-1", "1.5", "a", "N")
    ),
    "transform(element(a,[],[text(x),text(y)]) # 2, y)",
    "transform(element(a,[],[text(x),text(y)]) # 2, x)",
    "transform(element(a,[],[text(x),X,text(y)]) # 2, Y)",
    "transform(element(a,[],[text(x)|T]) # 1, Y)",
    "transform(element(a,[],[pi(x)|T]) ? 2, Y)",
    "transform(element(a,[],C) c 1, Y)",
    "transform(element(a,[],foo) # 1, Y)",
    "transform((element(r,[],[element(b,[],[comment(c)])]) / b) c 1, Y)",
    "transform(X # 1, Y)",
    # nth: a position that is no number, and a huge one on a list that
    # ends, are named changes below
    *(
        "nth(%s,%s,%s)" % (n, items, e)
        for n in ("N", "1", "3", "0", "-1", "1.5", "2.0", "1000000000")
        for items in ("[a,b,c]", "[a|T]", "L", "[a,b|c]")
        for e in ("E", "b", "z")
        if not (n == "1000000000" and items in ("[a,b,c]", "[a,b|c]"))
    ),
    # position
    "position(element(a,[],[text(x),text(y)]), C, P)",
    "position(element(a,[],[text(x),text(y)]), text(y), P)",
    "position(element(a,[],[text(x),text(y)]), C, 2)",
    "position(element(a,[],[text(x)|T]), C, P)",
    "position(element(a,[],foo), C, P)",
    "position(text(x), C, P)",
    "position(T, text(x), 2)",
    "position(T, C, P)",
]


@pytest.mark.parametrize("goal", EQUAL)
def test_edges_agree_with_the_old_rules(goal):
    goal = term(goal)
    assert outcome(NEW, goal, first=5, depth_limit=5_000) == outcome(OLD, goal, first=5, depth_limit=5_000)


@pytest.mark.parametrize(
    "goal",
    [
        "transform(distinct element(r,[],[text(a),text(a),text(a)]), X)",
        "transform(distinct element(r,[],[text(a),text(b),text(a),text(b),text(a)]), X)",
        "transform(distinct element(r,[],[text(a),text(b),X1]), X)",
        "transform(distinct element(r,[],[A,B,text(a)]), X)",
        "transform(distinct element(r,[],[text(a),A,text(a)]), X)",
    ],
)
def test_distinct_gives_the_first_of_the_old_answers(goal):
    goal = term(goal)
    new, old = outcome(NEW, goal), outcome(OLD, goal)
    assert len(old[0]) > 1 and new == (old[0][:1], old[1])


@pytest.mark.parametrize("count", [3, 4, 5, 6])
def test_equal_children_gave_factorially_many_answers(count):
    goal = distinct_goal(Compound("element", (Atom("r"), EMPTY_LIST, mk_list([Compound("text", (Atom("a"),))] * count))))
    new, old = outcome(NEW, goal), outcome(OLD, goal)
    assert len(new[0]) == 1 and old[0] == new[0] * math.factorial(count - 1)


def values(program, text, *names):
    """The variables *names* of the query *text*, rendered per solution on *program* (two joined by -)."""
    query = parse_query(text, program.operators)
    shown = [query.variables[name] for name in names]
    shown = shown[0] if len(shown) == 1 else Compound("-", tuple(shown))
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    return [render_term(shown) for _ in solver.solve(query.goal)]


def test_a_node_inside_equal_siblings_gets_its_own_position():
    # The old rules found the second b again with nth/3, which also
    # matched the first, so the c inside the second b came as [1,1] too.
    text = "transform(element(a,[],[element(b,[],[element(c,[],[])]),element(b,[],[element(c,[],[])])]) level N, P)"
    assert values(NEW, text, "P") == ["[1]", "[2]", "[1,1]", "[2,1]"]
    assert values(OLD, text, "P") == ["[1]", "[2]", "[1,1]", "[1,1]", "[2,1]"]


def test_a_user_clause_adds_no_attribute_names_to_an_element():
    # The old atts tried its path clause on a bound element too, and so
    # also the user's transform of the element.
    element = "element(a,['k=\"1\"'],[])"
    for program, expected in ((NEW_USER, ["[k]"]), (OLD_USER, ["[k]", "[k]"])):
        assert values(program, "transform(atts %s, N)" % element, "N") == expected
        assert len(values(program, "transform(%s ? k), X = y" % element, "X")) == len(expected)
    # nor to the element a path leads to
    path = "transform(atts (element(r,[],[element(a,['m=\"1\"'],[])]) / a), N)"
    assert (values(NEW_USER, path, "N"), values(OLD_USER, path, "N")) == (["[m]"], ["[m]", "[k]"])


@pytest.mark.parametrize("operator", ["#", "?", "c"])
@pytest.mark.parametrize("position, old_steps", [(1, 18), (2, 24), (3, 30)])
def test_nth_content_steps_do_not_grow_with_the_position(operator, position, old_steps):
    # One node of each kind: nth/3 reads its one cell, and the old rules
    # built the position's church numeral first.
    goal = term("transform(element(a,[],[text(x),pi(p),comment(c)]) %s %d, Y)" % (operator, position))
    assert (steps(NEW, goal), steps(OLD, goal)) == (14, old_steps)


@pytest.mark.parametrize("items, new_steps", [("[a,b,c]", 11), ("[a,b|c]", 9)])
def test_a_position_past_a_list_that_ends_fails_at_its_end(items, new_steps):
    # The old rules counted 1,000,000,000 down to zero before they read the list.
    goal = term("nth(1000000000,%s,E)" % items)
    assert outcome(NEW, goal) == ([], "") and outcome(OLD, goal, depth_limit=5_000) == (["limit"], "")
    assert steps(NEW, goal) == new_steps


@pytest.mark.parametrize("items", ["[a,b,c]", "[a|T]", "L"])
def test_a_position_that_is_no_number_fails_without_a_warning(items):
    goal = term("nth(a,%s,E)" % items)
    assert (outcome(NEW, goal), outcome(OLD, goal)) == (([], ""), ([], "warning: is/2: expected a number, got a\n"))


def test_steps():
    # level: 7 steps a row where the old rules searched each row again
    # with nth/3 through church numerals.  distinct: the one member/2 walk
    # of a row that has no equal, not the second one under not/1.
    assert (steps(NEW, level_findall(rows(250))), steps(OLD, level_findall(rows(250)))) == (1_756, 160_136)
    assert steps(NEW, level_findall(rows(2_000))) == 14_006
    goal = distinct_goal(rows(250))
    assert (steps(NEW, goal, first=True), steps(OLD, goal, first=True)) == (1_006, 1_506)


# ---------------------------------------------------------------------------
# Differential tests on random trees


def level_paths(element, own):
    """(path, node) of each answer of level on the ground *element*, with unbound node, in answer order.

    *own* gives each node its own position; otherwise a node inside the
    i-th child (i > 1) gets the position of every child equal to the i-th,
    as the old rules' nth/3 search gave.
    """
    children = list_items(deref(element).args[2])
    found = [([i], child) for i, child in enumerate(children, 1)]
    for i, child in enumerate(children, 1):
        child = deref(child)
        if not (isinstance(child, Compound) and child.name == "element"):
            continue
        positions = [i] if own or i == 1 else [j for j, other in enumerate(children, 1) if term_equal(other, child)]
        found += [([n] + path, node) for path, node in level_paths(child, own) for n in positions]
    return found


def check_whole_level(element):
    path, node = fresh_var("P"), fresh_var("N")
    goal = transform(Compound("level", (element, node)), path)
    shown = Compound("-", (path, node))
    for program, own in ((NEW, True), (OLD, False)):
        solver = Solver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=200_000))
        found = [render_term(shown) for _ in solver.solve(goal)]
        expected = [render_term(Compound("-", (mk_list(p), n))) for p, n in level_paths(element, own)]
        assert found == expected, (own, render_term(element))


def may_unify(a, b):
    """False only when *a* and *b* cannot unify, whatever their variables are bound to."""
    a, b = deref(a), deref(b)
    if isinstance(a, Var) or isinstance(b, Var):
        return True
    if isinstance(a, Compound) and isinstance(b, Compound):
        return a.name == b.name and len(a.args) == len(b.args) and all(map(may_unify, a.args, b.args))
    return render_term(a) == render_term(b)


def siblings_apart(node):
    """True when no element in *node* has an open child list, an unbound child, or two children that may unify."""
    node = deref(node)
    if not (isinstance(node, Compound) and node.name == "element"):
        return not isinstance(node, Var)
    children, tail = list_parts(node.args[2])
    if isinstance(tail, Var):
        return False
    return all(siblings_apart(child) for child in children) and not any(
        may_unify(a, b) for i, a in enumerate(children) for b in children[i + 1 :]
    )


def check_level(goal, apart):
    """The answers of *goal* are the old ones where no two siblings may unify (*apart*).

    Elsewhere they are a subsequence of the old answers, as far as those
    were read: the old rules add answers at the positions of the other
    siblings that unify, without end on an open child list.
    """
    if apart:
        assert outcome(NEW, goal, first=8, depth_limit=5_000) == outcome(OLD, goal, first=8, depth_limit=5_000)
        return
    (new, new_diagnostics), (old, old_diagnostics) = outcome(NEW, goal, first=8, depth_limit=5_000), outcome(OLD, goal, first=80, depth_limit=5_000)
    assert new_diagnostics == old_diagnostics
    old_ended = len(old) < 80 and old[-1:] != ["limit"]
    rest = iter(old)  # each `in` below reads it up to the answer found
    for answer in new:
        if answer == "limit" or answer not in rest:
            assert not old_ended, (answer, new, old)
            break


def check_operators(element, apart):
    """level, distinct, atts, # ? c and position on *element*, new against old."""
    # A bound node holding a variable could be unified with a term that
    # holds it (no occurs check), and a cyclic answer never renders.
    children = [child for child in list_parts(element.args[2])[0] if is_ground(child)]
    for node in [fresh_var("N"), Compound("text", (Atom("zz"),))] + children[:2]:
        check_level(transform(Compound("level", (element, node)), fresh_var("P")), apart)
    for output in (None, element, Compound("element", (Atom("zz"), EMPTY_LIST, EMPTY_LIST))):
        new, old = outcome(NEW, distinct_goal(element, output), depth_limit=5_000), outcome(OLD, distinct_goal(element, output), first=2, depth_limit=5_000)
        assert new == (old[0][:1], old[1]), render_term(element)
    for output in (fresh_var("X"), EMPTY_LIST, mk_list([Atom("k")])):
        goal = transform(Compound("atts", (element,)), output)
        assert outcome(NEW, goal) == outcome(OLD, goal), render_term(element)
    names = [Atom(pair[0]) for pair in map(split_attr, list_parts(element.args[1])[0]) if pair is not None]
    for name in names[:2] + [Atom("z0"), fresh_var("A")]:
        goal = Compound("transform", (Compound("?", (element, name)),))
        assert outcome(NEW, goal) == outcome(OLD, goal), render_term(element)
    for operator in ("#", "?", "c"):
        for position in (1, 2, 3):
            goal = transform(Compound(operator, (element, position)), fresh_var("Y"))
            assert outcome(NEW, goal, depth_limit=5_000) == outcome(OLD, goal, depth_limit=5_000), render_term(element)
    for child, position in [(fresh_var("C"), fresh_var("P"))] + [(child, fresh_var("P")) for child in children[:2]] + [
        (fresh_var("C"), position) for position in (1, 2, 3)
    ]:
        goal = Compound("position", (element, child, position))
        assert outcome(NEW, goal, first=8, depth_limit=5_000) == outcome(OLD, goal, first=8, depth_limit=5_000), render_term(element)


def check_user_clause(element):
    """With the user's clause, atts and ? on an element answer as without it; the old rules added the clause's answers after theirs."""
    goals = [transform(Compound("atts", (element,)), fresh_var("X"))] + [
        Compound("transform", (Compound("?", (element, Atom(name))),)) for name in ("k", "m")
    ]
    for goal in goals:
        plain, new, old = (outcome(program, goal, first=6, depth_limit=5_000) for program in (NEW, NEW_USER, OLD_USER))
        assert new == plain and old[0][: len(new[0])] == new[0], render_term(goal)


@st.composite
def twin_trees(draw, tree=plain_trees(max_depth=3)):
    """A plain tree in which an element may repeat one of its element children, so that equal siblings have content."""

    def twin(node):
        if not (isinstance(node, Compound) and node.name == "element"):
            return node
        children = [twin(child) for child in list_items(node.args[2])]
        inner = [child for child in children if child.name == "element" and list_items(child.args[2])]
        if inner and draw(st.booleans()):
            children.insert(draw(st.integers(0, len(children))), draw(st.sampled_from(inner)))
        return Compound("element", (node.args[0], node.args[1], mk_list(children)))

    return twin(draw(tree))


@settings(max_examples=40, deadline=None)
@given(twin_trees())
def test_level_gives_each_node_its_own_position_on_whole_trees(tree):
    for element in elements_of(tree)[:3]:
        check_whole_level(element)


@settings(max_examples=40, deadline=None)
@given(elements(max_depth=2))
def test_the_operators_agree_with_the_old_rules_on_whole_trees(tree):
    for element in elements_of(tree)[:3]:
        check_operators(element, siblings_apart(element))
        check_user_clause(element)


@settings(max_examples=60, deadline=None)
@given(plain_trees(max_depth=3), st.data())
def test_the_operators_agree_with_the_old_rules_on_trees_with_holes(tree, data):
    for element in elements_of(punch(tree, data))[:3]:
        check_operators(element, siblings_apart(element))
        check_user_clause(element)


# ---------------------------------------------------------------------------
# The exponent of the work


def calls(goal):
    """Python-level calls made until the first answer of *goal*: a count that does not drift."""
    solver = Solver(NEW, SolverOptions(diagnostics=io.StringIO(), depth_limit=10_000_000))
    solutions = solver.solve(goal)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        next(solutions)
    finally:
        sys.setprofile(None)
        solutions.close()
    return count


def position_findall(tree):
    """findall(N-C, position(tree, C, N), L)."""
    position, child = fresh_var("N"), fresh_var("C")
    return Compound("findall", (Compound("-", (position, child)), Compound("position", (tree, child, position)), fresh_var("L")))


def call_exponent(goal_of):
    """The slope of log calls against log n for *goal_of* n rows, n = 100, 400 and 1,600; and the counts."""
    calls(goal_of(rows(10)))  # compiles the clauses the goal runs
    sizes = (100, 400, 1_600)
    counts = [calls(goal_of(rows(n))) for n in sizes]
    xs, ys = [math.log(n) for n in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs), counts


def test_the_work_of_level_grows_linearly():
    slope, counts = call_exponent(level_findall)
    assert slope <= 1.1, counts


def test_the_work_of_position_grows_linearly():
    # Through church numerals the exponent was about 2.
    slope, counts = call_exponent(position_findall)
    assert slope <= 1.1, counts
