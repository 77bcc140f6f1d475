"""``nodes/2``, ``flatten/2``, ``concat/2`` and ``E id S`` build each cell once.

``nodes/2`` and ``flatten/2`` are one difference-list walk, ``nodes0/4``,
which differ only in the cell an element gives (``nodeCell/3``): the whole
subtree, or its shell ``element(N,A,[])``.  ``concat/2`` appends each item
in front of the rest's result, and ``E id S`` reads each entry of the
attribute list once with ``attribute/3``.  The rules they replace joined
lists with ``append/3`` on the way back up, or looked up each name from
the start of the list, so their time grew with the square of the input.
They are kept below as the oracle: the old program is the prelude with the
old ``id`` clause back in place of the new one, the old ``atts`` clauses
(which the old ``id`` ran) back in place of theirs, and the old list
builders added under ``old_`` names.

The first part pins the edges, the two changes of ``id``'s answers and
the step counts.  The second compares the two programs on ``xmlgen``
trees, whole and with holes (an open child list, an unbound child, a child
that is no node), with unbound, bound and partly bound outputs: rendered
arguments per solution, their order and number, and the diagnostics.  The
third pins the exponent of the work, counted as Python-level calls.
"""

import io
import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fresh_interpreter import termxform
from termxform.logic_engine import ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    copy_term,
    fresh_var,
    list_items,
    list_parts,
    mk_list,
    render_term,
    split_attr,
)
from termxform.transform_prelude import PRELUDE_SRC, load_prelude, prelude_program
from test_counted_rules import ATTS
from xmlgen import elements, elements_of, plain_trees, punch

NEW_ID = """\
transform(element(_,L,_) id S,Attrib):-
  attribute(L,Attrib,V), textValue(S,V).
"""

OLD_ID = """\
transform(X id S,Attrib):-
  X=element(_,_,_),
  transform(atts X,AttribNames),
  member(Attrib,AttribNames),
  transform(X @ Attrib,S).
"""

REPLACED = """\
concat0([],X,X).
concat0([H|T],X,Y):-list(H),
  append(X,H,X2), concat0(T,X2,Y).

concat(L,X):-concat0(L,[],X).

flatten(X,_):-
  (var(X);list(X);number(X)),
  !, fail.
flatten(element(N,A,L),
        [element(N,A,[])|T2]):-
  !, flattenList(L,T2).
flatten(X,[X]):-
  X=text(_);X=pi(_);X=comment(_).

flattenList([],[]).
flattenList([H|T],L):-
  flatten(H,L1),
  !, flattenList(T,L2), append(L1,L2,L).

nodes(X,_):-
  (var(X);list(X);number(X)),
  !, fail.
nodes(element(N,A,L),
      [element(N,A,L)|T2]):-
  !, nodesList(L,T2), !.
nodes(X,[X]):-
  X=text(_);
  X=pi(_);
  X=comment(_).

nodesList([],[]).
nodesList([H|T],L):-
  nodes(H,L1),
  nodesList(T,L2),
  append(L1,L2,L).
"""

RENAMED = ("nodes", "nodesList", "flatten", "flattenList", "concat", "concat0")


def _old_prelude_src():
    text = PRELUDE_SRC
    for new, old in ((NEW_ID, OLD_ID), ATTS):
        assert text.count(new) == 1, new
        text = text.replace(new, old)
    renamed = re.sub(r"\b(%s)\(" % "|".join(RENAMED), r"old_\1(", REPLACED)
    return text + "\n" + renamed


NEW, OLD = load_prelude(), parse_program(_old_prelude_src())

_VAR = re.compile(r"_[A-Za-z]*[0-9]+")


def outcome(program, name, args, first=None, depth_limit=20_000):
    """The arguments rendered per solution of name(*args*), its first *first* only, then "limit" if the step limit ended it; the diagnostics.

    Unbound variables are renamed _1, _2, ... in order of first occurrence,
    so that runs of the two programs render alike.
    """
    if program is OLD and name in RENAMED:
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


def steps(program, name, args):
    if program is OLD and name in RENAMED:
        name = "old_" + name
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=10_000_000))
    for _ in solver.solve(Compound(name, tuple(args))):
        pass
    return solver.steps


def nest(depth):
    """``<a>`` nested *depth* deep around the text x."""
    node = Compound("text", (Atom("x"),))
    for _ in range(depth):
        node = Compound("element", (Atom("a"), EMPTY_LIST, mk_list([node])))
    return node


def wide(count):
    """An element with *count* attributes k0="0", k1="1", ..."""
    return Compound("element", (Atom("a"), mk_list([Atom('k%d="%d"' % (i, i)) for i in range(count)]), EMPTY_LIST))


def singletons(count):
    """*count* one-element lists [x]."""
    return mk_list([mk_list([Atom("x")]) for _ in range(count)])


def id_goal(element):
    """findall(A-S, transform(element id S, A), L)."""
    attribute, value = fresh_var("A"), fresh_var("S")
    pair = Compound("-", (attribute, value))
    return "findall", (pair, Compound("transform", (Compound("id", (element, value)), attribute)), fresh_var("L"))


# ---------------------------------------------------------------------------
# Edges, the changes of id and the steps


def test_the_old_helpers_are_gone():
    program = prelude_program()
    for key in (("nodesList", 2), ("flattenList", 2), ("concat0", 3)):
        assert not program.defines(*key), key
    for clause in REPLACED.split("\n\n") + [OLD_ID]:
        assert clause not in PRELUDE_SRC


@pytest.mark.parametrize(
    "goal",
    [
        "nodes(X, L)",
        "nodes(5, L)",
        "nodes([], L)",
        "nodes([text(a)], L)",
        "nodes(foo(x), L)",
        "nodes(text(T), L)",
        "nodes(element(a,[],C), L)",
        "nodes(element(a,[],[text(x)|C]), L)",
        "nodes(element(a,[],[X]), L)",
        "nodes(element(a,[],[text(x),5,comment(c)]), L)",
        "nodes(element(a,[],[element(b,[],[C|T])]), L)",
        "nodes(element(a,[],foo), L)",
        "nodes(element(a,[],[text(x)|foo]), L)",
        "nodes(element(a,[],[pi(p),comment(c)]), [A|T])",
        "nodes(element(a,[],[pi(p),comment(c)]), [A,B,C])",
        "nodes(element(a,[],[pi(p),comment(c)]), [A,B])",
        "nodes(element(a,[],[pi(p),comment(c)]), [A,B,C,D|T])",
        "nodes(element(a,[],[element(b,[],[])]), [element(a,[],C)|T])",
        "nodes(element(a,[],[element(b,[],[])]), [element(a,[],C),element(c,[],[])])",
        "nodes(element(N,A,[element(b,B,[])]), [element(a,['k=\"1\"'],C)|T])",
        "nodes(element(a,[],C), [E,text(x)])",
        "flatten(X, L)",
        "flatten(5, L)",
        "flatten([], L)",
        "flatten(foo(x), L)",
        "flatten(element(a,[],C), L)",
        "flatten(element(a,[],[X]), L)",
        "flatten(element(a,[],[text(x),foo(y)]), L)",
        "flatten(element(a,[],[element(b,[],[text(x)])|T]), L)",
        "flatten(element(a,[],[element(b,[],[text(x)])]), [element(a,[],[])|T])",
        "flatten(element(a,[],[element(b,[],[text(x)])]), [element(a,[],[text(x)])|T])",
        "flatten(element(a,[],[element(b,[],[text(x)])]), [A,element(b,[],C),text(Y)])",
        "flatten(element(a,[],C), [E,comment(c),F])",
        "concat([], X)",
        "concat(L, X)",
        "concat(L, [a,b])",
        "concat([[a]|T], X)",
        "concat([[a],[b,c],[]], X)",
        "concat([[a],[b,c],[]], [a,b,c])",
        "concat([[a],[b,c],[]], [a,b])",
        "concat([[a],[b,c],[]], [A|T])",
        "concat([[A],[b],[A]], [c|T])",
        "concat([[a],b], X)",
        "concat([[a],X], Y)",
        "concat([[a|T]], X)",
        "concat([[a],[b|c]], X)",
        "concat([[a]|b], X)",
        "concat(foo, X)",
        "concat([[a],[b]], foo)",
    ],
)
def test_edges_agree_with_the_old_rules(goal):
    goal = term(goal)
    new, old = both(goal.name, goal.args, first=5)
    assert new == old


def values(program, text, *names):
    """The variables *names* of the query *text*, rendered per solution on *program* (two joined by -)."""
    query = parse_query(text, program.operators)
    shown = [query.variables[name] for name in names]
    shown = shown[0] if len(shown) == 1 else Compound("-", tuple(shown))
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    return [render_term(shown) for _ in solver.solve(query.goal)]


def test_a_repeated_id_gives_each_entry_its_own_value():
    # The old clause read each name with E @ Att, which finds the first entry.
    text = "findall(A-S, transform(element(a,['k=\"1\"','k=\"2\"',junk,'j=\"3\"'],[]) id S, A), L)"
    assert values(NEW, text, "L") == ["[-(k,'1'),-(k,'2'),-(j,'3')]"]
    assert values(OLD, text, "L") == ["[-(k,'1'),-(k,'1'),-(j,'3')]"]


def test_a_user_transform_adds_its_answers_once():
    # The old clause went through atts, whose last clause also tried the
    # user's transform of the element, so the entry k="1" came twice.
    user = parse_program("transform(element(a,_,_), element(b,['k=\"9\"'],[])).\n")
    found = []
    for base in (NEW, OLD):
        program = base.copy()
        program.extend(user)
        found.append(values(program, "transform(element(a,['k=\"1\"'],[]) id S, R)", "R", "S"))
    assert found == [["-(k,'1')", "-(k,'9')"], ["-(k,'1')", "-(k,'1')", "-(k,'9')"]]


@pytest.mark.parametrize(
    "name, args, new_steps, old_steps",
    [
        ("nodes", (nest(1_000), fresh_var("L")), 7_005, 11_008),
        ("flatten", (nest(1_000), fresh_var("L")), 7_005, 11_008),
        ("concat", (singletons(1_000), fresh_var("L")), 3_001, 3_002),
        (*id_goal(wide(1_000)), 1_005, 4_014),
    ],
)
def test_steps(name, args, new_steps, old_steps):
    # nodes0/4 takes 7 steps a level where the old rules took 11, one of
    # them an append/3 that copied the whole list below.  concat/2 saves
    # its one call to concat0/3, and id 3 of its 4 steps an entry.  Both id
    # programs share the path clause, whose nonvar/1 guard an element enters
    # once (1,004 and 4,013 steps without it).
    assert (steps(NEW, name, args), steps(OLD, name, args)) == (new_steps, old_steps)


# ---------------------------------------------------------------------------
# Differential tests on random trees

def answer(name, args):
    """The output of the new program's first answer to name(*args*), copied out; None without one."""
    solver = Solver(NEW, SolverOptions(diagnostics=io.StringIO()))
    solutions = solver.solve(Compound(name, tuple(args)))
    try:
        for _ in solutions:
            return copy_term(args[-1])
    finally:
        solutions.close()
    return None


def outputs(name, args):
    """Outputs to try for name(*args*): unbound, the answer, and partly bound or wrong forms of it."""
    found = [fresh_var("L")]
    whole = answer(name, (*args, fresh_var("L")))
    if whole is not None:
        items, _ = list_parts(whole)
        found += [
            whole,
            mk_list([fresh_var("X") if i % 2 else item for i, item in enumerate(items)]),
            mk_list(items[: len(items) // 2], fresh_var("T")),
            mk_list(items[:-1]),
            mk_list([Compound("text", (Atom("zz"),))] + items[1:]),
        ]
    return found


def check_builders(tree):
    for element in elements_of(tree)[:3]:
        for name in ("nodes", "flatten"):
            for output in outputs(name, (element,)):
                new, old = both(name, (element, output), first=2)
                assert new == old, (name, render_term(element), render_term(output))
                assert len(new[0]) <= 1


@settings(max_examples=60, deadline=None)
@given(elements(max_depth=3))
def test_the_builders_agree_with_the_old_rules_on_whole_trees(tree):
    check_builders(tree)


@settings(max_examples=60, deadline=None)
@given(plain_trees(max_depth=3), st.data())
def test_the_builders_agree_with_the_old_rules_on_trees_with_holes(tree, data):
    check_builders(punch(tree, data))


@st.composite
def items(draw):
    """An item of concat/2's list: a proper list, mostly, or a hole."""
    kind = draw(st.sampled_from(("list", "list", "list", "unbound", "partial", "atom", "number")))
    atoms = [Atom(a) for a in draw(st.lists(st.sampled_from(("a", "b", "c")), max_size=3))]
    if kind == "list":
        return mk_list(atoms)
    if kind == "partial":
        return mk_list(atoms, fresh_var("T"))
    return {"unbound": fresh_var("H"), "atom": Atom("a"), "number": 7}[kind]


@settings(max_examples=150, deadline=None)
@given(st.lists(items(), max_size=5), st.sampled_from(("proper", "open", "improper")))
def test_concat_agrees_with_the_old_rules(lists, end):
    tail = {"proper": EMPTY_LIST, "open": fresh_var("T"), "improper": Atom("z")}[end]
    lists = mk_list(lists, tail)
    for output in outputs("concat", (lists,)):
        new, old = both("concat", (lists, output), first=2)
        assert new == old, (render_term(lists), render_term(output))
        assert len(new[0]) <= 1


def punch_attributes(element, data):
    """*element* with holes in its attribute list: an open tail, an unbound entry or a malformed one."""
    entries = list_items(element.args[1])
    hole = data.draw(st.sampled_from((None, "open", "unbound", "junk", "number")))
    tail = EMPTY_LIST
    if hole == "open":
        tail = fresh_var("T")
    elif hole is not None:
        at = data.draw(st.integers(0, len(entries)))
        entries.insert(at, {"unbound": fresh_var("E"), "junk": Atom("k=x"), "number": 3}[hole])
    return Compound("element", (element.args[0], mk_list(entries, tail), element.args[2]))


@settings(max_examples=60, deadline=None)
@given(elements(max_depth=2), st.data())
def test_id_agrees_with_the_old_clause(tree, data):
    for element in elements_of(tree)[:3]:
        element = punch_attributes(element, data)
        pairs = [split_attr(entry) for entry in list_parts(element.args[1])[0]]
        names = [Atom(pair[0]) for pair in pairs if pair is not None] + [Atom("z0"), 1, fresh_var("A")]
        found = [pair[1] for pair in pairs if pair is not None]
        texts = [Atom(text) for text in found] + [int(text) for text in found if text.isdigit()] + [Atom("5"), 5, fresh_var("S")]
        for attribute in names:
            for value in texts:
                args = (Compound("id", (element, value)), attribute)
                new, old = both("transform", args)
                assert new == old, (render_term(element), render_term(attribute), render_term(value))
        new, old = both(*id_goal(element))
        assert new == old, render_term(element)


def test_id_on_an_unbound_element_agrees_with_the_old_clause():
    # Both programs share the path clause, whose nonvar/1 guard fails on an
    # unbound element; without it, both re-entered transform/2 to the limit.
    new, old = both("transform", term("transform(E id S, A)").args, first=3, depth_limit=3_000)
    assert new == old == ([], "")


# ---------------------------------------------------------------------------
# The exponent of the work


def calls(name, args):
    """Python-level calls made until the first answer of name(*args*): a count that does not drift."""
    solver = Solver(NEW, SolverOptions(diagnostics=io.StringIO(), depth_limit=10_000_000))
    solutions = solver.solve(Compound(name, tuple(args)))
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


def exponent(sizes, counts):
    """The least-squares slope of log(count) over log(size)."""
    xs, ys = [math.log(n) for n in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


GOALS = {
    "nodes": lambda n: ("nodes", (nest(n), fresh_var("L"))),
    "flatten": lambda n: ("flatten", (nest(n), fresh_var("L"))),
    "concat": lambda n: ("concat", (singletons(n), fresh_var("L"))),
    "id": lambda n: id_goal(wide(n)),
}


@pytest.mark.parametrize("goal", sorted(GOALS))
def test_the_work_grows_linearly(goal):
    calls(*GOALS[goal](10))  # compiles the clauses the goal runs
    sizes = (100, 400, 1_600)
    counts = [calls(*GOALS[goal](n)) for n in sizes]
    assert exponent(sizes, counts) <= 1.1, counts


BUILDERS = """\
nodesSize(D, N) :- nodes(D, L), length(L, N).
flattenSize(D, N) :- flatten(D, L), length(L, N).
concatSize(K, N) :- length(Ls, K), singletons(Ls), concat(Ls, L), length(L, N).
singletons([]).
singletons([[x]|T]) :- singletons(T).
"""


@pytest.mark.parametrize("goal", ["nodesSize(Doc, N)", "flattenSize(Doc, N)", "concatSize(4000, N)"])
def test_the_builders_answer_on_a_4000_deep_nest_inside_10_s(tmp_path, goal):
    """nodes/2 and flatten/2 walk the tree once with a difference list,
    and concat/2 appends each item in front of the rest's result, so
    each builds every cell once.  When each level joined its lists
    with append/3 on the way back up, each of these goals took about
    20 s at this size.  Only N is printed: the rendered nodes list of
    a nest grows with the square of its depth whatever the rules do."""
    done = termxform(tmp_path, "query", goal, rules=BUILDERS, depth=4000, timeout=10)
    assert done.returncode == 0, done.stderr
