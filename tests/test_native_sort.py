"""``E sort Att`` and ``leStrings/2`` are natives over one string order.

``transform(E sort Att, R)`` runs the native ``sortChildren/3`` and
``leStrings/2`` is native; both compare text in code-point order.  They
replace prelude rules (``extendStructure/3``, ``leAttributes/2`` and a
``leStrings/2`` over ``lexicalle/2``), kept below under ``old_`` names as
the oracle.  The first part pins the behaviour at the edges, the second
compares the natives with the old rules on random trees: rendered
solutions, their order and their number, and the diagnostics.
"""

import io
import re

from hypothesis import given, settings, strategies as st

from termxform.logic_engine import _BUILTINS, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import EMPTY_LIST, Atom, Compound, fresh_var, list_items, mk_list, render_term
from termxform.transform_prelude import load_prelude, prelude_program
from xmlgen import elements

OLD_RULES = """
old_sort(element(N,A,L),AttName,element(N,A,Y)):-
  old_extendStructure(L2,AttName,L),
  quicksort(L2,old_leAttributes,L3),
  old_extendStructure(L3,AttName,Y).

old_extendStructure([],_,[]).
old_extendStructure(L,_,L2):-
  not(ground(L)),
  not(ground(L2)), !, fail.
old_extendStructure([E1|T2],Extension,[E2|T]):-
  E1=element(N,A,C,Extension),
  old_extendStructure(T2,Extension,T),
  E2=element(N,A,C).

old_leAttributes(element(_,AL1,_,Att1),
                 element(_,AL2,_,Att1)):-
  transform(element(_,AL1,_) @ Att1,A1),
  transform(element(_,AL2,_) @ Att1,A2),
  atom_codes(A1,E1Codes),
  atom_codes(A2,E2Codes),
  lexicalle(E1Codes,E2Codes).

old_leStrings(S1,S2):-
  atom(S1),
  not(list(S1)),
  atom(S2),
  not(list(S2)),
  atom_codes(S1,S1Codes),
  atom_codes(S2,S2Codes),
  lexicalle(S1Codes,S2Codes).
"""

PROGRAM = load_prelude(parse_program(OLD_RULES))

_VAR = re.compile(r"_[A-Za-z]*[0-9]+")


def solutions(program, goal, **bindings):
    """[E, K, R] (the goal's variables that exist) per solution, and the diagnostics.

    Unbound variables are renamed _1, _2, ... in order of first occurrence,
    so that runs of two goals render alike.
    """
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=500_000))
    query = parse_query(goal, program.operators)
    for name, value in bindings.items():
        assert solver.unify(query.variables[name], value)
    shown = mk_list([query.variables[n] for n in ("E", "K", "R", "S") if n in query.variables])
    found = []
    for _ in solver.solve(query.goal):
        names: dict[str, str] = {}
        found.append(
            _VAR.sub(lambda m: names.setdefault(m.group(), "_%d" % (len(names) + 1)), render_term(shown))
        )
    return found, solver.options.diagnostics.getvalue()


def native_and_old(program=PROGRAM, **bindings):
    native = solutions(program, "transform(E sort K, R)", **bindings)
    old = solutions(program, "old_sort(E, K, R)", **bindings)
    return native, old


def tree(children_text):
    program = parse_program("t(element(r,[],%s))." % children_text)
    return program.get("t", 1)[0].head.args[0]


# ---------------------------------------------------------------------------
# Edges, each pinned with the old rules' behaviour


def test_sort_is_native_and_its_rules_are_gone():
    program = prelude_program()
    for name, arity in (("extendStructure", 3), ("leAttributes", 2), ("leStrings", 2), ("sortChildren", 3)):
        assert not program.defines(name, arity), name
    assert ("sortChildren", 3) in _BUILTINS and ("leStrings", 2) in _BUILTINS
    assert program.defines("quicksort", 3) and program.defines("le", 2) and program.defines("lexicalle", 2)


def test_a_child_that_is_not_an_element_fails():
    native, old = native_and_old(E=tree("[element(a,['k=\"1\"'],[]),text(x)]"), K=Atom("k"))
    assert native == old == ([], "")


def test_a_non_ground_child_list_fails():
    for children in ("[element(a,['k=\"1\"'],[])|T]", "[element(a,['k=\"1\"'],[]),element(b,A,[])]"):
        native, old = native_and_old(E=tree(children), K=Atom("k"))
        assert native == old == ([], ""), children


def test_a_variable_in_a_child_s_name_or_content_does_not_stop_the_sort():
    # The native checks the groundness of what it reads, each child's shape
    # and attribute list; the rules failed on any non-ground child list.
    doc = "[element(b,['k=\"2\"'],[text(X)]),element(N,['k=\"1\"'],[])]"
    native, old = native_and_old(E=tree(doc), K=Atom("k"))
    assert old == ([], "")
    assert native == ([
        "[element(r,[],[element(b,['k=\"2\"'],[text(_1)]),element(_2,['k=\"1\"'],[])]),k,"
        "element(r,[],[element(_2,['k=\"1\"'],[]),element(b,['k=\"2\"'],[text(_1)])])]"
    ], "")


def test_an_unbound_child_list_is_bound_to_the_empty_list():
    element = Compound("element", (Atom("r"), EMPTY_LIST, fresh_var("L")))
    native, old = native_and_old(E=element, K=Atom("k"))
    assert native == old == (["[element(r,[],[]),k,element(r,[],[])]"], "")


def test_an_empty_list_with_an_unbound_key_succeeds():
    native, old = native_and_old(E=tree("[]"))
    assert native == old == (["[element(r,[],[]),_1,element(r,[],[])]"], "")


def test_a_non_empty_list_with_an_unbound_key_fails_unless_the_result_is_ground():
    doc = tree("[element(b,[],[]),element(a,[],[])]")
    native, old = native_and_old(E=doc)
    assert native == old == ([], "")
    # With a ground result the rules compared it with the input order.
    for result, count in (("[element(b,[],[]),element(a,[],[])]", 1), ("[element(a,[],[]),element(b,[],[])]", 0)):
        bound = tree(result)
        native, old = native_and_old(E=doc, R=bound)
        assert len(native[0]) == count and native == old, result


def test_a_non_atom_key_keeps_the_input_order():
    doc = "[element(b,['k=\"2\"'],[]),element(a,['k=\"1\"'],[])]"
    for key in (7, Compound("f", (Atom("k"),)), EMPTY_LIST):
        native, old = native_and_old(E=tree(doc), K=key)
        assert native == old, key
        assert native[0] == [
            "[element(r,[],%s),%s,element(r,[],%s)]" % (doc, render_term(key), doc)
        ], key


def test_the_result_is_unified_not_compared():
    doc = tree("[element(b,['k=\"2\"'],[]),element(a,['k=\"1\"'],[])]")
    partial = Compound("element", (Atom("r"), EMPTY_LIST, mk_list([fresh_var("X")], fresh_var("T"))))
    native, old = native_and_old(E=doc, K=Atom("k"), R=partial)
    assert native == old
    assert native[0] == [
        "[element(r,[],[element(b,['k=\"2\"'],[]),element(a,['k=\"1\"'],[])]),k,"
        "element(r,[],[element(a,['k=\"1\"'],[]),element(b,['k=\"2\"'],[])])]"
    ]


def test_user_transform_clauses_do_not_give_keys():
    # The rules read keys through transform(E @ Att, V), so a user clause
    # for @ gave keyless children a key; the native reads the attribute
    # entries alone.
    program = load_prelude(parse_program(OLD_RULES + "transform(element(_,_,_) @ k, '0')."))
    doc = "[element(i,['k=\"b\"'],[]),element(x,[],[]),element(i,['k=\"a\"'],[])]"
    (native, _), (old, _) = native_and_old(program, E=tree(doc), K=Atom("k"))
    assert native == [
        "[element(r,[],%s),k,element(r,[],[element(i,['k=\"a\"'],[]),element(i,['k=\"b\"'],[]),element(x,[],[])])]"
        % doc
    ]
    assert old == [
        "[element(r,[],%s),k,element(r,[],[element(x,[],[]),element(i,['k=\"a\"'],[]),element(i,['k=\"b\"'],[])])]"
        % doc
    ]


# ---------------------------------------------------------------------------
# Differential tests on random trees

KEY_VALUES = ("", "1", "10", "9", "a", "ab", "b", "é", "[]")


@st.composite
def keyed_child(draw):
    """An xmlgen element with none, one or two ``k`` entries (the first counts)."""
    child = draw(elements(max_depth=1))
    entries = list_items(child.args[1])
    for _ in range(draw(st.integers(0, 2))):
        value = draw(st.sampled_from(KEY_VALUES))
        entries.insert(draw(st.integers(0, len(entries))), Atom('k="%s"' % value))
    if draw(st.integers(0, 7)) == 0:
        entries.insert(draw(st.integers(0, len(entries))), Atom("k=broken"))
    return Compound("element", (child.args[0], mk_list(entries), child.args[2]))


@st.composite
def sort_documents(draw):
    """An element whose children have the key in some cases and not in others."""
    children = draw(st.lists(keyed_child(), max_size=8))
    if draw(st.integers(0, 9)) == 0:
        children.insert(draw(st.integers(0, len(children))), Compound("text", (Atom("x"),)))
    return Compound("element", (Atom("r"), EMPTY_LIST, mk_list(children)))


@settings(max_examples=150, deadline=None)
@given(sort_documents())
def test_sort_agrees_with_the_old_rules(doc):
    for key in (Atom("k"), Atom("zz"), 7, None):
        bindings = {"E": doc} if key is None else {"E": doc, "K": key}
        native, old = native_and_old(**bindings)
        assert native == old, key


@settings(max_examples=60, deadline=None)
@given(sort_documents(), st.randoms(use_true_random=False))
def test_sort_with_a_bound_result_agrees_with_the_old_rules(doc, rnd):
    children = list_items(doc.args[2])
    rnd.shuffle(children)
    guess = Compound("element", (Atom("r"), EMPTY_LIST, mk_list(children)))
    native, old = native_and_old(E=doc, K=Atom("k"), R=guess)
    assert native == old


STRINGS = st.one_of(
    st.text(alphabet="ab9[] é一", max_size=4).map(Atom),
    st.just(EMPTY_LIST),
    st.integers(-2, 12),
    st.just(None),
)


@settings(max_examples=200, deadline=None)
@given(STRINGS, STRINGS)
def test_le_strings_agrees_with_the_old_rule(first, second):
    bindings = {name: value for name, value in (("E", first), ("K", second)) if value is not None}
    native = solutions(PROGRAM, "leStrings(E, K)", **bindings)
    old = solutions(PROGRAM, "old_leStrings(E, K)", **bindings)
    assert native == old


@settings(max_examples=60, deadline=None)
@given(st.lists(STRINGS.filter(lambda s: s is not None), max_size=8))
def test_quicksort_over_le_strings_agrees_with_the_old_rule(items):
    bindings = {"E": mk_list(items)}
    native = solutions(PROGRAM, "quicksort(E, leStrings, S)", **bindings)
    old = solutions(PROGRAM, "quicksort(E, old_leStrings, S)", **bindings)
    assert native == old
