"""The prelude reads ``id="value"`` attribute entries only through ``attribute/3,4``.

``attribute/3`` and ``attribute/4`` decode entries with ``term_core.split_attr``,
the decoder the XML layer uses.  The prelude used to scan each entry as a code list for the
codes ``61,34`` (``="``) instead.  The first part of this file pins every
behaviour that changed with the switch; the second compares the new
predicates with the old rule text, kept below under ``old_`` names as the
oracle, on random trees where both should agree (order and multiplicity).
The last part checks the separator an atom keeps: ``split_attr`` must
answer the same for an atom the parser or ``attr_atom`` made, for one
built some other way, and for a fresh atom of the same text.
"""

import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from attribute_oracle import attribute_solutions
from termxform.logic_engine import _BUILTINS, Program, ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    attr_atom,
    copy_term,
    deref,
    fresh_var,
    is_valid_name,
    list_items,
    mk_list,
    render_term,
    split_attr,
)
from termxform.transform_prelude import load_prelude
from termxform.xml_io import ValidationError, check_serializable, parse_document, serialize_document
from xmlgen import attr_values, elements, elements_of, names

OLD_RULES = """
old_at(element(_,AttList,_),Att,X):-
  append(_,[A|_],AttList),
  atom_codes(Att,AttCodes),
  atom_codes(A,ACodes),
  append(Pre,[61,34|X2],ACodes),
  append(X3,[34],X2),
  Pre=AttCodes, !, atom_codes(X,X3).

old_selectattribute(_,L):-
  (var(L);number(L);
   atom(L), not(list(L))),
  !, fail.
old_selectattribute(X,List):-
  member(Y,List),
  atom_codes(Y,YCodes2),
  append(X2,[61,34|YCodes],YCodes2),
  append(_,[34],YCodes), atom_codes(X,X2).

old_removeAttribute(E,Att,element(N,As2,L)):-
  E=element(N,As,L),
  old_at(E,Att,Val),
  atom_codes(Att,AttCodes),
  atom_codes(Val,ValCodes),
  append(AttCodes,[61,34|ValCodes],Res2),
  append(Res2,[34],Res),
  atom_codes(Selected,Res),
  append(Pre,[Selected|Post],As),
  !,
  append(Pre,Post,As2).

old_checkAttributes([]):-!.
old_checkAttributes([H|T]):-
  atom_codes(H,HCodes),
  append(_,[61,34|HCodes1],HCodes),
  append(_,[34],HCodes1),
  old_checkAttributes(T), !.
old_checkAttributes(X):-
  write('Error in remaining attributes list: '),
  write(X), fail.
"""

PROGRAM = load_prelude(parse_program(OLD_RULES))


def make_solver(depth_limit=100_000):
    return Solver(PROGRAM, SolverOptions(diagnostics=io.StringIO(), depth_limit=depth_limit))


def run(goal, var="X", depth_limit=100_000, **bindings):
    """Rendered bindings of *var* per solution, and the diagnostics text.

    Keyword arguments bind query variables to terms before solving.
    """
    solver = make_solver(depth_limit)
    query = parse_query(goal, solver.program.operators)
    for name, value in bindings.items():
        assert solver.unify(query.variables[name], value)
    found = [render_term(query.variables[var]) if var else "yes" for _ in solver.solve(query.goal)]
    return found, solver.options.diagnostics.getvalue()


# ---------------------------------------------------------------------------
# Behaviour changes, one test each


def test_equals_quote_inside_a_value_makes_no_extra_attribute():
    doc = parse_document("<x href='a=\"b\"'/>")
    assert run("transform(atts Doc, X)", Doc=doc)[0] == ["[href]"]
    assert run("transform(Doc id 'b\"', X)", Doc=doc)[0] == []
    assert run("transform(Doc id 'a=\"b\"', X)", Doc=doc)[0] == ["href"]
    assert run("transform(Doc @ href, X)", Doc=doc)[0] == ["'a=\"b\"'"]
    # The code-list scan split at every '="' and made up the name 'href="a'.
    assert run("old_selectattribute(X, As)", As=doc.args[1])[0] == ["href", "'href=\"a'"]


@pytest.mark.parametrize("entry", ['="x"', '1a="x"', 'a b="x"'])
def test_check_attributes_rejects_what_split_attr_rejects(entry):
    assert split_attr(Atom(entry)) is None
    element = Compound("element", (Atom("a"), mk_list([Atom(entry)]), Atom("[]")))
    with pytest.raises(ValidationError):
        check_serializable(element)
    for found, diagnostics in (
        run("checkAttributes(As)", var=None, As=element.args[1]),
        run("checkSerializable(E)", var=None, E=element),
    ):
        assert found == []
        assert "Error in remaining attributes list" in diagnostics
    # The code-list scan accepted any atom holding '="' and a final '"'.
    assert run("old_checkAttributes(As)", var=None, As=element.args[1]) == (["yes"], "")


def test_non_atom_entries_and_unbound_names_print_no_warning():
    cases = [
        ("transform(element(x,[f(a),'a=\"1\"'],[]) @ a, X)", ["'1'"]),
        ("transform(element(x,['a=\"1\"'],[]) @ N, X)", []),
        ("removeAttribute(element(x,['a=\"1\"'],[]), N, X)", []),
        ("selectattribute(X, [f(a), 7, V, 'a=\"1\"'])", ["a"]),
    ]
    for goal, expected in cases:
        assert run(goal) == (expected, ""), goal
    found, diagnostics = run("checkAttributes([f(a)])", var=None)
    assert found == []
    assert diagnostics == "Error in remaining attributes list: [f(a)]"
    # The code-list scan passed such entries and names to atom_codes/2.
    assert run("old_at(element(x,[f(a),'a=\"1\"'],[]), a, X)") == (
        ["'1'"],
        "warning: atom_codes/2 needs a bound atom or a proper code list\n",
    )


def test_check_attributes_reports_only_the_suffix_at_the_bad_entry():
    found, diagnostics = run(
        "checkSerializable(element(a,['a=\"1\"','b=\"2\"',junk],[text(x)]))", var=None
    )
    assert found == []
    # checkSerializable/1 is xml_io's check: one message, naming the bad
    # entry.  The rule version reported every suffix that held the bad
    # entry ([junk], [b="2",junk] and the whole list) until checkAttributes/1
    # cut before its recursive call, and then still added a line for the
    # element, with no newline between messages.
    assert diagnostics == "Error in remaining attributes list: junk (at path [])\n"


def test_attribute_operators_on_a_partial_list_fail_at_once():
    goals = [
        "transform(atts element(x,['a=\"1\"'|T],[]), X)",
        "transform(element(x,['a=\"1\"'|T],[]) @ a, X)",
        "transform(element(x,['a=\"1\"'|T],[]) @ b, X)",
        "selectattribute(X, ['a=\"1\"'|T])",
        "removeAttribute(element(x,['a=\"1\"'|T],[]), a, X)",
    ]
    for goal in goals:
        assert run(goal, depth_limit=50) == ([], ""), goal
    # The code-list scan found entries in the proper prefix, then ran on
    # into the open tail until the step limit.
    solver = make_solver(depth_limit=50)
    query = parse_query("old_selectattribute(X, ['a=\"1\"'|T])", solver.program.operators)
    solutions = solver.solve(query.goal)
    next(solutions)
    assert render_term(query.variables["X"]) == "a"
    with pytest.raises(ResourceLimitError):
        next(solutions)


def test_a_number_value_still_matches_its_decimal_text():
    def holds(goal):
        return run(goal, var=None)[0] == ["yes"]

    assert holds("transform(element(x,['p=\"12\"'],[]) @ p, 12)")
    assert holds("transform(element(x,['p=\"1.5\"'],[]) @ p, 1.5)")
    assert holds("transform(element(x,['p=\"12\"'],[]) @ p, '12')")
    assert not holds("transform(element(x,['p=\"12\"'],[]) @ p, 13)")
    assert not holds("transform(element(x,['p=\"012\"'],[]) @ p, 12)")


# ---------------------------------------------------------------------------
# Differential test against the old rule text


def _solutions(goal, out):
    """Rendered copies of *out* per solution of *goal*, and the diagnostics."""
    solver = make_solver()
    found = [render_term(copy_term(out)) for _ in solver.solve(goal)]
    return found, solver.options.diagnostics.getvalue()


def _same(new_goal, old_goal, out):
    assert _solutions(new_goal, out) == _solutions(old_goal, out), render_term(new_goal)


@settings(max_examples=40, deadline=None)
@given(elements(max_depth=2))
def test_attribute_predicates_match_the_old_rules(tree):
    absent = [Atom("z0"), Atom("")]
    for element in elements_of(tree)[:6]:
        atts = element.args[1]
        entries = [split_attr(a) for a in list_items(atts)]
        names = [Atom(name) for name, _ in entries] + absent
        values = []
        for _, value in entries:
            values.append(Atom(value))
            if value.isdigit():
                values.append(int(value))
        for name in names:
            x = fresh_var("X")
            _same(
                Compound("transform", (Compound("@", (element, name)), x)),
                Compound("old_at", (element, name, x)),
                x,
            )
            for value in values:
                _same(
                    Compound("transform", (Compound("@", (element, name)), value)),
                    Compound("old_at", (element, name, value)),
                    value,
                )
            r = fresh_var("R")
            _same(
                Compound("removeAttribute", (element, name, r)),
                Compound("old_removeAttribute", (element, name, r)),
                r,
            )
        x = fresh_var("X")
        _same(
            Compound("selectattribute", (x, atts)),
            Compound("old_selectattribute", (x, atts)),
            x,
        )
        for entries_list in (atts, Compound(".", (Atom("junk"), atts))):
            _same(
                Compound("checkAttributes", (entries_list,)),
                Compound("old_checkAttributes", (entries_list,)),
                entries_list,
            )


@settings(max_examples=40, deadline=None)
@given(elements(max_depth=2))
def test_attribute_3_yields_the_entries_of_attribute_4(tree):
    for element in elements_of(tree)[:6]:
        atts = element.args[1]
        names = [fresh_var("I")] + [Atom(name) for name, _ in map(split_attr, list_items(atts))]
        for entries_list in (atts, Compound(".", (Atom("junk"), atts))):
            for name in names + [Atom("z0")]:
                value = fresh_var("V")
                pair = Compound("-", (name, value))
                three = _solutions(Compound("attribute", (entries_list, name, value)), pair)
                four = _solutions(
                    Compound("attribute", (entries_list, name, value, fresh_var("R"))), pair
                )
                assert three == four, render_term(pair)


# ---------------------------------------------------------------------------
# The native against the generator it replaced


MALFORMED = ['="x"', '1a="x"', 'a b="x"', 'a="', 'a', 'a="x', 'a=x"', '"a="x"']


@st.composite
def attribute_lists(draw):
    """An xmlgen attribute list with malformed, duplicate and non-atom entries
    added, as a proper list, a partial list or a list ending in an atom."""
    items = list_items(draw(elements(max_depth=0)).args[1])
    extras = st.one_of(
        st.sampled_from(MALFORMED).map(Atom),
        st.tuples(st.sampled_from(["a", "b"] + [split_attr(i)[0] for i in items]), st.sampled_from(["", "v", "1"])).map(
            lambda pair: Atom('%s="%s"' % pair)
        ),
        st.sampled_from([Compound("f", (Atom("a"),)), 7, EMPTY_LIST]),
        st.just(None),  # an unbound entry
    )
    for extra in draw(st.lists(extras, max_size=4)):
        items.insert(draw(st.integers(0, len(items))), fresh_var("E") if extra is None else extra)
    tail = draw(st.sampled_from([EMPTY_LIST, Atom("junk"), None]))
    return mk_list(items, fresh_var("T") if tail is None else tail)


def _answers(native, solver, args):
    """The rendered arguments at each solution of *native* on *args*."""
    result = native(solver, args)
    if result is True or result is False:
        found = [render_term(mk_list(args))] if result else []
    else:
        found = [render_term(mk_list(args)) for _ in result]
    solver.undo_to(0)
    return found


@pytest.mark.parametrize("entry", MALFORMED)
def test_attribute_scan_skips_each_malformed_entry_as_the_generator_does(entry):
    _check_against_the_generator(mk_list([Atom(entry), Atom('b="1"')]))


@settings(max_examples=80, deadline=None)
@given(attribute_lists())
def test_attribute_scan_matches_the_generator(atts):
    _check_against_the_generator(atts)


def _check_against_the_generator(atts):
    """Every binding pattern of Id, Value and Rest: the same answers, in order.

    *atts* is checked with an entry whose value holds a second ``="`` put first,
    and the Ids tried include one that holds ``="``.
    """
    atts = Compound(".", (Atom('a="1="2"'), atts))
    solver = Solver(Program(), SolverOptions(diagnostics=io.StringIO()))
    items = list_items(atts) or []
    entries = [attr for attr in map(split_attr, items) if attr is not None]
    bound = fresh_var("B")
    bound.ref = Atom(entries[0][0] if entries else "a")  # an Id reached through a variable
    ids = [Atom(name) for name, _ in entries]
    ids += [Atom(n) for n in ("a", "b", "z0", "a b", "", "[]", "1a", 'a="1')]
    ids += [EMPTY_LIST, 7, Compound("f", (Atom("a"),)), bound, fresh_var("I")]
    values = [Atom(value) for _, value in entries] + [Atom("nope"), 1, fresh_var("V")]
    rests = [mk_list(items[:i] + items[i + 1 :]) for i in range(len(items))]
    rests += [mk_list(items[:1], fresh_var("P")), Atom("junk"), fresh_var("R")]
    for name in ids:
        for value in values:
            args = [atts, name, value]
            assert _answers(_BUILTINS[("attribute", 3)], solver, args) == _answers(
                attribute_solutions, solver, args
            ), render_term(mk_list(args))
            for rest in rests:
                args = [atts, name, value, rest]
                assert _answers(_BUILTINS[("attribute", 4)], solver, args) == _answers(
                    attribute_solutions, solver, args
                ), render_term(mk_list(args))
        assert solver.trail == []


# ---------------------------------------------------------------------------
# The separator an atom keeps


CORPUS = sorted((Path(__file__).parent / "data" / "corpus").glob("*.xml"))


def _decoded(text, name=None):
    """``split_attr``'s answer read from *text* alone, as its docstring states it."""
    attr_id, sep, rest = text.partition('="')
    if not sep or not rest.endswith('"') or not is_valid_name(attr_id):
        return None
    if name is not None and attr_id != name:
        return None
    return attr_id, rest[:-1]


def _assert_decodes_as_a_fresh_atom(atom):
    """*atom* gives a fresh atom's answers, with and without a name, when first asked and again.

    The first question names the atom's own id, so a kept separator is
    found on a named call as well as read on later ones.
    """
    own = atom.name.partition('="')[0]
    for name in (own, None, own[:-1], own + "a", own + '="', "a", "z0", ""):
        expected = split_attr(Atom(atom.name), name)
        assert expected == _decoded(atom.name, name), (atom.name, name)
        assert split_attr(atom, name) == expected, (atom.name, name)
        assert split_attr(atom, name) == expected, (atom.name, name)
    assert atom == Atom(atom.name) and hash(atom) == hash(Atom(atom.name))


def _entries(tree):
    return [deref(entry) for element in elements_of(tree) for entry in list_items(element.args[1])]


@pytest.mark.parametrize("keep_ws", [False, True])
@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.name)
def test_parsed_corpus_entries_decode_as_fresh_atoms(path, keep_ws):
    for entry in _entries(parse_document(path.read_text(encoding="utf-8"), keep_ws=keep_ws)):
        _assert_decodes_as_a_fresh_atom(entry)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_generated_and_parsed_entries_decode_as_fresh_atoms(tree):
    # xmlgen writes its entries with Atom('%s="%s"'), so their separator is
    # found on first use; the parsed ones arrive with it.
    text = serialize_document(tree)
    for entry in _entries(tree):
        _assert_decodes_as_a_fresh_atom(entry)
    for keep_ws in (False, True):
        parsed = _entries(parse_document(text, keep_ws=keep_ws))
        assert [split_attr(entry) for entry in parsed] == [split_attr(entry) for entry in _entries(tree)]
        for entry in parsed:
            _assert_decodes_as_a_fresh_atom(entry)


@settings(max_examples=200, deadline=None)
@given(names, st.one_of(attr_values, st.sampled_from(['="', 'a="b"', '"', "=", 'x="'])))
def test_attr_atom_entries_decode_as_fresh_atoms(name, value):
    atom = attr_atom(name, value)
    assert split_attr(atom) == (name, value)
    _assert_decodes_as_a_fresh_atom(atom)


@pytest.mark.parametrize("text", MALFORMED + ['a="1="2"', 'a=""', 'a.b-c_d="x"', 'a="x"y"'])
def test_texts_decode_as_fresh_atoms_whoever_built_them(text):
    _assert_decodes_as_a_fresh_atom(Atom(text))
    # An atom that is/2 builds with cat/N decodes as any other.
    attr_id, sep, rest = text.partition('="')
    x = fresh_var("X")
    goal = Compound("is", (x, Compound("cat", (Atom(attr_id), Atom(sep), Atom(rest)))))
    built = [deref(x) for _ in make_solver().solve(goal)]
    assert built == [Atom(text)]
    _assert_decodes_as_a_fresh_atom(built[0])


def test_term_level_lists_may_repeat_an_id():
    # Only a tag (parsed or written) may not repeat an attribute name.
    doc = "element(a,['x=\"1\"','y=\"0\"','x=\"2\"'],[])"
    assert run("removeAttribute(%s, x, X)" % doc)[0] == ["element(a,['y=\"0\"','x=\"2\"'],[])"]
    assert run("attribute(As, x, X, _)", As=parse_query(doc).goal.args[1])[0] == ["'1'", "'2'"]
    assert run("canon(As, X)", As=parse_query(doc).goal.args[1])[0] == ["['x=\"1\"','x=\"2\"','y=\"0\"']"]
