"""Tests for the term model: construction, equality, copying, rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from termxform.logic_engine import Solver
from termxform import RuleParseError, XmlParseError, parse_document
from termxform.rule_language import parse_program, parse_query

from termxform.term_core import (
    Atom,
    Compound,
    PositionError,
    TermError,
    Var,
    atom_needs_quotes,
    attr_atom,
    copy_term,
    deref,
    fresh_var,
    is_ground,
    is_list,
    is_valid_name,
    list_items,
    mk_element,
    mk_list,
    mk_text,
    render_term,
    split_attr,
    term_equal,
    term_variables,
)
from xmlgen import elements


def test_atom_equality_by_name():
    assert Atom("abc") == Atom("abc")
    assert Atom("abc") != Atom("abd")
    assert hash(Atom("x")) == hash(Atom("x"))


def test_compound_requires_args():
    with pytest.raises(TermError):
        Compound("f", ())


def test_fresh_vars_are_distinct():
    a = fresh_var("X")
    b = fresh_var("X")
    assert a is not b
    assert a.id != b.id


def test_deref_follows_chains():
    a = fresh_var("A")
    b = fresh_var("B")
    a.ref = b
    b.ref = Atom("end")
    assert deref(a) == Atom("end")


def test_valid_names():
    assert is_valid_name("a")
    assert is_valid_name("table-row_1.x")
    assert not is_valid_name("1a")
    assert not is_valid_name("")
    assert not is_valid_name("-a")
    assert not is_valid_name("a b")


def test_list_roundtrip():
    t = mk_list([Atom("a"), 1, 2.5])
    assert is_list(t)
    assert list_items(t) == [Atom("a"), 1, 2.5]


def test_partial_list_is_not_proper():
    tail = fresh_var("T")
    t = mk_list([Atom("a")], tail)
    assert not is_list(t)
    assert list_items(t) is None


def test_attr_atom_shape():
    attr = attr_atom("id", "123")
    assert attr == Atom('id="123"')
    assert split_attr(attr) == ("id", "123")


def test_attr_atom_rejects_bad_names():
    with pytest.raises(TermError):
        attr_atom("1bad", "x")


def test_split_attr_rejects_malformed():
    assert split_attr(Atom("plain")) is None
    assert split_attr(Atom('="x"')) is None
    assert split_attr(Atom('id="x')) is None


def test_split_attr_value_may_contain_quotes_inside():
    assert split_attr(Atom('id="a"b"')) == ("id", 'a"b')


def test_mk_element():
    t = mk_element("a", [("id", "1")], [mk_text("hi")])
    assert render_term(t) == 'element(a,[\'id="1"\'],[text(hi)])'


def test_term_equal_numbers_distinguish_types():
    assert term_equal(1, 1)
    assert not term_equal(1, 1.0)
    assert term_equal(2.5, 2.5)


def test_term_equal_vars_by_identity():
    v = fresh_var("X")
    w = fresh_var("X")
    assert term_equal(v, v)
    assert not term_equal(v, w)


def test_copy_term_shares_var_mapping():
    v = fresh_var("X")
    t = Compound("f", (v, v, Atom("k")))
    c = copy_term(t)
    assert isinstance(c, Compound)
    assert c.args[0] is c.args[1]
    assert c.args[0] is not v
    assert c.args[2] == Atom("k")


def test_copy_term_follows_bindings():
    v = fresh_var("X")
    v.ref = Atom("bound")
    c = copy_term(Compound("f", (v,)))
    assert c == Compound("f", (Atom("bound"),))


def test_copy_term_keeps_var_free_subterms():
    ground = mk_element("row", [("id", "1")], [mk_text("hi")])
    assert copy_term(ground) is ground
    v = fresh_var("X")
    c = copy_term(Compound("pair", (ground, Compound("g", (v, ground.args[1])))))
    assert c.args[0] is ground
    assert c.args[1].args[1] is ground.args[1]
    assert isinstance(c.args[1].args[0], Var) and c.args[1].args[0] is not v
    bound = fresh_var("B")
    bound.ref = ground
    assert copy_term(bound) is ground


def test_a_subterm_reached_through_a_bound_variable_is_rebuilt():
    y = fresh_var("Y")
    shared = Compound("g", (Atom("h"),))
    t = Compound("f", (y, shared))
    y.ref = Atom("a")
    c = copy_term(t)
    y.ref = None  # backtracking unbinds Y; the copy must keep a
    assert render_term(c) == "f(a,g(h))"
    assert c is not t and c.args[1] is shared


def test_findall_results_survive_backtracking():
    # Each solution binds Y inside X's value; findall/3 undoes Y's binding
    # before it builds the list, so every copy must have been rebuilt.
    solver = Solver(parse_program(""))
    query = parse_query("findall(X, (member(Y, [a, b]), X = f(Y, g(h))), L)")
    lists = [deref(query.variables["L"]) for _ in solver.solve(query.goal)]
    assert query.variables["Y"].ref is None and query.variables["L"].ref is None
    assert [render_term(found) for found in lists] == ["[f(a,g(h)),f(b,g(h))]"]


def test_copy_term_copies_a_100000_deep_term():
    v = fresh_var("V")
    deep, ground = v, Atom("x")
    for _ in range(100_000):
        deep, ground = Compound("f", (deep,)), Compound("f", (ground,))
    assert copy_term(ground) is ground
    node, depth = copy_term(deep), 0
    while isinstance(node, Compound):
        node, depth = node.args[0], depth + 1
    assert depth == 100_000 and isinstance(node, Var) and node is not v
    partial_list = mk_list(list(range(100_000)), v)
    assert is_variant(copy_term(partial_list), partial_list)


def is_variant(a, b):
    """Equal up to a one-to-one renaming of unbound variables."""
    forward, backward = {}, {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x, y = deref(x), deref(y)
        if isinstance(x, Var) or isinstance(y, Var):
            if not (isinstance(x, Var) and isinstance(y, Var)):
                return False
            if forward.setdefault(x.id, y.id) != y.id or backward.setdefault(y.id, x.id) != x.id:
                return False
        elif isinstance(x, Compound):
            if not (isinstance(y, Compound) and x.name == y.name and len(x.args) == len(y.args)):
                return False
            stack.extend(zip(x.args, y.args))
        elif not term_equal(x, y):
            return False
    return True


def with_variables(tree, pool):
    """*tree* with each text content replaced by a variable of *pool*, in turn."""
    count = 0

    def rebuild(node):
        nonlocal count
        if node.name == "text":
            count += 1
            return Compound("text", (pool[count % len(pool)],))
        if node.name != "element":
            return node
        children = [rebuild(child) for child in list_items(node.args[2])]
        return Compound("element", (node.args[0], node.args[1], mk_list(children)))

    return rebuild(tree)


@settings(max_examples=60, deadline=None)
@given(elements(max_depth=3))
def test_copy_of_a_generated_tree_is_a_fresh_variant(tree):
    assert copy_term(tree) is tree
    reference = fresh_var("R")
    reference.ref = tree
    assert copy_term(reference) is tree
    pool = [fresh_var("A"), fresh_var("B"), fresh_var("C")]
    pool[0].ref = Atom("bound")
    term = Compound("doc", (with_variables(tree, pool), pool[1], tree))
    mapping = {}
    copy = copy_term(term, mapping)
    assert is_variant(copy, term)
    assert not {v.id for v in term_variables(copy)} & {v.id for v in term_variables(term)}
    assert copy.args[2] is tree
    assert set(mapping) <= {pool[1].id, pool[2].id}


def test_term_variables_first_occurrence_order():
    a, b = fresh_var("A"), fresh_var("B")
    t = Compound("f", (b, Compound("g", (a, b))))
    assert term_variables(t) == [b, a]


def test_is_ground_follows_bindings_and_deep_terms():
    v = fresh_var("V")
    deep = v
    for _ in range(100_000):
        deep = Compound("f", (deep,))
    assert not is_ground(deep) and not is_ground(v)
    v.ref = mk_list([Atom("a"), 1, 2.5])
    assert is_ground(deep) and is_ground(Atom("a")) and is_ground(7)


def test_render_list_sugar():
    assert render_term(mk_list([1, 2, 3])) == "[1,2,3]"
    tail = fresh_var("T")
    rendered = render_term(mk_list([1], tail))
    assert rendered.startswith("[1|_")


def test_render_quoting():
    assert render_term(Atom("abc")) == "abc"
    assert render_term(Atom("Abc")) == "'Abc'"
    assert render_term(Atom("two words")) == "'two words'"
    assert render_term(Atom("it's")) == "'it''s'"
    assert render_term(Atom("+")) == "+"
    assert render_term(Atom("[]")) == "[]"
    assert render_term(Atom("!")) == "!"


def test_render_atoms_with_dot_are_quoted():
    # '.' is not a symbol character in the reader, so it must be quoted.
    assert render_term(Atom(".")) == "'.'"
    assert render_term(Atom(":-.")) == "':-.'"


def test_render_numbers():
    assert render_term(3) == "3"
    assert render_term(-2) == "-2"
    assert render_term(1.5) == "1.5"


def test_render_unquoted_mode():
    assert render_term(Atom("two words"), quoted=False) == "two words"


_atom_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8
).filter(lambda s: s[0].isalpha())


@st.composite
def _terms(draw, depth=0):
    if depth >= 3:
        return draw(st.one_of(st.integers(-99, 99), _atom_names.map(Atom)))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(st.integers(-99, 99))
    if choice == 1:
        return Atom(draw(_atom_names))
    if choice == 2:
        args = draw(st.lists(_terms(depth=depth + 1), min_size=1, max_size=3))
        return Compound(draw(_atom_names), tuple(args))
    items = draw(st.lists(_terms(depth=depth + 1), min_size=0, max_size=3))
    return mk_list(items)


@given(_terms())
def test_copy_preserves_equality(t):
    assert term_equal(copy_term(t), t)


@given(st.lists(st.integers(), max_size=6))
def test_list_items_inverts_mk_list(items):
    assert list_items(mk_list(list(items))) == list(items)


@given(_atom_names)
def test_needs_quotes_is_consistent_with_render(name):
    rendered = render_term(Atom(name))
    if atom_needs_quotes(name):
        assert rendered.startswith("'")
    else:
        assert rendered == name


@pytest.mark.parametrize(
    "read, text, other, outcome",
    [
        (parse_query, "f(a,\n  ]", XmlParseError,
         (RuleParseError, "expected a term (line 2, column 3)", 2, 3, "term", "']'")),
        (parse_document, "<a>\n<b></a>", RuleParseError,
         (XmlParseError, "mismatched closing tag 'a' for element 'b' (line 2, column 7)", 2, 7, "b", "'>'")),
    ],
    ids=["rule", "xml"],
)
def test_a_syntax_error_of_either_kind_is_a_position_error(read, text, other, outcome):
    # One base holds the position and the message format; the two kinds
    # stay apart, so neither catches the other.
    with pytest.raises(PositionError) as info:
        try:
            read(text)
        except other:
            pytest.fail("%s caught a %s" % (other.__name__, outcome[0].__name__))
    exc = info.value
    assert (type(exc), str(exc), exc.line, exc.col, exc.expected, exc.found) == outcome
    assert not issubclass(RuleParseError, XmlParseError) and not issubclass(XmlParseError, RuleParseError)
