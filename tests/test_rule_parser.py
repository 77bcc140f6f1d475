"""The rule reader's term loop against the recursive reader it replaced.

``rule_parser_oracle.RecursiveParser`` is the old reader.  Both run under
``read_terms`` (a program, with ``:- op`` directives in front) and under
``parse_query`` (one goal, with an operator table passed in).  On every text
they must give the same terms, with variables told apart by their first
occurrence, the same variable names, the same number of fresh variables, or
the same ParseError (message, line, column, expected, found).  The texts are
random terms written by ``render_term``, mutated token by token, and random
runs of tokens.  A case is skipped only where the oracle itself runs out of
Python stack.  The last tests read terms 20,000 levels deep, which the
oracle cannot.
"""

import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rule_parser_oracle import RecursiveParser
from termxform import rule_language
from termxform.rule_language import (
    OperatorDef,
    OperatorTable,
    ParseError,
    Query,
    _TOKEN_RE,
    parse_query,
    read_terms,
)
from termxform.term_core import Atom, Compound, Var, fresh_var, mk_list, render_term
from termxform.transform_prelude import PRELUDE_SRC

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import make  # noqa: E402
from scripts.demo_transform import SAMPLE_RULES  # noqa: E402


def _shape(terms):
    """Each term as a flat preorder list; a variable is its first-occurrence number."""
    numbers: dict[int, int] = {}
    shapes = []
    for term in terms:
        flat, stack = [], [term]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                flat.append(("var", numbers.setdefault(id(node), len(numbers))))
            elif isinstance(node, Compound):
                flat.append(("compound", node.name, len(node.args)))
                stack.extend(reversed(node.args))
            elif isinstance(node, Atom):
                flat.append(("atom", node.name))
            else:
                flat.append((type(node).__name__, node))
        shapes.append(flat)
    return shapes, numbers


def _outcome(read, text, table):
    first = fresh_var().id
    try:
        result = read(text, table)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col, exc.expected, exc.found)
    if isinstance(result, Query):
        shapes, numbers = _shape([result.goal])
        names = [(name, numbers[id(var)]) for name, var in result.variables.items()]
    else:
        terms, final = result
        shapes, numbers = _shape(terms)
        names = (sorted(final.infix.items()), sorted(final.prefix.items()))
    return shapes, names, fresh_var().id - first - 1


def _assert_same(read, text, table=None):
    with mock.patch.object(rule_language, "_Parser", RecursiveParser):
        try:
            expected = _outcome(read, text, table)
        except RecursionError:
            reject()
    assert _outcome(read, text, table) == expected, text


# -- random terms and operator tables ------------------------------------

NAMES = ["a", "b", "[]", "-", "+", "*", "^", "\\+", "=", ":-", ";", "is", "mod", "foo", "pre", "post", "child", "-->", "'q r'"]
FIXITIES = ["xfx", "xfy", "yfx", "fy", "fx"]
OPS = st.lists(
    st.builds(OperatorDef, st.sampled_from(NAMES), st.sampled_from([1, 50, 100, 200, 500, 700, 999, 1000, 1100, 1200]),
              st.sampled_from(FIXITIES)),
    max_size=4,
)
VAR_NAMES = ["X", "Y", "_", "_A"]
LEAVES = st.one_of(
    st.sampled_from(NAMES).map(Atom),
    st.integers(-3, 20),
    st.sampled_from([0.5, -2.5, 1e10]),
    st.sampled_from(VAR_NAMES).map(fresh_var),
)
TERMS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.builds(lambda name, args: Compound(name, tuple(args)), st.sampled_from(NAMES), st.lists(children, min_size=1, max_size=3)),
        st.builds(mk_list, st.lists(children, max_size=3)),
        st.builds(mk_list, st.lists(children, min_size=1, max_size=2), children),
    ),
    max_leaves=10,
)
INSERTS = ["(", ")", ",", "|", "[", "-", "+", "*", ";", ":-", "=", "\\+", "foo", "pre", "child", "is"]
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["drop", "duplicate", "swap", "insert"]), st.integers(0, 40), st.sampled_from(INSERTS),
              st.sampled_from(["", " "])),
    max_size=3,
)


def _mutate(text, mutations):
    """Drop, duplicate or swap a token of *text*, or insert one; each token keeps the blank before it."""
    pieces = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "blank":
            continue
        gap = "" if not pieces or match.start() == pieces[-1][2] else " "
        pieces.append((gap, match.group(), match.end()))
    pieces = [(gap, lexeme) for gap, lexeme, _ in pieces]
    for what, at, token, gap in mutations:
        if what == "insert":
            pieces.insert(at % (len(pieces) + 1), (gap, token))
        elif pieces:
            at %= len(pieces)
            if what == "drop":
                del pieces[at]
            elif what == "duplicate":
                pieces.insert(at, pieces[at])
            elif at + 1 < len(pieces):
                pieces[at], pieces[at + 1] = pieces[at + 1], pieces[at]
    return "".join(gap + lexeme for gap, lexeme in pieces)


def _directives(ops):
    return "".join(":- op(%d, %s, %s).\n" % (op.precedence, op.fixity, render_term(Atom(op.name))) for op in ops)


def _table(ops):
    table = OperatorTable()
    for op in ops:
        table.define(op)
    return table


@settings(max_examples=1500, deadline=None)
@given(TERMS, OPS, MUTATIONS)
def test_a_rendered_term_reads_as_the_oracle_reads_it(term, ops, mutations):
    text = _mutate(render_term(term), mutations)
    _assert_same(read_terms, _directives(ops) + text + " .")
    _assert_same(parse_query, text, _table(ops))


TOKENS = INSERTS + ["]", "a", "f(", "X", "Y", "_", "1", "2.5", "- 1", "'-'", "'a'", "post", "^", "mod", "[]", "."]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=14), OPS)
def test_a_run_of_tokens_reads_as_the_oracle_reads_it(tokens, ops):
    text = " ".join(tokens)
    _assert_same(read_terms, _directives(ops) + text + " .")
    _assert_same(parse_query, text, _table(ops))


@pytest.mark.parametrize(
    "text",
    [
        "- 1", "- (1)", "-(1)", "- a", "-(-(1))", "- - 1", "a - -1", "a- 1", "[a|b]", "[a|b,c]", "[a,b|c|d]", "[]",
        "f(a, b | c)", "\\+ \\+ a", "\\+ (a, b)", "(a :- b :- c)", "a = b = c", "child child x", "- = x", "f(:-, ;)",
        "[-]", "[- , a]", "X(", "(", ")", "f(a,", "[a", "'[]'(a)", "a ; b , c ; d", "a , b ; c , d", "f(a :- b)",
        "f((a :- b))", "a :- b.", "a :- .", ":- a", "- -", "- - a", "name - 1", "count - N", "child :- a",
        "6 / - Y", "- Y / 2",
    ],
)
def test_edge_cases_read_as_the_oracle_reads_them(text):
    _assert_same(read_terms, text + " .")
    _assert_same(parse_query, text)


@pytest.mark.parametrize(
    "name, text",
    [("prelude", PRELUDE_SRC), ("demo", SAMPLE_RULES)]
    + [(name, make(name, 17, 45).rules) for name in ("template-rows", "goal-query")],
)
def test_shipped_rules_read_as_the_oracle_reads_them(name, text):
    _assert_same(read_terms, text)


# -- depth bounded by memory -----------------------------------------------

DEPTH = 20_000


def _spine(term, name, arg):
    """How many times *term* is *name* around its *arg*-th argument, and the term below."""
    depth = 0
    while isinstance(term, Compound) and term.name == name:
        term, depth = term.args[arg], depth + 1
    return depth, term


def _body(text):
    (clause,) = read_terms(text)[0]
    return clause.args[1]


def test_a_body_of_20000_goals_reads():
    body = _body("p :- " + ", ".join(["true"] * DEPTH) + ".")
    assert _spine(body, ",", 1) == (DEPTH - 1, Atom("true"))


def test_a_compound_20000_deep_reads():
    (clause,) = read_terms("p(%sa%s)." % ("f(" * DEPTH, ")" * DEPTH))[0]
    assert _spine(clause.args[0], "f", 0) == (DEPTH, Atom("a"))


def test_a_disjunction_20000_deep_reads():
    body = _body("p :- " + "(fail ; " * DEPTH + "true" + ")" * DEPTH + ".")
    assert _spine(body, ";", 1) == (DEPTH, Atom("true"))


def test_20000_prefix_minus_signs_read():
    # `-` is also prefix (fy 200) by default: every sign but the last is a
    # compound, and the last one and the number read as -1.
    (clause,) = read_terms("p(%s1)." % ("- " * DEPTH))[0]
    assert _spine(clause.args[0], "-", 0) == (DEPTH - 1, -1)
    # Where `-` is infix only, the signs alternate as operands and operators.
    infix_only = OperatorTable()
    del infix_only.prefix["-"]
    (clause,) = read_terms("p(%s1)." % ("- " * DEPTH), infix_only)[0]
    assert _spine(clause.args[0], "-", 0) == (DEPTH // 2, Atom("-"))


def test_lists_20000_deep_and_long_read():
    (clause,) = read_terms("p(%sa%s, [%s|T])." % ("[" * DEPTH, "]" * DEPTH, ",".join(["1"] * DEPTH)))[0]
    assert _spine(clause.args[0], ".", 0) == (DEPTH, Atom("a"))
    length, tail = _spine(clause.args[1], ".", 1)
    assert (length, isinstance(tail, Var)) == (DEPTH, True)
