"""``Solver.eval_is`` against the recursive evaluator it replaced.

``eval_is`` is one loop over a list of generators, one per compound under
evaluation, so an expression's depth is bounded by memory.
``eval_oracle.RecursiveEvaluator`` keeps the code that recursed once per
level.  On random expressions both must give the same value (its type and
its text) or fail with the same EvalError message: the operators and
functors are drawn with their own arities and with wrong ones, over
numbers, atoms, lists (proper, improper and partial), unbound and bound
variables, and ``element`` nodes.  The last tests run expressions far
deeper than the recursive evaluator could take under Python's default
recursion limit, which the package leaves as it is.
"""

import pytest
from hypothesis import given, settings, strategies as st

from eval_oracle import RecursiveEvaluator
from termxform.logic_engine import EvalError, Program, Solver
from termxform.rule_language import parse_query
from termxform.term_core import Atom, Compound, fresh_var, mk_list, render_term

NUMBERS = st.one_of(
    st.integers(-20, 20),
    st.sampled_from([0.0, 1.5, -2.25, 3.0, 1e300]),
)
ATOMS = st.sampled_from(["[]", "a", "bc", "b c", "", "12", " 7 ", "3.5", "x-y", "ab"]).map(Atom)


def _bound(value):
    var = fresh_var("B")
    var.ref = value
    return var


def _text_node(content):
    return Compound("text", (Atom(content),))


TEXTS = st.sampled_from(["12", " 4 ", "2.5", "0", "x", "", "1e3", "1_0", "nan", "Infinity", "1e400", " ٣ ", "\x0c5"])
NODES = st.one_of(
    NUMBERS,
    st.builds(lambda t: Compound("element", (Atom("n"), mk_list([]), mk_list([_text_node(t)]))), TEXTS),
    st.builds(
        lambda t, u: Compound("element", (Atom("n"), mk_list([]), mk_list([_text_node(t), _text_node(u)]))),
        TEXTS, TEXTS,
    ),
    st.builds(lambda t: Compound("element", (Atom("n"), mk_list([]), mk_list([Atom(t)]))), TEXTS),
    st.builds(lambda t: Compound("element", (Atom("n"), mk_list([]), mk_list([], fresh_var("T")))), TEXTS),
    TEXTS.map(_text_node),
)
LEAVES = st.one_of(NUMBERS, ATOMS, st.builds(lambda: fresh_var("U")))

FUNCTORS = [
    ("+", 2), ("-", 2), ("*", 2), ("/", 2), ("mod", 2), ("-", 1),
    ("cat", 2), ("cat", 3), ("cat", 5), ("cat", 8),
    ("string", 1), ("substring", 3), ("substring_after", 2), ("substring_before", 2), ("translate", 3),
    ("foo", 1), ("+", 3), ("cat", 1), ("cat", 9), ("string", 2), ("mod", 1), ("plus", 3),
]


def _functor(children):
    return st.builds(
        lambda functor, args: Compound(functor[0], tuple(args[: functor[1]])),
        st.sampled_from(FUNCTORS), st.lists(children, min_size=9, max_size=9),
    )


def _extend(children):
    return st.one_of(
        _functor(children),
        _functor(children),
        st.builds(lambda items: mk_list(items), st.lists(children, max_size=4)),
        st.builds(lambda items, tail: mk_list(items, tail), st.lists(children, min_size=1, max_size=3), LEAVES),
        st.builds(_bound, children),
        st.builds(
            lambda name, a, b: Compound(name, (a, b)),
            st.sampled_from(["plus", "minus", "mult", "div"]), NODES, NODES,
        ),
    )


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=16)


def _outcome(evaluate, expr):
    try:
        value = evaluate(expr)
    except EvalError as error:
        return "EvalError", str(error)
    except Exception as error:  # noqa: BLE001 - any other exception must be the same too
        return type(error).__name__, str(error)
    return type(value).__name__, render_term(value)


@settings(max_examples=600, deadline=None)
@given(_functor(EXPRESSIONS) | EXPRESSIONS)
def test_eval_is_gives_the_recursive_evaluators_value_or_error(expr):
    solver = Solver(Program())
    assert _outcome(solver.eval_is, expr) == _outcome(RecursiveEvaluator().eval_is, expr), render_term(expr)


@pytest.mark.parametrize(
    "text, outcome",
    [
        # cat reads its arguments in order: the first one's error is reported,
        # although the improper list after it could be flattened first.
        ("cat(foo(1), [a|b])", ("EvalError", "unknown evaluable functor foo/1")),
        ("cat([a|b], foo(1))", ("EvalError", "cat cannot flatten an improper list")),
        ("cat([a, [foo(1)]], [c|d])", ("EvalError", "unknown evaluable functor foo/1")),
        ("cat(a, [1+2, [string(4.5), []]], X)", ("EvalError", "unbound variable in evaluable expression")),
        ("cat(a, [1+2, [string(4.5), []]], '[]')", ("Atom", "'a34.5'")),
        ("1 + a", ("EvalError", "expected a number, got a")),
        ("substring(abc, 1, 1.0)", ("EvalError", "expected an integer, got 1.0")),
        ("[1, 2]", ("Compound", "[1,2]")),
        # translate: a character's first position in the source wins, one past
        # the target's end is deleted, extra target characters are ignored,
        # and numbers are read as text.
        ("translate(abcabc, aba, xyz)", ("Atom", "xycxyc")),
        ("translate(abc, abc, x)", ("Atom", "x")),
        ("translate(ab, a, xyz)", ("Atom", "xb")),
        ("translate(1212, 1, 9)", ("Atom", "'9292'")),
        ("div(6, element(n, [], [text('0')]))", ("EvalError", "division by zero")),
    ],
)
def test_evaluation_order_and_errors(text, outcome):
    expr = parse_query(text).goal
    assert _outcome(Solver(Program()).eval_is, expr) == outcome
    assert _outcome(RecursiveEvaluator().eval_is, expr) == outcome


def _deep(depth, wrap, leaf):
    expr = leaf
    for _ in range(depth):
        expr = wrap(expr)
    return expr


@pytest.mark.parametrize(
    "expr, value",
    [
        (_deep(20_000, lambda e: Compound("+", (e, 1)), 0), 20_000),
        (_deep(20_000, lambda e: Compound("-", (1, e)), 0), 0),
        (_deep(20_000, lambda e: Compound("string", (e,)), Atom("a")), Atom("a")),
        (_deep(20_000, lambda e: Compound("cat", (e, Atom("b"))), Atom("a")), Atom("a" + "b" * 20_000)),
        (Compound("cat", (_deep(20_000, lambda e: mk_list([e]), Atom("a")), 1)), Atom("a1")),
    ],
    ids=["left sum", "right difference", "string", "cat", "nested list"],
)
def test_expressions_20000_deep_evaluate(expr, value):
    assert Solver(Program()).eval_is(expr) == value
