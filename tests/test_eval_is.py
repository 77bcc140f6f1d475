"""``Solver.eval_is`` and compiled ``is/2`` goals against the recursive evaluator.

``eval_is`` is one loop over a list of frames that reads the table of
evaluable functors, so an expression's depth is bounded by memory; an
``is/2`` goal in a clause body whose right side holds only evaluable
functors is compiled into clause code over the same table.
``eval_oracle.RecursiveEvaluator`` keeps the code that recursed once per
level.  On random expressions all three must give the same value (its type
and its text) or fail with the same EvalError message: the operators and
functors are drawn with their own arities and with wrong ones, over
numbers, atoms, lists (proper, improper and partial), unbound and bound
variables, and ``element`` nodes.  The last tests run expressions far
deeper than the recursive evaluator could take under Python's default
recursion limit, which the package leaves as it is.
"""

import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from eval_oracle import RecursiveEvaluator
from termxform.logic_engine import EVAL, EvalError, Program, Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.transform_prelude import load_prelude
from termxform.term_core import Atom, Compound, Var, deref, fresh_var, mk_list, render_term

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


# The functors an is/2 goal in a clause compiles over; a node form's operands are not evaluated.
EVALUABLE = {
    ("+", 2), ("-", 2), ("*", 2), ("/", 2), ("mod", 2), ("-", 1), ("string", 1),
    ("substring", 3), ("substring_after", 2), ("substring_before", 2), ("translate", 3),
} | {("cat", arity) for arity in range(2, 9)}
NODE_FORMS = {("plus", 2), ("minus", 2), ("mult", 2), ("div", 2)}


def _compilable(expr):
    """Whether ``R is expr`` in a clause body compiles: not a variable, and only evaluable functors outside node forms."""
    stack = [expr]
    while stack:
        t = stack.pop()
        if isinstance(t, Compound):
            key = (t.name, len(t.args))
            if key not in EVALUABLE | NODE_FORMS:
                return False
            if key in EVALUABLE:
                stack.extend(t.args)
        elif isinstance(t, Var) and t is expr:
            return False
    return True


def _clause_text(expr, variables):
    """*expr* with each variable (bound or not) replaced by a clause variable of its own, in *variables*."""
    if isinstance(expr, Var):
        return variables.setdefault(expr.id, (fresh_var("V"), expr))[0]
    if isinstance(expr, Compound):
        return Compound(expr.name, tuple(_clause_text(arg, variables) for arg in expr.args))
    return expr


def _compiled_outcome(expr):
    """The outcome of ``t(R, V1..Vn) :- R is expr`` called with expr's own variables: R, or the warning."""
    variables = {}
    body_expr = _clause_text(expr, variables)
    result = fresh_var("R")
    program = Program()
    program.add(Compound("t", (result,) + tuple(v for v, _ in variables.values())), Compound("is", (result, body_expr)))
    clause = program.clauses[("t", len(variables) + 1)][0]
    kind = (clause.code or clause.compile())[2][0][0]
    assert (kind is EVAL) == _compilable(deref(body_expr)), render_term(expr)
    out = io.StringIO()
    answer = fresh_var("A")
    goal = Compound("t", (answer,) + tuple(original for _, original in variables.values()))
    try:
        for _ in Solver(program, SolverOptions(diagnostics=out)).solve(goal):
            return type(deref(answer)).__name__, render_term(deref(answer))
    except EvalError as error:
        raise AssertionError("the goal let an EvalError out: %s" % error) from error
    except Exception as error:  # noqa: BLE001 - any other exception must be the same as eval_is's
        return type(error).__name__, str(error)
    message = out.getvalue()
    assert message.startswith("warning: is/2: ") and message.endswith("\n"), message
    return "EvalError", message[len("warning: is/2: ") : -1]


@settings(max_examples=400, deadline=None)
@given(_functor(EXPRESSIONS) | EXPRESSIONS)
def test_a_compiled_is_goal_gives_eval_is_value_or_warning(expr):
    assert _compiled_outcome(expr) == _outcome(Solver(Program()).eval_is, expr), render_term(expr)


def _answer(program, text):
    query = parse_query(text, program.operators)
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    for _ in solver.solve(query.goal):
        return deref(query.variables["X"])
    return None


def test_a_20000_term_sum_answers_in_a_clause_body_and_in_a_query():
    limit = sys.getrecursionlimit()
    total = "+".join(["1"] * 20_000)
    program = parse_program("sum(X) :- X is %s." % total)
    assert program.clauses[("sum", 1)][0].compile()[2][0][0] is EVAL
    assert _answer(program, "sum(X)") == 20_000
    assert _answer(program, "X is %s" % total) == 20_000
    assert sys.getrecursionlimit() == limit


def _is_site(text):
    return parse_program(text).clauses[("sum", 1)][0].compile()[2][0]


def test_a_ground_sum_in_a_clause_body_is_read_when_the_clause_compiles():
    # The 20,000-term sum compiles to the code of `X is 20000`, where each
    # term was one statement (1,359,970 bytes of bytecode on Python 3.11).
    folded = _is_site("sum(X) :- X is %s." % "+".join(["1"] * 20_000))
    literal = _is_site("sum(X) :- X is 20000.")
    assert folded[0] is literal[0] is EVAL
    assert folded[1].__code__.co_code == literal[1].__code__.co_code


@pytest.mark.parametrize(
    "body, warning",
    [
        ("fail, X is 1 / 0", ""),
        ("fail, X is 1%s / 3" % ("0" * 400), ""),  # the division overflows a float
        ("fail, X is string(1%s * 1%s)" % ("0" * 3000, "0" * 3000), ""),  # 6,001 digits have no text
        ("X is 2 * (1 / 0)", "warning: is/2: division by zero\n"),
        ("X is (1 / 0) + foo", "warning: is/2: division by zero\n"),
        ("X is foo + (1 / 0)", "warning: is/2: expected a number, got foo\n"),
    ],
    ids=["never-run", "overflow-never-run", "too-long-string-never-run", "inner", "left", "right"],
)
def test_a_ground_subterm_that_cannot_be_read_is_read_when_the_goal_runs(body, warning):
    # Its error is a warning of the goal, in its turn, and none if the goal never runs.
    out = io.StringIO()
    solver = Solver(parse_program("sum(X) :- %s." % body), SolverOptions(diagnostics=out))
    assert list(solver.solve(parse_query("sum(X)").goal)) == []
    assert out.getvalue() == warning


# B * B has 6,001 digits, more than Python writes as text (4,300 by default).
BIG = "1" + "0" * 3000
NO_TEXT = "an integer of more than %d digits has no text" % sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "goal, answers, warning",
    [
        ("X is string(B * B)", [], "is/2: " + NO_TEXT),
        ("(X is string(B * B) ; X = fallback)", [Atom("fallback")], "is/2: " + NO_TEXT),
        ("X is cat(B * B, a)", [], "is/2: " + NO_TEXT),
        ("C is B * B, atom_codes(C, X)", [], "atom_codes/2: " + NO_TEXT),
        ("C is B * B, transform(element(a,['k=\"1\"'],[]) @ k, C), X = 1", [], "textValue/2: " + NO_TEXT),
        ("C is B * B, (write(C) ; X = fallback)", [Atom("fallback")], "write/1: %s (goal fails)" % NO_TEXT),
    ],
    ids=["string", "string-or-fallback", "cat", "atom_codes", "textValue", "write"],
)
def test_the_text_of_an_integer_too_long_for_text_warns_and_fails(goal, answers, warning):
    # Python raises ValueError for str() of such an integer, which ended the
    # whole query; it is an evaluation error, so only the goal fails.  The
    # goal runs as a query, through the runtime is/2, and as a clause body,
    # whose is/2 goals are compiled.
    goal = goal.replace("B", BIG)
    program = load_prelude()
    program.extend(parse_program("p(X) :- %s." % goal))
    for text in (goal, "p(X)"):
        out = io.StringIO()
        assert _answers(program, text, out) == answers, text
        assert out.getvalue() == "warning: %s\n" % warning, text


def _answers(program, text, out):
    query = parse_query(text, program.operators)
    solver = Solver(program, SolverOptions(diagnostics=out))
    return [deref(query.variables["X"]) for _ in solver.solve(query.goal)]


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
