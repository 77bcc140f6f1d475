"""Tests for the resolution engine: control flow, natives, and evaluation."""

import inspect
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from eval_oracle import xml_number
from fresh_interpreter import termxform
from termxform import logic_engine
from termxform.logic_engine import (
    _BUILTINS,
    EvalError,
    Program,
    ResourceLimitError,
    Solver,
    SolverOptions,
)
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    Var,
    copy_term,
    deref,
    fresh_var,
    list_parts,
    mk_list,
    render_term,
    term_variables,
)
from termxform import transform_prelude
from termxform.transform_prelude import load_prelude
from test_clause_index import _outcome
from xmlgen import elements, elements_of


def make_solver(program_text="", **options):
    program = parse_program(program_text)
    opts = SolverOptions(diagnostics=io.StringIO(), **options)
    return Solver(program, opts)


def solutions(solver, query_text, limit=None):
    """All solutions as {var name: rendered value} dicts."""
    query = parse_query(query_text, solver.program.operators)
    found = []
    for _ in solver.solve(query.goal):
        found.append(
            {
                name: render_term(var)
                for name, var in query.variables.items()
            }
        )
        if limit is not None and len(found) >= limit:
            break
    return found


def test_fact_lookup():
    solver = make_solver("likes(mary, wine). likes(john, beer).")
    assert solutions(solver, "likes(mary, X)") == [{"X": "wine"}]


def test_clause_order_drives_solution_order():
    solver = make_solver("p(3). p(1). p(2).")
    assert solutions(solver, "p(X)") == [{"X": "3"}, {"X": "1"}, {"X": "2"}]


def test_rule_chaining_and_backtracking():
    solver = make_solver(
        """
        parent(tom, bob). parent(bob, ann). parent(bob, pat).
        grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
        """
    )
    assert solutions(solver, "grandparent(tom, Z)") == [{"Z": "ann"}, {"Z": "pat"}]


def test_bindings_undone_between_solutions():
    solver = make_solver("p(1). p(2).")
    query = parse_query("p(X)", solver.program.operators)
    seen = []
    for _ in solver.solve(query.goal):
        seen.append(render_term(query.variables["X"]))
    assert seen == ["1", "2"]
    # After exhaustion the trail is unwound completely.
    assert query.variables["X"].ref is None


def test_solve_once_restores_bindings():
    solver = make_solver("p(1).")
    query = parse_query("p(X)", solver.program.operators)
    assert solver.solve_once(query.goal)
    assert query.variables["X"].ref is None


def test_conjunction_and_disjunction():
    solver = make_solver("a(1). a(2). b(2). b(3).")
    assert solutions(solver, "a(X), b(X)") == [{"X": "2"}]
    assert solutions(solver, "a(X) ; b(X)") == [
        {"X": "1"},
        {"X": "2"},
        {"X": "2"},
        {"X": "3"},
    ]


def test_cut_commits_to_first_clause():
    solver = make_solver(
        """
        max(X, Y, X) :- X >= Y, !.
        max(_, Y, Y).
        """
    )
    assert solutions(solver, "max(3, 2, M)") == [{"M": "3"}]
    assert solutions(solver, "max(2, 5, M)") == [{"M": "5"}]


def test_cut_prunes_choice_points_to_its_left():
    solver = make_solver("t(X) :- member(X, [1, 2, 3]), !.")
    assert solutions(solver, "t(X)") == [{"X": "1"}]


def test_cut_inside_disjunction():
    solver = make_solver("t(X) :- (X = 1 ; X = 2), !.")
    assert solutions(solver, "t(X)") == [{"X": "1"}]


def test_cut_is_local_to_the_clause():
    solver = make_solver(
        """
        pick(X) :- member(X, [1, 2]), !.
        each(Y) :- member(Y, [a, b]), pick(_).
        """
    )
    # The cut inside pick/1 must not prune each/1's own choices.
    assert solutions(solver, "each(Y)") == [{"Y": "a"}, {"Y": "b"}]


def test_negation_as_failure():
    solver = make_solver("p(1).")
    assert solutions(solver, "not(fail)") == [{}]
    assert solutions(solver, "not(p(1))") == []
    assert solutions(solver, "not(p(9))") == [{}]


def test_negation_leaves_no_bindings():
    solver = make_solver("p(1).")
    query = parse_query("not(not(p(X)))", solver.program.operators)
    assert solver.solve_once(query.goal)
    assert query.variables["X"].ref is None


def test_findall_collects_all_solutions():
    solver = make_solver("p(1). p(2). p(3).")
    result = solutions(solver, "findall(X, p(X), L)")
    assert len(result) == 1
    assert result[0]["L"] == "[1,2,3]"
    # The template variable itself stays unbound outside the collection.
    assert result[0]["X"].startswith("_")


def test_findall_goal_failure_gives_empty_list():
    solver = make_solver("")
    result = solutions(solver, "findall(X, fail, L)")
    assert len(result) == 1
    assert result[0]["L"] == "[]"


def test_findall_cut_is_contained():
    solver = make_solver("")
    result = solutions(solver, "findall(X, (member(X, [1, 2]), !), L)")
    assert len(result) == 1
    assert result[0]["L"] == "[1]"


CONTROL_PROGRAM = "t(X) :- member(X, [1, 2, 3]), !.\np(1). p(2). p(3)."
UNKNOWN_FOO = "warning: unknown predicate foo/0 (goal fails)\n"


@pytest.mark.parametrize(
    "goal, answers, warnings, steps",
    [
        ("true", [{}], "", 1),
        ("false", [], "", 1),
        ("fail ; true", [{}], "", 3),
        ("not(member(x, [a]))", [{}], "", 2),
        ("not(not(X = a))", [{"X": "_"}], "", 3),
        # A cut inside not/1 or findall/3 prunes only the inner goal.
        ("not((member(X, [1, 2]), !, X = 2))", [{"X": "_"}], "", 4),
        ("p(Y), not((!, Y = 2))", [{"Y": "1"}, {"Y": "3"}], "", 10),
        ("findall(X, (member(X, [a, b, c]), !), L)", [{"X": "_", "L": "[a]"}], "", 3),
        (
            "findall(X, t(X), L), p(Y)",
            [{"X": "_", "L": "[1]", "Y": y} for y in "123"],
            "",
            5,
        ),
        ("findall(X, member(X, [a, b]), L)", [{"X": "_", "L": "[a,b]"}], "", 2),
        ("findall(X, fail, L)", [{"X": "_", "L": "[]"}], "", 2),
        ("call(findall, X, member(X, [1, 2]), L)", [{"X": "_", "L": "[1,2]"}], "", 3),
        ("not(foo)", [{}], UNKNOWN_FOO, 2),
        ("not(foo), not(foo)", [{}], UNKNOWN_FOO, 4),
    ],
)
def test_moved_control_goals_keep_answers_warnings_and_steps(goal, answers, warnings, steps):
    # Answers in order, warnings and steps of the goals the registry runs as
    # natives; any change here is a change of behaviour.
    solver = make_solver(CONTROL_PROGRAM)
    query = parse_query(goal, solver.program.operators)
    found = [
        {
            name: "_" if isinstance(deref(var), Var) else render_term(var)
            for name, var in query.variables.items()
        }
        for _ in solver.solve(query.goal)
    ]
    assert found == answers
    assert solver.options.diagnostics.getvalue() == warnings
    assert solver.steps == steps


CONJUNCTION_PROGRAM = """
a(1). a(2). a(3).
b(x). b(y).
c(p). c(q).
cut_mid(A, B) :- a(A), !, b(B).
left(A, B, C) :- (a(A), b(B)), c(C).
or_cut(A) :- (a(A), ! ; A = 9).
unbound_goal(A) :- a(A), G, b(A).
bound_goal(A, B) :- G = (a(A), b(B)), G, !.
cut_last :- a(A), !, b(B), c(C).
fact.
true_body :- true.
one_goal :- a(1).
three_goals :- a(1), b(x), c(p).
"""
UNBOUND_GOAL = "warning: unbound variable called as a goal\n"
LEFT_ANSWERS = ["A=%s B=%s C=%s" % (a, b, c) for a in "123" for b in "xy" for c in "pq"]


def conjunction_outcome(goal, depth_limit=1000):
    """Answers in order (``limit`` when the step limit stops it), warnings, steps."""
    solver = make_solver(CONJUNCTION_PROGRAM, depth_limit=depth_limit)
    query = parse_query(goal, solver.program.operators)
    found = []
    try:
        for _ in solver.solve(query.goal):
            found.append(" ".join(
                "%s=%s" % (name, "_" if isinstance(deref(var), Var) else render_term(var))
                for name, var in query.variables.items()
            ))
    except ResourceLimitError:
        found.append("limit")
    return found, solver.options.diagnostics.getvalue(), solver.steps


@pytest.mark.parametrize(
    "goal, answers, warnings, steps",
    [
        # A cut between two multi-solution goals keeps the right one's choices.
        ("cut_mid(A, B)", ["A=1 B=x", "A=1 B=y"], "", 4),
        ("a(A), !, b(B)", ["A=1 B=x", "A=1 B=y"], "", 3),
        # A left-nested conjunction runs its inner `,` as one goal.
        ("left(A, B, C)", LEFT_ANSWERS, "", 11),
        ("((a(A), b(B)), c(C))", LEFT_ANSWERS, "", 10),
        ("or_cut(A)", ["A=1"], "", 4),
        ("(a(A), ! ; b(A))", ["A=1"], "", 3),
        ("call((a(A), !, b(B)))", ["A=1 B=x", "A=1 B=y"], "", 4),
        ("not((a(A), b(z)))", ["A=_"], "", 5),
        ("not((a(A), b(B)))", [], "", 3),
        (
            "findall(f(A, B), (a(A), b(B)), L)",
            ["A=_ B=_ L=[f(1,x),f(1,y),f(2,x),f(2,y),f(3,x),f(3,y)]"],
            "",
            5,
        ),
        # A body variable called as a goal: unbound it warns, bound it runs.
        ("unbound_goal(A)", [], UNBOUND_GOAL, 5),
        ("a(A), G", [], UNBOUND_GOAL, 4),
        ("bound_goal(A, B)", ["A=1 B=x"], "", 5),
        (
            "X = (a(A), b(B)), X",
            ["X=','(a(%s),b(%s)) A=%s B=%s" % (a, b, a, b) for a in "123" for b in "xy"],
            "",
            5,
        ),
        # One step per goal entered, other than `,`: a fact call is one step,
        # `p :- true` costs what the fact `p` costs, and a body of k goals
        # (facts here) costs k + 1.
        ("fact", [""], "", 1),
        ("true_body", [""], "", 1),
        ("one_goal", [""], "", 2),
        ("three_goals", [""], "", 4),
    ],
)
def test_conjunctions_keep_answers_warnings_and_steps(goal, answers, warnings, steps):
    assert conjunction_outcome(goal) == (answers, warnings, steps)


def test_a_conjunction_stops_at_the_step_limit_where_it_did():
    assert conjunction_outcome("left(A, B, C)", 8) == (LEFT_ANSWERS[:8] + ["limit"], "", 9)


@pytest.mark.parametrize(
    "goal, before_limit",
    [
        # Answers found before the step limit raises, for limits 1, 2, ... 35.
        ("left(A, B, C)", [0, 0, 0, 2, 4, 4, 6, 8, 8, 10] + [None] * 25),
        ("a(A), b(B), c(C)", [0, 0, 2, 4, 4, 6, 8, 8, 10] + [None] * 26),
        ("cut_last", [0, 0, 0, 0, 2] + [None] * 30),
    ],
)
def test_conjunctions_count_each_step_where_they_did(goal, before_limit):
    found = []
    for limit in range(1, 36):
        answers, _, steps = conjunction_outcome(goal, limit)
        found.append(len(answers) - 1 if answers[-1:] == ["limit"] else None)
        assert steps == limit + 1 if found[-1] is not None else steps <= limit
    assert found == before_limit


def test_control_goals_are_answered_by_one_registry():
    for name, arity in [(",", 2), (";", 2), ("!", 0), ("call", 1), ("call", 8)]:
        assert Solver.is_builtin(name, arity) and (name, arity) not in _BUILTINS
    for name, arity in [("true", 0), ("fail", 0), ("false", 0), ("not", 1), ("findall", 3)]:
        assert Solver.is_builtin(name, arity) and (name, arity) in _BUILTINS
    for name, arity in [("call", 0), ("true", 1), ("not", 2), ("findall", 2), (",", 3), ("foo", 0)]:
        assert not Solver.is_builtin(name, arity)


def test_only_natives_that_can_succeed_again_are_generators():
    # A native that succeeds at most once returns True or False, so its call
    # pushes no choicepoint; written as a generator it would push one per call.
    # The natives that run goals are generators too, but only to hand the
    # machine their goals: each ends with `return True` or `return False`.
    import termxform  # noqa: F401 - registers the template and prelude natives

    generators = {key for key, native in _BUILTINS.items() if inspect.isgeneratorfunction(native)}
    run_goals = {("not", 1), ("findall", 3), ("traverse", 2)}
    expected = {("append", 3), ("member", 2), ("length", 2), ("descendantOrSelf", 3)}
    assert generators == expected | run_goals
    solver = make_solver("template(element(b,_,C), C).")
    goal, template, found = Atom("g"), fresh_var("T"), fresh_var("L")
    node = parse_query("element(a,[],[text(x)])").goal
    runs = [
        (("not", 1), [goal], [((goal, None), True)], False),
        (("not", 1), [goal], [((goal, None), False)], True),
        (("findall", 3), [template, goal, found], [((goal, template), [1, 2])], True),
        # text(x) has no template/2 candidate, so only element a is asked about
        (("traverse", 2), [node, EMPTY_LIST], [(None, False)], True),
        (("traverse", 2), [Atom("x"), EMPTY_LIST], [], True),
    ]
    for key, args, answers, last in runs:
        # Each request is (goal, template), sent back its answer; None is not checked.
        native, sent = _BUILTINS[key](solver, args), None
        for request, answer in answers:
            made = native.send(sent)
            assert request is None or made == request, key
            sent = answer
        with pytest.raises(StopIteration) as stop:
            native.send(sent)
        assert stop.value.value is last, key
    assert render_term(found) == "[1,2]"
    solver.undo_to(0)
    attribute = {("attribute", 3), ("attribute", 4)}
    solver = make_solver()
    for (name, arity), native in _BUILTINS.items():
        if (name, arity) not in generators | attribute:
            result = native(solver, [fresh_var("A") for _ in range(arity)])
            assert result is True or result is False, (name, arity)
    # attribute/3,4 is True or False when at most one entry can match Id (an
    # entry of that name for an atom, any entry for a variable, none for any
    # other term), and an iterator of solutions otherwise.
    single = mk_list([Atom('a="1"')])
    one = mk_list([Atom('a="1"'), Atom('b="2"')])
    two = mk_list([Atom('a="1"'), Atom('a="2"')])
    cases = [
        (one, Atom("a"), True),
        (one, Atom("c"), False),
        (one, Atom("a b"), False),
        (one, EMPTY_LIST, False),
        (fresh_var("Atts"), Atom("a"), False),
        (two, Atom("b"), False),
        (two, Atom("a"), None),
        (one, fresh_var("Id"), None),
        (single, fresh_var("Id"), True),
        (one, 7, False),
    ]
    for key in sorted(attribute):
        for atts, name, outcome in cases:
            args = [atts, name] + [fresh_var("A") for _ in range(key[1] - 2)]
            result = _BUILTINS[key](solver, args)
            if outcome is None:
                assert iter(result) is result, (key, render_term(atts), render_term(name))
            else:
                assert result is outcome, (key, render_term(atts), render_term(name))
            solver.undo_to(0)


def test_number_type_aliases_share_one_native():
    assert _BUILTINS[("isnumber", 1)] is _BUILTINS[("number", 1)]
    assert _BUILTINS[("inumber", 1)] is _BUILTINS[("integer", 1)]
    assert _BUILTINS[("fnumber", 1)] is _BUILTINS[("float", 1)]


def test_call_appends_arguments():
    solver = make_solver("")
    assert [s["X"] for s in solutions(solver, "call(member, X, [7, 8])")] == ["7", "8"]


def test_call_on_compound_goal():
    solver = make_solver("add3(A, B) :- B is A + 3.")
    assert solutions(solver, "call(add3(4), R)") == [{"R": "7"}]


def test_is_arithmetic():
    solver = make_solver("")
    assert solutions(solver, "X is 2 + 3 * 4") == [{"X": "14"}]
    assert solutions(solver, "X is 7 mod 3") == [{"X": "1"}]
    assert solutions(solver, "X is 1 - 2 - 3") == [{"X": "-4"}]


def test_is_division_always_float():
    solver = make_solver("")
    assert solutions(solver, "X is 6 / 3") == [{"X": "2.0"}]


def test_is_division_by_zero_fails_with_warning():
    solver = make_solver("")
    assert solutions(solver, "X is 1 / 0") == []
    assert "division by zero" in solver.options.diagnostics.getvalue()


def test_is_unbound_operand_fails():
    solver = make_solver("")
    assert solutions(solver, "X is Y + 1") == []


def test_is_atom_evaluates_to_itself():
    solver = make_solver("")
    assert solutions(solver, "X is hallo") == [{"X": "hallo"}]


def test_eval_string_functors():
    solver = make_solver("")
    assert solver.eval_is(parse_query("substring(hallo, 1, 3)").goal) == Atom("hal")
    assert solver.eval_is(parse_query("substring_after('a-b', '-')").goal) == Atom("b")
    assert solver.eval_is(parse_query("substring_before('a-b', '-')").goal) == Atom("a")
    assert solver.eval_is(parse_query("substring_after(ab, zz)").goal) == Atom("")
    assert solver.eval_is(parse_query("translate(goose, egos, 'EGOS')").goal) == Atom("GOOSE")
    assert solver.eval_is(parse_query("cat(a, 1, [b, c], '')").goal) == Atom("a1bc")
    assert solver.eval_is(parse_query("string(1.3)").goal) == Atom("1.3")
    assert solver.eval_is(parse_query("string(abc)").goal) == Atom("abc")


def test_eval_substring_out_of_range():
    solver = make_solver("")
    with pytest.raises(EvalError):
        solver.eval_is(parse_query("substring(ab, 1, 5)").goal)


def test_eval_translate_deletes_unmapped_sources():
    solver = make_solver("")
    # Source characters beyond the target's length are removed.
    assert solver.eval_is(parse_query("translate(abcd, bd, 'X')").goal) == Atom("aXc")


def test_eval_node_arithmetic():
    solver = make_solver("")
    assert solutions(solver, "X is plus(element(a, [], [text('100')]), 4)") == [{"X": "104"}]
    assert solutions(solver, "X is div(element(a, [], [text('9')]), 2)") == [{"X": "4.5"}]


def _node_number_oracle(text):
    try:
        return xml_number(text)
    except EvalError as exc:
        return str(exc)


def _node_number_outcome(text):
    node = Compound("element", (Atom("n"), EMPTY_LIST, mk_list([Compound("text", (Atom(text),))])))
    try:
        value = make_solver("").eval_is(Compound("plus", (node, 0)))
    except EvalError as exc:
        return str(exc)
    return value


@pytest.mark.parametrize(
    "text, value",
    [
        ("1_0", None), ("nan", None), ("-NaN", None), ("Infinity", None), ("inf", None), ("1e400", None),
        (" ٣ ", None), ("１", None), ("²", None), ("\x0c5", None), ("5\x0b", None), ("\xa05", None),
        ("5 5", None), ("", None), ("0x10", None),
        ("+5", 5), ("-5", -5), ("007", 7), (".5", 0.5), ("5.", 5.0), ("1e3", 1000.0), ("-2.5E-1", -0.25),
        (" \t5\r\n", 5),
    ],
)
def test_node_text_reads_as_a_number_only_in_xml_number_forms(text, value):
    outcome = _node_number_outcome(text)
    assert outcome == _node_number_oracle(text)
    if value is None:
        assert outcome == "text content is not a number: %r" % text.strip(" \t\r\n")
    else:
        assert (outcome, type(outcome)) == (value, type(value))


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from("0123456789+-.eE_ \t\r\n\x0b\x0c\x1c\xa0٣²naifty"), max_size=8))
def test_node_text_numbers_follow_the_regex_oracle(text):
    outcome, expected = _node_number_outcome(text), _node_number_oracle(text)
    assert (outcome, type(outcome)) == (expected, type(expected))


def test_node_text_that_is_no_number_warns_and_fails():
    solver = make_solver("")
    assert solutions(solver, "X is plus(element(p, [], [text('1_0')]), 1)") == []
    assert "text content is not a number: '1_0'" in solver.options.diagnostics.getvalue()


def test_comparisons():
    solver = make_solver("")
    assert solutions(solver, "1 < 2") == [{}]
    assert solutions(solver, "2 =< 2") == [{}]
    assert solutions(solver, "3 > 4") == []
    assert solutions(solver, "2.5 >= 2") == [{}]


def test_comparison_on_atom_fails_with_warning():
    solver = make_solver("")
    assert solutions(solver, "a < 1") == []
    assert "comparison" in solver.options.diagnostics.getvalue()


def test_identity_vs_unification():
    solver = make_solver("")
    assert solutions(solver, "X == Y") == []
    assert len(solutions(solver, "X = Y, X == Y")) == 1
    assert solutions(solver, "f(a) == f(a)") == [{}]
    assert solutions(solver, "f(a) \\== f(b)") == [{}]


def test_not_unifiable():
    solver = make_solver("")
    assert solutions(solver, "1 \\= 2") == [{}]
    assert solutions(solver, "X \\= 1") == []
    result = solutions(solver, "f(X, b) \\= f(a, c)")
    assert len(result) == 1
    assert result[0]["X"].startswith("_")  # probe bindings were undone


def test_type_tests():
    solver = make_solver("")
    for goal in (
        "atom(a)", "number(1)", "number(1.5)", "integer(3)", "float(2.5)",
        "var(X)", "nonvar(a)", "compound(f(a))", "list([1, 2])", "atomic(a)",
        "ground(f(a, b))", "isnumber(7)", "inumber(7)", "fnumber(7.5)",
    ):
        assert solutions(solver, goal) != [], goal
    for goal in (
        "atom(1)", "atom(f(a))", "integer(1.5)", "float(3)", "var(a)",
        "nonvar(X)", "compound(a)", "list([1 | X])", "ground(f(X))",
        "inumber(7.5)", "fnumber(7)",
    ):
        assert solutions(solver, goal) == [], goal


def test_append_modes():
    solver = make_solver("")
    assert solutions(solver, "append([1, 2], [3], X)") == [{"X": "[1,2,3]"}]
    splits = solutions(solver, "append(A, B, [1, 2])")
    assert [(s["A"], s["B"]) for s in splits] == [
        ("[]", "[1,2]"),
        ("[1]", "[2]"),
        ("[1,2]", "[]"),
    ]


def test_append_on_open_lists_stops_at_the_step_limit():
    # One step per list cell: the endless enumeration stops at the limit.
    solver = make_solver("", depth_limit=300)
    query = parse_query("append(X, [a], Y)", solver.program.operators)
    with pytest.raises(ResourceLimitError):
        for count, _ in enumerate(solver.solve(query.goal)):
            assert count < 1000
    solver = make_solver("", depth_limit=300)
    query = parse_query("findall(X, append(X, [a], Y), L)", solver.program.operators)
    with pytest.raises(ResourceLimitError):
        for _ in solver.solve(query.goal):
            pass
    assert solver.steps == 301


def _recursive_append(solver, a, b, c):
    """append/3 as it was written before it became a loop: the order oracle."""
    a_items, a_tail = list_parts(a)
    if isinstance(a_tail, Atom) and a_tail.name == "[]":
        if solver.unify(c, mk_list(a_items, deref(b))):
            yield
        return
    if isinstance(deref(a), Var):
        c_items, c_tail = list_parts(c)
        if isinstance(c_tail, Atom) and c_tail.name == "[]":
            spine = [deref(c)]
            node = deref(c)
            while isinstance(node, Compound) and node.name == ".":
                node = deref(node.args[1])
                spine.append(node)
            for i in range(len(c_items) + 1):
                mark = len(solver.trail)
                if solver.unify(a, mk_list(c_items[:i])) and solver.unify(b, spine[i]):
                    yield
                solver.undo_to(mark)
            return
    mark = len(solver.trail)
    if solver.unify(a, mk_list([])) and solver.unify(b, c):
        yield
    solver.undo_to(mark)
    head, tail_a, tail_c = fresh_var("H"), fresh_var("T"), fresh_var("T")
    mark = len(solver.trail)
    if solver.unify(a, Compound(".", (head, tail_a))) and solver.unify(
        c, Compound(".", (head, tail_c))
    ):
        yield from _recursive_append(solver, tail_a, b, tail_c)
    solver.undo_to(mark)


def _first_answers(goal_text, count=20):
    """The first *count* instances of the goal, variables renamed by first occurrence."""
    solver = make_solver("")
    query = parse_query(goal_text, solver.program.operators)
    answers = []
    for _ in solver.solve(query.goal):
        names = {}
        answers.append(
            re.sub(r"_\w+", lambda m: names.setdefault(m.group(0), "V%d" % len(names)),
                   render_term(query.goal))
        )
        if len(answers) == count:
            break
    return answers


@pytest.mark.parametrize(
    "goal", ["append(X, Y, [a|T])", "append([a|X], Y, Z)", "append(X, [b|Y], [a, b, c|T])"]
)
def test_append_on_open_lists_keeps_its_solution_order(goal, monkeypatch):
    looped = _first_answers(goal)
    assert len(looped) == 20
    monkeypatch.setitem(
        _BUILTINS, ("append", 3), lambda solver, args: _recursive_append(solver, *args)
    )
    assert looped == _first_answers(goal)


def _counting_mk_list(monkeypatch):
    """Count the list cells the engine builds from here on, per call."""
    cells = []

    def counting_mk_list(items, tail=EMPTY_LIST):
        items = list(items)
        cells.append(len(items))
        return mk_list(items, tail)

    monkeypatch.setattr(logic_engine, "mk_list", counting_mk_list)
    return cells


@pytest.mark.parametrize("n", [250, 500, 1000])
def test_append_builds_only_the_prefix_of_a_split_whose_suffix_unified(n, monkeypatch):
    # append(_, [element(z, A, C)|_], Children) with z the last of n children
    # tries n + 1 splits.  Building every split's prefix made n * (n + 1) / 2 cells.
    children = [Compound("element", (Atom("a"), mk_list([]), mk_list([]))) for _ in range(n - 1)]
    children.append(Compound("element", (Atom("z"), mk_list([]), mk_list([]))))
    wanted = Compound("element", (Atom("z"), fresh_var("A"), fresh_var("C")))
    goal = Compound("append", (fresh_var("_"), mk_list([wanted], fresh_var("_")), mk_list(children)))
    solver = Solver(load_prelude(), SolverOptions(diagnostics=io.StringIO()))
    cells = _counting_mk_list(monkeypatch)
    assert len(list(solver.solve(goal))) == 1
    assert sum(cells) == n - 1


@pytest.mark.parametrize("n", [250, 1000, 4000])
def test_slash_gives_every_same_named_child_in_order_and_builds_no_list_cells(n, monkeypatch):
    # E / a runs member/2 over the children.  Through append/3 it built the
    # prefix of every matching split: n * (n - 1) / 2 cells in all.
    children = [
        Compound("element", (Atom("a"), mk_list([]), mk_list([Compound("text", (Atom(str(i)),))])))
        for i in range(n)
    ]
    element = Compound("element", (Atom("e"), mk_list([]), mk_list(children)))
    answer = fresh_var("Y")
    goal = Compound("transform", (Compound("/", (element, Atom("a"))), answer))
    solver = Solver(load_prelude(), SolverOptions(diagnostics=io.StringIO()))
    cells = _counting_mk_list(monkeypatch)
    answers = [render_term(deref(answer)) for _ in solver.solve(goal)]
    assert answers == [render_term(child) for child in children]
    assert cells == []
    assert solver.steps == 3


def test_slash_over_a_partial_child_list_gives_the_answers_append_gave_in_fewer_steps():
    # member/2 extends the open tail as append/3 did, so the answers and their
    # order hold; append/3 took 4, 6 and 7 steps to reach them.
    program = load_prelude()
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    query = parse_query("transform(element(e,[],[element(a,[],[]),text(x)|T]) / a, Y)", program.operators)
    answers = []
    for _ in solver.solve(query.goal):
        text = render_term(query.goal)
        names = {}
        answers.append((re.sub(r"_\w+", lambda m: names.setdefault(m.group(0), "V%d" % len(names)), text),
                        solver.steps))
        if len(answers) == 3:
            break
    # The cell skipped before the third answer is member/2's fresh _<n>, where
    # append/3 gave _H<n>.
    assert re.search(r",text\(x\),_\d+,element\(a,", text)
    assert answers == [
        ("transform(/(element(e,[],[element(a,[],[]),text(x)|V0]),a),element(a,[],[]))", 2),
        ("transform(/(element(e,[],[element(a,[],[]),text(x),element(a,V0,V1)|V2]),a),element(a,V0,V1))", 3),
        ("transform(/(element(e,[],[element(a,[],[]),text(x),V0,element(a,V1,V2)|V3]),a),element(a,V1,V2))", 4),
    ]


@settings(max_examples=20, deadline=None)
@given(elements(max_depth=2))
def test_append_splits_give_what_building_every_prefix_first_gave(tree):
    # The splits of a proper list against the order oracle, which unifies
    # each split's prefix before its suffix: solutions, warnings and steps.
    program = load_prelude()
    goals = []
    for element in elements_of(tree)[:3]:
        children = list_parts(element.args[2])[0]
        for child in children[:2] + [Compound("text", (Atom("new"),))]:
            goals.append(Compound("append", (fresh_var("P"), mk_list([child], fresh_var("T")), element.args[2])))
            for name in ("insertBefore", "insertAfter"):
                goals.append(Compound(name, (element, Compound("text", (Atom("n"),)), child, fresh_var("Y"))))
        for name in [Atom("z0")] + [child.args[0] for child in elements_of(element)[1:3]]:
            goals.append(Compound("transform", (Compound("/", (element, name)), fresh_var("Y"))))
        goals.append(Compound("append", (fresh_var("X"), fresh_var("Y"), element.args[2])))
    for goal in goals:
        suffix_first = _outcome(program, goal, goal, 5000)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logic_engine, "_append", _recursive_append)
            patch.setattr(transform_prelude, "_append", _recursive_append)  # the insert natives' append
            prefix_first = _outcome(program, goal, goal, 5000)
        assert suffix_first == prefix_first, render_term(goal)


def test_member_modes():
    solver = make_solver("")
    assert [s["X"] for s in solutions(solver, "member(X, [a, b, a])")] == ["a", "b", "a"]
    assert solutions(solver, "member(b, [a, b])") == [{}]
    assert solutions(solver, "member(z, [a, b])") == []


def test_length_modes():
    solver = make_solver("")
    assert solutions(solver, "length([a, b, c], N)") == [{"N": "3"}]
    result = solutions(solver, "length(L, 2)")
    assert len(result) == 1 and result[0]["L"].startswith("[_")


def test_reverse():
    solver = make_solver("")
    assert solutions(solver, "reverse([1, 2, 3], R)") == [{"R": "[3,2,1]"}]
    assert solutions(solver, "reverse(R, [1, 2, 3])") == [{"R": "[3,2,1]"}]


def test_delete_removes_all_matches_without_binding():
    solver = make_solver("")
    assert solutions(solver, "delete(a, [a, b, a, c], R)") == [{"R": "[b,c]"}]
    # Unbound pattern entries match everything but stay unbound.
    result = solutions(solver, "delete(f(X), [f(1), g(2), f(3)], R)")
    assert len(result) == 1
    assert result[0]["R"] == "[g(2)]"
    assert result[0]["X"].startswith("_")


def test_atom_codes_both_directions():
    solver = make_solver("")
    assert solutions(solver, "atom_codes(ab, L)") == [{"L": "[97,98]"}]
    assert solutions(solver, "atom_codes(A, [104, 105])") == [{"A": "hi"}]
    assert solutions(solver, "atom_codes(7, L)") == [{"L": "[55]"}]


def test_canon_sorts_attributes_by_identifier():
    solver = make_solver("")
    result = solutions(solver, "canon(['b=\"2\"', 'a=\"1\"', 'c=\"3\"'], C)")
    assert result == [{"C": "['a=\"1\"','b=\"2\"','c=\"3\"']"}]


def test_attribute_yields_well_formed_entries_in_order():
    solver = make_solver("")
    atts = "['k=\"1\"', junk, f(x), '1a=\"2\"', 'm=\"a=\"b\"\"', 'k=\"3\"']"
    found = solutions(solver, "attribute(%s, I, V, R)" % atts)
    assert [(s["I"], s["V"]) for s in found] == [
        ("k", "'1'"),
        ("m", "'a=\"b\"'"),
        ("k", "'3'"),
    ]
    assert found[0]["R"] == "[junk,f(x),'1a=\"2\"','m=\"a=\"b\"\"','k=\"3\"']"
    assert found[2]["R"] == "['k=\"1\"',junk,f(x),'1a=\"2\"','m=\"a=\"b\"\"']"


def test_attribute_with_bound_id_and_value():
    solver = make_solver("")
    atts = "['k=\"1\"', 'm=\"2\"', 'k=\"3\"']"
    assert solutions(solver, "attribute(%s, k, '3', R)" % atts) == [
        {"R": "['k=\"1\"','m=\"2\"']"}
    ]
    assert solutions(solver, "attribute(%s, z, _, _)" % atts) == []
    assert solutions(solver, "attribute(%s, k, 3, _)" % atts) == []  # atoms only


def test_attribute_fails_quietly_on_non_proper_lists():
    solver = make_solver("")
    for atts in ("L", "['k=\"1\"'|T]", "foo", "7"):
        assert solutions(solver, "attribute(%s, _, _, _)" % atts) == []
    assert solver.steps <= 4
    assert solver.options.diagnostics.getvalue() == ""


def test_string_ordering_predicates():
    solver = make_solver("")
    # upper_first: case-insensitive, uppercase wins ties.
    assert solutions(solver, "upper_first('Goose', goose)") == [{}]
    assert solutions(solver, "upper_first(goose, 'Goose')") == []
    assert solutions(solver, "upper_first(apple, banana)") == [{}]
    # lower_first: case-insensitive, lowercase wins ties.
    assert solutions(solver, "lower_first(goose, 'Goose')") == [{}]
    assert solutions(solver, "lower_first('Goose', goose)") == []
    # first_upper: all uppercase-initial atoms before lowercase-initial ones.
    assert solutions(solver, "first_upper('Zebra', apple)") == [{}]
    assert solutions(solver, "first_lower(zebra, 'Apple')") == [{}]


def test_string_predicates():
    solver = make_solver("")
    assert solutions(solver, "contains(hallo, all)") == [{}]
    assert solutions(solver, "contains(hallo, zz)") == []
    assert solutions(solver, "starts_with(hallo, hal)") == [{}]
    assert solutions(solver, "starts_with(hallo, allo)") == []
    assert solutions(solver, "upcase(X, goose)") == [{"X": "'GOOSE'"}]


def test_write_goes_to_diagnostics():
    solver = make_solver("")
    assert solutions(solver, "write(f(a, 'b c'))") == [{}]
    assert solver.options.diagnostics.getvalue() == "f(a,b c)"


def test_unknown_predicate_warns_once_and_fails():
    solver = make_solver("")
    assert solutions(solver, "nosuch(1)") == []
    assert solutions(solver, "nosuch(2)") == []
    text = solver.options.diagnostics.getvalue()
    assert text.count("unknown predicate nosuch/1") == 1


def test_occurs_check_off_by_default():
    solver = make_solver("")
    query = parse_query("X = f(X)", solver.program.operators)
    count = 0
    for _ in solver.solve(query.goal):
        count += 1
        break  # do not render the (cyclic) binding
    assert count == 1


def test_occurs_check_enabled():
    solver = make_solver("", occurs_check=True)
    assert solutions(solver, "X = f(X)") == []


def test_step_limit_raises():
    solver = make_solver("loop :- loop.", depth_limit=500)
    with pytest.raises(ResourceLimitError):
        solutions(solver, "loop")


TEMPLATES = "template(element(a, _, [C]), [element(b, [], R)]) :- traverse(C, R). template(text(T), [text(T)])."


def answers_with_steps(program_text, goal_text, depth_limit, count):
    """The first *count* solutions' (steps, answer) pairs, variables named by first occurrence, and all steps."""
    solver = make_solver(program_text, depth_limit=depth_limit)
    query = parse_query(goal_text, solver.program.operators)
    found = []
    for _ in solver.solve(query.goal):
        answer = copy_term(Compound("answer", tuple(query.variables.values()) or (Atom("yes"),)))
        for number, var in enumerate(term_variables(answer)):
            var.ref = Atom("v%d" % number)
        found.append((solver.steps, render_term(answer)))
        if len(found) == count:
            break
    return found, solver.steps


def first_answer(program_text, goal_text, depth_limit):
    """The steps of the first solution and its answer, with variables named by first occurrence."""
    found, steps = answers_with_steps(program_text, goal_text, depth_limit, 1)
    return found[0] if found else (steps, None)


@pytest.mark.parametrize(
    "program_text, goal_text, steps, answer",
    [
        # a clause chain: each call and each body goal is a step
        ("cnt(0). cnt(N) :- N > 0, M is N - 1, cnt(M).", "cnt(3)", 10, "answer(yes)"),
        # member/2, length/2 and append/3's relational fallback count the
        # cells they add to an open list with solver._step()
        ("", "member(c, L), L = [a, b, c | _]", 7, "answer([a,b,c|v0])"),
        ("", "length(L, N), N >= 3", 9, "answer([v0,v1,v2],3)"),
        ("", "append(X, Y, Z), X = [_, _]", 7, "answer([v0,v1],v2,[v0,v1|v2])"),
        # findall/3's goal runs on the caller's machine as a request
        ("", "findall(X, (member(X, [a, b, c]), X \\== b), L)", 5, "answer(v0,[a,c])"),
        # traverse/2's template goals do too
        (TEMPLATES, "traverse(element(a, [], [element(a, [], [text(x)])]), R)", 6,
         "answer([element(b,[],[element(b,[],[text(x)])])])"),
    ],
)
def test_a_query_answers_at_the_limit_of_its_steps_and_stops_one_below(program_text, goal_text, steps, answer):
    assert first_answer(program_text, goal_text, 10_000) == (steps, answer)
    assert first_answer(program_text, goal_text, steps) == (steps, answer)
    solver = make_solver(program_text, depth_limit=steps - 1)
    query = parse_query(goal_text, solver.program.operators)
    with pytest.raises(ResourceLimitError) as raised:
        next(solver.solve(query.goal))
    assert str(raised.value) == "step limit of %d resolution steps exceeded" % (steps - 1)
    assert solver.steps == steps


@pytest.mark.parametrize(
    "goal_text, first",
    [
        ("length(L, N)", ["[],0", "[v0],1", "[v0,v1],2", "[v0,v1,v2],3", "[v0,v1,v2,v3],4"]),
        ("length([a|T], N)", ["[],1", "[v0],2", "[v0,v1],3", "[v0,v1,v2],4", "[v0,v1,v2,v3],5"]),
    ],
)
def test_length_with_an_unbound_length_grows_its_list_one_cell_per_answer(goal_text, first):
    # The answers and steps of the code that built a fresh k-cell list for
    # the k-th answer; now the open tail grows by one cell per step.
    expected = [(steps, "answer(%s)" % answer) for steps, answer in enumerate(first, 2)]
    assert answers_with_steps("", goal_text, 10_000, 5)[0] == expected
    # Grown cells print as `_<n>`, as member/2's do.
    assert re.fullmatch(r"\[_\d+,_\d+\]", solutions(make_solver(""), "length(L, N)", 3)[2]["L"])


def test_length_of_a_list_as_its_own_length_does_constant_work_per_step(monkeypatch):
    # length(Y, Y) has no answer; it grows Y until the step limit.  Each step
    # makes two fresh variables (a cell's head and tail), so the work grows
    # linearly with the limit: the code that rebuilt the list at every step
    # made k variables at step k, and took 48.9 s to reach a limit of 8,000.
    made = []
    monkeypatch.setattr(logic_engine, "fresh_var", lambda *name: made.append(1) or fresh_var(*name))
    counts = []
    for limit in (8000, 16000):
        made.clear()
        solver = make_solver("", depth_limit=limit)
        with pytest.raises(ResourceLimitError):
            solutions(solver, "length(Y, Y)")
        counts.append(len(made))
    assert counts == [2 * (8000 - 2), 2 * (16000 - 2)]


@pytest.mark.parametrize("limit", [8000, 16000])
def test_length_of_a_list_as_its_own_length_exits_3_at_the_limit(tmp_path, limit):
    done = termxform(tmp_path, "query", "--depth-limit", str(limit), "length(Y, Y)", timeout=10)
    assert done.returncode == 3
    assert done.stderr == "error: step limit of %d resolution steps exceeded\n" % limit


def test_program_copy_is_independent():
    base = parse_program("p(1).")
    dup = base.copy()
    dup.add(Compound("p", (2,)), Atom("true"))
    assert len(base.get("p", 1)) == 1
    assert len(dup.get("p", 1)) == 2


def test_program_extend_appends_clauses():
    base = parse_program("p(1).")
    extra = parse_program("p(2). q(3).")
    base.extend(extra)
    assert len(base.get("p", 1)) == 2
    assert base.defines("q", 1)


@given(st.lists(st.integers(0, 9), max_size=5), st.lists(st.integers(0, 9), max_size=5))
def test_append_matches_concatenation(xs, ys):
    solver = make_solver("")
    goal = "append(%s, %s, R)" % (list(xs), list(ys))
    assert solutions(solver, goal) == [{"R": str(list(xs) + list(ys)).replace(" ", "")}]


@given(st.lists(st.integers(0, 9), max_size=6))
def test_reverse_matches_python(xs):
    solver = make_solver("")
    expected = str(list(reversed(xs))).replace(" ", "")
    assert solutions(solver, "reverse(%s, R)" % list(xs)) == [{"R": expected}]


@given(st.lists(st.integers(0, 3), min_size=0, max_size=6), st.integers(0, 3))
def test_member_solution_count_matches_occurrences(xs, x):
    solver = make_solver("")
    found = solutions(solver, "member(%d, %s)" % (x, list(xs)))
    assert len(found) == xs.count(x)
