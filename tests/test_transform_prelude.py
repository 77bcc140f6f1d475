"""Tests for the built-in transformation rules (navigation, editing, sorting)."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from fresh_interpreter import run_python
from termxform.logic_engine import _BUILTINS, Solver, SolverOptions
from termxform.rule_language import OperatorTable, parse_program, parse_query
from termxform.term_core import (
    list_items,
    mk_list,
    render_term,
    term_equal,
)
from termxform.transform_prelude import (
    PRELUDE_SRC,
    load_prelude,
    prelude_program,
    tree_to_relation,
)
from termxform.xml_io import parse_document
from equality_oracle import trees_equal
from xmlgen import plain_trees

DOC = parse_document(
    '<library><book id="1" lang="en"><title>alpha</title></book>'
    '<book id="2"><title>beta</title><note>x</note></book>'
    "<shelf><book id=\"3\"><title>gamma</title></book></shelf></library>"
)


def make_solver():
    return Solver(load_prelude(None), SolverOptions(diagnostics=io.StringIO()))


def run(solver, goal_text, var="X", doc=None, limit=50):
    """Solutions of goal_text as rendered values of *var* (Doc bound to doc)."""
    query = parse_query(goal_text, solver.program.operators)
    if doc is not None:
        assert solver.unify(query.variables["Doc"], doc)
    out = []
    for _ in solver.solve(query.goal):
        out.append(render_term(query.variables[var]) if var else None)
        if len(out) >= limit:
            break
    return out


def test_prelude_parses_and_callers_get_copies():
    first = prelude_program()
    second = prelude_program()
    assert first is not second
    assert first.defines("transform", 2)
    # Template traversal skips the solve when no clause defines template/2.
    assert not first.defines("template", 2)
    # traverse/2 and checkSerializable/1 are natives, not prelude rules.
    assert ("traverse", 2) in _BUILTINS and not first.defines("traverse", 2)
    assert ("checkSerializable", 1) in _BUILTINS and not first.defines("checkSerializable", 1)


def test_calling_template_without_templates_warns():
    # Traversal does not call template/2 when no clause defines it.
    solver = make_solver()
    assert run(solver, "traverse(element(a, [], [text(x)]), X)") == ["[]"]
    assert solver.options.diagnostics.getvalue() == ""
    assert run(solver, "template(X, Y)") == []
    assert solver.options.diagnostics.getvalue() == (
        "warning: unknown predicate template/2 (goal fails)\n"
    )


def test_slash_selects_children_by_name():
    solver = make_solver()
    found = run(solver, "transform(Doc / book, X)", doc=DOC)
    assert len(found) == 2  # the shelf book is not a direct child
    assert all(x.startswith("element(book,") for x in found)


def test_slash_chains_navigate_deeper():
    solver = make_solver()
    found = run(solver, "transform(Doc / shelf / book / title, X)", doc=DOC)
    assert len(found) == 1
    assert "gamma" in found[0]


def test_hash_selects_nth_text_content():
    solver = make_solver()
    doc = parse_document("<p>one<b/>two</p>")
    assert run(solver, "transform(Doc # 1, X)", doc=doc) == ["one"]
    assert run(solver, "transform(Doc # 2, X)", doc=doc) == ["two"]
    assert run(solver, "transform(Doc # 3, X)", doc=doc) == []


def test_hash_applies_through_navigation():
    solver = make_solver()
    found = run(solver, "transform(Doc ^ title # 1, X)", doc=DOC)
    assert found == ["alpha", "beta", "gamma"]


def test_caret_finds_descendants_in_document_order():
    solver = make_solver()
    found = run(solver, "transform(Doc ^ book, X)", doc=DOC)
    assert len(found) == 3
    assert "alpha" in found[0] and "beta" in found[1] and "gamma" in found[2]


def test_caret_matches_root_itself():
    solver = make_solver()
    found = run(solver, "transform(Doc ^ library, X)", doc=DOC)
    assert len(found) == 1


def test_at_reads_attribute_values():
    solver = make_solver()
    assert run(solver, "transform(Doc / book @ id, X)", doc=DOC) == ["'1'", "'2'"]


def test_at_yields_one_value_per_element():
    solver = make_solver()
    assert run(solver, "transform(Doc ^ book @ id, X)", doc=DOC) == ["'1'", "'2'", "'3'"]


def test_atts_lists_attribute_names():
    solver = make_solver()
    found = run(solver, "transform(atts (Doc / book), X)", doc=DOC)
    assert found == ["[id,lang]", "[id]"]


def test_atts_fails_on_empty_attribute_list():
    solver = make_solver()
    assert run(solver, "transform(atts (Doc / shelf), X)", doc=DOC) == []


def test_id_names_the_attribute_holding_a_value():
    solver = make_solver()
    found = run(solver, "transform(Doc ^ book id '3', X)", doc=DOC)
    assert found == ["id"]  # only the shelf book carries the value 3


def test_question_mark_tests_attribute_presence():
    solver = make_solver()
    # Goal form: succeeds once per element carrying the attribute.
    assert len(run(solver, "transform(Doc / book ? lang)", var="Doc", doc=DOC)) == 1
    assert run(solver, "transform(Doc / shelf ? lang)", var="Doc", doc=DOC) == []


def test_question_mark_selects_nth_pi():
    solver = make_solver()
    doc = parse_document("<a><?one?><?two?></a>")
    assert run(solver, "transform(Doc ? 2, X)", doc=doc) == ["two"]


def test_c_selects_nth_comment():
    solver = make_solver()
    doc = parse_document("<a><!--one--><!--two--></a>")
    assert run(solver, "transform(Doc c 2, X)", doc=doc) == ["two"]
    assert run(solver, "transform(Doc c 3, X)", doc=doc) == []


def test_child_yields_each_child():
    solver = make_solver()
    found = run(solver, "transform(child (Doc / book), X)", doc=DOC)
    assert len(found) == 3  # title; then title and note of the second book


def test_descendant_yields_all_descendants():
    solver = make_solver()
    found = run(solver, "transform(descendant Doc, X)", doc=DOC)
    assert all(not x.startswith("element(library,") for x in found)
    assert any(x.startswith("element(shelf,") for x in found)
    assert any(x == "text(alpha)" for x in found)


def test_count_children():
    solver = make_solver()
    assert run(solver, "transform(count Doc, X)", doc=DOC) == ["3"]


def test_name_of_element():
    solver = make_solver()
    assert run(solver, "transform(name (Doc / shelf), X)", doc=DOC) == ["shelf"]


def test_last_child():
    solver = make_solver()
    found = run(solver, "transform(last Doc, X)", doc=DOC)
    assert len(found) == 1
    assert found[0].startswith("element(shelf,")


def test_level_paths_are_root_first_child_indexes():
    solver = make_solver()
    doc = parse_document("<a><b><c/></b><d/></a>")
    query = parse_query("transform(Doc level P, X)", solver.program.operators)
    assert solver.unify(query.variables["Doc"], doc)
    node_by_path = {}
    count = 0
    for _ in solver.solve(query.goal):
        path = render_term(query.variables["X"])
        node_by_path.setdefault(path, render_term(query.variables["P"]))
        count += 1
        if count > 20:
            break
    assert node_by_path["[1]"].startswith("element(b,")
    assert node_by_path["[2]"].startswith("element(d,")
    assert node_by_path["[1,1]"].startswith("element(c,")


def sort_by(xml, att):
    """Every solution of transform(Doc sort att, X), rendered."""
    return run(make_solver(), "transform(Doc sort %s, X)" % att, doc=parse_document(xml))


def test_sort_by_attribute():
    assert sort_by('<r><i n="beta"/><i n="alpha"/><i n="gamma"/></r>', "n") == [
        "element(r,[],[element(i,['n=\"alpha\"'],[]),element(i,['n=\"beta\"'],[]),"
        "element(i,['n=\"gamma\"'],[])])"
    ]


def test_sort_puts_ties_in_reverse_input_order():
    assert sort_by('<r><i n="b" p="1"/><i n="a"/><i n="b" p="2"/><i n="b" p="3"/></r>', "n") == [
        "element(r,[],[element(i,['n=\"a\"'],[]),element(i,['n=\"b\"','p=\"3\"'],[]),"
        "element(i,['n=\"b\"','p=\"2\"'],[]),element(i,['n=\"b\"','p=\"1\"'],[])])"
    ]


def test_sort_compares_numeric_looking_values_as_text():
    assert sort_by('<r><i p="9"/><i p="10"/><i p="100"/></r>', "p") == [
        "element(r,[],[element(i,['p=\"10\"'],[]),element(i,['p=\"100\"'],[]),"
        "element(i,['p=\"9\"'],[])])"
    ]


def test_sort_leaves_a_child_without_the_attribute_where_the_quicksort_puts_it():
    # b is the first pivot: a goes before it, x and c after it, in input
    # order; x, without a key, is never moved past c.
    assert sort_by('<r><i n="b"/><x/><i n="c"/><i n="a"/></r>', "n") == [
        "element(r,[],[element(i,['n=\"a\"'],[]),element(i,['n=\"b\"'],[]),"
        "element(x,[],[]),element(i,['n=\"c\"'],[])])"
    ]
    assert sort_by('<r><x/><i n="b"/><i n="a"/></r>', "n") == [
        "element(r,[],[element(x,[],[]),element(i,['n=\"a\"'],[]),element(i,['n=\"b\"'],[])])"
    ]


def test_sort_reads_the_first_entry_of_a_duplicate_id():
    solver = make_solver()
    doc = "element(r,[],[element(a,['p=\"2\"','p=\"0\"'],[]),element(b,['p=\"1\"'],[])])"
    assert run(solver, "transform(%s sort p, X)" % doc) == [
        "element(r,[],[element(b,['p=\"1\"'],[]),element(a,['p=\"2\"','p=\"0\"'],[])])"
    ]


def test_sortby_name_orders_children_by_element_name():
    solver = make_solver()
    doc = parse_document("<r><c/><a/><b/></r>")
    found = run(solver, "transform(sortbyName Doc, X)", doc=doc, limit=1)
    assert found == ["element(r,[],[element(a,[],[]),element(b,[],[]),element(c,[],[])])"]


def test_copy_gives_an_empty_shell():
    solver = make_solver()
    assert run(solver, "transform(copy Doc, X)", doc=DOC) == ["element(library,[],[])"]


def test_copy_of_returns_the_node_itself():
    solver = make_solver()
    doc = parse_document("<a>hi<b/></a>")
    assert run(solver, "transform(copy_of Doc, X)", doc=doc) == [render_term(doc)]


def test_copy_of_applies_through_navigation():
    solver = make_solver()
    found = run(solver, "transform(copy_of (Doc / book), X)", doc=DOC)
    assert len(found) == 2
    assert all(x.startswith("element(book,") for x in found)


def test_distinct_removes_duplicate_children_keeping_first():
    solver = make_solver()
    doc = parse_document("<r><x>1</x><x>1</x><x>2</x></r>")
    found = run(solver, "transform(distinct Doc, X)", doc=doc)  # every answer: there is one
    assert found == ["element(r,[],[element(x,[],[text('1')]),element(x,[],[text('2')])])"]


@pytest.mark.parametrize("count", range(3, 9))
def test_distinct_answers_once_however_many_children_are_equal(count):
    doc = parse_document("<r>" + "<x/>" * count + "</r>")
    found = run(make_solver(), "transform(distinct Doc, X)", doc=doc, limit=10**6)
    assert found == ["element(r,[],[element(x,[],[])])"]


def test_remove_element_deletes_all_children_with_name():
    solver = make_solver()
    out = run(
        solver,
        "removeElement(element(a, [], [element(b, [], []), text(t),"
        " element(b, [], [text(u)])]), b, X)",
    )
    assert out == ["element(a,[],[text(t)])"]


def test_remove_deletes_matching_nodes():
    solver = make_solver()
    out = run(
        solver,
        "remove(element(a, [], [text(t), text(u)]), text(t), X)",
    )
    assert out == ["element(a,[],[text(u)])"]


def test_remove_attribute_removes_exactly_first_match():
    solver = make_solver()
    out = run(
        solver,
        "removeAttribute(element(a, ['k=\"1\"', 'm=\"2\"', 'k=\"1\"'], []), k, X)",
    )
    assert out == ["element(a,['m=\"2\"','k=\"1\"'],[])"]


def test_insert_before_and_after():
    solver = make_solver()
    out = run(
        solver,
        "insertBefore(element(a, [], [element(b, [], [])]),"
        " element(n, [], []), element(b, [], []), X)",
    )
    assert out == ["element(a,[],[element(n,[],[]),element(b,[],[])])"]
    out = run(
        solver,
        "insertAfter(element(a, [], [element(b, [], [])]),"
        " element(n, [], []), element(b, [], []), X)",
    )
    assert out == ["element(a,[],[element(b,[],[]),element(n,[],[])])"]


def test_insert_by_position():
    solver = make_solver()
    out = run(
        solver,
        "insertBefore(element(a, [], [text(x), text(y)]), text(n), 2, X)",
    )
    assert out == ["element(a,[],[text(x),text(n),text(y)])"]


def test_insert_rejects_unbound_or_list_arguments():
    solver = make_solver()
    assert run(solver, "insertBefore(element(a, [], []), N, text(x), X)") == []
    assert run(solver, "insertBefore(element(a, [], []), text(x), [a], X)") == []


def test_equals_ignores_attribute_order():
    solver = make_solver()
    goal = (
        "equals(element(a, ['x=\"1\"', 'y=\"2\"'], [text(t)]),"
        " element(a, ['y=\"2\"', 'x=\"1\"'], [text(t)]))"
    )
    query = parse_query(goal, solver.program.operators)
    assert solver.solve_once(query.goal)


def test_equals_distinguishes_values():
    solver = make_solver()
    goal = "equals(element(a, ['x=\"1\"'], []), element(a, ['x=\"2\"'], []))"
    query = parse_query(goal, solver.program.operators)
    assert not solver.solve_once(query.goal)


def test_nth_all_modes():
    solver = make_solver()
    assert run(solver, "nth(2, [a, b, c], X)") == ["b"]
    assert run(solver, "nth(N, [a, b, c], b)", var="N") == ["2"]
    query = parse_query("nth(N, [a, b], X)", solver.program.operators)
    pairs = []
    for _ in solver.solve(query.goal):
        pairs.append(
            (render_term(query.variables["N"]), render_term(query.variables["X"]))
        )
        if len(pairs) >= 4:
            break
    assert pairs == [("1", "a"), ("2", "b")]


def test_church_numerals_both_directions():
    solver = make_solver()
    assert run(solver, "church(C, 3)", var="C") == ["s(s(s(zero)))"]
    assert run(solver, "church(s(s(zero)), N)", var="N") == ["2"]
    assert run(solver, "church(zero, N)", var="N") == ["0"]


def test_position_of_child():
    solver = make_solver()
    out = run(
        solver,
        "position(element(a, [], [text(x), text(y)]), text(y), P)",
        var="P",
    )
    assert out == ["2"]


def test_quicksort_with_element_comparator():
    solver = make_solver()
    out = run(
        solver,
        "quicksort([element(c, [], []), element(a, [], []), element(b, [], [])],"
        " le, X)",
        limit=1,
    )
    assert out == ["[element(a,[],[]),element(b,[],[]),element(c,[],[])]"]


def test_quicksort_with_string_comparator():
    solver = make_solver()
    assert run(solver, "quicksort([b, a, c, a], leStrings, X)", limit=1) == ["[a,a,b,c]"]


def test_check_serializable_accepts_good_tree_quietly():
    solver = make_solver()
    goal = "checkSerializable(element(a, ['x=\"1\"'], [text(hi)]))"
    query = parse_query(goal, solver.program.operators)
    assert solver.solve_once(query.goal)
    assert solver.options.diagnostics.getvalue() == ""


def test_check_serializable_writes_error_and_fails():
    solver = make_solver()
    goal = "checkSerializable(element(a, [], [wrong]))"
    query = parse_query(goal, solver.program.operators)
    assert not solver.solve_once(query.goal)
    assert "Error: wrong was not expected here!" in solver.options.diagnostics.getvalue()


def test_check_serializable_reports_bad_attributes():
    solver = make_solver()
    goal = "checkSerializable(element(a, [broken], []))"
    query = parse_query(goal, solver.program.operators)
    assert not solver.solve_once(query.goal)
    text = solver.options.diagnostics.getvalue()
    assert "Error in remaining attributes list: " in text


def test_print_tree_concatenates_text():
    solver = make_solver()
    doc = parse_document("<a>one<b>two</b><!--no-->three</a>")
    query = parse_query("printTree(Doc, X)", solver.program.operators)
    assert solver.unify(query.variables["Doc"], doc)
    out = []
    for _ in solver.solve(query.goal):
        out.append(render_term(query.variables["X"]))
        break
    assert out == ["onetwothree"]


def test_flatten_lists_every_node_as_a_shell():
    solver = make_solver()
    doc = parse_document("<a>hi<b><c/></b></a>")
    found = run(solver, "flatten(Doc, X)", doc=doc)  # every answer: there is one
    assert found == [
        "[element(a,[],[]),text(hi),element(b,[],[]),element(c,[],[])]"
    ]


def test_nodes_keeps_full_subtrees():
    solver = make_solver()
    doc = parse_document("<a><b>x</b></a>")
    found = run(solver, "nodes(Doc, X)", doc=doc)  # every answer: there is one
    assert found == [
        "[element(a,[],[element(b,[],[text(x)])]),element(b,[],[text(x)]),text(x)]"
    ]


def test_sum_of_list():
    solver = make_solver()
    assert run(solver, "sum([1, 2, 3], X)") == ["6"]


def test_last_of_list():
    solver = make_solver()
    assert run(solver, "last([a, b, c], X)", limit=1) == ["c"]


def test_concat_flattens_a_list_of_lists():
    solver = make_solver()
    assert run(solver, "concat([[a], [b, c], []], X)", limit=1) == ["[a,b,c]"]


def test_concat_three_joins_atoms():
    solver = make_solver()
    assert run(solver, "concat(ab, cd, X)", limit=1) == ["abcd"]
    assert run(solver, "concat(X, cd, abcd)", limit=1) == ["ab"]
    assert run(solver, "concat(ab, X, abcd)", limit=1) == ["cd"]


def test_remove_duplicates_keeps_last_occurrence():
    solver = make_solver()
    assert run(solver, "removeDuplicates([a, b, a, c], X)", limit=1) == ["[b,a,c]"]


def test_lexicalle_orders_code_lists():
    solver = make_solver()
    for goal_text, expected in (
        ("lexicalle([97, 98, 99], [97, 98, 100])", True),   # abc < abd
        ("lexicalle([97, 98, 100], [97, 98, 99])", False),  # abd > abc
        ("lexicalle([97, 98], [97, 98, 99])", True),        # prefix first
        ("lexicalle([97, 98, 99], [97, 98, 99])", True),    # equal
        ("lexicalle([49], [97])", True),                    # digits before letters
    ):
        query = parse_query(goal_text, solver.program.operators)
        assert solver.solve_once(query.goal) is expected, goal_text


def test_le_strings_orders_atoms():
    solver = make_solver()
    for goal_text, expected in (
        ("leStrings(alpha, beta)", True),
        ("leStrings(beta, alpha)", False),
        ("leStrings(a, a)", True),
        ("leStrings(b, 'é')", True),
        ("leStrings('é', b)", False),
        ("leStrings('[]', a)", False),
        ("leStrings(a, '[]')", False),
        ("leStrings(a, 1)", False),
        ("leStrings(1, 2)", False),
        ("leStrings(X, a)", False),
        ("leStrings(a, X)", False),
    ):
        query = parse_query(goal_text, solver.program.operators)
        assert solver.solve_once(query.goal) is expected, goal_text


def test_the_prelude_uses_the_default_operator_table():
    # The operators are declared once, in rule_language's default table,
    # which also parses user programs before the prelude is loaded.
    assert ":-op(" not in PRELUDE_SRC.replace(" ", "")
    default = OperatorTable()
    assert load_prelude().operators.infix == default.infix
    assert load_prelude().operators.prefix == default.prefix


def test_user_rules_extend_prelude_and_keep_their_operators():
    user = parse_program(":- op(200, xfx, ~>).\nm(A ~> B) :- A = B.")
    program = load_prelude(user)
    assert program.defines("m", 1)
    assert program.defines("transform", 2)
    assert "~>" in program.operators.infix


def test_trees_equal_ignores_attribute_order_recursively():
    a = parse_document('<a x="1" y="2"><b k="0" m="1"/></a>')
    b = parse_document('<a y="2" x="1"><b m="1" k="0"/></a>')
    c = parse_document('<a y="2" x="9"><b m="1" k="0"/></a>')
    assert trees_equal(a, b)
    assert not trees_equal(a, c)


def test_tree_to_relation_builds_facts():
    doc = parse_document('<data><x a="123" b="hallo"/><x a="4" b="welt"/></data>')
    clauses = tree_to_relation(doc)
    assert [render_term(c.head) for c in clauses] == ["x(123,hallo)", "x(4,welt)"]


def test_tree_to_relation_orders_args_by_attribute_name():
    doc = parse_document('<d><r z="1" a="2"/></d>')
    [clause] = tree_to_relation(doc)
    assert render_term(clause.head) == "r(2,1)"


def test_tree_to_relation_rejects_inconsistent_schema():
    doc = parse_document('<d><r a="1"/><r b="2"/></d>')
    with pytest.raises(ValueError):
        tree_to_relation(doc)


def test_tree_to_relation_rejects_nested_elements():
    doc = parse_document('<d><r a="1"><q/></r></d>')
    with pytest.raises(ValueError):
        tree_to_relation(doc)


def test_tree_to_relation_rejects_a_child_whose_name_is_not_an_atom():
    doc = parse_query("element(d, [], [element(r, ['a=\"1\"'], []), element(f(x), [], [])])").goal
    with pytest.raises(ValueError, match="child 1 "):
        tree_to_relation(doc)


@settings(max_examples=60, deadline=None)
@given(plain_trees())
def test_canon_is_idempotent(tree):
    solver = make_solver()
    attrs = list_items(tree.args[1]) or []
    query = parse_query("canon(L, C1), canon(C1, C2)", solver.program.operators)
    assert solver.unify(query.variables["L"], mk_list(attrs))
    for _ in solver.solve(query.goal):
        assert term_equal(query.variables["C1"], query.variables["C2"])
        break


@settings(max_examples=60, deadline=None)
@given(plain_trees(max_depth=3, max_fanout=3))
def test_equals_is_reflexive(tree):
    solver = make_solver()
    query = parse_query("equals(A, B)", solver.program.operators)
    assert solver.unify(query.variables["A"], tree)
    assert solver.unify(query.variables["B"], tree)
    assert solver.solve_once(query.goal)


def test_the_prelude_lints_clean(tmp_path):
    """``termxform check`` has nothing to say of the prelude's rule text.
    The test prints the prelude's Halstead report (``termxform metrics
    --src``), which CI's "Prelude size" step shows by running it with -s."""
    path = tmp_path / "prelude.tx"
    path.write_text(PRELUDE_SRC, encoding="utf-8")
    done = run_python("-m", "termxform.cli", "check", "--rules", str(path))
    assert (done.returncode, done.stdout) == (0, ""), done.stderr
    done = run_python("-m", "termxform.cli", "metrics", "--src", str(path))
    assert done.returncode == 0, done.stderr
    print(done.stdout, end="")
