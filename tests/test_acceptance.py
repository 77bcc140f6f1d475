"""Acceptance suite: frozen fixtures plus randomized oracle comparisons.

Each section pins one externally checkable behaviour of the package:
metric derivations against a frozen table, the template and functor
examples, solver control behaviour, XML roundtrips over a corpus and
random terms, navigation operators against brute-force enumeration,
invertible list access, canonical attribute ordering, edit/undo pairs,
a sorting pipeline, and the relational document view.
"""

import csv
import io
import math
import random
from pathlib import Path

import pytest

from termxform.logic_engine import Solver, SolverOptions
from termxform.metrics import HalsteadCounts, halstead
from termxform.rule_language import parse_program, parse_query
from termxform.template_engine import traverse
from termxform.term_core import (
    Atom,
    Compound,
    Var,
    attr_atom,
    copy_term,
    deref,
    fresh_var,
    list_items,
    list_parts,
    mk_comment,
    mk_element,
    mk_list,
    mk_pi,
    mk_text,
    render_term,
    split_attr,
    term_equal,
)
from termxform.transform_prelude import load_prelude, tree_to_relation
from termxform.xml_io import parse_document, serialize_document
from equality_oracle import trees_equal

DATA = Path(__file__).parent / "data"


def make_solver(user_text=None, **options):
    program = load_prelude(parse_program(user_text) if user_text else None)
    return Solver(program, SolverOptions(diagnostics=io.StringIO(), **options))


def goal_solutions(solver, goal, var, limit=None):
    """Copies of *var*'s binding for each solution of *goal*."""
    results = []
    for _ in solver.solve(goal):
        results.append(copy_term(var))
        if limit is not None and len(results) >= limit:
            break
    return results


def query_solutions(solver, text, var="X", limit=None):
    query = parse_query(text, solver.program.operators)
    return goal_solutions(solver, query.goal, query.variables[var], limit)


def renders(terms):
    return [render_term(t) for t in terms]


# ---------------------------------------------------------------------------
# 1. Metric derivations against the frozen report table


def test_metrics_primary_fixture_rows():
    prolog = halstead(HalsteadCounts(eta1=14, eta2=20, n1=62, n2=36))
    assert prolog.theoretical_length == pytest.approx(139.7, abs=0.15)
    assert prolog.delta == pytest.approx(30, abs=1.5)
    assert prolog.lam == pytest.approx(0.1, abs=0.05)
    assert prolog.bugs == pytest.approx(1.7, abs=0.05)

    xslt = halstead(HalsteadCounts(eta1=5, eta2=5, n1=6, n2=5))
    assert xslt.theoretical_length == pytest.approx(23.2, abs=0.15)
    assert xslt.delta == pytest.approx(54, abs=1.5)
    assert xslt.lam == pytest.approx(1.8, abs=0.1)
    assert xslt.bugs == pytest.approx(0.1, abs=0.05)


def test_metrics_frozen_table_sweep():
    """Derivations reproduce >=95% of the frozen printed values per metric.

    The table pins counts and printed (rounded) metric values for 155
    measured sources; a handful of rows carry transcription rounding that
    no derivation can match, so the joint rate floor is slightly lower.
    """
    with open(DATA / "halstead_rows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 150

    hits = {"nt": 0, "delta": 0, "lam": 0, "b": 0}
    joint = 0
    for row in rows:
        counts = HalsteadCounts(
            eta1=int(row["eta1"]),
            eta2=int(row["eta2"]),
            n1=int(row["n1"]),
            n2=int(row["n2"]),
        )
        report = halstead(counts)
        lam_tol = 0.1 if float(row["lam"]) >= 1 else 0.05
        checks = {
            "nt": abs(report.theoretical_length - float(row["nt"])) <= 0.15,
            "delta": abs(report.delta - float(row["delta"])) <= 1.5,
            "lam": abs(report.lam - float(row["lam"])) <= lam_tol,
            "b": abs(report.bugs - float(row["b"])) <= 0.05,
        }
        for key, ok in checks.items():
            hits[key] += ok
        joint += all(checks.values())

    total = len(rows)
    for key, count in hits.items():
        assert count / total >= 0.95, "metric %s reproduced only %d/%d rows" % (
            key,
            count,
            total,
        )
    assert joint / total >= 0.94


# ---------------------------------------------------------------------------
# 2. Template examples


def test_template_matching_twin_children():
    program = load_prelude(
        parse_program(
            """
            template(element(top,_,[A,A]),
                     [text('a')]):-
              A=element(a,_,_).
            """
        )
    )
    doc = parse_document("<top><a/><a/></top>")
    result = traverse(doc, program)
    assert len(result) == 1 and term_equal(result[0], mk_text("a"))


def test_template_matching_attribute_entry():
    program = load_prelude(
        parse_program(
            """
            template(element(_,A,_),[text('.')]):-
              append(_,['id="1234"'|_],A).
            """
        )
    )
    doc = parse_document('<node id="1234"/>')
    result = traverse(doc, program)
    assert len(result) == 1 and term_equal(result[0], mk_text("."))


# ---------------------------------------------------------------------------
# 3. Functor examples


def test_string_functor_examples():
    solver = make_solver()
    assert query_solutions(solver, "X is string(1.3)") == [Atom("1.3")]
    assert query_solutions(solver, "X is substring('hallo', 1, 3)") == [Atom("hal")]
    assert query_solutions(solver, "X is translate('goose', 'egos', 'EGOS')") == [
        Atom("GOOSE")
    ]
    assert query_solutions(solver, "X is cat('hello', ' ', 'world', '!')") == [
        Atom("hello world!")
    ]


def test_arithmetic_over_text_nodes():
    solver = make_solver()
    out = query_solutions(
        solver,
        "Z is plus(element(a, [], [text('100')]), element(b, [], [text('4')]))",
        var="Z",
    )
    assert out == [104]


# ---------------------------------------------------------------------------
# 4. Euclid's algorithm


def test_gcd_first_solution():
    solver = make_solver("gcd(A,0,A).\ngcd(A,B,C):-AB is A mod B, gcd(B,AB,C).")
    out = query_solutions(solver, "gcd(24, 30, C)", var="C", limit=1)
    assert out == [math.gcd(24, 30)] == [6]


# ---------------------------------------------------------------------------
# 5. Roundtrips

NAMES = "abcde"
ATT_NAMES = ("k", "m", "n")
TEXT_CHARS = "abcxyz 0189&<>\"'."


def rand_text(rng):
    while True:
        text = "".join(rng.choice(TEXT_CHARS) for _ in range(rng.randint(1, 8)))
        if text.strip():
            return text


def rand_token(rng):
    return "".join(rng.choice("abcdefgh0123") for _ in range(rng.randint(1, 6)))


def rand_element(rng, depth=0, max_depth=3):
    """A random element term that must survive serialize/parse exactly."""
    attrs = [
        (name, "".join(rng.choice("abc12 <>&\"'") for _ in range(rng.randint(0, 5))))
        for name in rng.sample(ATT_NAMES, rng.randint(0, len(ATT_NAMES)))
    ]
    children = []
    last_was_text = False
    if depth < max_depth:
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.45:
                children.append(rand_element(rng, depth + 1, max_depth))
                last_was_text = False
            elif roll < 0.75:
                if not last_was_text:
                    children.append(mk_text(rand_text(rng)))
                    last_was_text = True
            elif roll < 0.9:
                children.append(mk_comment(rand_token(rng)))
                last_was_text = False
            else:
                children.append(mk_pi(rand_token(rng)))
                last_was_text = False
    return mk_element(rng.choice(NAMES), attrs, children)


def test_roundtrip_500_random_terms():
    rng = random.Random(20260815)
    for _ in range(500):
        term = rand_element(rng)
        back = parse_document(serialize_document(term))
        assert term_equal(term, back), render_term(term)


def test_roundtrip_corpus_files():
    corpus = sorted((DATA / "corpus").glob("*.xml"))
    assert len(corpus) >= 20
    for path in corpus:
        text = path.read_text(encoding="utf-8")
        if path.name.startswith("pretty_"):
            assert serialize_document(parse_document(text), pretty=True) == text, path.name
        else:
            expected = text[:-1] if text.endswith("\n") else text
            assert serialize_document(parse_document(text)) == expected, path.name


# ---------------------------------------------------------------------------
# 6. Navigation operators against brute-force enumeration


def nav_tree(rng, depth=0, max_depth=4):
    children = []
    if depth < max_depth:
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.55:
                children.append(nav_tree(rng, depth + 1, max_depth))
            elif roll < 0.8:
                children.append(mk_text(rng.choice("pqrstu")))
            elif roll < 0.92:
                children.append(mk_comment(rng.choice("CDEFG")))
            else:
                children.append(mk_pi(rng.choice("hijkl")))
    attrs = [
        (name, str(rng.randint(0, 9)))
        for name in rng.sample(ATT_NAMES, rng.randint(0, 2))
    ]
    return mk_element(rng.choice(NAMES), attrs, children)


def is_element(node):
    node = deref(node)
    return isinstance(node, Compound) and node.name == "element" and len(node.args) == 3


def kids(node):
    return list_items(deref(deref(node).args[2])) or []


def elem_name(node):
    return deref(deref(node).args[0]).name


def oracle_child_elements(node, name):
    return [c for c in kids(node) if is_element(c) and elem_name(c) == name]


def oracle_named_subtree(node, name):
    """Pre-order elements of *node*'s subtree (self included) named *name*."""
    found = [node] if elem_name(node) == name else []
    for child in kids(node):
        if is_element(child):
            found.extend(oracle_named_subtree(child, name))
    return found


def oracle_descendants(node):
    """All proper descendants: the children, then each child's descendants."""
    children = kids(node)
    found = list(children)
    for child in children:
        if is_element(child):
            found.extend(oracle_descendants(child))
    return found


def oracle_contents(node, functor, position):
    items = [
        deref(deref(c).args[0])
        for c in kids(node)
        if isinstance(deref(c), Compound) and deref(c).name == functor
    ]
    return items[position - 1 : position] if position <= len(items) else []


def all_elements(node):
    found = [node]
    for child in kids(node):
        if is_element(child):
            found.extend(all_elements(child))
    return found


def attr_pairs(node):
    return [split_attr(a) for a in list_items(deref(deref(node).args[1]))]


def oracle_attribute(node, att):
    """The value of the first entry named *att*, as ``split_attr`` reads it."""
    values = [Atom(v) for n, v in attr_pairs(node) if n == att]
    return values[:1]


def oracle_ids(node, value):
    """Names, in entry order, whose first value is *value*."""
    return [Atom(n) for n, _ in attr_pairs(node) if oracle_attribute(node, n) == [value]]


def nav_solutions(solver, expr):
    out = fresh_var("Out")
    return goal_solutions(solver, Compound("transform", (expr, out)), out)


def test_navigation_matches_brute_force():
    solver = make_solver()
    rng = random.Random(6023)
    for _ in range(100):
        tree = nav_tree(rng)
        for name in NAMES:
            got = nav_solutions(solver, Compound("/", (tree, Atom(name))))
            assert renders(got) == renders(oracle_child_elements(tree, name))
            got = nav_solutions(solver, Compound("^", (tree, Atom(name))))
            assert renders(got) == renders(oracle_named_subtree(tree, name))
        got = nav_solutions(solver, Compound("child", (tree,)))
        assert renders(got) == renders(kids(tree))
        got = nav_solutions(solver, Compound("descendant", (tree,)))
        assert renders(got) == renders(oracle_descendants(tree))
        for element in all_elements(tree)[:4]:
            for position in (1, 2):
                for operator, functor in (("#", "text"), ("c", "comment"), ("?", "pi")):
                    got = nav_solutions(
                        solver, Compound(operator, (element, position))
                    )
                    expected = oracle_contents(element, functor, position)
                    assert renders(got) == renders(expected)
            for att in ATT_NAMES:
                got = nav_solutions(solver, Compound("@", (element, Atom(att))))
                assert renders(got) == renders(oracle_attribute(element, att))
            names = [Atom(n) for n, _ in attr_pairs(element)]
            got = nav_solutions(solver, Compound("atts", (element,)))
            assert renders(got) == ([render_term(mk_list(names))] if names else [])
            for value in [Atom(v) for _, v in attr_pairs(element)] + [Atom("10")]:
                got = nav_solutions(solver, Compound("id", (element, value)))
                assert renders(got) == renders(oracle_ids(element, value))


# ---------------------------------------------------------------------------
# 7. Invertible list access


def church_term(n):
    term = Atom("zero")
    for _ in range(n):
        term = Compound("s", (term,))
    return term


def all_lists(pool, max_len):
    lists = [[]]
    frontier = [[]]
    for _ in range(max_len):
        frontier = [items + [x] for items in frontier for x in pool]
        lists.extend(frontier)
    return lists


def test_nth_matches_oracle_in_every_binding_pattern():
    solver = make_solver()
    pool = ["a", "b"]
    for items in all_lists(pool, 4):
        term_list = mk_list([Atom(x) for x in items])
        # bound-list patterns: (+,+,+) (+,+,-) (-,+,+) (-,+,-)
        for position in range(1, 6):
            for value in pool:
                goal = Compound("nth", (position, term_list, Atom(value)))
                expected = 1 if position <= len(items) and items[position - 1] == value else 0
                assert len(goal_solutions(solver, goal, fresh_var("_"))) == expected
            out = fresh_var("E")
            got = goal_solutions(solver, Compound("nth", (position, term_list, out)), out)
            expected_items = (
                [Atom(items[position - 1])] if position <= len(items) else []
            )
            assert renders(got) == renders(expected_items)
        for value in pool:
            n_var = fresh_var("N")
            got = goal_solutions(
                solver, Compound("nth", (n_var, term_list, Atom(value))), n_var
            )
            assert got == [i + 1 for i, x in enumerate(items) if x == value]
        n_var, e_var = fresh_var("N"), fresh_var("E")
        pair = Compound("p", (n_var, e_var))
        got = goal_solutions(
            solver, Compound("nth", (n_var, term_list, e_var)), pair
        )
        assert renders(got) == [
            "p(%d,%s)" % (i + 1, x) for i, x in enumerate(items)
        ]

    # unbound-list patterns: (+,-,+) (+,-,-) (-,-,+)
    for position in range(1, 5):
        for value_term in (Atom("a"), None):
            list_var = fresh_var("L")
            value = value_term if value_term is not None else fresh_var("E")
            got = goal_solutions(
                solver, Compound("nth", (position, list_var, value)), list_var
            )
            assert len(got) == 1
            items, tail = list_parts(got[0])
            assert len(items) == position
            assert isinstance(deref(tail), Var)
            assert all(isinstance(deref(x), Var) for x in items[: position - 1])
            if value_term is not None:
                assert term_equal(deref(items[-1]), value_term)
            else:
                assert isinstance(deref(items[-1]), Var)
    n_var, list_var = fresh_var("N"), fresh_var("L")
    pair = Compound("p", (n_var, list_var))
    got = goal_solutions(
        solver, Compound("nth", (n_var, list_var, Atom("a"))), pair, limit=4
    )
    for index, solution in enumerate(got, start=1):
        position, skeleton = deref(solution).args
        assert deref(position) == index
        items, tail = list_parts(skeleton)
        assert len(items) == index and isinstance(deref(tail), Var)
        assert term_equal(deref(items[-1]), Atom("a"))


def test_church_numerals_roundtrip_0_to_20():
    solver = make_solver()
    for n in range(21):
        out = fresh_var("N")
        got = goal_solutions(solver, Compound("church", (church_term(n), out)), out)
        assert got == [n]
        out = fresh_var("C")
        got = goal_solutions(solver, Compound("church", (out, n)), out)
        assert len(got) == 1 and term_equal(got[0], church_term(n))


# ---------------------------------------------------------------------------
# 8. Canonical attribute order and order-insensitive equality


def rand_attr_list(rng):
    """Attribute entries with unique identifiers, in random order."""
    names = rng.sample("abcdef", rng.randint(0, 6))
    return [attr_atom(name, str(rng.randint(0, 99))) for name in names]


def canon_of(solver, entries):
    out = fresh_var("C")
    got = goal_solutions(
        solver, Compound("canon", (mk_list(entries), out)), out
    )
    assert len(got) == 1
    return got[0]


def test_canon_idempotent_and_permutation_invariant():
    solver = make_solver()
    rng = random.Random(88)
    for _ in range(200):
        entries = rand_attr_list(rng)
        once = canon_of(solver, entries)
        twice = canon_of(solver, list_items(once) or [])
        assert term_equal(once, twice)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert term_equal(canon_of(solver, shuffled), once)


def test_canon_keeps_duplicate_identifiers_stable():
    solver = make_solver()
    entries = [attr_atom("b", "2"), attr_atom("a", "1"), attr_atom("b", "9")]
    got = canon_of(solver, entries)
    assert term_equal(got, mk_list([entries[1], entries[0], entries[2]]))


def shuffle_attrs(node, rng):
    """The same tree with every attribute list randomly permuted."""
    node = deref(node)
    if not is_element(node):
        return node
    attrs = list(list_items(deref(node.args[1])) or [])
    rng.shuffle(attrs)
    children = [shuffle_attrs(c, rng) for c in kids(node)]
    return Compound(
        "element", (Atom(elem_name(node)), mk_list(attrs), mk_list(children))
    )


def holds(solver, goal):
    return solver.solve_once(goal)


def test_equals_is_an_attribute_order_insensitive_equivalence():
    solver = make_solver()
    rng = random.Random(4711)
    for _ in range(100):
        tree = nav_tree(rng, max_depth=3)
        first = shuffle_attrs(tree, rng)
        second = shuffle_attrs(tree, rng)
        other = nav_tree(rng, max_depth=3)

        assert holds(solver, Compound("equals", (tree, tree)))
        assert trees_equal(tree, first)
        assert holds(solver, Compound("equals", (tree, first)))
        assert holds(solver, Compound("equals", (first, tree)))
        assert holds(solver, Compound("equals", (first, second)))
        assert holds(solver, Compound("equals", (tree, second)))

        expected = trees_equal(tree, other)
        assert bool(holds(solver, Compound("equals", (tree, other)))) == expected
        assert bool(holds(solver, Compound("equals", (other, tree)))) == expected


# ---------------------------------------------------------------------------
# 9. Edit operations and their inverses


def first_solution(solver, goal, var):
    got = goal_solutions(solver, goal, var, limit=1)
    assert got, "goal had no solution"
    return got[0]


def test_insert_then_remove_restores_the_original():
    solver = make_solver()
    rng = random.Random(1905)
    fresh_node = mk_element("zzz")
    cases = 0
    while cases < 100:
        tree = nav_tree(rng, max_depth=3)
        parents = [e for e in all_elements(tree) if kids(e)]
        if not parents:
            continue
        cases += 1
        parent = rng.choice(parents)
        children = kids(parent)
        operation = Atom("insertBefore") if cases % 2 else Atom("insertAfter")
        if cases % 3:
            anchor = rng.choice(children)
        else:
            anchor = rng.randint(1, len(children))
        out = fresh_var("R")
        inserted = first_solution(
            solver,
            Compound(operation.name, (parent, fresh_node, anchor, out)),
            out,
        )
        grew = list_items(deref(deref(inserted).args[2])) or []
        assert len(grew) == len(children) + 1
        back = fresh_var("B")
        restored = first_solution(
            solver, Compound("remove", (inserted, fresh_node, back)), back
        )
        assert term_equal(restored, parent)


def test_remove_attribute_removes_exactly_the_first_match():
    solver = make_solver()
    element = mk_element("a", [("k", "1"), ("m", "2"), ("k", "3")])
    out = fresh_var("R")
    got = goal_solutions(
        solver, Compound("removeAttribute", (element, Atom("k"), out)), out
    )
    assert renders(got) == ["element(a,['m=\"2\"','k=\"3\"'],[])"]


# ---------------------------------------------------------------------------
# 10. Solver control behaviour

FACT_GREEN = """
fact(N,Res):-
  N>0,N1 is N-1,
  fact(N1,Res2),
  Res is N*Res2.
fact(0,1):-!.
"""

FACT_RED = """
fact(N,Res):-!,
  N>0,N1 is N-1,
  fact(N1,Res2),
  Res is N*Res2.
fact(0,1).
"""


def test_factorial_with_trailing_cut_yields_one_solution():
    solver = make_solver(FACT_GREEN)
    assert query_solutions(solver, "fact(5, R)", var="R") == [120]


def test_factorial_with_leading_cut_cannot_reach_the_base_case():
    solver = make_solver(FACT_RED)
    assert query_solutions(solver, "fact(3, R)", var="R") == []


def test_append_solution_count_is_length_plus_one():
    solver = make_solver()
    for n in range(7):
        items = mk_list([Atom("x")] * n)
        left, right = fresh_var("A"), fresh_var("B")
        got = goal_solutions(
            solver, Compound("append", (left, right, items)), left
        )
        assert len(got) == n + 1


def test_cut_inside_findall_stays_contained():
    solver = make_solver(
        """
        k(X) :- findall(Y, h(Y), L), member(X, L).
        k(done).
        h(1) :- !.
        h(2).
        """
    )
    assert renders(query_solutions(solver, "k(X)")) == ["1", "done"]


# ---------------------------------------------------------------------------
# 11. Sorting pipeline

SORT_HELPERS = """
getTRs([],[]).
getTRs([H|T],[H2|T2]):-
  H2=element(tr,[],
       [element(th,[],[text(H)])]),
  getTRs(T,T2).
"""

SORT_GOAL = (
    "findall(Y,transform(Doc^name#1,Y),Ys),"
    "quicksort(Ys,leStrings,S),"
    "getTRs(S,TRs),"
    "Res=element(table,[],TRs)"
)


def test_sorting_pipeline_produces_ascending_rows():
    solver = make_solver(SORT_HELPERS)
    names = ["delta", "alpha", "Echo", "bravo", "Charlie"]
    doc = mk_element(
        "people",
        [],
        [
            mk_element("person", [], [mk_element("name", [], [mk_text(n)])])
            for n in names
        ],
    )
    query = parse_query(SORT_GOAL, solver.program.operators)
    solver.unify(query.variables["Doc"], doc)
    got = goal_solutions(solver, query.goal, query.variables["Res"], limit=1)
    assert len(got) == 1
    expected = mk_element(
        "table",
        [],
        [
            mk_element("tr", [], [mk_element("th", [], [mk_text(n)])])
            for n in sorted(names)  # ascending byte order: uppercase first
        ],
    )
    assert term_equal(got[0], expected)


# ---------------------------------------------------------------------------
# 12. Relational document view and joins


def relation_doc(rows):
    return mk_element(
        "rel",
        [],
        [
            mk_element(name, [("id", rid), ("name", rname)])
            for name, rid, rname in rows
        ],
    )


def test_tree_to_relation_extracts_exact_facts():
    doc = relation_doc([("x", "123", "hallo"), ("x", "4", "welt"), ("x", "789", "!")])
    facts = tree_to_relation(doc)
    expected = [
        Compound("x", (123, Atom("hallo"))),
        Compound("x", (4, Atom("welt"))),
        Compound("x", (789, Atom("!"))),
    ]
    assert len(facts) == len(expected)
    for fact, head in zip(facts, expected):
        assert term_equal(fact.head, head)


def test_natural_join_matches_nested_loop_oracle():
    x_rows = [(123, "hallo"), (4, "welt"), (789, "!")]
    y_rows = [(789, "hello"), (5, "world"), (123, "?")]
    x_doc = relation_doc([("x", str(i), n) for i, n in x_rows])
    y_doc = relation_doc([("y", str(i), n) for i, n in y_rows])

    solver = make_solver(
        "natural_join(Id,Name,FirstName):-\n  x(Id,Name),\n  y(Id,FirstName)."
    )
    for fact in tree_to_relation(x_doc) + tree_to_relation(y_doc):
        solver.program.add(fact.head)

    oracle = [
        (xid, xname, yname)
        for xid, xname in x_rows
        for yid, yname in y_rows
        if xid == yid
    ]
    assert oracle == [(123, "hallo", "?"), (789, "!", "hello")]

    query = parse_query("natural_join(Id, Name, FirstName)", solver.program.operators)
    tuples = []
    for _ in solver.solve(query.goal):
        tuples.append(
            (
                deref(query.variables["Id"]),
                deref(query.variables["Name"]).name,
                deref(query.variables["FirstName"]).name,
            )
        )
    assert tuples == oracle
