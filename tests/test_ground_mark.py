"""Compounds that know they hold no variable (``Compound.ground``).

``ground_compound`` and ``ground_cell`` are the builders that mark.  The XML
parser marks every node and list cell it builds, and ``removeAttribute/3``
and ``sortChildren/3`` mark what they rebuild from a marked element's parts.
``copy_term``, ``is_ground``, ``is_cyclic`` and the occurs check stop at a
marked compound.  The first part checks the promise: every compound
``parse_document`` returns is marked, and no compound that holds a ``Var``,
bound or not, is marked, over the terms that solving prelude goals builds on
parsed trees, whole and with holes.  The second compares the readers with
what they answered before the mark: ``copy_term`` with its old code
(``copy_oracle``), and the others on a marked term and on its unmarked twin.
The last part pins the work they no longer do: each reader looks at a parsed
document once, and ``findall`` over ``descendant`` of a deep nest is linear.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

import copy_oracle
from fresh_interpreter import termxform
from termxform.logic_engine import ResourceLimitError, Solver, SolverOptions
from termxform.rule_language import parse_query
from termxform.term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    Var,
    copy_term,
    deref,
    fresh_var,
    ground_cell,
    ground_compound,
    is_cyclic,
    is_ground,
    mk_list,
)
from termxform.transform_prelude import load_prelude
from termxform.xml_io import parse_document, serialize_document
from test_list_builders import exponent
from xmlgen import elements, plain_trees, punch

PRELUDE = load_prelude()


def compounds(t):
    """Every compound object in *t*, bound variables followed, each once."""
    found, seen, stack = [], set(), [t]
    while stack:
        node = deref(stack.pop())
        if type(node) is Compound and id(node) not in seen:
            seen.add(id(node))
            found.append(node)
            stack.extend(node.args)
    return found


def holds_var(t):
    """Whether a ``Var``, bound or not, is anywhere in *t* (bindings not followed)."""
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            return True
        if type(node) is Compound:
            stack.extend(node.args)
    return False


def parsed(tree, keep_ws=False):
    return parse_document(serialize_document(tree), keep_ws=keep_ws)


@contextlib.contextmanager
def recorded():
    """Every compound built inside the block, by the constructor or by a marking builder, in a list."""
    built, init = [], Compound.__init__
    marks = {"ground_compound": ground_compound, "ground_cell": ground_cell}
    users = [
        (module, name)
        for module in list(sys.modules.values())
        for name, mark in marks.items()
        if getattr(module, name, None) is mark
    ]

    def recording(mark):
        def build(*args):
            built.append(mark(*args))
            return built[-1]

        return build

    def recording_init(self, name, args):
        init(self, name, args)
        built.append(self)

    Compound.__init__ = recording_init
    for module, name in users:
        setattr(module, name, recording(marks[name]))
    try:
        yield built
    finally:
        Compound.__init__ = init
        for module, name in users:
            setattr(module, name, marks[name])


# ---------------------------------------------------------------------------
# Who marks


@settings(max_examples=60, deadline=None)
@given(elements(), st.booleans())
def test_every_compound_the_parser_returns_is_marked(tree, keep_ws):
    doc = parsed(tree, keep_ws)
    assert all(node.ground for node in compounds(doc))


def test_text_atoms_are_shared_within_a_parse():
    doc = parse_document("<a><b>x</b><b>x</b><b>y</b></a>")
    texts = [b.args[2].args[0].args[0] for b in (doc.args[2].args[0], doc.args[2].args[1].args[0], doc.args[2].args[1].args[1].args[0])]
    assert texts[0] is texts[1] and texts[0] is not texts[2]
    assert [text.name for text in texts] == ["x", "x", "y"]


GOALS = [
    "findall(X, transform(descendant D, X), L)",
    "findall(f(X, Y), transform(descendant D, X), L)",
    "findall(X, transform(D ^ b, X), L)",
    "transform(D / b, X)",
    "transform(atts D, X)",
    "transform(D sort k, X)",
    "transform(D sort N, X)",
    "removeAttribute(D, k, X)",
    "removeAttribute(D, k, element(N, A, C))",
    "insertAfter(D, element(n, [], []), 1, X)",
    "insertBefore(D, text(n), element(_, _, _), X)",
    "nodes(D, X)",
    "flatten(D, X)",
    "D = element(_, _, C), member(X, C)",
    "D = element(_, _, C), length(C, N), N > 1, X = N",
    "copy_term(D, X)",
]


def solve(goal, tree, limit=20):
    """Up to *limit* solutions of *goal* with ``D`` bound to *tree*; the step limit ends the rest."""
    query = parse_query(goal, PRELUDE.operators)
    query.variables["D"].ref = tree
    solver = Solver(PRELUDE, SolverOptions(diagnostics=io.StringIO(), depth_limit=3_000))
    answers = []
    try:
        for _ in solver.solve(query.goal):
            answers.append(copy_term(query.variables["X"]) if "X" in query.variables else None)
            if len(answers) >= limit:
                break
    except ResourceLimitError:
        pass
    return answers


def check_no_marked_compound_holds_a_var(tree):
    with recorded() as built:
        answers = [solve(goal, tree) for goal in GOALS]
    assert built, "the goals built no compound"
    bad = [node for node in built if node.ground and holds_var(node)]
    assert not bad, bad[:3]
    for node in compounds(answers):
        assert not (node.ground and holds_var(node)), node


@settings(max_examples=30, deadline=None)
@given(plain_trees(max_depth=3, max_fanout=3))
def test_no_compound_that_solving_builds_on_a_parsed_tree_is_marked_if_it_holds_a_var(tree):
    check_no_marked_compound_holds_a_var(parsed(tree))


@settings(max_examples=30, deadline=None)
@given(plain_trees(max_depth=3, max_fanout=3), st.data())
def test_no_compound_that_solving_builds_on_a_tree_with_holes_is_marked_if_it_holds_a_var(tree, data):
    check_no_marked_compound_holds_a_var(punch(parsed(tree), data))


def test_removing_an_attribute_or_sorting_marks_what_a_marked_element_gives():
    doc = parse_document('<a k="1" m="2"><b k="2"/><b k="1"/></a>')
    (removed,) = solve("removeAttribute(D, k, X)", doc)
    assert removed.ground and removed.args[1].ground
    (ordered,) = solve("transform(D sort k, X)", doc)
    assert all(node.ground for node in compounds(ordered.args[2]))
    hole = fresh_var("C")
    open_element = Compound("element", (Atom("a"), mk_list([Atom('k="1"')]), mk_list([], hole)))
    (removed,) = solve("removeAttribute(D, k, X)", open_element)
    assert not removed.ground


# ---------------------------------------------------------------------------
# The readers answer as before


@st.composite
def mixed(draw, pool, docs, depth=0):
    """A term of atoms, numbers, variables from *pool* (shared), bound variables, marked subtrees and unmarked compounds."""
    kinds = ["atom", "number", "var", "doc", "marked"]
    if depth < 3:
        kinds += ["compound", "compound", "bound", "list"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return Atom(draw(st.sampled_from("abc")))
    if kind == "number":
        return draw(st.integers(-3, 3))
    if kind == "var":
        return draw(st.sampled_from(pool))
    if kind == "doc":
        return draw(st.sampled_from(docs))
    if kind == "marked":
        return ground_compound("g", (Atom("z"), 1))
    inner = mixed(pool, docs, depth + 1)
    if kind == "bound":
        var = fresh_var("B")
        var.ref = draw(inner)
        return var
    args = draw(st.lists(inner, min_size=1, max_size=3))
    return mk_list(args) if kind == "list" else Compound("f", tuple(args))


@st.composite
def mixed_terms(draw):
    pool = [fresh_var("V") for _ in range(3)]
    doc = parsed(draw(plain_trees(max_depth=2, max_fanout=2)))
    docs = [doc, doc.args[2], doc.args[1]] + [child for child in compounds(doc.args[2]) if child.name == "element"][:2]
    return draw(mixed(pool, docs)), pool


def check_copy(original, copy, variables):
    """*copy* is *original* copied: same shape, fresh variables shared as in *original*, var-free subterms the same objects."""
    stack = [(original, copy)]
    while stack:
        node, copied = stack.pop()
        node = deref(node)
        if not holds_var(node):
            assert copied is node
        elif type(node) is Var:
            assert type(copied) is Var and copied is not node and copied.ref is None
            assert variables.setdefault(node.id, copied) is copied
        else:
            assert type(copied) is Compound and copied.name == node.name and len(copied.args) == len(node.args)
            stack.extend(zip(node.args, copied.args))
    fresh = list(variables.values())
    assert len({id(var) for var in fresh}) == len(fresh)


@settings(max_examples=150, deadline=None)
@given(mixed_terms(), mixed_terms())
def test_copy_term_agrees_with_the_old_copy(first, second):
    (a, _), (b, _) = first, second
    for copy in (copy_term, copy_oracle.copy_term):
        mapping = {}
        copies = copy(a, mapping), copy(b, mapping)  # one mapping: the two copies share variables
        variables = {}
        check_copy(a, copies[0], variables)
        check_copy(b, copies[1], variables)
        assert {key: var.id for key, var in variables.items()} == {key: var.id for key, var in mapping.items()}


def twin(t):
    """*t* with its bindings followed and every compound rebuilt unmarked; the unbound variables are the same objects."""
    t = deref(t)
    if type(t) is Compound:
        return Compound(t.name, tuple(twin(arg) for arg in t.args))
    return t


@settings(max_examples=150, deadline=None)
@given(mixed_terms())
def test_the_readers_answer_alike_on_a_marked_term_and_its_unmarked_twin(term_and_pool):
    term, pool = term_and_pool
    other = twin(term)
    assert not any(node.ground for node in compounds(other))
    solver = Solver(PRELUDE, SolverOptions(occurs_check=True))
    assert is_ground(term) == is_ground(other)
    assert is_cyclic(term) is is_cyclic(other) is False
    for var in pool:
        assert solver._occurs(var, term) == solver._occurs(var, other)
    # A variable bound to a term that holds it makes both cyclic.
    var = pool[0]
    if solver._occurs(var, term):
        var.ref = Compound("h", (term,))
        try:
            assert is_cyclic(term) is is_cyclic(other) is True
        finally:
            var.ref = None


def test_a_marked_document_is_ground_acyclic_and_holds_no_variable():
    doc = parse_document("<a k='1'><b>x</b><!--c--><?p q?></a>")
    var = fresh_var("X")
    assert is_ground(doc) and not is_cyclic(doc) and not Solver(PRELUDE)._occurs(var, doc)
    assert copy_term(doc) is doc and copy_term(Compound("f", (doc, var))).args[0] is doc


# ---------------------------------------------------------------------------
# The work they no longer do


def nest(depth):
    """A parsed ``<a>`` nested *depth* deep around the text x."""
    return parse_document("<a>" * depth + "x" + "</a>" * depth)


def descendants(depth):
    """findall(X, transform(descendant D, X), L) over a parsed nest."""
    x = fresh_var("X")
    return "findall", (x, Compound("transform", (Compound("descendant", (nest(depth),)), x)), fresh_var("L"))


def test_findall_over_descendant_takes_7_steps_a_level():
    for depth in (100, 400, 1_600):
        solver = Solver(PRELUDE, SolverOptions(diagnostics=io.StringIO(), depth_limit=10_000_000))
        assert solver.solve_once(Compound(*descendants(depth)))
        assert solver.steps == 7 * depth + 6


def work(function, *args):
    """The Python-level calls and the builtin calls that function(*args*) makes: counts that do not drift."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def first_answer(name, args):
    solver = Solver(PRELUDE, SolverOptions(diagnostics=io.StringIO(), depth_limit=10_000_000))
    assert solver.solve_once(Compound(name, args))


def test_findall_over_descendant_grows_linearly():
    # Each answer is a node of the nest, which findall/3 copies: with the
    # copy walking every answer's subtree, the work grew with the square
    # of the depth (2.26 s at 4,000 levels).  The walk is a loop that calls
    # only builtins, so those are counted too.
    first_answer(*descendants(10))  # compiles the clauses the goal runs
    sizes = (100, 400, 1_600)
    counts = [work(first_answer, *descendants(n)) for n in sizes]
    for kind, kind_counts in zip(("calls", "builtin calls"), zip(*counts)):
        assert exponent(sizes, kind_counts) <= 1.1, (kind, kind_counts)


DESCENDANTS = "descendants(D, N) :- findall(X, transform(descendant D, X), L), length(L, N).\n"


def test_findall_over_descendant_answers_on_a_4000_deep_nest_inside_10_s(tmp_path):
    done = termxform(tmp_path, "query", "descendants(Doc, N)", rules=DESCENDANTS, depth=4000, timeout=10)
    assert (done.returncode, done.stdout) == (0, "YES.\nN/4000\n"), done.stderr


def rows(n):
    """A parsed document of *n* + 1 elements."""
    return parse_document("<t>%s</t>" % ("<r k='1'/>" * n))


def occurs_visits(doc):
    """The nodes the occurs check looks at when ``X = Doc`` binds X under ``--occurs-check``."""
    solver = Solver(PRELUDE, SolverOptions(occurs_check=True))
    visits = 0

    def profile(frame, event, arg):
        nonlocal visits
        if event == "call" and frame.f_code.co_name == "deref" and frame.f_back.f_code.co_name == "_occurs":
            visits += 1

    sys.setprofile(profile)
    try:
        assert solver.unify(fresh_var("X"), doc)
    finally:
        sys.setprofile(None)
    return visits


def test_the_occurs_check_looks_at_a_parsed_document_once():
    large = rows(999)
    assert len([node for node in compounds(large) if node.name == "element"]) == 1_000
    assert occurs_visits(large) == occurs_visits(rows(3)) == 1
    assert occurs_visits(Compound("f", (large, EMPTY_LIST))) == 3


READERS = {
    "copy_term": copy_term,
    "copy_term with a variable beside": lambda doc: copy_term(Compound("f", (doc, fresh_var("X")))),
    "is_ground": is_ground,
    "is_cyclic": is_cyclic,
}


@pytest.mark.parametrize("reader", READERS.values(), ids=list(READERS))
def test_each_reader_looks_at_a_parsed_document_once(reader):
    assert work(reader, rows(999)) == work(reader, rows(3))
