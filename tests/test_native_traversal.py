"""``traverse/2`` and ``checkSerializable/1`` are natives over the Python code.

``traverse/2`` runs ``template_engine._walk``, the walk ``transform_file``
runs in template mode; ``checkSerializable/1`` runs xml_io's per-node check,
the one ``serialize_fragment`` applies.  Both used to be prelude rules.  The
first part of this file pins every behaviour that changed with the switch;
the second compares the natives with the Python functions and with the old
rule text, kept below under ``old_`` names as the oracle, on random trees.
"""

import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from termxform import template_engine
from termxform.logic_engine import Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
from termxform.template_engine import TemplateError, TransformOptions, transform_file, traverse
from termxform.term_core import (
    Atom,
    Compound,
    deref,
    fresh_var,
    list_items,
    mk_list,
    render_term,
)
from termxform.transform_prelude import load_prelude
from termxform.xml_io import ValidationError, check_serializable, serialize_fragment
from xmlgen import elements

OLD_RULES = """
old_traverse(pi(_),[]):-!.
old_traverse(comment(_),[]):-!.
old_traverse(X,Res):-template(X,Res), !.
old_traverse(element(_,_,L),Res):-
  old_traverseElements(L,Res).
old_traverse(text(_),[]).

old_traverseElements([],[]).
old_traverseElements([H|T],Res):-
  not(list(H)), compound(H),
  old_traverse(H,Res1),
  old_traverseElements(T,Res2),
  append(Res1,Res2,Res).
old_traverseElements([H|T],Res):-
  (list(H);not(compound(H))),
  old_traverseElements(T,Res).

old_checkSerializable(pi(_)):-!.
old_checkSerializable(comment(_)):-!.
old_checkSerializable(text(_)):-!.
old_checkSerializable(element(N,A,C)):-
  not(list(N)), atom(N),
  checkAttributes(A),
  old_checkSerializables(C), !.
old_checkSerializable(X):-
  write('Error: '), write(X),
  write(' was not expected here!'), fail.

old_checkSerializables([]).
old_checkSerializables([H|T]):-
  old_checkSerializable(H),
  old_checkSerializables(T).
"""

# Matches about half of the generated names, by first letter; the first
# clause that holds wins, and a name from n to p has no template (the cut
# commits to the failing clause), so traversal goes on into its children,
# as it does for names from q to z.
TEMPLATES = """
template(element(N,A,_),[element(N,A,[])]):- atom_codes(N,[K|_]), K =< 101.
template(element(N,_,C),C):- atom_codes(N,[K|_]), K =< 105.
template(element(N,_,_),[]):- atom_codes(N,[K|_]), K =< 109.
template(element(N,_,_),[text(no)]):- atom_codes(N,[K|_]), K =< 112, !, fail.
template(text(T),[text(T),text(T)]):- contains(T,x).
"""


def program_with(rules=""):
    return load_prelude(parse_program(OLD_RULES + rules))


def run(program, goal, **bindings):
    """The rendered goal per solution, and the diagnostics text."""
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO(), depth_limit=200_000))
    query = parse_query(goal, program.operators)
    for name, value in bindings.items():
        assert solver.unify(query.variables[name], value)
    found = [render_term(query.goal) for _ in solver.solve(query.goal)]
    return found, solver.options.diagnostics.getvalue()


def serializer_message(tree):
    """The ValidationError text the serializer gives *tree*, '' if it accepts it."""
    try:
        check_serializable(tree)
    except ValidationError as exc:
        return "%s\n" % exc
    return ""


# The forms the old checkSerializable/1 accepted and the serializer rejects.
REJECTED = {
    "text('')": lambda: Compound("text", (Atom(""),)),
    "text(X)": lambda: Compound("text", (fresh_var("X"),)),
    "text(f(x))": lambda: Compound("text", (Compound("f", (Atom("x"),)),)),
    "element('1a',[],[])": lambda: Compound("element", (Atom("1a"), Atom("[]"), Atom("[]"))),
    "comment('x-->y')": lambda: Compound("comment", (Atom("x-->y"),)),
    "comment(' x')": lambda: Compound("comment", (Atom(" x"),)),
    "pi('a>b')": lambda: Compound("pi", (Atom("a>b"),)),
}

# Forms both versions reject.
BOTH_REJECT = {
    "wrong": lambda: Atom("wrong"),
    "7": lambda: 7,
    "text(a,b)": lambda: Compound("text", (Atom("a"), Atom("b"))),
    "element(a,[broken],[])": lambda: Compound(
        "element", (Atom("a"), mk_list([Atom("broken")]), Atom("[]"))
    ),
}


# ---------------------------------------------------------------------------
# Behaviour changes, one test each


@pytest.mark.parametrize("form", sorted(REJECTED))
def test_check_serializable_rejects_what_the_serializer_rejects(form):
    program = program_with()
    with pytest.raises(ValidationError):
        serialize_fragment([REJECTED[form]()])
    found, diagnostics = run(program, "checkSerializable(F)", F=REJECTED[form]())
    assert found == []
    assert re.fullmatch(r"Error: .+ was not expected here! \(at path \[\]\)\n", diagnostics)
    # The rule version accepted it quietly.
    assert run(program, "old_checkSerializable(F)", F=REJECTED[form]())[0] != []
    assert run(program, "old_checkSerializable(F)", F=REJECTED[form]())[1] == ""


def test_check_serializable_accepts_a_lone_text_comment_or_pi_node():
    # The check is the one serialize_fragment applies, not the document
    # check that wants an element root.
    program = program_with()
    for node in ("text(hi)", "comment(c)", "pi(p)"):
        assert run(program, "checkSerializable(%s)" % node) == (
            ["checkSerializable(%s)" % node],
            "",
        )


def test_check_serializable_reports_one_message_not_one_per_ancestor():
    program = program_with()
    tree = "element(a,[],[element(b,[],[wrong])])"
    found, diagnostics = run(program, "checkSerializable(%s)" % tree)
    assert found == []
    assert diagnostics == "Error: wrong was not expected here! (at path [0, 0])\n"
    # The rule version wrote one message for the node and one per ancestor,
    # with no newline between them.
    assert run(program, "old_checkSerializable(%s)" % tree)[1] == (
        "Error: wrong was not expected here!"
        "Error: element(b,[],[wrong]) was not expected here!"
        "Error: element(a,[],[element(b,[],[wrong])]) was not expected here!"
    )


def test_check_serializable_never_binds_its_argument():
    program = program_with()
    for goal in ("checkSerializable(X)", "checkSerializable(element(a,X,[]))"):
        found, diagnostics = run(program, goal)
        assert found == [], goal
        assert diagnostics.startswith("Error"), goal
    # The rule version bound an unbound node to pi(_) and an unbound
    # attribute list to [].
    assert run(program, "old_checkSerializable(X)")[0][0].startswith("old_checkSerializable(pi(")
    assert run(program, "old_checkSerializable(element(a,X,[]))")[0] == [
        "old_checkSerializable(element(a,[],[]))"
    ]


def test_traverse_leaves_an_unbound_node_unbound():
    program = program_with(TEMPLATES)
    found, _ = run(program, "traverse(X, R)")
    assert len(found) == 1 and re.fullmatch(r"traverse\(_\w+,\[\]\)", found[0])
    # The rule version bound it to pi(_).
    assert run(program, "old_traverse(X, R)")[0][0].startswith("old_traverse(pi(")


def test_traverse_gives_one_solution_when_a_child_is_the_empty_list():
    program = program_with("template(element(x,_,_),[text(hit)]).")
    tree = "element(a,[],[[],element(x,[],[])])"
    assert run(program, "traverse(%s, R)" % tree)[0] == [
        "traverse(%s,[text(hit)])" % tree
    ]
    # The rule version gave every solution twice: [] is both a list and not
    # a compound.
    assert len(run(program, "old_traverse(%s, R)" % tree)[0]) == 2


def test_traverse_offers_a_dot_compound_that_is_no_list_cell_and_skips_a_list_child():
    program = program_with(
        "template('.'(_),[text(one)]).\ntemplate('.'(_,_,_),[text(three)]).\ntemplate([_|_],[text(cell)])."
    )
    tree = "element(a,[],['.'(x),[a],'.'(a,b,c)])"
    result = "[text(one),text(three)]"
    assert run(program, "traverse(%s, R)" % tree)[0] == ["traverse(%s,%s)" % (tree, result)]
    # The rule version offers a child that is a compound and no list, as the walk does.
    assert run(program, "old_traverse(%s, R)" % tree)[0] == ["old_traverse(%s,%s)" % (tree, result)]


def test_traverse_raises_template_error_on_a_non_list_result():
    program = program_with("template(element(b,_,_),oops).")
    with pytest.raises(TemplateError, match="not a result list"):
        run(program, "traverse(element(a,[],[element(b,[],[])]), R)")
    # The rule version failed silently.
    assert run(program, "old_traverse(element(a,[],[element(b,[],[])]), R)") == ([], "")


def test_traverse_with_a_bound_result_checks_the_first_template():
    program = program_with(
        "template(element(b,_,_),[text(first)]).\ntemplate(element(b,_,_),[text(second)])."
    )
    assert run(program, "traverse(element(b,[],[]), [text(second)])")[0] == []
    assert run(program, "traverse(element(b,[],[]), [text(first)])")[0] != []
    # The rule version unified the bound result with each template in turn.
    assert run(program, "old_traverse(element(b,[],[]), [text(second)])")[0] != []


def test_traverse_binds_the_variables_a_template_head_fills():
    program = program_with("template(text(filled),[text(filled)]).")
    tree = "element(a,[],[text(X),text(Y)])"
    bound = "(element(a,[],[text(filled),text(filled)]),[text(filled),text(filled)])"
    assert run(program, "traverse(%s, R)" % tree)[0] == ["traverse" + bound]
    # The walk used to copy each result and undo the template's bindings, so
    # X and Y stayed unbound; the rule version bound them, as the walk now does.
    assert run(program, "old_traverse(%s, R)" % tree)[0] == ["old_traverse" + bound]


def test_outer_backtracking_undoes_a_nested_walks_bindings():
    program = program_with("template(text(filled),[text(filled)]).")
    solver = Solver(program, SolverOptions(diagnostics=io.StringIO()))
    query = parse_query("traverse(element(a,[],[text(X)]), R) ; var(X), R = unbound", program.operators)
    x, r = query.variables["X"], query.variables["R"]
    found = [(render_term(x), render_term(r)) for _ in solver.solve(query.goal)]
    assert found[0] == ("filled", "[text(filled)]")
    # The right branch runs after the walk's binding of X is undone.
    assert found[1] == ("_X%d" % x.id, "unbound") and len(found) == 2
    assert solver.trail == [] and deref(x) is x


class _Recorded(Solver):
    """A solver that remembers every instance, to look at its trail afterwards."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


def test_a_top_level_walk_leaves_the_trail_empty(tmp_path, monkeypatch):
    monkeypatch.setattr(template_engine, "Solver", _Recorded)
    _Recorded.made = []
    program = program_with("template(text(filled),[text(filled)]).\ntemplate(element(b,_,C),C).")
    x = fresh_var("X")
    tree = Compound("element", (Atom("a"), Atom("[]"), mk_list([Compound("text", (x,))])))
    assert render_term(mk_list(traverse(tree, program))) == "[text(filled)]"
    # The binding the template made stays; only the trail forgets it.
    assert render_term(x) == "filled"
    rules = tmp_path / "rules.tx"
    rules.write_text("template(element(b,_,C),C).\ntemplate(text(T),[text(T)]).", encoding="utf-8")
    source = tmp_path / "in.xml"
    source.write_text("<a><b>hi<c/></b>there</a>", encoding="utf-8")
    assert transform_file(str(source), str(rules)).documents == ["<result>hi<c/>there</result>"]
    assert len(_Recorded.made) == 2
    assert [solver.trail for solver in _Recorded.made] == [[], []]
    assert all(solver.steps > 0 for solver in _Recorded.made)


def test_traverse_and_transform_file_run_the_same_walk(tmp_path, monkeypatch):
    calls = []
    walk = template_engine._walk

    def counted(node, solver):
        calls.append(render_term(node))
        return walk(node, solver)

    monkeypatch.setattr(template_engine, "_walk", counted)
    rules = tmp_path / "rules.tx"
    rules.write_text("template(element(b,_,C),C).", encoding="utf-8")
    source = tmp_path / "in.xml"
    source.write_text("<a><b>hi</b></a>", encoding="utf-8")
    assert transform_file(str(source), str(rules)).documents == ["hi"]
    from_file, calls[:] = list(calls), []
    program = load_prelude(parse_program("template(element(b,_,C),C)."))
    assert run(program, "traverse(element(a,[],[element(b,[],[text(hi)])]), R)")[0] == [
        "traverse(element(a,[],[element(b,[],[text(hi)])]),[text(hi)])"
    ]
    assert calls == from_file
    # One call for the root: the walk runs over its own stack, not by recursion.
    assert calls == ["element(a,[],[element(b,[],[text(hi)])])"]


def test_the_walk_asks_only_about_nodes_that_have_a_template_candidate(tmp_path, monkeypatch):
    # A 20,000-deep nest under --default-text copy with the prelude alone
    # (tests/test_deep_documents.py runs it at 100,000): no template/2 clause
    # is indexed for an element, so the walk asks only about the text.  The
    # traverse/2 goal and the text rule are the two steps.
    monkeypatch.setattr(template_engine, "Solver", _Recorded)
    _Recorded.made = []
    source = tmp_path / "nest.xml"
    source.write_text("<a>" * 20_000 + "x" + "</a>" * 20_000, encoding="utf-8")
    report = transform_file(str(source), None, options=TransformOptions(unmatched_text="copy"))
    assert report.documents == ["x"]
    assert [solver.steps for solver in _Recorded.made] == [2]


# ---------------------------------------------------------------------------
# Differential tests on random trees


_TEMPLATE_PROGRAM = program_with(TEMPLATES)


@settings(max_examples=60, deadline=None)
@given(elements(max_depth=3))
def test_traverse_agrees_with_python_and_the_old_rules(tree):
    program = _TEMPLATE_PROGRAM
    expected = render_term(mk_list(traverse(tree, program)))
    native, native_diagnostics = run(program, "traverse(T, R)", T=tree)
    old, old_diagnostics = run(program, "old_traverse(T, R)", T=tree)
    assert native == ["traverse(%s,%s)" % (render_term(tree), expected)]
    assert old == ["old_" + native[0]]
    assert native_diagnostics == old_diagnostics == ""


def _texts_to_variables(node, picks):
    """*node* with the content of each text child whose pick is true replaced by a variable."""
    node = deref(node)
    if not (isinstance(node, Compound) and node.name == "element"):
        return node
    kids = []
    for child in list_items(node.args[2]):
        child = deref(child)
        if isinstance(child, Compound) and child.name == "text" and next(picks):
            child = Compound("text", (fresh_var("T"),))
        kids.append(_texts_to_variables(child, picks))
    return Compound("element", (node.args[0], node.args[1], mk_list(kids)))


_BINDING_PROGRAM = program_with(TEMPLATES + "template(text(filled),[element(v,[],[text(filled)])]).")


@settings(max_examples=60, deadline=None)
@given(elements(max_depth=3), st.lists(st.booleans(), min_size=1))
def test_traverse_binds_variables_as_the_old_rules_do(tree, picks):
    tree = _texts_to_variables(tree, iter(picks * 64))
    native, native_diagnostics = run(_BINDING_PROGRAM, "traverse(T, R)", T=tree)
    old, old_diagnostics = run(_BINDING_PROGRAM, "old_traverse(T, R)", T=tree)
    assert len(native) == 1
    assert old == ["old_" + native[0]]
    assert native_diagnostics == old_diagnostics == ""
    # Each run's machine undid its bindings when it finished.
    assert "filled" not in render_term(tree)


def _child_paths(node, prefix=()):
    """Child-index paths of every node below *node*, in pre-order."""
    for index, child in enumerate(list_items(node.args[2])):
        path = prefix + (index,)
        yield path
        child = deref(child)
        if isinstance(child, Compound) and child.name == "element":
            yield from _child_paths(child, path)


def _replaced(node, path, new):
    if not path:
        return new
    name, attrs, children = node.args
    kids = list_items(children)
    kids[path[0]] = _replaced(deref(kids[path[0]]), path[1:], new)
    return Compound("element", (name, attrs, mk_list(kids)))


def _with_one_node(tree, pick, new):
    """*tree* with one node below the root replaced by *new* (added if none)."""
    paths = list(_child_paths(tree))
    if not paths:
        return Compound("element", (tree.args[0], tree.args[1], mk_list([new])))
    return _replaced(tree, paths[pick % len(paths)], new)


_CHECK_PROGRAM = program_with()


def _verdicts(tree):
    """(native solutions, native diagnostics), serializer text, old solution count."""
    native = run(_CHECK_PROGRAM, "checkSerializable(T)", T=tree)
    old = run(_CHECK_PROGRAM, "old_checkSerializable(T)", T=tree)[0]
    return (len(native[0]), native[1]), serializer_message(tree), len(old)


@settings(max_examples=40, deadline=None)
@given(elements(max_depth=3), st.integers(0, 1000))
def test_check_serializable_agrees_with_xml_io(tree, pick):
    native, message, old = _verdicts(tree)
    assert message == ""
    assert native == (1, "") and old == 1
    for forms, old_accepts in ((REJECTED, 1), (BOTH_REJECT, 0)):
        for form, build in forms.items():
            bad = _with_one_node(tree, pick, build())
            native, message, old = _verdicts(bad)
            assert message != "", form
            assert native == (0, message), form
            assert old == old_accepts, form
