"""Hypothesis strategies shared by the XML round-trip and navigation tests."""

from hypothesis import strategies as st

from termxform.term_core import EMPTY_LIST, Atom, Compound, deref, fresh_var, list_items, mk_list

names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)

_text_alphabet = "abcxyz 0189&<>\"'\n."
text_content = st.text(alphabet=_text_alphabet, min_size=1, max_size=12).filter(
    lambda s: s.strip() != ""
)

attr_values = st.text(alphabet="abc012 &\"'>", max_size=8)

comment_content = (
    st.text(alphabet="abc -x", max_size=10)
    .map(str.strip)
    .filter(lambda s: "-->" not in s)
)

pi_content = st.text(alphabet="abc ?x", max_size=10).map(str.strip)


def _mk_attrs(pairs):
    seen = {}
    for name, value in pairs:
        seen[name] = value
    return mk_list([Atom('%s="%s"' % (n, v)) for n, v in seen.items()])


def _assemble(name, attrs, children):
    spaced = []
    previous_text = False
    for child in children:
        is_text = isinstance(child, Compound) and child.name == "text"
        if is_text and previous_text:
            continue  # adjacent text nodes would merge on re-parse
        spaced.append(child)
        previous_text = is_text
    return Compound("element", (Atom(name), attrs, mk_list(spaced)))


@st.composite
def elements(draw, depth=0, max_depth=3, with_misc=True):
    """A random element term that survives serialize -> parse unchanged."""
    name = draw(names)
    attrs = _mk_attrs(draw(st.lists(st.tuples(names, attr_values), max_size=3)))
    if depth >= max_depth:
        return _assemble(name, attrs, [])
    child_kinds = [
        st.builds(lambda s: Compound("text", (Atom(s),)), text_content),
        elements(depth=depth + 1, max_depth=max_depth, with_misc=with_misc),
    ]
    if with_misc:
        child_kinds.append(st.builds(lambda s: Compound("comment", (Atom(s),)), comment_content))
        child_kinds.append(st.builds(lambda s: Compound("pi", (Atom(s),)), pi_content))
    children = draw(st.lists(st.one_of(child_kinds), max_size=4))
    return _assemble(name, attrs, children)


@st.composite
def plain_trees(draw, depth=0, max_depth=4, max_fanout=4):
    """Element-and-text-only trees for navigation oracles (small name pool)."""
    pool = ("a", "b", "c", "d", "e")
    name = draw(st.sampled_from(pool))
    attr_names = draw(st.lists(st.sampled_from(("k", "m", "n")), max_size=2, unique=True))
    attrs = mk_list(
        [Atom('%s="%s"' % (n, draw(st.integers(0, 9)))) for n in attr_names]
    )
    children = []
    if depth < max_depth:
        for _ in range(draw(st.integers(0, max_fanout))):
            if draw(st.booleans()):
                children.append(draw(plain_trees(depth=depth + 1, max_depth=max_depth, max_fanout=max_fanout)))
            else:
                children.append(Compound("text", (Atom(draw(st.sampled_from(("t1", "t2", "9")))),)))
    return _assemble(name, attrs, children)


def elements_of(tree):
    """The element nodes of *tree* in pre-order."""
    found, stack = [], [tree]
    while stack:
        node = deref(stack.pop())
        if isinstance(node, Compound) and node.name == "element":
            found.append(node)
            stack.extend(reversed(list_items(node.args[2]) or []))
    return found


NON_NODES = (5, EMPTY_LIST, Compound("foo", (Atom("x"),)), mk_list([Compound("text", (Atom("a"),))]))


def punch(node, data):
    """*node* with holes drawn by *data*: open child lists, unbound children and children that are no node."""
    node = deref(node)
    if not (isinstance(node, Compound) and node.name == "element"):
        return node
    children = [punch(child, data) for child in list_items(node.args[2])]
    hole = data.draw(st.sampled_from((None, None, "open", "unbound", "non-node")))
    tail = EMPTY_LIST
    if hole == "open":
        tail = fresh_var("T")
    elif hole is not None:
        at = data.draw(st.integers(0, len(children)))
        children.insert(at, fresh_var("C") if hole == "unbound" else data.draw(st.sampled_from(NON_NODES)))
    return Compound("element", (node.args[0], node.args[1], mk_list(children, tail)))
