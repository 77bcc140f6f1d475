"""Differential tests: the one-loop XML parser and the one-walk serializer
against the recursive implementations they replaced.

The oracle below is the earlier recursive code, kept verbatim apart from
names and from one later rule, that a tag may not repeat an attribute
name (``_parse_attributes`` and ``_check_node``): ``_skip_misc`` and
``_parse_element`` for parsing, ``_check_node`` (a full check before any
output) and ``_emit`` for serializing.  It raises
the library's own ``ParseError`` and ``ValidationError``, so outcomes are
compared exactly: the same term or the same error message, line, column,
``expected`` and ``found``; the same text or the same error message and path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from termxform.term_core import (
    Atom,
    Compound,
    Term,
    attr_atom,
    deref,
    fresh_var,
    is_valid_name,
    list_items,
    mk_list,
    mk_text,
    render_term,
    split_attr,
)
from termxform.xml_io import (
    ParseError,
    ValidationError,
    check_serializable,
    parse_document,
    serialize_document,
    serialize_fragment,
)
from xmlgen import elements

CORPUS = sorted((Path(__file__).parent / "data" / "corpus").glob("*.xml"))

# ---------------------------------------------------------------------------
# Oracle: the recursive parser


_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_NAME_CHARS = _NAME_START | set("0123456789_.-")


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.i = 0
        self.n = len(text)

    def location(self, at: Optional[int] = None) -> tuple[int, int]:
        index = self.i if at is None else at
        line = self.text.count("\n", 0, index) + 1
        last_nl = self.text.rfind("\n", 0, index)
        return line, index - last_nl

    def error(self, message: str, expected: str = "", at: Optional[int] = None) -> ParseError:
        index = self.i if at is None else at
        line, col = self.location(index)
        found = self.text[index] if index < self.n else "end of input"
        return ParseError(message, line, col, expected, repr(found))

    def at_end(self) -> bool:
        return self.i >= self.n

    def peek(self) -> str:
        return self.text[self.i] if self.i < self.n else ""

    def startswith(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.i)

    def skip_ws(self) -> None:
        while self.i < self.n and self.text[self.i] in " \t\r\n":
            self.i += 1

    def read_name(self, what: str) -> str:
        start = self.i
        if self.i >= self.n or self.text[self.i] not in _NAME_START:
            raise self.error("expected %s" % what, expected="name")
        while self.i < self.n and self.text[self.i] in _NAME_CHARS:
            self.i += 1
        return self.text[start : self.i]

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise self.error("expected %r" % literal, expected=literal)
        self.i += len(literal)


def oracle_parse(text: str, keep_ws: bool = False) -> Term:
    scanner = _Scanner(text.lstrip("\ufeff"))
    _skip_misc(scanner, allow_decl=True)
    if scanner.at_end() or scanner.peek() != "<":
        raise scanner.error("expected the root element", expected="<")
    root = _parse_element(scanner, keep_ws)
    _skip_misc(scanner, allow_decl=False)
    if not scanner.at_end():
        raise scanner.error("unexpected content after the root element")
    return root


def _skip_misc(scanner: _Scanner, allow_decl: bool) -> None:
    seen_decl = not allow_decl
    while True:
        scanner.skip_ws()
        if scanner.startswith("<?xml") and not seen_decl:
            end = scanner.text.find("?>", scanner.i)
            if end < 0:
                raise scanner.error("unterminated XML declaration")
            scanner.i = end + 2
            seen_decl = True
            continue
        if scanner.startswith("<!--"):
            _parse_comment(scanner)
            continue
        if scanner.startswith("<!"):
            raise scanner.error("DOCTYPE and CDATA sections are not supported")
        if scanner.startswith("<?"):
            _parse_pi(scanner)
            continue
        return


def _parse_comment(scanner: _Scanner) -> Term:
    start = scanner.i
    scanner.i += 4
    end = scanner.text.find("-->", scanner.i)
    if end < 0:
        raise scanner.error("unterminated comment", at=start)
    content = scanner.text[scanner.i : end].strip()
    scanner.i = end + 3
    return Compound("comment", (Atom(content),))


def _parse_pi(scanner: _Scanner) -> Term:
    start = scanner.i
    scanner.i += 2
    end = scanner.text.find(">", scanner.i)
    if end < 0:
        raise scanner.error("unterminated processing instruction", at=start)
    stop = end
    if scanner.text[end - 1] == "?" and end - 1 >= scanner.i:
        stop = end - 1
    content = scanner.text[scanner.i : stop].strip()
    scanner.i = end + 1
    return Compound("pi", (Atom(content),))


def _decode_text(scanner: _Scanner, raw: str, at: int) -> str:
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        semi = raw.find(";", i + 1)
        name = raw[i + 1 : semi] if semi > 0 else ""
        if semi < 0 or name not in _ENTITIES:
            raise scanner.error("unknown or malformed entity reference", at=at + i)
        out.append(_ENTITIES[name])
        i = semi + 1
    return "".join(out)


def _parse_attributes(scanner: _Scanner) -> list[Atom]:
    attrs: list[Atom] = []
    seen: set[str] = set()
    while True:
        scanner.skip_ws()
        ch = scanner.peek()
        if ch in (">", "/", "?", ""):
            return attrs
        name_at = scanner.i
        name = scanner.read_name("an attribute name")
        scanner.skip_ws()
        scanner.expect("=")
        scanner.skip_ws()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("expected a quoted attribute value", expected='"')
        scanner.i += 1
        start = scanner.i
        end = scanner.text.find(quote, start)
        if end < 0:
            raise scanner.error("unterminated attribute value", at=start)
        raw = scanner.text[start:end]
        if "<" in raw:
            raise scanner.error("'<' is not allowed in attribute values", at=start + raw.index("<"))
        value = _decode_text(scanner, raw, start)
        if name in seen:  # XML 1.0 WFC: Unique Att Spec, added after the recursive parser
            raise scanner.error("repeated attribute %r" % name, at=name_at)
        seen.add(name)
        scanner.i = end + 1
        attrs.append(attr_atom(name, value))


def _parse_element(scanner: _Scanner, keep_ws: bool) -> Term:
    scanner.expect("<")
    name = scanner.read_name("an element name")
    attrs = _parse_attributes(scanner)
    if scanner.startswith("/>"):
        scanner.i += 2
        return Compound("element", (Atom(name), mk_list(attrs), Atom("[]")))
    scanner.expect(">")
    children: list[Term] = []
    while True:
        if scanner.at_end():
            raise scanner.error("unterminated element %r" % name)
        if scanner.startswith("</"):
            scanner.i += 2
            closing = scanner.read_name("the closing element name")
            if closing != name:
                raise scanner.error(
                    "mismatched closing tag %r for element %r" % (closing, name),
                    expected=name,
                )
            scanner.skip_ws()
            scanner.expect(">")
            return Compound("element", (Atom(name), mk_list(attrs), mk_list(children)))
        if scanner.startswith("<!--"):
            children.append(_parse_comment(scanner))
            continue
        if scanner.startswith("<!"):
            raise scanner.error("DOCTYPE and CDATA sections are not supported")
        if scanner.startswith("<?"):
            children.append(_parse_pi(scanner))
            continue
        if scanner.peek() == "<":
            children.append(_parse_element(scanner, keep_ws))
            continue
        start = scanner.i
        next_lt = scanner.text.find("<", start)
        if next_lt < 0:
            next_lt = scanner.n
        raw = scanner.text[start:next_lt]
        scanner.i = next_lt
        if raw.strip() == "" and not keep_ws:
            continue
        children.append(mk_text(_decode_text(scanner, raw, start)))


# ---------------------------------------------------------------------------
# Oracle: the two-pass serializer


def oracle_check(term: Term) -> None:
    _check_node(term, [], top=True)


def _check_node(term: Term, path: list[int], top: bool = False) -> None:
    term = deref(term)
    if isinstance(term, Compound) and term.name == "element" and len(term.args) == 3:
        name, attrs, children = (deref(a) for a in term.args)
        if not isinstance(name, Atom) or not is_valid_name(name.name):
            raise ValidationError(list(path), "Error: %s was not expected here!" % _show(name))
        attr_items = list_items(attrs)
        if attr_items is None:
            raise ValidationError(
                list(path), "Error in remaining attributes list: %s" % _show(attrs)
            )
        ids: set[str] = set()
        for attr in attr_items:
            attr = deref(attr)
            if not isinstance(attr, Atom) or split_attr(attr) is None:
                raise ValidationError(
                    list(path), "Error in remaining attributes list: %s" % _show(attr)
                )
            attr_id = split_attr(attr)[0]
            if attr_id in ids:  # added after the two-pass serializer, as in the parser
                raise ValidationError(
                    list(path), "Error in attributes list: repeated attribute %s" % _show(Atom(attr_id))
                )
            ids.add(attr_id)
        child_items = list_items(children)
        if child_items is None:
            raise ValidationError(list(path), "Error: %s was not expected here!" % _show(children))
        for index, child in enumerate(child_items):
            path.append(index)
            _check_node(child, path)
            path.pop()
        return
    if top:
        raise ValidationError(list(path), "Error: %s was not expected here!" % _show(term))
    if isinstance(term, Compound) and len(term.args) == 1 and term.name in ("text", "comment", "pi"):
        content = deref(term.args[0])
        if not isinstance(content, Atom):
            raise ValidationError(list(path), "Error: %s was not expected here!" % _show(content))
        value = content.name
        if term.name == "text":
            if value == "":
                raise ValidationError(list(path), "Error: %s was not expected here!" % _show(term))
            return
        if value != value.strip():
            raise ValidationError(list(path), "Error: %s was not expected here!" % _show(term))
        if term.name == "comment" and "-->" in value:
            raise ValidationError(list(path), "Error: %s was not expected here!" % _show(term))
        if term.name == "pi" and ">" in value:
            raise ValidationError(list(path), "Error: %s was not expected here!" % _show(term))
        return
    raise ValidationError(list(path), "Error: %s was not expected here!" % _show(term))


def _show(term: Term) -> str:
    return render_term(term, quoted=True)


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def oracle_serialize(term: Term, pretty: bool = False) -> str:
    oracle_check(term)
    out: list[str] = []
    _emit(deref(term), out, 0, pretty)
    text = "".join(out)
    return text + "\n" if pretty else text


def oracle_fragment(terms: list[Term]) -> str:
    for index, term in enumerate(terms):
        _check_node(term, [index])
    out: list[str] = []
    for term in terms:
        _emit(deref(term), out, 0, False)
    return "".join(out)


def _emit(term: Term, out: list[str], indent: int, pretty: bool) -> None:
    term = deref(term)
    assert isinstance(term, Compound)
    if term.name == "text":
        out.append(_escape_text(_content(term)))
        return
    if term.name == "comment":
        out.append("<!--%s-->" % _content(term))
        return
    if term.name == "pi":
        out.append("<?%s?>" % _content(term))
        return
    name = deref(term.args[0])
    assert isinstance(name, Atom)
    attrs = list_items(deref(term.args[1])) or []
    children = list_items(deref(term.args[2])) or []
    pieces = [name.name]
    for attr in attrs:
        attr_id, value = split_attr(deref(attr))  # type: ignore[misc]
        pieces.append('%s="%s"' % (attr_id, _escape_attr(value)))
    open_tag = "<%s" % " ".join(pieces)
    if not children:
        out.append(open_tag + "/>")
        return
    out.append(open_tag + ">")
    blocky = pretty and all(
        isinstance(deref(c), Compound) and deref(c).name != "text" for c in children
    )
    for child in children:
        if blocky:
            out.append("\n" + "  " * (indent + 1))
        _emit(child, out, indent + 1, pretty)
    if blocky:
        out.append("\n" + "  " * indent)
    out.append("</%s>" % name.name)


def _content(term: Compound) -> str:
    content = deref(term.args[0])
    assert isinstance(content, Atom)
    return content.name


# ---------------------------------------------------------------------------
# Comparison helpers


def parse_outcome(parse, text: str, keep_ws: bool):
    try:
        return ("term", render_term(parse(text, keep_ws=keep_ws)))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col, exc.expected, exc.found)


def outcome(call, *args, **kwargs):
    try:
        return ("text", call(*args, **kwargs))
    except ValidationError as exc:
        return ("error", str(exc), exc.path)


def assert_parses_alike(text: str) -> None:
    for keep_ws in (False, True):
        expected = parse_outcome(oracle_parse, text, keep_ws)
        assert parse_outcome(parse_document, text, keep_ws) == expected, (text, keep_ws)


def assert_serializes_alike(tree: Term) -> None:
    for pretty in (False, True):
        assert outcome(serialize_document, tree, pretty=pretty) == outcome(
            oracle_serialize, tree, pretty=pretty
        )
    assert outcome(check_serializable, tree) == outcome(oracle_check, tree)
    node = deref(tree)
    children = list_items(node.args[2]) if isinstance(node, Compound) and len(node.args) == 3 else None
    fragment = (children or []) + [tree]
    assert outcome(serialize_fragment, fragment) == outcome(oracle_fragment, fragment)


# ---------------------------------------------------------------------------
# Parsing


_INSERTED = '<>/!?-&=" '


def mutations(text: str):
    """*text*, every one-character deletion, adjacent swap and insertion."""
    yield text
    for i in range(len(text)):
        yield text[:i] + text[i + 1 :]
        if i + 1 < len(text):
            yield text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    for i in range(len(text) + 1):
        for ch in _INSERTED:
            yield text[:i] + ch + text[i:]


def test_corpus_and_its_mutations_parse_as_the_recursive_parser_did():
    assert len(CORPUS) == 24
    seen = errors = 0
    for path in CORPUS:
        for text in dict.fromkeys(mutations(path.read_text(encoding="utf-8"))):
            assert_parses_alike(text)
            seen += 1
            errors += parse_outcome(parse_document, text, False)[0] == "error"
    # Both outcomes are exercised in quantity.
    assert seen > 9000 and 1000 < errors < seen - 1000


def test_prolog_and_epilog_edge_cases_parse_as_the_recursive_parser_did():
    for text in (
        "",
        "   ",
        "x<a/>",
        "<a/>x",
        "<a/><b/>",
        "</a>",
        "<a/></a>",
        '<?xml version="1.0"?><?xml again?><a/>',
        '<!-- c --><?xml version="1.0"?><a/>',
        '<?xml version="1.0"?><!-- c --><?xml again?><a/>',
        "<a/><?xml late?>",
        "<a/><?xml late>",
        "<a/><?xml late",
        '<?xml version="1.0"?><?xml again',
        "<?xml unterminated",
        "<!DOCTYPE a><a/>",
        "<a/><!DOCTYPE a>",
        "<a><![CDATA[x]]></a>",
        "<!-- open <a/>",
        "<a/><!-- open",
        "<?pi open <a/>",
        "\ufeff<a/>",
        "<a>",
        "<a><b></a>",
        "<a></a >",
        "<a></ a>",
        "<a x='1'y=\"2\"/>",
        "<a x=1/>",
        "<a x/>",
        "<a x='<'/>",
        "<a x='&bad;'/>",
        "<a>&amp;&lt;&#65;</a>",
        "<a>&amp</a>",
        "<a?>",
        "<a/ >",
        "<1a/>",
        "<a>\n  <b/>\n</a>\n<!-- tail -->\n",
        # Cases a token pattern can get wrong: a name must not end early,
        # tag whitespace is only space, tab, CR and LF, names are ASCII, and
        # a whitespace-only text is what str.strip says it is.
        '<ab="1"/>',
        '<a\xa0x="1"/>',
        '<a x="1"\x0cy="2"/>',
        "<a>\xa0</a>",
        "<a1\u0661/>",
        "<\xe9/>",
        '<a x="a>b"/>',
        "<a x = '1' />",
        "<a><!----></a>",
        "<a><!-- a--b --></a>",
        "<a><!-- one\n  two --></a>",
        "<a><?p x?y></a>",
        # A repeated attribute name is reported at its second occurrence,
        # unless the tag has an earlier fault.
        '<a x="1" x="1"/>',
        "<r><a y='1' x='1' y='2'></a></r>",
        '<a x="1" x="&bad;"/>',
        '<a x="1" x="2" y>',
        '<a x="1" x="2"',
        '<a x="1" X="2"/>',
    ):
        assert_parses_alike(text)


@settings(max_examples=150, deadline=None)
@given(elements())
def test_serialized_random_trees_parse_as_the_recursive_parser_did(tree):
    for pretty in (False, True):
        assert_parses_alike(serialize_document(tree, pretty=pretty))


_TAG_WS = st.text(alphabet=" \t\r\n", max_size=3)


def _write_loosely(draw, node: Term) -> str:
    """*node* as XML with a random quote style per attribute and random
    whitespace inside its tags, which the serializer never writes."""
    node = deref(node)
    if node.name != "element":
        content = deref(node.args[0]).name
        return {"text": _escape_text(content), "comment": "<!--%s-->" % content, "pi": "<?%s?>" % content}[node.name]
    name = deref(node.args[0]).name
    out = ["<" + name]
    for index, attr in enumerate(list_items(node.args[1])):
        attr_id, value = split_attr(attr)
        quote = draw(st.sampled_from("\"'"))
        value = value.replace("&", "&amp;").replace("<", "&lt;")
        value = value.replace(quote, "&quot;" if quote == '"' else "&apos;")
        # Only whitespace can part the element name from the first attribute.
        before = draw(_TAG_WS.filter(bool)) if index == 0 else draw(_TAG_WS)
        out.append("%s%s%s=%s%s%s%s" % (before, attr_id, draw(_TAG_WS), draw(_TAG_WS), quote, value, quote))
    out.append(draw(_TAG_WS))
    children = list_items(node.args[2])
    if not children and draw(st.booleans()):
        return "".join(out) + "/>"
    out.append(">")
    out.extend(_write_loosely(draw, child) for child in children)
    out.append("</%s%s>" % (name, draw(_TAG_WS)))
    return "".join(out)


@settings(max_examples=150, deadline=None)
@given(elements(), st.data())
def test_loosely_written_random_trees_parse_as_the_recursive_parser_did(tree, data):
    text = _write_loosely(data.draw, tree)
    assert_parses_alike(text)
    assert render_term(parse_document(text)) == render_term(tree)


# ---------------------------------------------------------------------------
# Serializing


def _node_count(tree: Term) -> int:
    count, stack = 0, [tree]
    while stack:
        node = deref(stack.pop())
        count += 1
        if isinstance(node, Compound) and node.name == "element":
            stack.extend(list_items(node.args[2]) or [])
    return count


def _break(node: Term, kind: str) -> Term:
    """An invalid (or, for some kinds, still valid) variant of *node*."""
    node = deref(node)
    is_element = isinstance(node, Compound) and node.name == "element"
    if kind == "unbound":
        return fresh_var("N")
    if kind == "empty_text":
        return mk_text("")
    if kind == "comment_close":
        return Compound("comment", (Atom("a --> b"),))
    if kind == "pi_gt":
        return Compound("pi", (Atom("a > b"),))
    if kind == "padded_comment":
        return Compound("comment", (Atom(" a"),))
    if kind == "unbound_content":
        return Compound("text", (fresh_var("C"),))
    if kind == "number":
        return 7
    if kind == "wrong_arity":
        return Compound("text", (Atom("a"), Atom("b")))
    if not is_element:
        return Compound("element", (Atom("9"), Atom("[]"), Atom("[]")))
    name, attrs, children = node.args
    if kind == "bad_name":
        return Compound("element", (Atom("1bad"), attrs, children))
    if kind == "unbound_name":
        return Compound("element", (fresh_var("Name"), attrs, children))
    if kind == "bad_attr":
        items = list_items(attrs) or []
        return Compound("element", (name, mk_list(items + [Atom("novalue")]), children))
    if kind == "repeated_attr":
        items = list_items(attrs) or []
        return Compound("element", (name, mk_list(items + [attr_atom("x", "1"), attr_atom("x", "2")]), children))
    if kind == "attr_term":
        items = list_items(attrs) or []
        return Compound("element", (name, mk_list([mk_text("x")] + items), children))
    if kind == "partial_attrs":
        return Compound("element", (name, mk_list(list_items(attrs) or [], fresh_var("T")), children))
    if kind == "partial_children":
        kids = list_items(children) or []
        return Compound("element", (name, attrs, mk_list(kids, fresh_var("T"))))
    if kind == "bad_children_tail":
        kids = list_items(children) or []
        return Compound("element", (name, attrs, mk_list(kids, Atom("end"))))
    raise AssertionError(kind)


_KINDS = (
    "unbound",
    "empty_text",
    "comment_close",
    "pi_gt",
    "padded_comment",
    "unbound_content",
    "number",
    "wrong_arity",
    "bad_name",
    "unbound_name",
    "bad_attr",
    "attr_term",
    "repeated_attr",
    "partial_attrs",
    "partial_children",
    "bad_children_tail",
)


def _replace(tree: Term, position: int, kind: str) -> Term:
    """*tree* with its node at pre-order *position* replaced by a broken one."""
    counter = [0]

    def rebuild(node: Term) -> Term:
        node = deref(node)
        here = counter[0]
        counter[0] += 1
        if here == position:
            return _break(node, kind)
        if isinstance(node, Compound) and node.name == "element":
            kids = [rebuild(child) for child in list_items(node.args[2]) or []]
            return Compound("element", (node.args[0], node.args[1], mk_list(kids)))
        return node

    return rebuild(tree)


@settings(max_examples=150, deadline=None)
@given(elements())
def test_valid_random_trees_serialize_as_the_two_pass_serializer_did(tree):
    assert_serializes_alike(tree)
    assert outcome(serialize_document, tree)[0] == "text"


@settings(max_examples=300, deadline=None)
@given(elements(), st.sampled_from(_KINDS), st.integers(0, 10_000), st.integers(0, 10_000))
def test_broken_random_trees_fail_as_the_two_pass_serializer_did(tree, kind, first, second):
    count = _node_count(tree)
    broken = _replace(tree, first % count, kind)
    assert_serializes_alike(broken)
    # Two faults: the first in document order is the one reported.
    twice = _replace(broken, second % _node_count(broken), _KINDS[second % len(_KINDS)])
    assert_serializes_alike(twice)


def test_non_element_roots_fail_as_the_two_pass_serializer_did():
    for root in (
        mk_text("a"),
        Compound("comment", (Atom("c"),)),
        fresh_var("Root"),
        Atom("element"),
        3,
        Compound("element", (Atom("a"), Atom("[]"))),
    ):
        assert_serializes_alike(root)
        assert outcome(check_serializable, root)[0] == "error"
