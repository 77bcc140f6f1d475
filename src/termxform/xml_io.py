"""XML parsing and serialization over the term representation.

Documents map to terms as ``element(Name, Attributes, Children)`` with
attributes as single atoms of the shape ``name="value"`` and children drawn
from nested elements, ``text(Atom)``, ``comment(Atom)``, and ``pi(Atom)``.
The dialect is deliberately small: the five predefined entities only, no
DOCTYPE, no CDATA, and names restricted to ASCII letters, digits, ``_``,
``.``, and ``-`` (starting with a letter).

Whitespace-only text nodes are dropped by default (``keep_ws=True`` retains
them).  Comment and processing-instruction content is stored trimmed.
An XML declaration is consumed and discarded; comments and processing
instructions outside the root element are likewise discarded.
"""

from __future__ import annotations

from typing import Optional

from .term_core import (
    Atom,
    Compound,
    Term,
    attr_atom,
    deref,
    is_valid_name,
    list_items,
    mk_list,
    mk_text,
    render_term,
    split_attr,
)

__all__ = [
    "ParseError",
    "ValidationError",
    "parse_document",
    "serialize_document",
    "serialize_fragment",
    "check_serializable",
]

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_NAME_CHARS = _NAME_START | set("0123456789_.-")


class ParseError(ValueError):
    """A position-tagged XML syntax error."""

    def __init__(self, message: str, line: int, col: int, expected: str = "", found: str = "") -> None:
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__("%s (line %d, column %d)" % (message, line, col))


class ValidationError(ValueError):
    """A tree that cannot be serialized, with the path to the offender.

    ``path`` is the list of zero-based child indexes leading from the root
    to the rejected node.
    """

    def __init__(self, path: list[int], message: str) -> None:
        self.path = path
        super().__init__("%s (at path %s)" % (message, path))


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


def parse_document(text: str, keep_ws: bool = False) -> Term:
    """Parse an XML document into its element term.

    Raises ParseError on malformed input (including DOCTYPE and CDATA,
    which this dialect does not support).
    """
    scanner = _Scanner(text.lstrip("﻿"))
    _skip_misc(scanner, allow_decl=True)
    if scanner.at_end() or scanner.peek() != "<":
        raise scanner.error("expected the root element", expected="<")
    root = _parse_element(scanner, keep_ws)
    _skip_misc(scanner, allow_decl=False)
    if not scanner.at_end():
        raise scanner.error("unexpected content after the root element")
    return root


def _skip_misc(scanner: _Scanner, allow_decl: bool) -> None:
    """Skip whitespace, comments, and PIs (and at most one XML declaration)."""
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
    while True:
        scanner.skip_ws()
        ch = scanner.peek()
        if ch in (">", "/", "?", ""):
            return attrs
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
# Serialization


def check_serializable(term: Term) -> None:
    """Raise ValidationError unless *term* serializes to well-formed XML."""
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
        for attr in attr_items:
            attr = deref(attr)
            if not isinstance(attr, Atom) or split_attr(attr) is None:
                raise ValidationError(
                    list(path), "Error in remaining attributes list: %s" % _show(attr)
                )
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


def serialize_document(term: Term, pretty: bool = False) -> str:
    """Serialize an element term to XML text.

    The tree is validated first; nothing is emitted for invalid input.
    """
    check_serializable(term)
    out: list[str] = []
    _emit(deref(term), out, 0, pretty)
    text = "".join(out)
    return text + "\n" if pretty else text


def serialize_fragment(terms: list[Term]) -> str:
    """Serialize a sequence of nodes without requiring an element root."""
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
