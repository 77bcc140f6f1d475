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
    EMPTY_LIST,
    Atom,
    Compound,
    Term,
    _NAME_RE,
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

    def error(self, message: str, expected: str = "", at: Optional[int] = None) -> ParseError:
        index = self.i if at is None else at
        line = self.text.count("\n", 0, index) + 1
        col = index - self.text.rfind("\n", 0, index)
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
        match = _NAME_RE.match(self.text, self.i)
        if match is None:
            raise self.error("expected %s" % what, expected="name")
        self.i = match.end()
        return match.group()

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise self.error("expected %r" % literal, expected=literal)
        self.i += len(literal)


def parse_document(text: str, keep_ws: bool = False) -> Term:
    """Parse an XML document into its element term.

    Raises ParseError on malformed input (including DOCTYPE and CDATA,
    which this dialect does not support).  One loop reads the whole text;
    open elements wait on an explicit stack, so nesting depth is bounded
    by memory alone.
    """
    scanner = _Scanner(text.lstrip("\ufeff"))
    # Open elements as (name, attributes, children); empty in prolog and epilog.
    stack: list[tuple[str, list[Atom], list[Term]]] = []
    root: Optional[Term] = None
    seen_decl = False
    while True:
        if stack:
            if scanner.at_end():
                raise scanner.error("unterminated element %r" % stack[-1][0])
        else:
            scanner.skip_ws()
            if root is None and not seen_decl and scanner.startswith("<?xml"):
                end = scanner.text.find("?>", scanner.i)
                if end < 0:
                    raise scanner.error("unterminated XML declaration")
                scanner.i = end + 2
                seen_decl = True
                continue
        if scanner.startswith("<!--"):
            node = _parse_comment(scanner)
        elif scanner.startswith("<!"):
            raise scanner.error("DOCTYPE and CDATA sections are not supported")
        elif scanner.startswith("<?"):
            node = _parse_pi(scanner)
        elif not stack and root is not None:
            if not scanner.at_end():
                raise scanner.error("unexpected content after the root element")
            return root
        elif not stack and scanner.peek() != "<":
            raise scanner.error("expected the root element", expected="<")
        elif stack and scanner.startswith("</"):
            scanner.i += 2
            name, attrs, children = stack[-1]
            closing = scanner.read_name("the closing element name")
            if closing != name:
                raise scanner.error(
                    "mismatched closing tag %r for element %r" % (closing, name),
                    expected=name,
                )
            scanner.skip_ws()
            scanner.expect(">")
            stack.pop()
            node = Compound("element", (Atom(name), mk_list(attrs), mk_list(children)))
        elif scanner.peek() == "<":
            scanner.i += 1
            name = scanner.read_name("an element name")
            attrs = _parse_attributes(scanner)
            if not scanner.startswith("/>"):
                scanner.expect(">")
                stack.append((name, attrs, []))
                continue
            scanner.i += 2
            node = Compound("element", (Atom(name), mk_list(attrs), EMPTY_LIST))
        else:
            start = scanner.i
            next_lt = scanner.text.find("<", start)
            if next_lt < 0:
                next_lt = scanner.n
            raw = scanner.text[start:next_lt]
            scanner.i = next_lt
            if raw.strip() == "" and not keep_ws:
                continue
            node = mk_text(_decode_text(scanner, raw, start))
        if stack:
            stack[-1][2].append(node)
        elif node.name == "element":
            root = node  # comments and PIs outside the root are dropped


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


# ---------------------------------------------------------------------------
# Serialization


def check_serializable(term: Term) -> None:
    """Raise ValidationError unless *term* serializes to well-formed XML."""
    _write(term, [], top=True)


def serialize_document(term: Term, pretty: bool = False) -> str:
    """Serialize an element term to XML text.

    Invalid input raises ValidationError; no text is returned for it.
    """
    out: list[str] = []
    _write(term, out, pretty, top=True)
    text = "".join(out)
    return text + "\n" if pretty else text


def serialize_fragment(terms: list[Term]) -> str:
    """Serialize a sequence of nodes without requiring an element root."""
    out: list[str] = []
    for index, term in enumerate(terms):
        _write(term, out, path=(index, None))
    return "".join(out)


# A node's path as a link to its parent's: (child index, parent path), None
# at the root.  The index list is built only for a ValidationError.
_Path = Optional[tuple[int, "_Path"]]
_UNEXPECTED = "Error: %s was not expected here!"


def _write(
    term: Term, out: list[str], pretty: bool = False, path: _Path = None, top: bool = False
) -> None:
    """Check *term* and append its XML to *out*, in one pre-order walk.

    Each node is checked just before it is written, so the first node
    rejected is the first in document order; callers that only check drop
    *out*.  *top* demands an element at the root.  Pending nodes and closing
    tags wait on an explicit stack, so depth is bounded by memory alone.
    """
    if top and not _is_element(deref(term)):
        raise _reject(path, term)
    stack: list = [(term, path, 0)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, path, indent = item
        node = deref(node)
        if _is_element(node):
            name, attrs, children = deref(node.args[0]), deref(node.args[1]), deref(node.args[2])
            if not isinstance(name, Atom) or not is_valid_name(name.name):
                raise _reject(path, name)
            attr_items = list_items(attrs)
            if attr_items is None:
                raise _reject(path, attrs, "Error in remaining attributes list: %s")
            pieces = [name.name]
            for attr in attr_items:
                pair = split_attr(attr)
                if pair is None:
                    raise _reject(path, attr, "Error in remaining attributes list: %s")
                pieces.append('%s="%s"' % (pair[0], _escape_attr(pair[1])))
            child_items = list_items(children)
            if child_items is None:
                raise _reject(path, children)
            if not child_items:
                out.append("<%s/>" % " ".join(pieces))
                continue
            out.append("<%s>" % " ".join(pieces))
            blocky = pretty and all(
                isinstance(deref(c), Compound) and deref(c).name != "text" for c in child_items
            )
            before = "\n" + "  " * (indent + 1) if blocky else ""
            stack.append("%s</%s>" % (before[:-2], name.name))
            for index in range(len(child_items) - 1, -1, -1):
                stack.append((child_items[index], (index, path), indent + 1))
                if blocky:
                    stack.append(before)
        elif isinstance(node, Compound) and len(node.args) == 1 and node.name in ("text", "comment", "pi"):
            content = deref(node.args[0])
            if not isinstance(content, Atom):
                raise _reject(path, content)
            value = content.name
            if node.name == "text":
                if value == "":
                    raise _reject(path, node)
                out.append(_escape_text(value))
            elif value != value.strip() or ("-->" if node.name == "comment" else ">") in value:
                raise _reject(path, node)
            else:
                out.append(("<!--%s-->" if node.name == "comment" else "<?%s?>") % value)
        else:
            raise _reject(path, node)


def _is_element(term: Term) -> bool:
    return isinstance(term, Compound) and term.name == "element" and len(term.args) == 3


def _reject(path: _Path, term: Term, message: str = _UNEXPECTED) -> ValidationError:
    indexes: list[int] = []
    while path is not None:
        index, path = path
        indexes.append(index)
    return ValidationError(indexes[::-1], message % render_term(term, quoted=True))


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
