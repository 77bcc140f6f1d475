"""XML parsing and serialization over the term representation.

Documents map to terms as ``element(Name, Attributes, Children)`` with
attributes as single atoms of the shape ``name="value"`` and children drawn
from nested elements, ``text(Atom)``, ``comment(Atom)``, and ``pi(Atom)``.
The parser builds each attribute atom with ``term_core.attr_atom``'s
builder, so it arrives with its ``="`` separator decoded, and it marks
every node and list cell it builds as ground (``term_core.ground_compound``
and ``term_core.ground_cell``),
so readers that look for variables stop at a parsed node.  The dialect is
deliberately small: the five predefined entities only, no DOCTYPE, no
CDATA, names restricted to ASCII letters, digits, ``_``, ``.``, and ``-``
(starting with a letter), and no attribute name twice in one tag (XML
1.0, WFC: Unique Att Spec).  The parser rejects a repeated name with a
ParseError that names it, and the serializer an element whose attribute
list repeats an id with a ValidationError; each keeps the names seen in a
set, so the check is linear in the tag.

Whitespace-only text nodes are dropped by default (``keep_ws=True`` retains
them).  Comment and processing-instruction content is stored trimmed.
An XML declaration is consumed and discarded; comments and processing
instructions outside the root element are likewise discarded.
"""

from __future__ import annotations

import re
from typing import Optional

from .term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    PositionError,
    Term,
    Var,
    _NAME_RE,
    _attr_entry,
    deref,
    ground_cell,
    ground_compound,
    is_valid_name,
    list_parts,
    message_text,
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


class ParseError(PositionError):
    """A position-tagged XML syntax error."""


class ValidationError(ValueError):
    """A tree that cannot be serialized, with the path to the offender.

    ``path`` is the list of zero-based child indexes leading from the root
    to the rejected node.
    """

    def __init__(self, path: list[int], message: str) -> None:
        self.path = path
        super().__init__("%s (at path %s)" % (message, path))


# The token pattern.  Tag whitespace is space, tab, CR and LF only, and a
# name is never followed by a name character: without that lookahead
# ``<ab="1"/>`` could match as element ``a`` with attribute ``b``, and a long
# name followed by ``=`` would backtrack quadratically (there are no
# possessive quantifiers before Python 3.11).  Text takes every character
# but "<", so the one-character catch-all ``bad`` matches a "<" that starts
# no well-formed token.
_WS = "[ \t\r\n]*"
_NAME = "(?:%s)(?![A-Za-z0-9_.-])" % _NAME_RE.pattern
_ATTR = _WS + "(" + _NAME + ")" + _WS + "=" + _WS + "(\"[^\"<]*\"|'[^'<]*')"
_ATTR_RE = re.compile(_ATTR)
_TOKEN_RE = re.compile(
    r"(?P<text>[^<]+)"
    r"|<(?P<name>" + _NAME + ")(?P<attrs>(?:" + _ATTR + ")*)" + _WS + r"(?P<tag>/?>)"
    r"|</(?P<end>" + _NAME + ")" + _WS + ">"
    r"|<!--(?P<comment>.*?)-->"
    r"|<\?(?P<pi>[^>]*)>"
    r"|(?P<bad>.)",
    re.DOTALL,
)
_REF_RE = re.compile("&(%s);" % "|".join(_ENTITIES))
_BAD_REF_RE = re.compile("&(?!(?:%s);)" % "|".join(_ENTITIES))


def parse_document(text: str, keep_ws: bool = False) -> Term:
    """Parse an XML document into its element term.

    Raises ParseError on malformed input (including DOCTYPE and CDATA,
    which this dialect does not support).  One loop takes the matches of
    one token pattern in turn, after Cameron's REX shallow parser: its
    alternatives are the tokens (text, a start or empty tag with its
    attributes, an end tag, a comment, a PI, and a one-character catch-all
    where the input stops being well formed).  Open elements wait on an
    explicit stack, so nesting depth is bounded by memory alone.  A token
    the loop cannot take goes to ``_error``, which re-reads it for the
    message.
    """
    return _parse(text.lstrip("\ufeff"), 0, keep_ws, True)


def _parse(text: str, start: int, keep_ws: bool, decl: bool) -> Term:
    """Parse *text* from *start*; *decl* is true while an XML declaration may come."""
    # Open elements as (name, attribute list, children); kids is the
    # innermost one's children, None in prolog and epilog.
    stack: list[tuple[Atom, Term, list[Term]]] = []
    kids: Optional[list[Term]] = None
    root: Optional[Term] = None
    # One atom per distinct element name or text: a document has few, and
    # fewer objects also mean fewer passes of the cyclic garbage collector.
    # Every compound is built marked ground.
    atoms: dict[str, Atom] = {}
    for m in _TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        if kind == "text":
            raw = m.group()
            if kids is None:
                rest = raw.lstrip(" \t\r\n")
                if rest:
                    raise _error(text, m.end() - len(rest), stack, root, decl)
            elif keep_ws or raw.strip():
                if "&" in raw:
                    raw = _decode(raw)
                    if raw is None:
                        raise _error(text, m.start(), stack, root, decl)
                atom = atoms.get(raw)
                if atom is None:
                    atom = atoms[raw] = Atom(raw)
                kids.append(ground_compound("text", (atom,)))
        elif kind == "tag":
            if kids is None and root is not None:
                raise _error(text, m.start(), stack, root, decl)
            name, attrs, tag = m.group("name", "attrs", "tag")
            atom = atoms.get(name)
            if atom is None:
                atom = atoms[name] = Atom(name)
            attr_list = EMPTY_LIST
            if attrs:
                seen = set()
                for attr_name, quoted in reversed(_ATTR_RE.findall(attrs)):
                    if attr_name in seen:  # a repeated name: _error reports the first in the text
                        raise _error(text, m.start(), stack, root, decl)
                    seen.add(attr_name)
                    value = quoted[1:-1]
                    if "&" in value:
                        value = _decode(value)
                        if value is None:
                            raise _error(text, m.start(), stack, root, decl)
                    attr_list = ground_cell(_attr_entry(attr_name, value), attr_list)
            if len(tag) == 1:
                kids = []
                stack.append((atom, attr_list, kids))
                continue
            node = ground_compound("element", (atom, attr_list, EMPTY_LIST))
            if kids is None:
                root = node
            else:
                kids.append(node)
        elif kind == "end":
            if kids is None or m.group("end") != stack[-1][0].name:
                raise _error(text, m.start(), stack, root, decl)
            atom, attr_list, children = stack.pop()
            child_list = EMPTY_LIST
            for child in reversed(children):
                child_list = ground_cell(child, child_list)
            node = ground_compound("element", (atom, attr_list, child_list))
            if stack:
                kids = stack[-1][2]
                kids.append(node)
            else:
                kids = None
                root = node
        elif kind == "comment":
            if kids is not None:
                kids.append(ground_compound("comment", (Atom(m.group("comment").strip()),)))
        elif kind == "pi":
            content = m.group("pi")
            if kids is None and root is None and decl and content.startswith("xml"):
                # The declaration ends at "?>", which may lie past this
                # token's ">".  Nothing is open or built yet, so the parse
                # starts over after it.
                close = text.find("?>", m.start())
                if close < 0:
                    raise _error(text, m.start(), stack, root, decl)
                return _parse(text, close + 2, keep_ws, False)
            if kids is not None:
                if content.endswith("?"):
                    content = content[:-1]
                kids.append(ground_compound("pi", (Atom(content.strip()),)))
        else:
            raise _error(text, m.start(), stack, root, decl)
    if stack or root is None:
        raise _error(text, len(text), stack, root, decl)
    return root


def _decode(raw: str) -> Optional[str]:
    """*raw* with its entity references replaced; None if an ``&`` starts none."""
    value, count = _REF_RE.subn(_ref_char, raw)
    return value if count == raw.count("&") else None


def _ref_char(ref: re.Match) -> str:
    return _ENTITIES[ref.group(1)]


def _error(
    text: str, pos: int, stack: list, root: Optional[Term], decl: bool
) -> ParseError:
    """The ParseError for the construct at *pos*, which the token loop rejected.

    The construct is re-read one step at a time from *pos*, so the message,
    line, column, ``expected`` and ``found`` name the first fault in it.
    *stack*, *root* and *decl* are the loop's state at *pos*.
    """

    def fail(message: str, at: int, expected: str = "") -> ParseError:
        line = text.count("\n", 0, at) + 1
        col = at - text.rfind("\n", 0, at)
        found = text[at] if at < len(text) else "end of input"
        return ParseError(message, line, col, expected, repr(found))

    def skip_ws(i: int) -> int:
        while text[i : i + 1] in (" ", "\t", "\r", "\n"):
            i += 1
        return i

    if pos == len(text):
        if stack:
            return fail("unterminated element %r" % stack[-1][0].name, pos)
        return fail("expected the root element", pos, "<")
    if text.startswith("<!--", pos):
        return fail("unterminated comment", pos)
    if text.startswith("<!", pos):
        return fail("DOCTYPE and CDATA sections are not supported", pos)
    if text.startswith("<?", pos):
        if decl and not stack and root is None and text.startswith("<?xml", pos):
            return fail("unterminated XML declaration", pos)
        return fail("unterminated processing instruction", pos)
    if not stack and root is not None:
        return fail("unexpected content after the root element", pos)
    if not stack and text[pos] != "<":
        return fail("expected the root element", pos, "<")
    if stack and text.startswith("</", pos):
        name = _NAME_RE.match(text, pos + 2)
        if name is None:
            return fail("expected the closing element name", pos + 2, "name")
        opened = stack[-1][0].name
        if name.group() != opened:
            return fail("mismatched closing tag %r for element %r" % (name.group(), opened), name.end(), opened)
        return fail("expected '>'", skip_ws(name.end()), ">")
    if text[pos] != "<":  # a text with a bad entity reference
        return fail("unknown or malformed entity reference", _BAD_REF_RE.search(text, pos).start())
    name = _NAME_RE.match(text, pos + 1)
    if name is None:
        return fail("expected an element name", pos + 1, "name")
    i = skip_ws(name.end())
    seen: set[str] = set()
    while text[i : i + 1] not in ("", ">", "/", "?"):
        name = _NAME_RE.match(text, i)
        if name is None:
            return fail("expected an attribute name", i, "name")
        i = skip_ws(name.end())
        if not text.startswith("=", i):
            return fail("expected '='", i, "=")
        i = skip_ws(i + 1)
        quote = text[i : i + 1]
        if quote not in ("'", '"'):
            return fail("expected a quoted attribute value", i, '"')
        close = text.find(quote, i + 1)
        if close < 0:
            return fail("unterminated attribute value", i + 1)
        raw = text[i + 1 : close]
        if "<" in raw:
            return fail("'<' is not allowed in attribute values", i + 1 + raw.index("<"))
        ref = _BAD_REF_RE.search(raw)
        if ref is not None:
            return fail("unknown or malformed entity reference", i + 1 + ref.start())
        if name.group() in seen:
            return fail("repeated attribute %r" % name.group(), name.start())
        seen.add(name.group())
        i = skip_ws(close + 1)
    return fail("expected '>'", i, ">")


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
_BAD_ATTRS = "Error in remaining attributes list: %s"
_REPEATED_ATTR = "Error in attributes list: repeated attribute %s"


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
    ids: set[str] = set()  # the attribute ids of the element being written
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, path, indent = item
        while type(node) is Var and node.ref is not None:
            node = node.ref
        # _is_element and its dereferencing, inline: this is the per-node path.
        if type(node) is Compound and node.name == "element" and len(node.args) == 3:
            name, attrs, children = node.args
            while type(name) is Var and name.ref is not None:
                name = name.ref
            if type(name) is not Atom or not is_valid_name(name.name):
                raise _reject(path, name)
            # An improper attribute list is reported before a bad entry in
            # it; a bad entry is a malformed one or one whose id an earlier
            # entry has.
            entries, rest = list_parts(attrs)
            if not (type(rest) is Atom and rest.name == "[]"):
                raise _reject(path, attrs, _BAD_ATTRS)
            pieces = [name.name]
            ids.clear()
            for entry in entries:
                pair = split_attr(entry)
                if pair is None:
                    raise _reject(path, entry, _BAD_ATTRS)
                if pair[0] in ids:
                    raise _reject(path, Atom(pair[0]), _REPEATED_ATTR)
                ids.add(pair[0])
                pieces.append('%s="%s"' % (pair[0], _escape_attr(pair[1])))
            child_items, rest = list_parts(children)
            if not (type(rest) is Atom and rest.name == "[]"):
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
    return ValidationError(indexes[::-1], message % message_text(term))


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
