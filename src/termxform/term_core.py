"""Logic-term data model and the XML-node conventions layered on top of it.

A term is one of:

* ``Atom`` -- a symbolic constant; two atoms are equal, and hash alike,
  when their names are equal (atoms are not interned: ``Atom("a") is
  Atom("a")`` is false),
* ``int`` / ``float`` -- host numbers used directly as terms,
* ``Var`` -- a mutable logic variable cell (bound destructively by the solver),
* ``Compound`` -- a functor name applied to one or more argument terms.

Lists are sugar: a proper list is a right-nested chain of ``Compound(".", (head,
tail))`` cells terminated by the empty-list atom ``[]``.  This module alone
reads and builds a cell: :func:`cell` reads one, :func:`list_parts` walks a
list's items, and :func:`mk_list` and :func:`ground_cell` build cells.  The
generic walkers (``unify``, :func:`copy_term`, :func:`term_equal`,
:func:`is_ground`, :func:`is_cyclic`, :func:`term_variables`, the occurs
check) and the generated clause-head matchers still meet a cell as any
compound named ``.`` with two arguments, so a cell of another shape would
have to give them ``name`` and ``args`` as well.

XML documents are represented with four node conventions::

    element(name, [attribute atoms...], [child nodes...])
    text(content_atom)
    comment(content_atom)
    pi(content_atom)

where each attribute entry is a *single* atom of the surface form
``id="value"`` (the ``="`` separator uses code points 61 and 34).
:func:`attr_atom` writes that form and :func:`split_attr` reads it.  An
atom keeps the index of its decoded separator: ``attr_atom`` and the XML
parser (through ``attr_atom``'s builder, as its token pattern has already
checked the name) set it when they build an entry, and ``split_attr``
finds and keeps it the first time it reads any other atom.  A list of
entries may repeat an id; only an XML tag may not.
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "Atom",
    "Var",
    "Compound",
    "Term",
    "TermError",
    "PositionError",
    "EMPTY_LIST",
    "TRUE",
    "CONS",
    "fresh_var",
    "ground_compound",
    "ground_cell",
    "mk_list",
    "cell",
    "list_parts",
    "list_items",
    "is_list",
    "mk_element",
    "mk_text",
    "mk_comment",
    "mk_pi",
    "attr_atom",
    "split_attr",
    "is_valid_name",
    "deref",
    "term_equal",
    "copy_term",
    "render_term",
    "message_text",
    "term_variables",
    "is_cyclic",
    "is_ground",
]


class TermError(ValueError):
    """Raised when a term constructor is given invalid pieces."""


class PositionError(ValueError):
    """A syntax error tagged with its line and column, and what was expected and found there.

    ``xml_io.ParseError`` and ``rule_language.ParseError`` are its two kinds.
    """

    def __init__(self, message: str, line: int, col: int, expected: str = "", found: str = "") -> None:
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__("%s (line %d, column %d)" % (message, line, col))


class Atom:
    """A symbolic constant, identified by its name.

    ``_sep`` is :func:`split_attr`'s verdict on the name as an attribute
    entry: the index of its ``="`` separator, -1 when the name is no
    well-formed entry, or None until asked.  It is a cache of the name,
    not part of the atom's value.
    """

    __slots__ = ("name", "_sep")

    def __init__(self, name: str) -> None:
        self.name = name
        self._sep: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("atom", self.name))

    def __repr__(self) -> str:
        return render_term(self)


class Var:
    """A logic variable: a mutable cell bound destructively during solving.

    Identity is the unique ``id``; ``name`` is only kept for printing.
    ``ref`` is ``None`` while unbound, otherwise the bound term.
    """

    __slots__ = ("name", "id", "ref")

    def __init__(self, name: str, id: int) -> None:
        self.name = name
        self.id = id
        self.ref: Optional[Term] = None

    def __repr__(self) -> str:
        return render_term(self)


class Compound:
    """A functor applied to one or more arguments (arity >= 1).

    Equality is structural (via :func:`term_equal`), so compounds are not
    hashable; use identity-keyed containers where needed.

    ``ground`` true is a promise that the compound holds no ``Var``, bound
    or not, at any depth.  Only :func:`ground_compound` and :func:`ground_cell`
    set it, where that is known without a walk: the XML parser marks every
    node and list cell it builds, and natives mark what they rebuild from a
    marked term's parts.  False says nothing.  Readers that look for variables
    (:func:`copy_term`, :func:`is_ground`, :func:`is_cyclic`, the occurs
    check) stop at a marked compound.
    """

    __slots__ = ("name", "args", "ground")

    def __init__(self, name: str, args: Sequence["Term"]) -> None:
        if not args:
            raise TermError("zero-arity compounds are atoms; use Atom(%r)" % name)
        self.name = name
        self.args = args if type(args) is tuple else tuple(args)
        self.ground = False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Compound) and term_equal(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return render_term(self)


Term = Union[Atom, int, float, Var, Compound]

_new = object.__new__


def ground_compound(name: str, args: tuple) -> Compound:
    """A compound marked ground (see :class:`Compound`).

    For a builder that knows *args* is a non-empty tuple of terms that hold
    no ``Var``: the constructor's checks are skipped, which makes this the
    cheaper way to build, as the XML parser builds every node.
    """
    node = _new(Compound)
    node.name = name
    node.args = args
    node.ground = True
    return node


#: Cons functor used for list cells.
CONS = "."

EMPTY_LIST = Atom("[]")
TRUE = Atom("true")

_var_ids = itertools.count(1)

#: Names accepted for elements and attribute identifiers.  Unanchored, so
#: the XML parser builds its token pattern from it and agrees with
#: construction.
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.-]*")


def fresh_var(name: str = "_") -> Var:
    """Allocate a variable with a process-unique id."""
    return Var(name, next(_var_ids))


def is_valid_name(name: str) -> bool:
    """True iff *name* may serve as an element or attribute identifier."""
    return _NAME_RE.fullmatch(name) is not None


def deref(t: Term) -> Term:
    """Follow bound-variable references to the representative term."""
    while isinstance(t, Var) and t.ref is not None:
        t = t.ref
    return t


# ---------------------------------------------------------------------------
# Lists


def mk_list(items: Iterable[Term], tail: Term = EMPTY_LIST, ground: bool = False) -> Term:
    """Build a cons-list of *items* ending in *tail* (default: proper list).

    *ground* marks every cell (see :func:`ground_compound`): pass it only
    when the items and the tail are known to hold no ``Var``.
    """
    build = ground_compound if ground else Compound
    result = tail
    for item in reversed(items if type(items) is list or type(items) is tuple else list(items)):
        result = build(CONS, (item, result))
    return result


def ground_cell(head: Term, tail: Term) -> Compound:
    """The list cell ``[head|tail]`` marked ground: :func:`ground_compound` for a cell."""
    node = _new(Compound)
    node.name = CONS
    node.args = (head, tail)
    node.ground = True
    return node


def cell(t: Term) -> Optional[tuple[Term, Term]]:
    """The (head, tail) of the list cell *t* dereferences to, its own ``args`` (nothing is built); None for no cell."""
    while type(t) is Var and t.ref is not None:
        t = t.ref
    if type(t) is Compound and t.name == CONS and len(t.args) == 2:
        return t.args
    return None


def list_parts(t: Term) -> tuple[list[Term], Term]:
    """Split a cons chain into (items, tail), the tail dereferenced; tail is [] for proper lists."""
    items: list[Term] = []
    while type(t) is Var and t.ref is not None:
        t = t.ref
    while type(t) is Compound and t.name == CONS and len(t.args) == 2:
        head, t = t.args
        items.append(head)
        while type(t) is Var and t.ref is not None:
            t = t.ref
    return items, t


def is_list(t: Term) -> bool:
    """True iff *t* is a proper list (spine of cons cells ending in [])."""
    return list_items(t) is not None


def list_items(t: Term) -> Optional[list[Term]]:
    """Items of a proper list, or None when the spine is improper."""
    items, tail = list_parts(t)
    if isinstance(tail, Atom) and tail.name == "[]":
        return items
    return None


# ---------------------------------------------------------------------------
# XML-node conventions


def attr_atom(attr_id: str, value: str) -> Atom:
    """Render an (id, value) pair into the single-atom surface form.

    The atom comes with its separator already decoded, so
    :func:`split_attr` never scans it.
    """
    if not is_valid_name(attr_id):
        raise TermError("invalid attribute identifier: %r" % attr_id)
    return _attr_entry(attr_id, value)


def _attr_entry(attr_id: str, value: str) -> Atom:
    """:func:`attr_atom` for an *attr_id* known to be a valid name, as the XML parser's are.

    This is the one place that writes ``id="value"``.
    """
    atom = Atom('%s="%s"' % (attr_id, value))
    atom._sep = len(attr_id)
    return atom


def split_attr(t: Term, name: Optional[str] = None) -> Optional[tuple[str, str]]:
    """Split an attribute atom into (id, value); None when malformed.

    The id is everything before the first ``="``; the value is everything
    between that separator and the final ``"``.  With *name*, an entry whose
    id is not exactly *name* is None as well.  The atom keeps the
    separator's index (or -1 for a malformed text), so its text is scanned
    once at most: never, when :func:`attr_atom` or the XML parser made it.
    """
    if type(t) is Var:
        t = deref(t)
    if type(t) is not Atom:
        return None
    text = t.name
    sep = t._sep
    if sep is None:
        sep = text.find('="')
        if sep <= 0 or not text.endswith('"') or len(text) < sep + 3 or not is_valid_name(text[:sep]):
            sep = -1
        t._sep = sep
    if sep < 0:
        return None
    if name is None:
        return text[:sep], text[sep + 2 : -1]
    if sep != len(name) or not text.startswith(name):
        return None
    return name, text[sep + 2 : -1]


def mk_element(
    name: str,
    attrs: Sequence[tuple[str, str]] = (),
    children: Sequence[Term] = (),
) -> Compound:
    """Build an element node from a name, (id, value) pairs, and child nodes."""
    if not is_valid_name(name):
        raise TermError("invalid element name: %r" % name)
    attr_atoms = [attr_atom(attr_id, value) for attr_id, value in attrs]
    return Compound("element", (Atom(name), mk_list(attr_atoms), mk_list(children)))


def mk_text(content: str) -> Compound:
    """Build a text node."""
    return Compound("text", (Atom(content),))


def mk_comment(content: str) -> Compound:
    """Build a comment node."""
    return Compound("comment", (Atom(content),))


def mk_pi(content: str) -> Compound:
    """Build a processing-instruction node."""
    return Compound("pi", (Atom(content),))


# ---------------------------------------------------------------------------
# Structural operations (all iterative: documents may nest deeply)


def term_equal(a: Term, b: Term) -> bool:
    """Syntactic identity after dereferencing (variables only equal themselves)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        if isinstance(x, Var) or isinstance(y, Var):
            if x is not y:
                return False
        elif isinstance(x, Atom):
            if not (isinstance(y, Atom) and y.name == x.name):
                return False
        elif isinstance(x, (int, float)):
            if type(x) is not type(y) or x != y:
                return False
        elif isinstance(x, Compound):
            if (
                not isinstance(y, Compound)
                or y.name != x.name
                or len(y.args) != len(x.args)
            ):
                return False
            stack.extend(zip(x.args, y.args))
        else:  # pragma: no cover - defensive
            return False
    return True


def copy_term(t: Term, mapping: Optional[dict[int, Var]] = None) -> Term:
    """Copy *t*, renaming unbound variables apart and following bound ones.

    *mapping* (var id -> fresh Var) is shared across calls when supplied, so
    multiple terms can be copied consistently.

    Terms are immutable, so a compound is rebuilt only when an argument's
    copy is a different object: a subterm with no ``Var`` in it is returned
    as it is.  A ``Var`` argument, bound or not, always rebuilds its parent,
    because backtracking may unbind it after the copy is taken.  A first
    walk over a plain stack stops at the first ``Var`` below *t*'s value; a
    value with none is returned without a second walk.  Neither walk enters
    a marked compound (``Compound.ground``), so a document node costs one
    look, however large it is.
    """
    while type(t) is Var and t.ref is not None:
        t = t.ref
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is Compound:
            if not node.ground:
                stack.extend(node.args)
        elif type(node) is Var:
            break
    else:
        return t
    if mapping is None:
        mapping = {}
    # One walk with an explicit stack, since documents may nest deeply.  A
    # frame is [compound, the copies of its arguments so far, rebuild?].
    frames: list[list] = []
    node = t
    while True:
        while type(node) is Var and node.ref is not None:
            node = node.ref
        if type(node) is Compound and not node.ground:
            frames.append([node, [], False])
            node = node.args[0]
            continue
        if type(node) is Var:
            copy = mapping.get(node.id)
            if copy is None:
                copy = mapping[node.id] = fresh_var(node.name)
        else:
            copy = node
        # Hand the copy to its parent; finish every compound that completes.
        while frames:
            frame = frames[-1]
            compound, copies = frame[0], frame[1]
            args = compound.args
            if copy is not args[len(copies)]:
                frame[2] = True
            copies.append(copy)
            if len(copies) < len(args):
                node = args[len(copies)]
                break
            frames.pop()
            copy = Compound(compound.name, copies) if frame[2] else compound
        else:
            return copy


def term_variables(t: Term) -> list[Var]:
    """Unbound variables of *t* in first-occurrence order."""
    seen: set[int] = set()
    result: list[Var] = []
    stack = [t]
    while stack:
        node = deref(stack.pop())
        if isinstance(node, Var):
            if node.id not in seen:
                seen.add(node.id)
                result.append(node)
        elif isinstance(node, Compound):
            stack.extend(reversed(node.args))
    return result


def is_cyclic(t: Term) -> bool:
    """True iff *t* contains itself, as ``X = f(X)`` without the occurs check makes.

    A cyclic term has no finite text.  A walk over an explicit stack keeps
    the compounds on the current path; meeting one of them again is a cycle.
    A cycle passes through a bound ``Var``, so the walk does not enter a
    marked compound.
    """
    on_path: set[int] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, leaving = stack.pop()
        if leaving:
            on_path.discard(id(node))
            continue
        node = deref(node)
        if isinstance(node, Compound) and not node.ground:
            if id(node) in on_path:
                return True
            on_path.add(id(node))
            stack.append((node, True))
            stack.extend((arg, False) for arg in node.args)
    return False


def is_ground(t: Term) -> bool:
    """True iff *t* holds no unbound variable; stops at the first one and skips marked compounds."""
    stack = [t]
    while stack:
        node = deref(stack.pop())
        if isinstance(node, Var):
            return False
        if isinstance(node, Compound) and not node.ground:
            stack.extend(node.args)
    return True


# ---------------------------------------------------------------------------
# Rendering

#: One character of a symbolic atom such as ``:-`` or ``\==``, as a pattern
#: class.  A run of them reads as one atom, so the rule reader's lexer and
#: ``atom_needs_quotes`` both build on it.
SYMBOL_CHAR = r"[+\-*/\\^<>=~:?@#&$]"

_UNQUOTED_ALPHA = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_UNQUOTED_SYMBOLIC = re.compile(SYMBOL_CHAR + r"+\Z")


def atom_needs_quotes(name: str) -> bool:
    """True when *name* must be written single-quoted to read back as an atom."""
    if name in ("[]", "!", ";"):
        return False
    if _UNQUOTED_ALPHA.match(name):
        return False
    if _UNQUOTED_SYMBOLIC.match(name):
        return False
    return True


def _atom_text(name: str, quoted: bool) -> str:
    if quoted and atom_needs_quotes(name):
        return "'%s'" % name.replace("'", "''")
    return name


def render_term(t: Term, quoted: bool = True) -> str:
    """Canonical text for *t*, readable back by the rule-language reader.

    Compounds are written functionally (``f(a,b)``) except proper/partial
    lists, which use bracket sugar. With ``quoted=False`` atoms are written
    bare (diagnostic style).
    """
    parts: list[str] = []
    # Work stack holds either terms to render or literal glue strings.
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node = deref(item)  # type: ignore[arg-type]
        if isinstance(node, Atom):
            parts.append(_atom_text(node.name, quoted))
        elif isinstance(node, bool):  # pragma: no cover - defensive
            parts.append(str(int(node)))
        elif isinstance(node, int):
            parts.append(str(node))
        elif isinstance(node, float):
            parts.append(repr(node))
        elif isinstance(node, Var):
            parts.append("_%d" % node.id if node.name == "_" else "_%s%d" % (node.name, node.id))
        elif isinstance(node, Compound):
            items, tail = list_parts(node)
            if items:
                parts.append("[")
                if isinstance(tail, Atom) and tail.name == "[]":
                    stack.append("]")
                else:
                    stack.append("]")
                    stack.append(tail)
                    stack.append("|")
                first = True
                for element in reversed(items):
                    if not first:
                        stack.append(",")
                    stack.append(element)
                    first = False
                # Elements were pushed in reverse, so they pop in order.
                continue
            parts.append(_atom_text(node.name, quoted=True))
            parts.append("(")
            stack.append(")")
            for index in range(len(node.args) - 1, -1, -1):
                stack.append(node.args[index])
                if index:
                    stack.append(",")
        else:  # pragma: no cover - defensive
            raise TermError("not a term: %r" % (node,))
    return "".join(parts)


def message_text(t: Term) -> str:
    """:func:`render_term`'s quoted text of *t*, for a message that names it.

    Python writes no integer of more than ``sys.get_int_max_str_digits()``
    digits, so a term that holds one is named by a note instead, and the
    message is still made.
    """
    try:
        return render_term(t, quoted=True)
    except ValueError:
        return "<a term with an integer of more than %d digits>" % sys.get_int_max_str_digits()
