'''The built-in rule set loaded ahead of every user program.

It defines the navigation and transformation operators (``/ ^ @ ? id # c
atts sort sortbyName child descendant copy copy_of level last count name
distinct``), tree editing (``removeElement``, ``remove``,
``removeAttribute``, ``insertBefore``, ``insertAfter``), the attribute-list
check ``checkAttributes/1``, and general helpers (``quicksort/3``,
``nth/3``, ``church/2``, ``concat``, ``equals/2``, ...).

Ten prelude predicates are native, so that each has one
implementation: ``traverse/2`` is the template walk in
:mod:`.template_engine`; ``checkSerializable/1`` (registered here) is the
check-and-write walk of :mod:`.xml_io`'s serializer; ``sortChildren/3``,
the body of ``E sort Att``, and ``leStrings/2`` (both registered here)
order text in code-point order, as the rule-level ``lexicalle/2`` does
over code lists; the navigation natives registered here do the work
of ``E ^ Name`` (``descendantOrSelf/3``, a walk over a stack of its own)
and ``E @ Att`` (``attributeValue/3`` reads the entry and ``textValue/2``
compares it), each in one call; and so do the tree edits registered here,
``insertBefore/4``, ``insertAfter/4`` (one native, by anchor or by
position) and ``removeAttribute/3``.  ``E / Child`` matches its element
in the clause head.  An open list grows by the machine's helper
``_grow``, one cell at one step, and ``E ^ Name`` binds an unbound node to
``element(N, A, C)`` of fresh variables, at one step, and then reads it as
any element.  ``nodes/2`` and ``flatten/2`` are one difference-list walk,
and ``concat/2`` appends in front of the rest's result, so each builds a
cell once.  ``Tree level Node`` and ``nth/3`` count positions with an
integer (``childAt/4``), so ``position/3``, which reads positions through
``nth/3``, is linear in the children it reads; ``church/2`` converts
between church numerals and integers for a user program, and no other
prelude predicate calls it.  ``E # N``, ``E ? N`` and ``E c N`` share
``nthNode/5``.  The operators are the default table of
:mod:`.rule_language`; the prelude declares none.

This module also converts a flat attribute-only document into a list of
facts (one relation row per child element).
'''

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from .logic_engine import Clause, EvalError, Program, Solver, _append, _builtin, _grow, _num_text
from .rule_language import parse_program
from .term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    Term,
    Var,
    cell,
    deref,
    fresh_var,
    ground_compound,
    is_ground,
    is_list,
    list_items,
    mk_list,
    split_attr,
)
from .xml_io import ValidationError, _write

__all__ = [
    "PRELUDE_SRC",
    "prelude_program",
    "load_prelude",
    "tree_to_relation",
]


PRELUDE_SRC = """\
% Navigation and transformation operators (declared in the
% default operator table of rule_language).

transform(element(_,_,Children) / Child,
          element(Child,A,C)):-
  member(element(Child,A,C),Children).
transform(X / Child,Y):-transform(X,X2),
  transform(X2 / Child,Y).

transform(_ ^ Name,_):-
  (var(Name);list(Name)), !, fail.
transform(E ^ Name,X):-
  descendantOrSelf(E,Name,X).
transform(X ^ Name,Y):-
  transform(X,X2),
  transform(X2 ^ Name,Y).

transform(element(_,AttList,_) @ Att,X):-
  attributeValue(AttList,Att,V), !,
  textValue(X,V).
transform(X @ Att, Y):-
  nonvar(X), transform(X,X2),
  transform(X2 @ Att, Y).

transform(atts element(_,L,_),Y):-
  !, findall(X,selectattribute(X,L),Y),
  Y=[_|_].
transform(atts E,Y):-
  transform(E,E2),
  transform(atts E2,Y).

transform(X ? Att1):-
  atom(Att1), transform(atts X,X2),
  member(Att1,X2).

transform(element(_,L,_) id S,Attrib):-
  attribute(L,Attrib,V), textValue(S,V).
transform(X id S,Id):-
  nonvar(X), transform(X,X2),
  transform(X2 id S,Id).

transform(element(_,_,L) # N,Y):-
  nthNode(text(X),X,L,N,Y).
transform(X # N,Y):-
  transform(X,X2), transform(X2 # N,Y).

transform(element(_,_,L) ? N,Y):-
  nthNode(pi(X),X,L,N,Y).
transform(X ? N,Y):-
  transform(X,X2),
  transform(X2 ? N,Y).

transform(element(_,_,L) c N,Y):-
  nthNode(comment(X),X,L,N,Y).
transform(X c N,Y):-
  transform(X,X2),
  transform(X2 c N,Y).

transform(element(N,A,L)
          sort AttName,
          element(N,A,Y)):-
  sortChildren(L,AttName,Y).

transform(sortbyName element(N,A,L),
          element(N,A,Y)):-
  quicksort(L,le,Y).

transform(child element(_,_,C),Y):-
  member(Y,C).
transform(child X,Y):-
  transform(X,X2),
  transform(child X2,Y).

transform(descendant X,Y):-
  transform(child X,Y).
transform(descendant X,Y):-
  transform(child X,Y2),
  transform(descendant Y2,Y).

transform(copy element(N,_,_),
          element(N,[],[])).
transform(copy text(T),text(T)).
transform(copy comment(C),
          comment(C)).
transform(copy pi(P),pi(P)).
transform(copy X,Y):-
  transform(X,X2),
  transform(copy X2,Y).

transform(copy_of X,X):-
  X=element(_,_,_);
  X=text(_);
  X=comment(_); X=pi(_).
transform(copy_of X,Y):-transform(X,Y).

transform(Tree level Node,Y):-
  level0(Tree,Node,Y).
transform(Tree level Node,Y):-
  transform(Tree,Tree2),
  transform(Node,Node2),
  level0(Tree2,Node2,Y).

transform(last element(_,_,C),Y):-
  last(C,Y).
transform(last X,Y):-
  transform(X,X2),
  transform(last X2,Y).

transform(count element(_,_,C),Len):-
  length(C,Len).
transform(count X,Y):-
  transform(X,X2),
  transform(count X2,Y).

transform(name element(Name,_,_),_):-
  (var(Name);list(Name)), !, fail.
transform(name element(Name,_,_),Name).
transform(name X,Y):-
  transform(X,X2),
  transform(name X2,Y).

transform(distinct element(N,A,L),
          element(N,A,Z)):-
  reverse(L,L2),
  removeDuplicates(L2,L3),
  reverse(L3,Z).

% Tree editing.

removeElement(element(N,As,L),
              Name,element(N,As,L2)):-
  delete(element(Name,_,_),L,L2).

remove(element(N,As,L),Node,
       element(N,As,L2)):-
  delete(Node,L,L2).

% insertBefore/4, insertAfter/4 and removeAttribute/3 are natives.

% Protected helpers.

level0(element(_,_,C),Y,[N]):-
  childAt(C,1,Y,N).
level0(element(_,_,C),Y,[N|P]):-
  childAt(C,1,H,N), level0(H,Y,P).

childAt([H|_],I,H,I).
childAt([_|T],I,H,N):-
  I2 is I+1, childAt(T,I2,H,N).

nthNode(Node,X,L,N,Y):-
  integer(N), N>=1,
  findall(X,member(Node,L),Z),
  nth(N,Z,Y).

selectattribute(X,List):-
  attribute(List,X,_).

removeDuplicates(L1,_):-not(list(L1)),
  !, fail.
removeDuplicates([],[]).
removeDuplicates([H|T],T2):-
  member(H,T), !,
  removeDuplicates(T,T2).
removeDuplicates([H|T],[H|T2]):-
  removeDuplicates(T,T2).

lexicalle([],[]).
lexicalle([],[_|_]).
lexicalle([_|_],[]):-fail.
lexicalle([H|_],[H2|_]):-
  nonvar(H), nonvar(H2), H>H2, fail.
lexicalle([H|T],[H2|T2]):-
  nonvar(H), nonvar(H2), H=H2,
  lexicalle(T,T2), !.
lexicalle([H|_],[H2|_]):-
  var(H), var(H2), !, fail.
lexicalle([H|_],[H2|_]):-
  nonvar(H), nonvar(H2), H<H2, !.
lexicalle([H|T],[H2|T2]):-
  H=H2, lexicalle(T,T2), !.

le(element(N,_,_),element(N2,_,_)):-
  atom(N), not(list(N)),
  atom(N2), not(list(N2)),
  atom_codes(N,NCodes),
  atom_codes(N2,N2Codes),
  lexicalle(NCodes,N2Codes).

checkAttributes([]):-!.
checkAttributes([H|T]):-
  attribute([H],_,_), !,
  checkAttributes(T).
checkAttributes(X):-
  write('Error in remaining attributes list: '),
  write(X), fail.

% General helpers.

sum([],0).
sum([H|T],X):-sum(T,X2), X is X2+H.

last([H],H).
last([_|T],L):-last(T,L).

nth(N,L,E):-
  var(N), !, childAt(L,1,E,N).
nth(N,L,E):-
  integer(N), N>=1,
  childAt(L,1,X,N), !, E=X.

concat([],[]).
concat([H|T],X):-list(H),
  append(H,X2,X), concat(T,X2).

church(zero,0):-!.
church(s(X),N):-
  var(N),
  church(X,N1),
  N is N1+1.
church(s(X),N):-
  not(var(N)),
  N1 is N-1, N>0,
  church(X,N1).

concat(E1,E2,A1):-var(A1),
  A1 is cat(E1,E2).
concat(E1,E2,A1):-var(E1),
  atom_codes(E2,E2Codes),
  atom_codes(A1,A1Codes),
  append(E1Codes,E2Codes,A1Codes),
  atom_codes(E1,E1Codes).
concat(E1,E2,A1):-var(E2),
  atom_codes(E1,E1Codes),
  atom_codes(A1,A1Codes),
  append(E1Codes,E2Codes,A1Codes),
  atom_codes(E2,E2Codes).

printTree(text(T),T):-
  !, atom(T), not(list(T)).
printTree(comment(_),'').
printTree(pi(_),'').
printTree(element(_,_,Children),Res):-
  printChildren(Children,Res), !.

printChildren([],'').
printChildren([H|T],Res):-
  printTree(H,Res1),
  printChildren(T,Res2),
  Res is cat(Res1,Res2).

flatten(X,L):-nodes0(X,flatten,L,[]).

nodes(X,L):-nodes0(X,nodes,L,[]).

nodes0(X,_,_,_):-var(X), !, fail.
nodes0(element(N,A,C),Kind,[E|L],T):-
  !, nodeCell(Kind,element(N,A,C),E),
  nodesList0(C,Kind,L,T).
nodes0(X,_,[X|T],T):-
  X=text(_);X=pi(_);X=comment(_).

nodesList0([],_,T,T).
nodesList0([H|C],Kind,L,T):-
  nodes0(H,Kind,L,L2), !,
  nodesList0(C,Kind,L2,T).

nodeCell(nodes,E,E).
nodeCell(flatten,element(N,A,_),
         element(N,A,[])).

% Sorting and structural equality.

quicksort([],_,[]).
quicksort([H|T],P,S):-
  split0(T,H,P,Lo,Hi),
  quicksort(Lo,P,SLo),
  quicksort(Hi,P,SHi),
  append(SLo,[H|SHi],S).

split0([],_,_,[],[]).
split0([X|Xs],Pivot,P,[X|Lo],Hi):-
  call(P,X,Pivot), !,
  split0(Xs,Pivot,P,Lo,Hi).
split0([X|Xs],Pivot,P,Lo,[X|Hi]):-
  split0(Xs,Pivot,P,Lo,Hi).

position(element(_,_,C),Child,Pos):-
  nth(Pos,C,Child).

equals(X,X):-
  X=text(_);X=comment(_);X=pi(_).
equals(element(N,A1,C1),element(N,A2,C2)):-
  canon(A1,CA),
  canon(A2,CA),
  equalsList(C1,C2).

equalsList([],[]).
equalsList([H1|T1],[H2|T2]):-
  equals(H1,H2),
  equalsList(T1,T2).
"""


@lru_cache(maxsize=None)
def _parsed_prelude() -> Program:
    """The one parsed built-in rule set; callers copy what they change."""
    return parse_program(PRELUDE_SRC)


def prelude_program() -> Program:
    """A fresh copy of the parsed built-in rule set."""
    return _parsed_prelude().copy()


def load_prelude(user: Optional[Program] = None) -> Program:
    """The built-in rules with *user* clauses appended after them."""
    combined = prelude_program()
    if user is not None:
        combined.extend(user)
        if user.operators is not None:
            combined.operators = user.operators
    return combined


def _read_attributes(atts: Term, att: Optional[str]) -> tuple[Optional[str], tuple]:
    """The value of the first well-formed *att* entry of *atts*, and what of *atts* is no atom.

    The value, the one ``@`` and ``sort`` read, is None when no entry has
    it, when *att* is None, or when *atts* is not a proper list.  The rest
    is the entries that are not atoms and the tail of an improper list, for
    ``sort`` to check that they are ground.  One walk over the cells reads both.
    """
    value = None
    others: tuple = ()
    rest = atts
    while (parts := cell(rest)) is not None:
        entry, rest = parts
        if type(entry) is Var:
            entry = deref(entry)
        if type(entry) is not Atom:
            others += (entry,)
        elif value is None and att is not None:
            attr = split_attr(entry, att)
            if attr is not None:
                value = attr[1]
    rest = deref(rest)
    if type(rest) is Atom and rest.name == "[]":
        return value, others
    return None, others + (rest,)


@_builtin("descendantOrSelf", 3)
def _bi_descendant_or_self(solver: Solver, args):
    """descendantOrSelf(E, Name, X): the body of ``E ^ Name``, XPath's ``descendant-or-self::Name``.

    X is each element of E's subtree whose name unifies with Name, in
    pre-order, as the rules ``transform(element(Name,A,C) ^ Name,
    element(Name,A,C))`` and ``transform(element(_,_,C) ^ Name, X) :-
    member(H, C), transform(H ^ Name, X)`` gave them.  The walk keeps the
    rest of each open child list on a stack of its own, so its depth is
    bounded by memory.  A child list is read as ``member/2`` reads it: it
    ends at anything but a list cell, and an unbound tail is extended by
    one cell, at one step.  An unbound node costs a step too: it is bound
    to an element ``element(N, A, C)`` of fresh variables and read as any
    element is, so N is tried against Name (under the occurs check, Name
    may hold the node) and C is extended in turn.  Its walk never ends, so
    the walk never comes back to the list that held it, and the step limit
    ends it.
    """
    node, name, found = args
    trail = solver.trail
    lists: list[Term] = []  # the rest of each child list being walked, innermost last
    while True:
        node = deref(node)
        if type(node) is Var:
            solver._step()
            element = Compound("element", (fresh_var("N"), fresh_var("A"), fresh_var("C")))
            solver.bind(node, element)
            node = element
        if type(node) is Compound and node.name == "element" and len(node.args) == 3:
            mark = len(trail)
            if solver.unify(node.args[0], name) and solver.unify(found, node):
                yield
            solver.undo_to(mark)
            lists.append(node.args[2])
        while lists:
            if (parts := cell(lists[-1])) is not None:
                node, lists[-1] = parts
                break
            if type(rest := deref(lists[-1])) is Var:
                _grow(solver, rest)
                continue
            lists.pop()
        else:
            return


@_builtin("attributeValue", 3)
def _bi_attribute_value(solver: Solver, args) -> bool:
    """attributeValue(Atts, Att, V): V is the value of the first well-formed Att entry of Atts, an atom Att."""
    att = deref(args[1])
    value = _read_attributes(args[0], att.name)[0] if type(att) is Atom else None
    return value is not None and solver.unify(args[2], Atom(value))


@_builtin("textValue", 2)
def _bi_text_value(solver: Solver, args) -> bool:
    """textValue(X, V): X unifies with V, or else X is a number whose text is V (``V is string(X)``)."""
    mark = len(solver.trail)
    if solver.unify(args[0], args[1]):
        return True
    solver.undo_to(mark)
    number = deref(args[0])
    if not isinstance(number, (int, float)):
        return False
    try:
        text = _num_text(number)
    except EvalError as exc:
        solver.warn("textValue/2: %s" % exc)
        return False
    return solver.unify(args[1], Atom(text))


@_builtin("removeAttribute", 3)
def _bi_remove_attribute(solver: Solver, args) -> bool:
    """removeAttribute(E, Att, R): R is the element E without its first well-formed Att entry, an atom Att.

    Of the Att entries, the first whose removal leaves an element that
    unifies with R is removed, as the rule ``attribute(As, Att, _, As2), !``
    chose it.  An unbound E, an attribute list that is not proper, or no
    such entry fails.  The element and cells built from a marked E are
    marked too (``term_core.ground_compound``).
    """
    element, att = deref(args[0]), deref(args[1])
    if not (type(element) is Compound and element.name == "element" and len(element.args) == 3 and type(att) is Atom):
        return False
    items = list_items(element.args[1])
    ground = element.ground
    for index, item in enumerate(items or ()):
        if split_attr(item, att.name) is not None:
            mark = len(solver.trail)
            rest = mk_list(items[:index] + items[index + 1 :], ground=ground)
            built = (ground_compound if ground else Compound)("element", (element.args[0], rest, element.args[2]))
            if solver.unify(args[2], built):
                return True
            solver.undo_to(mark)
    return False


def _insert(offset: int):
    """The native of ``insertBefore/4`` (*offset* 0) or ``insertAfter/4`` (*offset* 1).

    insertBefore(E, New, Anchor, R) and insertAfter(E, New, Anchor, R): R
    is the element E with New put just before or just after a child.  An
    Anchor or New that is unbound or a proper list fails.  A compound
    Anchor gives the splits ``append(Pre, [Anchor|Post], Children)`` in
    order, each with R's children ``Pre`` ++ ``[New, Anchor|Post]`` (or
    ``[Anchor, New|Post]``), so an open child list is extended at one step
    per cell.  An integer Anchor P >= 1 is a position, with one answer:
    New inserted at cell P.  The walk to cell P extends an open child
    list (or an unbound E's) at one step per cell added, and fails at once
    when a proper list is shorter than P.  Anything else fails.
    """

    def insert(solver: Solver, args):
        element, new, anchor, result = args
        anchor, new = deref(anchor), deref(new)
        if type(anchor) is Var or type(new) is Var or is_list(anchor) or is_list(new):
            return False
        if type(anchor) is not Compound and type(anchor) is not int:
            return False
        name, atts, children, edited = fresh_var("N"), fresh_var("A"), fresh_var("L"), fresh_var("L")
        if not (
            solver.unify(result, Compound("element", (name, atts, edited)))
            and solver.unify(element, Compound("element", (name, atts, children)))
        ):
            return False
        if type(anchor) is int:
            return anchor >= 1 and _insert_at(solver, children, anchor, anchor - 1 + offset, new, edited)
        return _insert_by_anchor(solver, children, anchor, (new, anchor) if offset == 0 else (anchor, new), edited)

    return insert


def _insert_at(solver: Solver, children: Term, cells: int, at: int, new: Term, edited: Term) -> bool:
    """*edited* unifies with *children* with *new* inserted at index *at*, after walking *cells* cells of it."""
    items: list[Term] = []
    rest = children
    while len(items) < cells:
        if (parts := cell(rest)) is not None:
            items.append(parts[0])
            rest = parts[1]
        elif type(rest := deref(rest)) is Var:
            _grow(solver, rest)
        else:
            return False
    items.insert(at, new)
    return solver.unify(edited, mk_list(items, rest))


def _insert_by_anchor(solver: Solver, children: Term, anchor: Term, pair: tuple, edited: Term):
    """``append(Pre, [Anchor|Post], Children), append(Pre, Pair ++ Post, Edited)``, one solution per split."""
    pre, post = fresh_var("Pre"), fresh_var("Post")
    spliced = mk_list(pair, post)
    for _ in _append(solver, pre, mk_list((anchor,), post), children):
        yield from _append(solver, pre, spliced, edited)


_builtin("insertBefore", 4)(_insert(0))
_builtin("insertAfter", 4)(_insert(1))


@_builtin("sortChildren", 3)
def _bi_sort_children(solver: Solver, args) -> bool:
    """sortChildren(Children, Att, Sorted): the body of ``E sort Att``.

    Gives the order of ``quicksort/3`` with a comparator that holds when
    both children have an Att value and the first value is at or before
    the second in code-point order (the order of ``leStrings/2``): values
    ascend, equal values come out in reverse input order, and a child
    without a value stays where the quicksort leaves it.  One pass computes
    that: a child without a value is emitted when the pass reaches it; a
    child whose value is above every value emitted so far emits each
    pending child whose value is at most its own, in sorted order.

    Children must be a proper list of ``element/3`` nodes whose attribute
    lists are ground (an unbound list is bound to ``[]``); only what the sort
    reads is checked, so a variable in a child's name or content does not
    stop it.  A ground Att that is no atom finds no values, so the input
    order is kept.  A non-empty list with a non-ground Att only checks a
    ground Sorted against the input order, as the rules this replaces did.
    The cells of a sort of a marked child list are marked too
    (``term_core.ground_compound``).
    """
    children, att, sorted_out = args
    children = deref(children)
    if type(children) is Var:
        return solver.unify(children, EMPTY_LIST) and solver.unify(sorted_out, EMPTY_LIST)
    items = list_items(children)
    if items is None:
        return False
    att = deref(att)
    name = att.name if type(att) is Atom else None
    nodes = []
    keys = []
    for node in items:
        node = deref(node)
        if not (type(node) is Compound and node.name == "element" and len(node.args) == 3):
            return False
        key, others = _read_attributes(node.args[1], name)
        if others and not all(map(is_ground, others)):
            return False
        nodes.append(node)
        keys.append(key)
    if nodes and not is_ground(att) and not is_ground(sorted_out):
        return False
    pending = sorted(
        ((key, node) for key, node in reversed(list(zip(keys, nodes))) if key is not None),
        key=lambda pair: pair[0],
    )
    result: list[Term] = []
    emitted = 0
    for key, node in zip(keys, nodes):
        if key is None:
            result.append(node)
        elif not emitted or key > pending[emitted - 1][0]:
            while emitted < len(pending) and pending[emitted][0] <= key:
                result.append(pending[emitted][1])
                emitted += 1
    return solver.unify(sorted_out, mk_list(result, ground=type(children) is Compound and children.ground))


@_builtin("leStrings", 2)
def _bi_le_strings(solver: Solver, args) -> bool:
    """leStrings(S1, S2): atoms other than ``[]``, S1 at or before S2 in code-point order."""
    first, second = deref(args[0]), deref(args[1])
    return (
        isinstance(first, Atom)
        and isinstance(second, Atom)
        and EMPTY_LIST not in (first, second)
        and first.name <= second.name
    )


@_builtin("checkSerializable", 1)
def _bi_check_serializable(solver: Solver, args) -> bool:
    """checkSerializable(Node): xml_io's verdict; a rejection writes its message and fails."""
    try:
        _write(args[0], [])
    except ValidationError as exc:
        solver.write_out("%s\n" % exc)
        return False
    return True


# ---------------------------------------------------------------------------
# Python-side helpers


_INT_VALUE = re.compile(r"-?[0-9]+\Z")


def tree_to_relation(doc: Term) -> list[Clause]:
    """Convert a flat attribute-only document into relation facts.

    Every child element of the root becomes one fact: the child's element
    name is the relation name and its attribute values, taken in sorted
    attribute-name order, are the arguments.  Integer-looking values become
    integers, everything else an atom.  All children sharing a relation name
    must carry the same attribute-name set; element grandchildren are
    rejected.
    """
    root = deref(doc)
    if not (isinstance(root, Compound) and root.name == "element" and len(root.args) == 3):
        raise ValueError("the document root must be an element")
    children = list_items(deref(root.args[2])) or []
    schemas: dict[str, list[str]] = {}
    facts: list[Clause] = []
    for index, child in enumerate(children):
        child = deref(child)
        if not (isinstance(child, Compound) and child.name == "element" and len(child.args) == 3):
            continue
        name = deref(child.args[0])
        if not isinstance(name, Atom):
            raise ValueError("child %d has a name that is not an atom" % index)
        grandchildren = list_items(deref(child.args[2])) or []
        for grandchild in grandchildren:
            grandchild = deref(grandchild)
            if isinstance(grandchild, Compound) and grandchild.name == "element":
                raise ValueError(
                    "child %d has nested elements and cannot become a relation row" % index
                )
        attrs = list_items(deref(child.args[1])) or []
        values: dict[str, str] = {}
        for attr in attrs:
            parts = split_attr(attr)
            if parts is None:
                raise ValueError("child %d has a malformed attribute" % index)
            values[parts[0]] = parts[1]
        ids = sorted(values)
        known = schemas.setdefault(name.name, ids)
        if known != ids:
            raise ValueError(
                "child %d of relation %r has attributes %s, expected %s"
                % (index, name.name, ids, known)
            )
        args = tuple(
            int(values[i]) if _INT_VALUE.match(values[i]) else Atom(values[i]) for i in ids
        )
        head: Term = Compound(name.name, args) if args else Atom(name.name)
        facts.append(Clause(head))
    return facts
