'''The built-in rule set loaded ahead of every user program.

It defines the navigation and transformation operators (``/ ^ @ ? id # c
atts sort sortbyName child descendant copy copy_of level last count name
distinct``), tree editing (``removeElement``, ``remove``,
``removeAttribute``, ``insertBefore``, ``insertAfter``), the attribute-list
check ``checkAttributes/1``, and general helpers (``quicksort/3``,
``nth/3``, ``church/2``, ``concat``, ``equals/2``, ...).

Four prelude predicates are native, so that each has one
implementation: ``traverse/2`` is the template walk in
:mod:`.template_engine`; ``checkSerializable/1`` (registered here) is the
check-and-write walk of :mod:`.xml_io`'s serializer; and
``sortChildren/3``, the body of ``E sort Att``, and ``leStrings/2``
(both registered here) order text in code-point order, as the rule-level
``lexicalle/2`` does over code lists.  The operators are the default
table of :mod:`.rule_language`; the prelude declares none.

This module also converts a flat attribute-only document into a list of
facts (one relation row per child element).
'''

from __future__ import annotations

import re
from typing import Optional

from .logic_engine import Clause, Program, Solver, _builtin
from .rule_language import parse_program
from .term_core import (
    EMPTY_LIST,
    Atom,
    Compound,
    Term,
    Var,
    deref,
    is_ground,
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

transform(E1 / Child,element(Child,A,C)):-
  E1=element(Name,AttList,Children),
  append(_,[(element(Child,A,C))|_],
         Children).
transform(X / Child,Y):-transform(X,X2),
  transform(X2 / Child,Y).

transform(_ ^ Name,_):-
  (var(Name);list(Name)), !, fail.
transform(element(Name,A,C) ^ Name,
          element(Name,A,C)).
transform(element(_,_,C) ^ Name,X):-
  member(H,C),
  transform(H ^ Name,X).
transform(X ^ Name,Y):-
  transform(X,X2),
  transform(X2 ^ Name,Y).

transform(element(_,AttList,_) @ Att,X):-
  atom(Att), attribute(AttList,Att,V), !,
  (X=V; number(X), V is string(X)).
transform(X @ Att, Y):-
  transform(X,X2),
  transform(X2 @ Att, Y).

transform(atts element(_,L,_),_):-
  findall(X,selectattribute(X,L),[]),
  !, fail.
transform(atts element(_,L,_),Y):-
  findall(X,selectattribute(X,L),Y).
transform(atts E,Y):-
  transform(E,E2),
  transform(atts E2,Y).

transform(X ? Att1):-
  atom(Att1), transform(atts X,X2),
  member(Att1,X2).

transform(X id S,Attrib):-
  X=element(_,_,_),
  transform(atts X,AttribNames),
  member(Attrib,AttribNames),
  transform(X @ Attrib,S).
transform(X id S,Id):-
  transform(X,X2),
  transform(X2 id S,Id).

transform(element(_,_,L) # N,Y):-
  integer(N), N>=1,
  findall(X,member(text(X),L),Z),
  nth(N,Z,Y).
transform(X # N,Y):-
  transform(X,X2), transform(X2 # N,Y).

transform(element(_,_,L) ? N,Y):-
  integer(N), N>=1,
  findall(X,member(pi(X),L),Z),
  nth(N,Z,Y).
transform(X ? N,Y):-
  transform(X,X2),
  transform(X2 ? N,Y).

transform(element(_,_,L) c N,Y):-
  integer(N), N>=1,
  findall(X,member(comment(X),L),Z),
  nth(N,Z,Y).
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
  level1(Tree,Node,Y).
transform(Tree level Node,Y):-
  transform(Tree,Tree2),
  transform(Node,Node2),
  level1(Tree2,Node2,Y).

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

removeAttribute(element(N,As,L),Att,
                element(N,As2,L)):-
  atom(Att), attribute(As,Att,_,As2), !.

insertBefore(_,_,RecentNode,_):-
  (var(RecentNode);
   list(RecentNode)),
  !, fail.
insertBefore(_,NewNode,_,_):-
  (var(NewNode);
   list(NewNode)),
  !, fail.
insertBefore(E1,NewNode,RecentNode,
             element(N,A,List2)):-
  E1=element(N,A,List),
  compound(RecentNode),
  !,
  append(Pre,[RecentNode|Post],List),
  append(Pre,[NewNode,RecentNode|Post],
         List2).
insertBefore(E1,NewNode,Position,
             element(N,A,List2)):-
  E1=element(N,A,List),
  integer(Position),
  !, Position>=1,
  nth(Position,List,X),
  append(Pre,[X|Post],List),
  append(Pre,[NewNode,X|Post],List2).

insertAfter(_,_,RecentNode,_):-
  (var(RecentNode); list(RecentNode)),
  !, fail.
insertAfter(_,NewNode,_,_):-
  (var(NewNode); list(NewNode)),
  !, fail.
insertAfter(E1,NewNode,RecentNode,
    element(N,A,List2)):-
  E1=element(N,A,List),
  compound(RecentNode), !,
  append(Pre,[RecentNode|Post],List),
  append(Pre,[RecentNode,NewNode|Post],
         List2).
insertAfter(E1,NewNode,Position,
            element(N,A,List2)):-
  E1=element(N,A,List), integer(Position),
  !,
  Position>=1, nth(Position,List,X),
  append(Pre,[X|Post],List),
  append(Pre,[X,NewNode|Post],List2).

% Protected helpers.

level1(Tree,Node,Result):-
  level0(Tree,Node,[],Result).

level0(element(_,_,Children),Y,Res0,Res):-
  nth(N,Children,Y), Res=[N|Res0].
level0(element(_,_,[H|T]),Y,Res0,Res):-
  level0(H,Y,Res0,Res1),
  Res=[1|Res1];
  levels0([H|T],T,Y,Res0,Res).

levels0(L,[H|T],Y,Res0,Res):-
  level0(H,Y,Res0,Res1),
  nth(N,L,H), Res=[N|Res1];
  levels0(L,T,Y,Res0,Res).

nth0(s(zero),[X|_],X).
nth0(s(M),[_|L],X):-nth0(M,L,X).

selectattribute(X,List):-
  attribute(List,X,_).

removeDuplicates(L1,_):-not(list(L1)),
  !, fail.
removeDuplicates([],[]).
removeDuplicates([H|T],T2):-
  member(H,T),
  removeDuplicates(T,T2).
removeDuplicates([H|T],[H|T2]):-
  not(member(H,T)),
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

concat0([],X,X).
concat0([H|T],X,Y):-list(H),
  append(X,H,X2), concat0(T,X2,Y).

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
  var(N), nth0(N1,L,E), church(N1,N).
nth(N,L,E):-
  church(N1,N), nth0(N1,L,E).

concat(L,X):-concat0(L,[],X).

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

flatten(X,_):-
  (var(X);list(X);number(X)),
  !, fail.
flatten(element(N,A,L),
        [element(N,A,[])|T2]):-
  !, flattenList(L,T2).
flatten(X,[X]):-
  X=text(_);X=pi(_);X=comment(_).

flattenList([],[]).
flattenList([H|T],L):-
  flatten(H,L1),
  !, flattenList(T,L2), append(L1,L2,L).

nodes(X,_):-
  (var(X);list(X);number(X)),
  !, fail.
nodes(element(N,A,L),
      [element(N,A,L)|T2]):-
  !, nodesList(L,T2), !.
nodes(X,[X]):-
  X=text(_);
  X=pi(_);
  X=comment(_).

nodesList([],[]).
nodesList([H|T],L):-
  nodes(H,L1),
  nodesList(T,L2),
  append(L1,L2,L).

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

position(Tree,Child,Pos):-
  Tree=element(_,_,C),
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


_CACHE: dict[str, Program] = {}


def _parsed_prelude() -> Program:
    """The one parsed built-in rule set; callers copy what they change."""
    if "prelude" not in _CACHE:
        _CACHE["prelude"] = parse_program(PRELUDE_SRC)
    return _CACHE["prelude"]


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


def _sort_key(child: Compound, att: Optional[str]) -> Optional[str]:
    """The value of *child*'s first well-formed *att* entry, the one ``@`` reads."""
    for item in list_items(child.args[1]) or ():
        attr = split_attr(item)
        if attr is not None and attr[0] == att:
            return attr[1]
    return None


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

    Children must be a ground proper list of ``element/3`` nodes (an
    unbound list is bound to ``[]``), and a non-empty list with a non-ground
    Att only checks a ground Sorted against the input order, as the rules
    this replaces did.
    """
    children, att, sorted_out = args
    if isinstance(deref(children), Var):
        return solver.unify(children, EMPTY_LIST) and solver.unify(sorted_out, EMPTY_LIST)
    items = list_items(children)
    if items is None or not is_ground(children):
        return False
    nodes = [deref(item) for item in items]
    if not all(isinstance(n, Compound) and n.name == "element" and len(n.args) == 3 for n in nodes):
        return False
    att = deref(att)
    if nodes and not is_ground(att) and not is_ground(sorted_out):
        return False
    name = att.name if isinstance(att, Atom) else None
    keys = [_sort_key(node, name) for node in nodes]
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
    return solver.unify(sorted_out, mk_list(result))


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
        assert isinstance(name, Atom)
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
            attr = deref(attr)
            parts = split_attr(attr) if isinstance(attr, Atom) else None
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
