"""SLD resolution engine with unification, backtracking, and cut.

The solver enumerates solutions depth-first over an ordered clause store:
clauses are tried in program order, conjunctions left to right, and bindings
are undone chronologically (a trail) on backtracking.  The solver runs the
control constructs ``,`` ``;`` ``!`` and ``call/N`` itself, which one table
names (see :func:`goal_kind`); the cut commits to the choices made since the
activation of the clause it occurs in.  Every other built-in goal,
``true/0``, ``fail/0``, ``false/0``, ``not/1`` and ``findall/3`` included,
is a native in one registry.  ``call/N``, ``not/1`` and ``findall/3`` run
their goal on the caller's machine, behind a cut barrier.
Natives, like the control constructs, shadow program clauses of the same
name and arity (see :meth:`Solver.is_builtin`).  A step counter turns
runaway programs into a :class:`ResourceLimitError` instead of a hang.  A
call tries only the clauses in its first-argument bucket (see
:class:`Program`) and runs each one's head matcher, Python code generated
from the clause once, without copying the clause (see :class:`Clause`).

One loop, :meth:`Solver.solve`, runs every goal on lists of its own, so rule
recursion does not grow the Python stack; the clause compiler and ``is/2``
walk terms on lists of their own too, and Python's recursion limit is left
as it is.  A clause body runs site by site (see :meth:`Clause.compile`): a
call site hands its callee the argument tuple its generated builder makes,
and ``!`` and ``;`` in a body are sites too, so no goal term is built for
them and no ``,`` term is built or solved.  A goal term (a query's,
``call/N``'s, a variable body goal's value) is read into the site it would
compile to, and both run through the same code.

Native predicates cover the term inspection, list, and arithmetic catalog
(``append/3`` is fully nondeterministic, ``delete/3`` removes all unifying
occurrences without binding), and ``is/2`` evaluates the functors of one
table, ``_EVALUABLE``: the numeric operators and the string/node functor
family (``cat``, ``substring``, ``translate``, and
``plus``/``minus``/``mult``/``div``, which are ``+ - * /`` over single-text
elements).  An ``is/2`` goal of clause text over these functors compiles
into its clause's code; any other runs the native over
:meth:`Solver.eval_is`.  Both give the same values, and an evaluation error
makes the goal fail with the same diagnostic warning rather than raising.
A native that succeeds at most once returns True or False, so its call
leaves no choicepoint; the
ones that can succeed again (``append/3``, ``member/2``, ``length/2`` and
the prelude's ``descendantOrSelf/3``) or run goals (``not/1``,
``findall/3``, ``traverse/2``) are generators.
``attribute/3,4`` is either: True or False when at most one entry can match
Id, and a generator when more can.  A native adds a cell to an open list
only through :func:`_grow`, one cell at one step (``member/2``,
``length/2`` in both modes, the prelude's ``descendantOrSelf/3`` and its
insert by position), so the step limit bounds what it builds;
``append/3``'s relational walk, over two lists, takes its own step per cell.
"""

from __future__ import annotations

import itertools
import math
import sys
from operator import add, itemgetter, mul, neg, sub
from typing import Callable, Iterator, Optional, Sequence, TextIO

from .term_core import (
    CONS,
    EMPTY_LIST,
    TRUE,
    Atom,
    Compound,
    Term,
    Var,
    copy_term,
    deref,
    fresh_var,
    is_cyclic,
    is_ground,
    is_list,
    list_items,
    list_parts,
    mk_list,
    render_term,
    split_attr,
    term_equal,
    term_variables,
)

__all__ = [
    "Clause",
    "Program",
    "SolverOptions",
    "Solver",
    "ResourceLimitError",
    "EvalError",
    "DEFAULT_STEP_LIMIT",
]

DEFAULT_STEP_LIMIT = 1_000_000

_EXHAUSTED = object()  # no alternatives left, or a clause head that does not match


class ResourceLimitError(RuntimeError):
    """The step budget was exhausted before the query finished."""


class EvalError(Exception):
    """Internal: arithmetic/functor evaluation failed (goal will fail)."""


def _num_text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _value(value: Term) -> Term:
    return value


def _number(value: Term):
    if isinstance(value, (int, float)):
        return value
    raise EvalError("expected a number, got %s" % render_term(value))


def _integer(value: Term) -> int:
    if isinstance(value, int):
        return value
    raise EvalError("expected an integer, got %s" % render_term(value))


def _text(value: Term) -> str:
    if isinstance(value, Atom):
        return value.name
    if isinstance(value, (int, float)):
        return _num_text(value)
    raise EvalError("expected an atom, got %s" % render_term(value))


def _item(value: Term) -> str:
    """The text ``cat`` makes of an evaluated operand, an atom or a number."""
    return value.name if isinstance(value, Atom) else _num_text(value)


def _node_number(t: Term):
    """The number of a node-form operand: a number, or an element's single text child read as one."""
    while type(t) is Var and t.ref is not None:
        t = t.ref
    if type(t) is int or type(t) is float:
        return t
    if type(t) is Compound and t.name == "element" and len(t.args) == 3:
        cell = deref(t.args[2])  # the child is read in place: a first cell whose tail is no cell
        if type(cell) is Compound and cell.name == CONS and len(cell.args) == 2:
            rest, child = deref(cell.args[1]), deref(cell.args[0])
            single = not (type(rest) is Compound and rest.name == CONS and len(rest.args) == 2)
            if single and type(child) is Compound and child.name == "text" and len(child.args) == 1:
                content = deref(child.args[0])
                if type(content) is Atom:
                    # Only XML's whitespace is stripped, and none of the forms
                    # int() and float() take beyond XML's numbers is read: other
                    # whitespace, non-ASCII digits, "1_0", "nan", "inf", or an
                    # overflow to infinity.
                    text = content.name.strip(" \t\r\n")
                    if text.isascii() and "_" not in text and text == text.strip():
                        try:
                            return int(text)
                        except ValueError:
                            pass
                        try:
                            if math.isfinite(value := float(text)):
                                return value
                        except ValueError:
                            pass
                    raise EvalError("text content is not a number: %r" % text)
    raise EvalError("expected a number or an element with a single numeric text child, got %s" % render_term(t))


def _divide(left, right):
    if right == 0:
        raise EvalError("division by zero")
    return left / right


def _mod(left, right):
    if not (isinstance(left, int) and isinstance(right, int)):
        raise EvalError("mod requires integers")
    if right == 0:
        raise EvalError("mod by zero")
    return left % right


def _cat(*texts: str) -> Atom:
    return Atom("".join(texts))


def _string(value: Term) -> Atom:
    if isinstance(value, Atom):
        return value
    if isinstance(value, (int, float)):
        return Atom(_num_text(value))
    raise EvalError("string/1 expects a number or atom")


def _substring(text: str, start: int, length: int) -> Atom:
    if start < 1 or length < 0 or start - 1 + length > len(text):
        raise EvalError("substring out of range: start=%d len=%d on %r" % (start, length, text))
    return Atom(text[start - 1 : start - 1 + length])


def _translate(text: str, source: str, target: str) -> Atom:
    # A character's first position in *source* wins; past *target*'s end it is deleted.
    return Atom(text.translate({ord(ch): target[i] if i < len(target) else None for i, ch in reversed(list(enumerate(source)))}))


# is/2's evaluable functors: (name, arity) -> (how each operand is read, the
# function of the operands read).  An operand is read as its evaluated value
# through a check (_number, _integer, _text, or _value for any value), as a
# node number (_node_number reads the operand term itself, unevaluated), or
# as a ``cat`` item (_item: an atom or a number is its text, a list's items
# are read in its place, anything else is evaluated).  Both the runtime walk
# (:func:`_evaluate`) and clause code (:meth:`_ClauseCode.value`) read it.
_EVALUABLE: dict[tuple[str, int], tuple[tuple[Callable, ...], Callable]] = {
    ("mod", 2): ((_number, _number), _mod),
    ("-", 1): ((_number,), neg),
    ("string", 1): ((_value,), _string),
    ("substring", 3): ((_text, _integer, _integer), _substring),
    ("substring_after", 2): ((_text, _text), lambda text, sep: Atom(text[text.find(sep) + len(sep) :] if sep in text else "")),
    ("substring_before", 2): ((_text, _text), lambda text, sep: Atom(text[: text.find(sep)] if sep and sep in text else "")),
    ("translate", 3): ((_text, _text, _text), _translate),
}
_ARITHMETIC = (("+", "plus", add), ("-", "minus", sub), ("*", "mult", mul), ("/", "div", _divide))
_EVALUABLE.update(((name, 2), ((_number, _number), function)) for name, _, function in _ARITHMETIC)
_EVALUABLE.update(((form, 2), ((_node_number, _node_number), function)) for _, form, function in _ARITHMETIC)
_EVALUABLE.update((("cat", arity), ((_item,) * arity, _cat)) for arity in range(2, 9))


def _evaluate(function: Callable, reader: Callable, expr: Term):
    """*function* of *expr*'s value read by *reader* (see ``_EVALUABLE``), walked over a list of frames.

    A frame is (function, its (reader, operand) pairs still to read, last
    first, the values read so far, the reader of its own value).  Operands
    are read left to right and each is checked as soon as it is read, so the
    first error in text order is raised; a list read as a ``cat`` item puts
    its items in its place.  Depth is bounded by memory.
    """
    frames: list[tuple] = [(function, [(reader, expr)], [], None)]
    while True:
        function, pending, values, reader = frames[-1]
        if not pending:
            frames.pop()
            value = function(*values)
            if not frames:
                return value
            frames[-1][2].append(reader(value))
            continue
        reader, t = pending.pop()
        t = deref(t)
        if type(t) is not Compound or reader is _node_number:
            values.append(_read(reader, t))
        elif t.name != CONS or len(t.args) != 2:
            entry = _EVALUABLE.get((t.name, len(t.args)))
            if entry is None:
                raise EvalError("unknown evaluable functor %s/%d" % (t.name, len(t.args)))
            frames.append((entry[1], list(zip(entry[0], t.args))[::-1], [], reader))
        elif reader is not _item:
            values.append(reader(t))
        else:
            items = list_items(t)
            if items is None:
                raise EvalError("cat cannot flatten an improper list")
            pending.extend((_item, item) for item in reversed(items))


def _read(reader: Callable, t: Term):
    """Operand *t* read by *reader* (see ``_EVALUABLE``): an atom or a number here, a compound by :func:`_evaluate`."""
    if reader is _node_number:
        return _node_number(t)
    while type(t) is Var:
        if t.ref is None:
            raise EvalError("unbound variable in evaluable expression")
        t = t.ref
    if type(t) is Atom and reader is _item:
        return "" if t.name == "[]" else t.name
    if type(t) is not Compound:
        return reader(t)
    return _evaluate(_cat, _item, t).name if reader is _item else _evaluate(_value, reader, t)


# The kinds of body-goal site (see :meth:`Clause.compile`).  A site is a tuple
# whose first item is its kind:
#   (CALL, build, name, arity, native)  build(e) is the callee's argument tuple;
#                                       native is None for a program predicate
#   (CUT,)
#   (OR, left sites, right sites)       the branches of a ``;``, over the same slots
#   (TERM, build)                       build(e) is a goal term, read by goal_kind when entered
#   (EVAL, run, goal)                   an is/2 goal: run(e, solver) evaluates its right side
#                                       and unifies its left side with the value
# AND (a ``,``) and CALL_N (``call/N``) are kinds of goal term, never of a site.
CALL, CUT, OR, TERM, EVAL, AND, CALL_N = "call", "!", ";", "term", "is", ",", "call/N"

# The control constructs, which the machine runs itself: name -> (kind, arity),
# an arity of None standing for every arity from 1.
_CONTROL = {",": (AND, 2), ";": (OR, 2), "!": (CUT, 0), "call": (CALL_N, None)}


def _control(name: str, arity: int) -> Optional[str]:
    """The kind of control construct that name/arity is, or None."""
    kind, wanted = _CONTROL.get(name, (None, 0))
    return kind if arity == wanted or (wanted is None and arity > 0) else None


def goal_kind(goal: Term) -> tuple[str, Optional[str], tuple]:
    """(kind, name, args) of dereferenced goal *goal*: its ``_CONTROL`` kind, else CALL, or TERM if not callable."""
    if type(goal) is Compound:
        name, args = goal.name, goal.args
    elif type(goal) is Atom:
        name, args = goal.name, ()
    else:
        return TERM, None, ()
    return _control(name, len(args)) or CALL, name, args


class Clause:
    """One stored rule: a head term and a body term (``true`` for facts).

    The solver does not copy ``head`` and ``body`` on each call.  The first
    time the clause is tried it is compiled (see :meth:`compile`) into Python
    code generated from its terms: a head matcher and one site per goal of
    the body's ``,`` chain, both over a list of numbered variable slots.  A
    call runs the matcher on its goal's arguments and then the site sequence.
    A call site builds only its callee's argument tuple from the slots, when
    it is entered, and names its callee by name and arity: the program that
    runs the clause finds the clauses, so one clause object may serve several
    programs.  A fact runs no sites.
    """

    __slots__ = ("head", "body", "code")

    def __init__(self, head: Term, body: Term = TRUE) -> None:
        self.head = head
        self.body = body
        self.code: Optional[tuple[int, Callable, tuple]] = None

    def compile(self) -> tuple[int, Callable, tuple]:
        """(slot count, head matcher, body sites), made once.

        One Python source, generated from the clause's terms and run with
        ``exec``, defines ``match(args, e, solver)``, which matches the goal's
        arguments left to right into the slot list *e* (false on a clash), and
        one ``g<i>(e)`` per site that builds anything.  A goal ``p(T1..Tn)``
        becomes a CALL site whose ``g<i>`` returns ``(T1, ..., Tn)``, with the
        native of p/n, if any, looked up now; every native registers when
        :mod:`termxform` is imported.  ``!`` becomes a CUT site and ``;`` an
        OR site of its two branches' sites.  Any other goal (a variable, a
        number, ``call/N``, a nested ``,``) is a TERM site whose ``g<i>``
        builds the goal term.  An ``is/2`` goal whose right side is no
        variable and holds only ``_EVALUABLE``'s functors is an EVAL site
        whose ``g<i>(e, solver)`` evaluates it in place (see
        :meth:`_ClauseCode.value`).  Ground subterms are namespace constants
        shared by every call and names are ``repr`` literals: no rule text
        becomes code.  A body ``true`` (a fact, or ``p :- true``) has no sites.
        """
        head = deref(self.head)
        body = deref(self.body)
        goals = () if body == TRUE else _conjuncts(body)
        self.code = _ClauseCode().generate(head.args if isinstance(head, Compound) else (), goals)
        return self.code

    def __repr__(self) -> str:
        if isinstance(self.body, Atom) and self.body.name == "true":
            return "%s." % render_term(self.head)
        return "%s:-%s." % (render_term(self.head), render_term(self.body))


class _ClauseCode:
    """Writes one clause's Python source (see :meth:`Clause.compile`).

    ``filled`` holds the slots sure to be filled where the next line runs:
    every head slot once matched, and a body slot after its first occurrence.
    A built variable's slot is tested ``is None`` (backtracking may enter its
    goal again).  Each head argument that holds variables gets one builder,
    for a goal variable in its place; a goal variable below the top of an
    argument is bound to the subterm :func:`_copy_in` builds.  ``match``,
    ``build``, ``sites`` and ``value`` walk over lists of their own, so a
    clause's depth is bounded by memory, and the source is linear in the clause.
    """

    def __init__(self) -> None:
        self.slots: dict[int, int] = {}  # variable id -> slot
        self.filled: set[int] = set()
        self.constants: dict[int, bool] = {}  # id of a compound -> holds no variable
        self.names: dict[str, object] = {"Atom": Atom, "Compound": Compound, "Var": Var, "slots": self.slots}
        self.names.update(bind=_bind_built, copy_in=_copy_in, deref=deref, fresh_var=fresh_var)
        self.named: dict[int, str] = {}  # id of a constant -> its name in the namespace
        self.functions: list[str] = []
        self.defined: list[str] = []  # the names of the functions, in source order
        self.count = itertools.count()  # numbers the locals and functions

    def generate(self, args: Sequence[Term], goals: Sequence[Term]) -> tuple[int, Callable, tuple]:
        """(slot count, head matcher, body sites).

        A function's ``__globals__`` is the namespace, so the namespace keeps
        none of them: ``match`` reaches the head builders through its
        defaults, and once ``link`` has read them every function name goes.
        A dropped clause is then freed by reference counting.
        """
        unpack = "".join("x%d, " % i for i in range(len(args)))
        lines = ["    %s= args" % unpack] if args else []
        for i, arg in enumerate(args):
            self.match(arg, "x%d" % i, lines)
        builders = "".join(", %s=%s" % (name, name) for name in self.defined)
        self.function("match(args, e, solver%s)" % builders, lines, "True")
        code = self.sites(goals)
        exec("".join(self.functions), self.names)
        sites = self.link(code)
        match = self.names["match"]
        for name in self.defined:
            del self.names[name]
        return len(self.slots), match, sites

    def function(self, signature: str, lines: list[str], result: str) -> None:
        body = "".join(line + "\n" for line in lines)
        self.defined.append(signature[: signature.index("(")])
        self.functions.append("def %s:\n%s    return %s\n" % (signature, body, result))

    def sites(self, goals: Sequence[Term]) -> list:
        """Postfix code for the sites of a goal sequence (see :meth:`link`), made over a stack of its own.

        A ``;`` is None, its left branch's code, None, its right branch's code
        and OR.  Either branch may run without the other, so each starts from
        the slots filled before the ``;``, and only the slots both fill stay filled.
        """
        code: list = []
        work: list = list(reversed(goals))  # goals; (filled before a `;`, its right branch); (left branch filled,)
        while work:
            goal = work.pop()
            if type(goal) is tuple and len(goal) == 2:  # a left branch is done
                work.append((self.filled,))
                self.filled = set(goal[0])
                code.append(None)
                work.extend(reversed(_conjuncts(goal[1])))
                continue
            if type(goal) is tuple:  # a right branch is done
                self.filled &= goal[0]
                code.append(OR)
                continue
            goal = deref(goal)
            kind, name, args = goal_kind(goal)
            function, lines = "g%d" % next(self.count), []
            if kind is CUT:
                code.append((CUT,))
            elif kind is OR:
                work.append((self.filled, args[1]))
                self.filled = set(self.filled)
                code.append(None)
                work.extend(reversed(_conjuncts(args[0])))
            elif kind is CALL and name == "is" and len(args) == 2 and self.evaluable(args[1]):
                for var in term_variables(goal):  # unfilled slots first, in the order building the goal fills them
                    self.slot(var, lines)
                value = self.value(args[1], lines)
                self.function(function + "(e, solver)", lines, "solver.unify(%s, %s)" % (self.build(args[0], lines), value))
                code.append((EVAL, function, goal))
            elif kind is CALL:
                self.function(function + "(e)", lines, self.build_args(args, lines))
                code.append((CALL, function, name, len(args), _BUILTINS.get((name, len(args)))))
            else:  # a variable, a number, call/N or a nested `,`
                self.function(function + "(e)", lines, self.build(goal, lines))
                code.append((TERM, function))
        return code

    def link(self, code: list) -> tuple:
        """The sites *code* describes, each builder's name replaced by the function ``exec`` made."""
        sequences: list[list] = [[]]  # the site sequences being read, innermost last
        for site in code:
            if site is None:  # a branch begins
                sequences.append([])
            elif site is OR:  # both branches are done
                right, left = sequences.pop(), sequences.pop()
                sequences[-1].append((OR, tuple(left), tuple(right)))
            else:
                sequences[-1].append(site if site[0] is CUT else (site[0], self.names[site[1]]) + site[2:])
        return tuple(sequences[0])

    def is_constant(self, t: Term) -> bool:
        t = deref(t)
        if not isinstance(t, Compound):
            return not isinstance(t, Var)
        constants = self.constants
        stack = [t]  # each compound once, after its arguments: linear in the clause, and flat
        while stack:
            top = stack[-1]
            if id(top) in constants:
                stack.pop()
                continue
            args = [deref(arg) for arg in top.args]
            pending = [arg for arg in args if isinstance(arg, Compound) and id(arg) not in constants]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            constants[id(top)] = all(
                constants[id(arg)] if isinstance(arg, Compound) else not isinstance(arg, Var) for arg in args
            )
        return constants[id(t)]

    def constant(self, t: object) -> str:
        """The namespace name of *t*, one per object."""
        name = self.named.get(id(t))
        if name is None:
            name = self.named[id(t)] = "k%d" % len(self.names)
            self.names[name] = t
        return name

    def slot(self, var: Var, lines: list[str]) -> str:
        """``e[k]`` for clause variable *var*; where it is not yet filled, *lines* fill it with a fresh variable."""
        slot = self.slots.setdefault(var.id, len(self.slots))
        if slot not in self.filled:
            self.filled.add(slot)
            lines.append("    if e[%d] is None: e[%d] = fresh_var(%r)" % (slot, slot, var.name))
        return "e[%d]" % slot

    def match(self, arg: Term, x: str, lines: list[str]) -> None:
        """Lines that match the goal argument in local *x* against head argument *arg*, in pre-order."""
        work = [(arg, x, "    ")]
        while work:
            t, x, pad = work.pop()
            t = deref(t)
            if isinstance(t, Var):
                slot = self.slots.setdefault(t.id, len(self.slots))
                if slot in self.filled:
                    lines.append("%sif not solver.unify(e[%d], %s): return False" % (pad, slot, x))
                else:
                    self.filled.add(slot)
                    lines.append("%se[%d] = %s" % (pad, slot, x))
                continue
            if not isinstance(t, Atom) and self.is_constant(t):  # numbers keep unify's type test
                lines.append("%sif not solver.unify(%s, %s): return False" % (pad, self.constant(t), x))
                continue
            lines.append("%st = %s if type(%s) is not Var else deref(%s)" % (pad, x, x, x))
            if isinstance(t, Atom):
                lines.append("%sif type(t) is Var: solver.bind(t, %s)" % (pad, self.constant(t)))
                lines.append("%selif type(t) is not Atom or t.name != %r: return False" % (pad, t.name))
                continue
            if pad == "    ":  # a head argument: the variable gets its builder and skips the match
                before, builder_lines = set(self.filled), []
                builder = "h%d" % next(self.count)
                self.function(builder + "(e)", builder_lines, self.build(t, builder_lines))
                self.filled = before
                lines.append("    if type(t) is Var:\n        if bind(solver, t, %s(e)) is None: return False" % builder)
                lines.append("    else:")
                pad = "        "
            else:  # matching the arguments against the built term changes nothing and keeps the source flat
                lines.append("%sif type(t) is Var: t = bind(solver, t, copy_in(%s, e, slots))" % (pad, self.constant(t)))
            subs = ["s%d" % next(self.count) for _ in t.args]
            check = "%sif type(t) is not Compound or t.name != %r or len(t.args) != %d: return False"
            lines.append(check % (pad, t.name, len(t.args)))
            lines.append("%s%s= t.args" % (pad, "".join(sub + ", " for sub in subs)))
            work.extend((arg, sub, pad) for arg, sub in zip(reversed(t.args), reversed(subs)))

    def build(self, t: Term, lines: list[str]) -> str:
        """An expression for clause term *t*; *lines* fill its new slots and build its inner compounds."""
        frames: list[list] = []  # [compound, its arguments' expressions], innermost last
        while True:
            t = deref(t)
            if isinstance(t, Var):
                built = self.slot(t, lines)
            elif self.is_constant(t):
                built = self.constant(t)
            else:
                frames.append([t, []])
                t = t.args[0]
                continue
            while frames:  # hand *built* to its compound; finish every compound that completes
                compound, args = frames[-1]
                args.append(built)
                if len(args) < len(compound.args):
                    t = compound.args[len(args)]
                    break
                frames.pop()
                built = "Compound(%r, (%s))" % (compound.name, "".join(arg + ", " for arg in args))
                if frames:  # inner compounds go to locals, so the source does not nest with the term
                    local = "v%d" % next(self.count)
                    lines.append("    %s = %s" % (local, built))
                    built = local
            else:
                return built

    def build_args(self, args: Sequence[Term], lines: list[str]) -> str:
        """An expression for the tuple of clause terms *args* (see :meth:`build`)."""
        if all(self.is_constant(arg) for arg in args):
            return self.constant(tuple(deref(arg) for arg in args))
        return "(%s)" % "".join(self.build(arg, lines) + ", " for arg in args)

    @staticmethod
    def evaluable(t: Term) -> bool:
        """Whether is/2's right side *t* compiles: not a variable, and every functor read evaluated is in ``_EVALUABLE``."""
        stack = [deref(t)]
        if type(stack[0]) is Var:
            return False
        while stack:
            t = deref(stack.pop())
            if type(t) is Compound:
                entry = _EVALUABLE.get((t.name, len(t.args)))
                if entry is None:  # a list, too
                    return False
                stack.extend(arg for reader, arg in zip(entry[0], t.args) if reader is not _node_number)
        return True

    def value(self, t: Term, lines: list[str]) -> str:
        """An expression for the value of evaluable clause term *t*, read as :func:`_evaluate` reads it.

        A ground operand is read as the clause compiles (see :meth:`read`).
        Each other compound is one statement
        ``r<i> = reader(function(operands))``, in post-order, so the source
        does not nest with the term.  An operand read that can raise goes to
        a local before a later sibling's statements run, so errors come in
        the walk's order.  Locals are a stack: a compound's statement reuses
        its operands' locals.
        """
        frames: list[list] = []  # [compound, the reader of its value, its readers, its function, its operands' reads]
        held = 0  # locals r0..r<held-1> hold reads still to be used
        reader = _value
        while True:
            t = deref(t)
            if type(t) is Compound and reader is not _node_number and not self.is_constant(t):
                readers, function = _EVALUABLE[(t.name, len(t.args))]
                if frames:  # the reads before this operand run first
                    reads = frames[-1][4]
                    for i, read in enumerate(reads):
                        if read.endswith(")"):
                            lines.append("    r%d = %s" % (held, read))
                            reads[i], held = "r%d" % held, held + 1
                frames.append([t, reader, readers, function, []])
                t, reader = t.args[0], readers[0]
                continue
            read = self.read(reader, t, lines)
            while frames:  # hand *read* to its compound; finish every compound that completes
                compound, value_reader, readers, function, reads = frames[-1]
                reads.append(read)
                if len(reads) < len(compound.args):
                    t, reader = compound.args[len(reads)], readers[len(reads)]
                    break
                frames.pop()
                read = "%s(%s)" % (self.constant(function), ", ".join(reads))
                if value_reader is not _value:
                    read = "%s(%s)" % (self.constant(value_reader), read)
                if frames:
                    held -= sum(1 for read in reads if read.startswith("r"))
                    lines.append("    r%d = %s" % (held, read))
                    read, held = "r%d" % held, held + 1
            else:
                return read

    def read(self, reader: Callable, t: Term, lines: list[str]) -> str:
        """An expression for operand *t* (a leaf, a ground term, or a node form's operand) read by *reader* (see :func:`_read`).

        A ground operand is read now, as the clause compiles, unless reading it
        raises: then it is read when the goal runs, and the error comes in its turn.
        """
        if self.is_constant(t):
            try:
                return self.constant(_read(reader, t))
            except Exception:  # EvalError, an overflow, str() of a huge int: the goal's error
                pass
        return "%s(%s, %s)" % (self.constant(_read), self.constant(reader), self.build(t, lines))


def _bind_built(solver: "Solver", var: Var, term: Term) -> Optional[Term]:
    """*term*, built from a clause head, bound to goal variable *var*; None if *var* occurs in it."""
    if solver.options.occurs_check and solver._occurs(var, term):
        return None
    solver.bind(var, term)
    return term


def _copy_in(t: Term, e: list, slots: dict[int, int]) -> Term:
    """Head subterm *t* built over the slot list *e*; its unfilled (None) slots get fresh variables."""
    variables = [(var.id, slots[var.id]) for var in term_variables(t)]
    mapping = {var: e[slot] for var, slot in variables if e[slot] is not None}
    built = copy_term(t, mapping)
    for var, slot in variables:
        if e[slot] is None:
            e[slot] = mapping[var]
    return built


def _conjuncts(t: Term) -> list[Term]:
    """The goals of a right-nested ``,`` chain, left to right."""
    goals = []
    t = deref(t)
    while goal_kind(t)[0] is AND:
        goals.append(t.args[0])
        t = deref(t.args[1])
    goals.append(t)
    return goals


def _sequence(sites: Sequence, env, cut: int, rest: Optional[tuple]) -> Optional[tuple]:
    """Frames that run *sites* over *env* and then *rest* (*rest* itself for no sites)."""
    for site in reversed(sites):
        rest = (site, env, cut, rest)
    return rest


# The fixed sites a goal term runs on (see Solver): its env is the goal term
# itself, or for a ``,`` or ``;`` term the term's argument tuple.
_GOAL = (TERM, deref)
_LEFT, _RIGHT = (TERM, itemgetter(0)), (TERM, itemgetter(1))
_BOTH, _EITHER = (_LEFT, _RIGHT), (OR, (_LEFT,), (_RIGHT,))


def call_goal(target: Term, extra: Sequence[Term]) -> Optional[Term]:
    """The goal ``call(Target, Extra...)`` runs: *target* with *extra* added (None: not callable)."""
    target = deref(target)
    if isinstance(target, (Atom, Compound)) and not extra:
        return target
    if isinstance(target, Atom):
        return Compound(target.name, tuple(extra))
    if isinstance(target, Compound):
        return Compound(target.name, target.args + tuple(extra))
    return None


def _index_key(t: Term) -> Optional[tuple]:
    """First-argument key: the principal functor, or (type, value) for a number.

    None for an unbound variable.  Numbers keep their type because ``unify``
    keeps ``1`` and ``1.0`` apart.  A clause head's key is its predicate's.
    """
    while type(t) is Var and t.ref is not None:
        t = t.ref
    kind = type(t)
    if kind is Compound:
        return (t.name, len(t.args))
    if kind is Atom:
        return (t.name, 0)
    if isinstance(t, (int, float)):
        return (kind, t)
    return None


class Program:
    """Ordered clause store keyed by (functor, arity).

    Clause order is semantic: earlier clauses have priority. ``operators``
    carries the operator table the source was read with (opaque here).

    Each predicate also keeps a first-argument index: one bucket per
    first-argument key, holding the clauses with that key and the clauses
    whose first argument is a variable, in text order.  ``add``, ``extend``
    and ``copy`` keep it up to date, so it never needs rebuilding.
    """

    def __init__(self, operators: object = None) -> None:
        self.clauses: dict[tuple[str, int], list[Clause]] = {}  # in order of definition
        self.operators = operators
        # predicate -> (bucket per first-argument key, variable-first clauses)
        self.index: dict[tuple[str, int], tuple[dict[tuple, list[Clause]], list[Clause]]] = {}

    def add(self, head: Term, body: Term = TRUE) -> None:
        key = _index_key(head)
        if key is None or type(key[0]) is not str:
            raise ValueError("clause head must be an atom or compound: %s" % render_term(head))
        self._store(key, Clause(head, body))

    def _store(self, key: tuple[str, int], clause: Clause) -> None:
        if key not in self.clauses:
            self.clauses[key] = []
            self.index[key] = ({}, [])
        self.clauses[key].append(clause)
        buckets, unkeyed = self.index[key]
        head = deref(clause.head)
        first = _index_key(head.args[0]) if isinstance(head, Compound) else None
        if first is None:
            unkeyed.append(clause)
            for bucket in buckets.values():
                bucket.append(clause)
        else:
            if first not in buckets:
                buckets[first] = list(unkeyed)
            buckets[first].append(clause)

    def get(self, name: str, arity: int) -> Optional[list[Clause]]:
        return self.clauses.get((name, arity))

    def candidates(self, name: str, arity: int, args: Sequence[Term]) -> Optional[list[Clause]]:
        """The clauses a call with *args* may match, in text order (None: undefined).

        A goal whose first argument is unbound gets every clause.
        """
        first = _index_key(args[0]) if args else None
        if first is None:
            return self.clauses.get((name, arity))
        index = self.index.get((name, arity))
        return None if index is None else index[0].get(first, index[1])

    def defines(self, name: str, arity: int) -> bool:
        return (name, arity) in self.clauses

    def extend(self, other: "Program") -> None:
        """Append *other*'s clauses after this program's (order preserved)."""
        for key, clauses in other.clauses.items():
            for clause in clauses:
                self._store(key, clause)

    def copy(self) -> "Program":
        dup = Program(self.operators)
        dup.clauses = {key: list(cls) for key, cls in self.clauses.items()}
        dup.index = {
            key: ({first: list(bucket) for first, bucket in buckets.items()}, list(unkeyed))
            for key, (buckets, unkeyed) in self.index.items()
        }
        return dup


class SolverOptions:
    """Knobs for one solver instance."""

    __slots__ = ("occurs_check", "depth_limit", "diagnostics")

    def __init__(
        self,
        occurs_check: bool = False,
        depth_limit: int = DEFAULT_STEP_LIMIT,
        diagnostics: Optional[TextIO] = None,  # default: sys.stderr at use time
    ) -> None:
        self.occurs_check = occurs_check
        self.depth_limit = depth_limit
        self.diagnostics = diagnostics


# A native is called as ``native(solver, args)``.  One that succeeds at most
# once returns True or False and pushes no choicepoint; any other is a
# generator function, whose generator is a choicepoint that yields None per
# solution or a request ``(goal, template)`` and may return True or False
# (see Solver).  A clause's call site looks its native up when the clause
# compiles; a goal term looks it up when it runs.
_BUILTINS: dict[tuple[str, int], Callable] = {}


def _builtin(name: str, arity: int):
    def register(fn):
        _BUILTINS[(name, arity)] = fn
        return fn

    return register


def _ascii_upper(s: str) -> str:
    return "".join(chr(ord(c) - 32) if "a" <= c <= "z" else c for c in s)


def _ascii_lower(s: str) -> str:
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in s)


class Solver:
    """Runs queries against a :class:`Program` under :class:`SolverOptions`.

    :meth:`solve` is the machine's own generator, yielding once per solution;
    bindings live in the query's variables while it is suspended, so capture
    (render or copy) anything you need *before* advancing or abandoning it.

    It is one loop over the goals still to run, a linked list of
    frames ``(site, env, cut height, rest)`` (a *rest* of None is a
    solution), and a list of choicepoints.  A site is a compiled body site
    (see :meth:`Clause.compile`) over *env*, the clause's slot list, or a
    fixed TERM site: a goal term (a query's, ``call/N``'s, a request's) is
    the *env* of ``_GOAL``, and a ``,`` or ``;`` term's argument tuple that
    of ``_LEFT`` and ``_RIGHT``.  A TERM site's goal runs as the site it
    would compile to, read by :func:`goal_kind` (an ``is/2`` goal term as a
    call of the native).  Entering a site counts its
    step in the loop itself (natives that enumerate without end call
    :meth:`_step`).  A call
    site builds the argument tuple from *env* and calls its native, or asks
    ``self.program``'s :meth:`Program.candidates` for the clauses that the
    name, arity and first argument select: a site never holds clauses, so a
    clause shared by two programs calls each one's own.  An EVAL site runs
    its own code, and warns and fails on an :class:`EvalError` as the
    ``is/2`` native does.

    A choicepoint exists only while a choice remains.  A call's is data,
    ``[trail mark, clauses, rest, next index, args]``: :meth:`_select` runs
    the candidates' head matchers in turn, undoing a failed match's bindings
    itself, and returns the first matching clause's body frames, consed onto
    *rest*.  It pushes a choicepoint only when a later candidate remains, so
    the last candidate runs with none (Warren's try / retry / trust).  A
    ``;``'s is ``[trail mark, None, frames of the right branch]``.  A
    native's is ``[trail mark, generator, rest]``, and its solutions go on
    with *rest*.  For a request ``(goal, template)`` it yields, the goal runs
    here behind its choicepoint, and the generator is sent whether the goal
    has a solution (template None: the first is committed) or the list of
    template copies, one per solution; it returns True or False, its last
    answer.  On failure the machine undoes the trail, in the loop, to the
    newest mark and resumes that choicepoint: a call's goes back to
    :meth:`_select`, a ``;``'s goes and runs its frames, and a generator's
    next item (which undoes its own bindings) moves the mark up to the trail
    height.  ``!`` deletes the choicepoints above its clause's call-time
    height, and a ``;`` branch keeps its clause's; ``call/N`` and a request
    record a new height.  Steps: one per goal entered other than ``,``, so a
    fact's call is one step and a clause body of k goals adds k; a solve
    reads ``options.depth_limit`` when it starts.
    """

    def __init__(self, program: Program, options: Optional[SolverOptions] = None) -> None:
        self.program = program
        self.options = options or SolverOptions()
        self.trail: list[Var] = []
        self.steps = 0
        self._warned: set[str] = set()

    # -- diagnostics --------------------------------------------------------

    def _diag(self) -> TextIO:
        return self.options.diagnostics or sys.stderr

    def warn(self, message: str) -> None:
        if message not in self._warned:
            self._warned.add(message)
            self._diag().write("warning: %s\n" % message)

    def write_out(self, text: str) -> None:
        self._diag().write(text)

    # -- bindings -----------------------------------------------------------

    def bind(self, var: Var, value: Term) -> None:
        var.ref = value
        self.trail.append(var)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            trail.pop().ref = None

    def _occurs(self, var: Var, t: Term) -> bool:
        stack = [t]
        while stack:
            node = deref(stack.pop())
            if node is var:
                return True
            if isinstance(node, Compound):
                stack.extend(node.args)
        return False

    def unify(self, a: Term, b: Term) -> bool:
        """Destructively unify; returns success. Caller undoes via the trail.

        Pairs of arguments wait on a stack, made at the first compound pair,
        and the last pair is unified first.  Numbers are ``int`` and ``float``,
        and ``1`` does not unify with ``1.0``.
        """
        trail = self.trail
        stack = None
        while True:
            while type(a) is Var and a.ref is not None:
                a = a.ref
            while type(b) is Var and b.ref is not None:
                b = b.ref
            if a is not b:
                kind = type(a)
                if kind is Var:
                    if self.options.occurs_check and self._occurs(a, b):
                        return False
                    a.ref = b
                    trail.append(a)
                elif type(b) is Var:
                    if self.options.occurs_check and self._occurs(b, a):
                        return False
                    b.ref = a
                    trail.append(b)
                elif kind is Compound:
                    if type(b) is not Compound or a.name != b.name or len(a.args) != len(b.args):
                        return False
                    if stack is None:
                        stack = []
                    stack.extend(zip(a.args, b.args))
                elif kind is Atom:
                    if type(b) is not Atom or a.name != b.name:
                        return False
                elif kind is int or kind is float:
                    if type(b) is not kind or a != b:
                        return False
                else:  # pragma: no cover - defensive
                    return False
            if not stack:
                return True
            a, b = stack.pop()

    # -- solving ------------------------------------------------------------

    def solve_once(self, goal: Term) -> bool:
        """True iff *goal* has at least one solution; bindings are undone."""
        mark = len(self.trail)
        for _ in self.solve(goal):
            self.undo_to(mark)
            return True
        return False

    def commit_first(self, goal: Term) -> bool:
        """Whether *goal* has a solution; the first one's bindings stay, as after ``goal, !``.

        For a goal solved at top level only: the bindings leave the trail, so
        nothing can undo them.
        """
        mark, solutions = len(self.trail), self.solve(goal)
        found = next(solutions, False) is None
        del self.trail[mark:]
        solutions.close()
        return found

    def _step(self) -> None:
        self.steps += 1
        limit = self.options.depth_limit
        if self.steps > limit:
            raise ResourceLimitError("step limit of %d resolution steps exceeded" % limit)

    def solve(self, goal: Term) -> Iterator[None]:
        """Run *goal* on the machine (see the class docstring); yields once per solution."""
        trail = self.trail
        start = len(trail)
        limit = self.options.depth_limit
        candidates = self.program.candidates
        choicepoints: list = []
        requests: list = []  # [barrier, template, answer] per native waiting on its goal, newest last
        frame: Optional[tuple] = (_GOAL, goal, 0, None)
        try:
            while True:
                if frame is None:
                    if not requests:
                        yield
                    elif requests[-1][1] is None:  # the newest request's goal has a solution: commit to it
                        del choicepoints[requests[-1][0] :]
                        choicepoints[-1][0] = len(trail)  # its bindings stay
                        requests[-1][2] = True
                    else:
                        requests[-1][2].append(copy_term(requests[-1][1]))
                else:
                    site, env, cut, frame = frame
                    kind = site[0]
                    if kind is CALL:
                        _, build, name, arity, native = site
                        args = build(env)
                    elif kind is TERM:  # a goal term runs as the site it would compile to
                        goal = deref(site[1](env))
                        kind, name, args = goal_kind(goal)
                        if kind is AND:  # no step: each argument runs on a fixed site
                            frame = _sequence(_BOTH, args, cut, frame)
                            continue
                        if kind is OR:
                            site, env = _EITHER, args
                        elif kind is CALL:
                            arity = len(args)
                            native = _BUILTINS.get((name, arity))
                    self.steps += 1  # as _step(), inline: one step per goal entered
                    if self.steps > limit:
                        raise ResourceLimitError("step limit of %d resolution steps exceeded" % limit)
                    if kind is CALL:
                        if native is not None:
                            result = native(self, args)
                            if result is True:
                                continue
                            if result is not False:
                                choicepoints.append([len(trail), result, frame])
                        else:
                            clauses = candidates(name, arity, args)
                            if clauses is None:
                                self.warn("unknown predicate %s/%d (goal fails)" % (name, arity))
                            elif clauses:
                                body = self._select(choicepoints, clauses, 0, args, frame)
                                if body is not _EXHAUSTED:
                                    frame = body
                                    continue
                    elif kind is EVAL:
                        try:
                            if site[1](env, self):
                                continue
                        except EvalError as exc:
                            self.warn("is/2: %s" % exc)
                    elif kind is CUT:
                        del choicepoints[cut:]
                        continue
                    elif kind is OR:
                        choicepoints.append([len(trail), None, _sequence(site[2], env, cut, frame)])
                        frame = _sequence(site[1], env, cut, frame)
                        continue
                    elif kind is CALL_N:
                        target = call_goal(args[0], args[1:])
                        if target is not None:
                            frame = (_GOAL, target, len(choicepoints), frame)
                            continue
                        self.warn("call/N target is not callable: %s" % render_term(args[0]))
                    elif type(goal) is Var:
                        self.warn("unbound variable called as a goal")
                    else:
                        self.warn("number called as a goal: %s" % render_term(goal))
                # Fail: resume the newest choicepoint that has an alternative left.
                while choicepoints:
                    point = choicepoints[-1]
                    mark = point[0]
                    while len(trail) > mark:
                        trail.pop().ref = None
                    if len(point) == 5:  # a call's clauses, from the next candidate on
                        choicepoints.pop()
                        frame = self._select(choicepoints, point[1], point[3], point[4], point[2])
                        if frame is not _EXHAUSTED:
                            break
                        continue
                    if point[1] is None:  # a `;`: its right branch's frames
                        frame = choicepoints.pop()[2]
                        break
                    answer = requests.pop()[2] if requests and requests[-1][0] == len(choicepoints) else None
                    try:
                        alternative = point[1].send(answer)
                    except StopIteration as last:  # the native's last answer
                        choicepoints.pop()
                        if not last.value:
                            continue
                        alternative = None
                    point[0] = len(trail)
                    if alternative is None:  # a solution
                        frame = point[2]
                    else:  # a request: its goal runs behind the native's choicepoint, a cut barrier
                        requests.append([len(choicepoints), alternative[1], False if alternative[1] is None else []])
                        frame = (_GOAL, alternative[0], len(choicepoints), None)
                    break
                else:
                    return
        finally:
            self.undo_to(start)

    def _select(self, choicepoints: list, clauses: Sequence[Clause], index: int, args, rest):
        """The body frames of the first clause from *index* on whose head matches *args*.

        _EXHAUSTED if none does.  Only when candidates remain after the
        matching clause does a choicepoint ``[trail mark, clauses, rest, next
        index, args]`` go on *choicepoints*; the body's cut height is the
        height below it, so a cut in the body deletes it.  The call and the
        retries on backtracking (with the choicepoint popped) both come here.
        """
        trail = self.trail
        mark = len(trail)
        cut = len(choicepoints)
        last = len(clauses) - 1
        while True:
            clause = clauses[index]
            slot_count, match, goals = clause.code or clause.compile()
            env: list = [None] * slot_count
            if match(args, env, self):
                if index < last:
                    choicepoints.append([mark, clauses, rest, index + 1, args])
                for goal in reversed(goals):
                    rest = (goal, env, cut, rest)
                return rest
            while len(trail) > mark:
                trail.pop().ref = None
            if index == last:
                return _EXHAUSTED
            index += 1

    @staticmethod
    def is_builtin(name: str, arity: int) -> bool:
        """True when ``solve`` runs name/arity itself or by a native, never by clauses."""
        return _control(name, arity) is not None or (name, arity) in _BUILTINS

    # -- arithmetic / functor evaluation -------------------------------------

    def eval_is(self, expr: Term) -> Term:
        """Evaluate an ``is``-expression to an int, float, or atom (a list, for ``cat``, to itself).

        Raises :class:`EvalError` on type errors, unbound operands, unknown
        functors, or out-of-range string indexes.  A compound is walked over
        a list of frames that reads ``_EVALUABLE`` (see :func:`_evaluate`):
        depth is bounded by memory.
        """
        return _read(_value, expr)


# ---------------------------------------------------------------------------
# Native predicates


@_builtin("true", 0)
def _bi_true(solver: Solver, args) -> bool:
    return True


@_builtin("fail", 0)
@_builtin("false", 0)
def _bi_fail(solver: Solver, args) -> bool:
    return False


@_builtin("not", 1)
def _bi_not(solver: Solver, args):
    return not (yield args[0], None)


@_builtin("findall", 3)
def _bi_findall(solver: Solver, args):
    """findall(Template, Goal, List): a copy of Template per solution of Goal, in order.

    Goal runs behind a cut barrier (a cut in it stays in it); its bindings are undone.
    """
    return solver.unify(args[2], mk_list((yield args[1], args[0])))


@_builtin("=", 2)
def _bi_unify(solver: Solver, args) -> bool:
    return solver.unify(args[0], args[1])


@_builtin("\\=", 2)
def _bi_not_unify(solver: Solver, args) -> bool:
    mark = len(solver.trail)
    unified = solver.unify(args[0], args[1])
    solver.undo_to(mark)
    return not unified


@_builtin("==", 2)
def _bi_identical(solver: Solver, args) -> bool:
    return term_equal(args[0], args[1])


@_builtin("\\==", 2)
def _bi_not_identical(solver: Solver, args) -> bool:
    return not term_equal(args[0], args[1])


def _type_test(kinds: type | tuple, wanted: bool = True) -> Callable:
    """A native that succeeds when its argument is (*wanted* False: is not) an instance of *kinds*."""

    def test(solver: Solver, args) -> bool:
        t = args[0]
        while type(t) is Var and t.ref is not None:
            t = t.ref
        return isinstance(t, kinds) is wanted

    return test


_BUILTINS[("var", 1)] = _type_test(Var)
_BUILTINS[("nonvar", 1)] = _type_test(Var, False)
_BUILTINS[("atom", 1)] = _type_test(Atom)
_BUILTINS[("number", 1)] = _BUILTINS[("isnumber", 1)] = _type_test((int, float))
_BUILTINS[("integer", 1)] = _BUILTINS[("inumber", 1)] = _type_test(int)
_BUILTINS[("float", 1)] = _BUILTINS[("fnumber", 1)] = _type_test(float)
_BUILTINS[("compound", 1)] = _type_test(Compound)
_BUILTINS[("atomic", 1)] = _type_test((Atom, int, float))
_BUILTINS[("list", 1)] = lambda solver, args: is_list(args[0])
_BUILTINS[("ground", 1)] = lambda solver, args: is_ground(args[0])


@_builtin("is", 2)
def _bi_is(solver: Solver, args) -> bool:
    try:
        value = solver.eval_is(args[1])
    except EvalError as exc:
        solver.warn("is/2: %s" % exc)
        return False
    return solver.unify(args[0], value)


def _comparison(op):
    def compare(solver: Solver, args) -> bool:
        try:
            left = _number(solver.eval_is(args[0]))
            right = _number(solver.eval_is(args[1]))
        except EvalError as exc:
            solver.warn("numeric comparison: %s" % exc)
            return False
        return op(left, right)

    return compare


_BUILTINS[("<", 2)] = _comparison(lambda a, b: a < b)
_BUILTINS[(">", 2)] = _comparison(lambda a, b: a > b)
_BUILTINS[("=<", 2)] = _comparison(lambda a, b: a <= b)
_BUILTINS[(">=", 2)] = _comparison(lambda a, b: a >= b)


@_builtin("atom_codes", 2)
def _bi_atom_codes(solver: Solver, args) -> bool:
    a = deref(args[0])
    if isinstance(a, Atom):
        return solver.unify(args[1], mk_list([ord(c) for c in a.name]))
    if isinstance(a, (int, float)):
        return solver.unify(args[1], mk_list([ord(c) for c in _num_text(a)]))
    items = list_items(args[1])
    if items is None:
        solver.warn("atom_codes/2 needs a bound atom or a proper code list")
        return False
    chars = []
    for item in items:
        item = deref(item)
        if not isinstance(item, int) or not (0 <= item <= 0x10FFFF):
            solver.warn("atom_codes/2: invalid character code %s" % render_term(item))
            return False
        chars.append(chr(item))
    return solver.unify(args[0], Atom("".join(chars)))


@_builtin("append", 3)
def _bi_append(solver: Solver, args) -> Iterator[None]:
    yield from _append(solver, args[0], args[1], args[2])


def _append(solver: Solver, a: Term, b: Term, c: Term) -> Iterator[None]:
    while True:
        a_items = list_items(a)
        if a_items is not None:
            # First argument proper: single solution c = a ++ b.
            if solver.unify(c, mk_list(a_items, deref(b))):
                yield
            break
        if isinstance(deref(a), Var):
            c_items = list_items(c)
            if c_items is not None:
                # Enumerate the |c|+1 splits, sharing the suffix spine; a
                # prefix is built only for a split whose suffix unified.
                spine: list[Term] = [deref(c)]
                node = deref(c)
                while isinstance(node, Compound) and node.name == CONS:
                    node = deref(node.args[1])
                    spine.append(node)
                for i in range(len(c_items) + 1):
                    mark = len(solver.trail)
                    if solver.unify(b, spine[i]) and solver.unify(a, mk_list(c_items[:i])):
                        yield
                    solver.undo_to(mark)
                break
        # General relational fallback (partial lists on both sides): a = [],
        # then a = [H|A2], c = [H|C2] and the same again on A2 and C2, one
        # step per list cell so the step limit bounds an endless enumeration.
        solver._step()
        mark = len(solver.trail)
        if solver.unify(a, EMPTY_LIST) and solver.unify(b, c):
            yield
        solver.undo_to(mark)
        head, tail_a, tail_c = fresh_var("H"), fresh_var("T"), fresh_var("T")
        if not (
            solver.unify(a, Compound(CONS, (head, tail_a)))
            and solver.unify(c, Compound(CONS, (head, tail_c)))
        ):
            break
        a, c = tail_a, tail_c


def _grow(solver: Solver, tail: Var) -> Var:
    """Bind the unbound list tail *tail* to a fresh cell ``[_|T]``, at one step; returns T."""
    solver._step()
    head, rest = fresh_var("_"), fresh_var("_")
    solver.bind(tail, Compound(CONS, (head, rest)))
    return rest


@_builtin("member", 2)
def _bi_member(solver: Solver, args) -> Iterator[None]:
    x, lst = args[0], args[1]
    while True:
        lst = deref(lst)
        if isinstance(lst, Compound) and lst.name == CONS and len(lst.args) == 2:
            mark = len(solver.trail)
            if solver.unify(x, lst.args[0]):
                yield
            solver.undo_to(mark)
            lst = lst.args[1]
        elif isinstance(lst, Var):  # a partial list: add a cell and read it
            _grow(solver, lst)
        else:
            return


@_builtin("length", 2)
def _bi_length(solver: Solver, args) -> Iterator[None]:
    items, tail = list_parts(args[0])
    n = deref(args[1])
    if isinstance(tail, Atom) and tail.name == "[]":
        if solver.unify(args[1], len(items)):
            yield
        return
    if not isinstance(tail, Var):
        return
    if isinstance(n, int):  # the missing cells are added one per step
        for _ in range(n - len(items)):
            tail = _grow(solver, tail)
        if n >= len(items):
            solver.bind(tail, EMPTY_LIST)
            yield
        return
    if isinstance(n, Var):  # the list grows by one cell per answer, at one step each
        k = len(items)
        solver._step()
        while True:
            mark = len(solver.trail)
            if solver.unify(tail, EMPTY_LIST) and solver.unify(n, k):
                yield
            solver.undo_to(mark)
            tail = _grow(solver, tail)
            k += 1
    solver.warn("length/2 needs a proper list or an integer length")


@_builtin("reverse", 2)
def _bi_reverse(solver: Solver, args) -> bool:
    for source, target in ((args[0], args[1]), (args[1], args[0])):
        items = list_items(source)
        if items is not None:
            return solver.unify(target, mk_list(items[::-1]))
    solver.warn("reverse/2 needs at least one proper list")
    return False


@_builtin("delete", 3)
def _bi_delete(solver: Solver, args) -> bool:
    pattern, source, result = args
    items = list_items(source)
    if items is None:
        solver.warn("delete/3 needs a proper list")
        return False
    kept: list[Term] = []
    for item in items:
        mark = len(solver.trail)
        matched = solver.unify(pattern, item)
        solver.undo_to(mark)
        if not matched:
            kept.append(item)
    return solver.unify(result, mk_list(kept))


@_builtin("write", 1)
def _bi_write(solver: Solver, args) -> bool:
    if is_cyclic(args[0]):  # no finite text: rendering it would never end
        solver.warn("write/1 cannot print a cyclic term (goal fails)")
        return False
    solver.write_out(render_term(deref(args[0]), quoted=False))
    return True


@_builtin("canon", 2)
def _bi_canon(solver: Solver, args) -> bool:
    items = list_items(args[0])
    if items is None:
        solver.warn("canon/2 needs a proper attribute list")
        return False
    keyed = []
    for item in items:
        attr = split_attr(item)
        if attr is None:
            solver.warn("canon/2: malformed attribute entry %s" % render_term(item))
            return False
        keyed.append((attr[0], item))
    keyed.sort(key=lambda pair: pair[0])  # stable: equal ids keep order
    return solver.unify(args[1], mk_list([item for _, item in keyed]))


@_builtin("attribute", 3)
@_builtin("attribute", 4)
def _bi_attribute(solver: Solver, args):
    """attribute(Atts, Id, Value[, Rest]): one well-formed entry of Atts per solution.

    Entries are tried in list order; malformed entries and non-proper lists
    yield nothing.  The entries that can match are those named Id when Id is
    an atom, every one when Id is unbound, and none otherwise: no entry
    gives False, one gives True or False with no choicepoint, and more give
    a generator.  Rest, given only with four arguments, is built only once
    Id and Value have unified.
    """
    name = deref(args[1])
    if type(name) is not Atom and type(name) is not Var:
        return False
    name = name.name if type(name) is Atom else None
    items = list_items(args[0]) or []
    entries = []
    for index, item in enumerate(items):
        attr = split_attr(item, name)
        if attr is not None:
            entries.append((index, attr))
    if not entries:
        return False
    if len(entries) == 1:
        return _unify_entry(solver, args, items, *entries[0])
    return _each_entry(solver, args, items, entries)


def _unify_entry(solver: Solver, args, items: list[Term], index: int, attr: tuple[str, str]) -> bool:
    """Id, Value and (with four arguments) Rest unified with entry *index*, decoded as *attr*."""
    return (
        (type(args[1]) is Atom or solver.unify(args[1], Atom(attr[0])))  # an atom Id picked the entry
        and solver.unify(args[2], Atom(attr[1]))
        and (len(args) == 3 or solver.unify(args[3], mk_list(items[:index] + items[index + 1 :])))
    )


def _each_entry(solver: Solver, args, items: list[Term], entries) -> Iterator[None]:
    """attribute/3,4's solutions when more than one of *entries* can match."""
    for index, attr in entries:
        mark = len(solver.trail)
        if _unify_entry(solver, args, items, index, attr):
            yield
        solver.undo_to(mark)


@_builtin("upcase", 2)
def _bi_upcase(solver: Solver, args) -> bool:
    word = deref(args[1])
    if not isinstance(word, Atom):
        solver.warn("upcase/2 is one-directional: second argument must be a bound atom")
        return False
    return solver.unify(args[0], Atom(_ascii_upper(word.name)))


def _case_order_key(s: str, upper_rank: int) -> tuple:
    return (_ascii_lower(s), tuple(upper_rank if "A" <= c <= "Z" else 1 - upper_rank for c in s))


def _class_key(s: str, upper_class_first: bool) -> tuple:
    is_upper = bool(s) and "A" <= s[0] <= "Z"
    rank = 0 if is_upper == upper_class_first else 1
    return (rank, s)


def _text_test(test: Callable[[str, str], bool]) -> Callable:
    """A native that succeeds when both arguments are atoms and *test* holds of their names."""

    def native(solver: Solver, args) -> bool:
        first, second = deref(args[0]), deref(args[1])
        return isinstance(first, Atom) and isinstance(second, Atom) and test(first.name, second.name)

    return native


_BUILTINS[("upper_first", 2)] = _text_test(lambda a, b: _case_order_key(a, 0) <= _case_order_key(b, 0))
_BUILTINS[("lower_first", 2)] = _text_test(lambda a, b: _case_order_key(a, 1) <= _case_order_key(b, 1))
_BUILTINS[("first_upper", 2)] = _text_test(lambda a, b: _class_key(a, True) <= _class_key(b, True))
_BUILTINS[("first_lower", 2)] = _text_test(lambda a, b: _class_key(a, False) <= _class_key(b, False))
_BUILTINS[("contains", 2)] = _text_test(lambda a, b: b in a)
_BUILTINS[("starts_with", 2)] = _text_test(str.startswith)
