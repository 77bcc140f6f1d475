"""SLD resolution engine with unification, backtracking, and cut.

The solver enumerates solutions depth-first over an ordered clause store:
clauses are tried in program order, conjunctions left to right, and bindings
are undone chronologically (a trail) on backtracking.  The solver runs the
control constructs ``,`` ``;`` ``!`` and ``call/N`` itself; the cut commits to
the choices made since the activation of the clause it occurs in.  Every
other built-in goal, ``true/0``, ``fail/0``, ``false/0``, ``not/1`` and
``findall/3`` included, is a native in one registry.  ``call/N``, ``not/1``
and ``findall/3`` each run their goal behind a cut barrier of its own.
Natives, like the control constructs, shadow program clauses of the same
name and arity (see :meth:`Solver.is_builtin`).  A step counter turns
runaway programs into a :class:`ResourceLimitError` instead of a hang.  A
call tries only the clauses in its first-argument bucket (see
:class:`Program`) and runs each one's head matcher, Python code generated
from the clause once, without copying the clause (see :class:`Clause`).

One loop, :meth:`Solver._solve`, runs every goal on lists of its own, so rule
recursion does not grow the Python stack.  A clause body runs goal by goal,
each made by its generated builder: no ``,`` term is built or solved.

Native predicates cover the term inspection, list, and arithmetic catalog
(``append/3`` is fully nondeterministic, ``delete/3`` removes all unifying
occurrences without binding), and ``is/2`` evaluates both numeric operators
and the string/node functor family (``cat``, ``substring``, ``translate``,
``plus`` over single-text elements, ...).  Evaluation errors make the goal
fail with a diagnostic warning rather than raising.  A native that succeeds
at most once returns True or False, so its call leaves no choicepoint; the
ones that can succeed again (``append/3``, ``member/2``, ``length/2`` and
``attribute/3,4``) are generators, one item per solution.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
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
    is_ground,
    is_list,
    list_items,
    list_parts,
    mk_list,
    render_term,
    split_attr,
    term_equal,
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

# ``not/1``, ``findall/3`` and ``traverse/2`` nest one machine on the Python
# stack per level of nesting; without this raise, 200 levels already fail.
_MIN_RECURSION_LIMIT = 100_000

_EXHAUSTED = object()  # no alternatives left, or a clause head that does not match


class ResourceLimitError(RuntimeError):
    """The step budget was exhausted before the query finished."""


class EvalError(Exception):
    """Internal: arithmetic/functor evaluation failed (goal will fail)."""


class Clause:
    """One stored rule: a head term and a body term (``true`` for facts).

    The solver does not copy ``head`` and ``body`` on each call.  The first
    time the clause is tried it is compiled (see :meth:`compile`) into Python
    code generated from its terms: a head matcher and one builder per goal of
    the body's ``,`` chain, both over a list of numbered variable slots.  A
    call runs the matcher on its goal's arguments and then the goal sequence,
    each goal built from the same slots when it is entered.  A fact runs no
    goals.
    """

    __slots__ = ("head", "body", "code")

    def __init__(self, head: Term, body: Term = TRUE) -> None:
        self.head = head
        self.body = body
        self.code: Optional[tuple[int, Callable, tuple]] = None

    def compile(self) -> tuple[int, Callable, tuple]:
        """(slot count, head matcher, body goal builders), made once.

        One Python source, generated from the clause's terms and run with
        ``exec``, defines ``match(args, e, solver)``, which matches the goal's
        arguments left to right into the slot list *e* (false on a clash), and
        ``g<i>(e)``, which builds body goal i.  Ground subterms are namespace
        constants shared by every call and names are ``repr`` literals: no rule
        text becomes code.  A body ``true`` (a fact, or ``p :- true``) has no goals.
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
    every head slot once matched, and a body slot after its first occurrence,
    which alone tests ``is None`` (backtracking may enter its goal again).
    Each head compound that holds variables gets one builder, which the
    builders of the compounds around it call: the source is linear in the head.
    """

    def __init__(self) -> None:
        self.slots: dict[int, int] = {}  # variable id -> slot
        self.filled: set[int] = set()
        self.constants: dict[int, bool] = {}  # id of a compound -> holds no variable
        self.builders: dict[tuple, str] = {}  # (id of a head compound, filled slots) -> builder
        self.names: dict[str, object] = {"Atom": Atom, "Compound": Compound, "Var": Var}
        self.names.update(bind=_bind_built, deref=deref, fresh_var=fresh_var)
        self.functions: list[str] = []
        self.count = itertools.count()  # numbers the locals and functions
        self.in_body = False

    def generate(self, args: Sequence[Term], goals: Sequence[Term]) -> tuple[int, Callable, tuple]:
        unpack = "".join("x%d, " % i for i in range(len(args)))
        lines = ["    %s= args" % unpack] if args else []
        for i, arg in enumerate(args):
            self.match(arg, "x%d" % i, lines)
        self.function("match(args, e, solver)", lines, "True")
        self.in_body = True
        for i, goal in enumerate(goals):
            lines = []
            self.function("g%d(e)" % i, lines, self.build(goal, lines))
        exec("".join(self.functions), self.names)
        return len(self.slots), self.names["match"], tuple(self.names["g%d" % i] for i in range(len(goals)))

    def function(self, signature: str, lines: list[str], result: str) -> None:
        body = "".join(line + "\n" for line in lines)
        self.functions.append("def %s:\n%s    return %s\n" % (signature, body, result))

    def is_constant(self, t: Term) -> bool:
        t = deref(t)
        if not isinstance(t, Compound):
            return not isinstance(t, Var)
        if id(t) not in self.constants:  # each compound once: linear in the clause
            self.constants[id(t)] = all(self.is_constant(arg) for arg in t.args)
        return self.constants[id(t)]

    def constant(self, t: Term) -> str:
        name = "k%d" % len(self.names)
        self.names[name] = t
        return name

    def match(self, t: Term, x: str, lines: list[str], pad: str = "    ") -> None:
        """Lines that match the goal subterm in local *x* against clause term *t*."""
        t = deref(t)
        if isinstance(t, Var):
            slot = self.slots.setdefault(t.id, len(self.slots))
            if slot in self.filled:
                lines.append("%sif not solver.unify(e[%d], %s): return False" % (pad, slot, x))
            else:
                self.filled.add(slot)
                lines.append("%se[%d] = %s" % (pad, slot, x))
        elif not isinstance(t, Atom) and self.is_constant(t):  # numbers keep unify's type test
            lines.append("%sif not solver.unify(%s, %s): return False" % (pad, self.constant(t), x))
        else:
            lines.append("%st = %s if type(%s) is not Var else deref(%s)" % (pad, x, x, x))
            if isinstance(t, Atom):
                lines.append("%sif type(t) is Var: solver.bind(t, %s)" % (pad, self.constant(t)))
                lines.append("%selif type(t) is not Atom or t.name != %r: return False" % (pad, t.name))
                return
            before = set(self.filled)
            builder = self.builder(t)  # an unbound goal variable is bound to the term it builds
            self.filled = before
            if pad == "    ":  # a head argument: the variable skips the argument's match
                lines.append("    if type(t) is Var:\n        if bind(solver, t, %s(e)) is None: return False" % builder)
                lines.append("    else:")
                pad = "        "
            else:  # matching the arguments against the built term changes nothing and keeps the source flat
                lines.append("%sif type(t) is Var: t = bind(solver, t, %s(e))" % (pad, builder))
            subs = ["s%d" % next(self.count) for _ in t.args]
            check = "%sif type(t) is not Compound or t.name != %r or len(t.args) != %d: return False"
            lines.append(check % (pad, t.name, len(t.args)))
            lines.append("%s%s= t.args" % (pad, "".join(sub + ", " for sub in subs)))
            for arg, sub in zip(t.args, subs):
                self.match(arg, sub, lines, pad)

    def builder(self, t: Compound) -> str:
        """The function that builds head compound *t* with the slots filled now, made once.

        The builder of the compound around *t* makes it; *t*'s own match then
        calls it with the same slots filled.
        """
        key = (id(t), frozenset(self.filled))
        if key not in self.builders:
            lines: list[str] = []
            built = self.build(t, lines)
            self.builders[key] = "h%d" % next(self.count)
            self.function("%s(e)" % self.builders[key], lines, built)
        return self.builders[key]

    def build(self, t: Term, lines: list[str]) -> str:
        """An expression for clause term *t*; *lines* fill its new slots, in order."""
        t = deref(t)
        if isinstance(t, Var):
            slot = self.slots.setdefault(t.id, len(self.slots))
            if slot not in self.filled:
                self.filled.add(slot)
                test = "if e[%d] is None: " % slot if self.in_body else ""
                lines.append("    %se[%d] = fresh_var(%r)" % (test, slot, t.name))
            return "e[%d]" % slot
        if self.is_constant(t):
            return self.constant(t)
        args = []
        for arg in t.args:  # inner compounds go to locals: the source nests no deeper than the term
            arg = deref(arg)
            if isinstance(arg, Compound) and not self.is_constant(arg):
                built = self.build(arg, lines) if self.in_body else self.builder(arg) + "(e)"
                arg_local = "v%d" % next(self.count)
                lines.append("    %s = %s" % (arg_local, built))
                args.append(arg_local)
            else:
                args.append(self.build(arg, lines))
        return "Compound(%r, (%s))" % (t.name, "".join(arg + ", " for arg in args))


def _bind_built(solver: "Solver", var: Var, term: Term) -> Optional[Term]:
    """*term*, built from a clause head, bound to goal variable *var*; None if *var* occurs in it."""
    if solver.options.occurs_check and solver._occurs(var, term):
        return None
    solver.bind(var, term)
    return term


def _conjuncts(t: Term) -> list[Term]:
    """The goals of a right-nested ``,`` chain, left to right."""
    goals = []
    t = deref(t)
    while type(t) is Compound and t.name == "," and len(t.args) == 2:
        goals.append(t.args[0])
        t = deref(t.args[1])
    goals.append(t)
    return goals


def _sequence(goals: Sequence, env: Optional[list], cut: int, rest: Optional[tuple]) -> Optional[tuple]:
    """Frames that run *goals* and then *rest* (*rest* itself for no goals)."""
    for goal in reversed(goals):
        rest = (goal, env, cut, rest)
    return rest


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


def _functor_key(t: Term) -> Optional[tuple[str, int]]:
    t = deref(t)
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Compound):
        return (t.name, len(t.args))
    return None


def _index_key(t: Term) -> Optional[tuple]:
    """First-argument key: the principal functor, or (type, value) for a number.

    None for an unbound variable.  Numbers keep their type because ``unify``
    keeps ``1`` and ``1.0`` apart.
    """
    t = deref(t)
    if isinstance(t, (int, float)):
        return (type(t), t)
    return _functor_key(t)


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
        key = _functor_key(head)
        if key is None:
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
        clauses = self.clauses.get((name, arity))
        if clauses is None or not args:
            return clauses
        first = _index_key(args[0])
        if first is None:
            return clauses
        buckets, unkeyed = self.index[(name, arity)]
        return buckets.get(first, unkeyed)

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


@dataclass
class SolverOptions:
    """Knobs for one solver instance."""

    occurs_check: bool = False
    depth_limit: int = DEFAULT_STEP_LIMIT
    diagnostics: Optional[TextIO] = None  # default: sys.stderr at use time


# A native is called as ``native(solver, args)``.  One that succeeds at most
# once returns True or False and pushes no choicepoint; one that can succeed
# again is a generator function, and the iterator it returns, one item per
# solution, becomes a choicepoint.
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

    ``solve`` is a generator yielding once per solution; bindings live in the
    query's variables while the generator is suspended, so capture (render or
    copy) anything you need *before* advancing or abandoning it.

    :meth:`_solve` is one loop over the goals still to run, a linked list of
    frames ``(goal, env, cut height, rest)`` whose goal, given an *env*, is
    a builder called on entry (a *rest* of None is a solution), and a list
    of choicepoints ``[trail mark, alternatives, rest]``: a native's
    solution iterator, whose solutions go on with *rest* (a native that
    returns True or False has none), or an iterator of frames (a call's
    other clauses, a ``;``'s right branch).  On failure it undoes the trail to the newest
    mark, resumes that choicepoint (each alternative undoes its own
    bindings) and moves the mark up to the trail height.  ``!`` deletes the
    choicepoints above its clause's call-time height; ``call/N`` records a
    new height.  A call with one candidate clause pushes none.  Steps: one per
    goal entered other than ``,``, so a fact's call is one step and a clause
    body of k goals adds k.
    """

    def __init__(self, program: Program, options: Optional[SolverOptions] = None) -> None:
        self.program = program
        self.options = options or SolverOptions()
        self.trail: list[Var] = []
        self.steps = 0
        self._warned: set[str] = set()
        if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)

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
        """Destructively unify; returns success. Caller undoes via the trail."""
        occurs_check = self.options.occurs_check
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x = deref(x)
            y = deref(y)
            if x is y:
                continue
            if isinstance(x, Var):
                if occurs_check and self._occurs(x, y):
                    return False
                self.bind(x, y)
            elif isinstance(y, Var):
                if occurs_check and self._occurs(y, x):
                    return False
                self.bind(y, x)
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

    # -- solving ------------------------------------------------------------

    def solve(self, goal: Term) -> Iterator[None]:
        """Enumerate solutions of *goal* (yields once per solution)."""
        yield from self._solve(goal)

    def solve_once(self, goal: Term) -> bool:
        """True iff *goal* has at least one solution; bindings are undone."""
        mark = len(self.trail)
        for _ in self._solve(goal):
            self.undo_to(mark)
            return True
        return False

    def _step(self) -> None:
        self.steps += 1
        limit = self.options.depth_limit
        if self.steps > limit:
            raise ResourceLimitError("step limit of %d resolution steps exceeded" % limit)

    def _solve(self, goal: Term) -> Iterator[None]:
        """Run *goal* on the machine (see the class docstring); yields once per solution."""
        trail = self.trail
        start = len(trail)
        choicepoints: list = []
        frame: Optional[tuple] = (goal, None, 0, None)
        try:
            while True:
                if frame is None:
                    yield
                else:
                    goal, env, cut, frame = frame
                    goal = deref(goal if env is None else goal(env))
                    kind = type(goal)
                    name = goal.name if kind is Compound or kind is Atom else None
                    args = goal.args if kind is Compound else ()
                    arity = len(args)
                    if name == "," and arity == 2:
                        frame = _sequence(_conjuncts(goal), None, cut, frame)
                        continue
                    self._step()
                    if kind is Var:
                        self.warn("unbound variable called as a goal")
                    elif name is None:
                        self.warn("number called as a goal: %s" % render_term(goal))
                    elif name == "!" and arity == 0:
                        del choicepoints[cut:]
                        continue
                    elif name == ";" and arity == 2:
                        choicepoints.append([len(trail), iter([(args[1], None, cut, frame)]), frame])
                        frame = (args[0], None, cut, frame)
                        continue
                    elif name == "call" and arity >= 1:
                        target = self._call_goal(args[0], args[1:])
                        if target is not None:
                            frame = (target, None, len(choicepoints), frame)
                            continue
                    elif (name, arity) in _BUILTINS:
                        result = _BUILTINS[(name, arity)](self, args)
                        if result is True:
                            continue
                        if result is not False:
                            choicepoints.append([len(trail), result, frame])
                    else:
                        clauses = self.program.candidates(name, arity, args)
                        if clauses is None:
                            self.warn("unknown predicate %s/%d (goal fails)" % (name, arity))
                        elif len(clauses) == 1:  # no choice: no choicepoint
                            body = self._enter(clauses[0], args, len(choicepoints), frame)
                            if body is not _EXHAUSTED:
                                frame = body
                                continue
                        elif clauses:
                            alternatives = self._clauses(clauses, args, len(choicepoints), frame)
                            choicepoints.append([len(trail), alternatives, frame])
                # Fail: resume the newest choicepoint that has an alternative left.
                while choicepoints:
                    point = choicepoints[-1]
                    if len(trail) > point[0]:
                        self.undo_to(point[0])
                    alternative = next(point[1], _EXHAUSTED)
                    if alternative is not _EXHAUSTED:
                        point[0] = len(trail)
                        frame = point[2] if alternative is None else alternative
                        break
                    choicepoints.pop()
                else:
                    return
        finally:
            self.undo_to(start)

    def _clauses(self, clauses: Sequence[Clause], args: Sequence[Term], cut: int, rest) -> Iterator:
        """The body frames of each clause whose head matches *args*, in order."""
        for clause in clauses:
            mark = len(self.trail)
            body = self._enter(clause, args, cut, rest)
            if body is not _EXHAUSTED:
                yield body
            self.undo_to(mark)

    def _enter(self, clause: Clause, args: Sequence[Term], cut: int, rest):
        """*clause*'s body frames before *rest* if its head matches *args*, else _EXHAUSTED."""
        slot_count, match, goals = clause.code or clause.compile()
        env: list = [None] * slot_count
        if not match(args, env, self):
            return _EXHAUSTED
        return _sequence(goals, env, cut, rest)

    @staticmethod
    def is_builtin(name: str, arity: int) -> bool:
        """True when ``_solve`` runs name/arity itself or by a native, never by clauses."""
        if (name, arity) in ((",", 2), (";", 2), ("!", 0)) or (name == "call" and arity >= 1):
            return True
        return (name, arity) in _BUILTINS

    def _call_goal(self, target: Term, extra: Sequence[Term]) -> Optional[Term]:
        goal = call_goal(target, extra)
        if goal is None:
            self.warn("call/N target is not callable: %s" % render_term(target))
        return goal

    # -- arithmetic / functor evaluation -------------------------------------

    def eval_is(self, expr: Term) -> Term:
        """Evaluate an ``is``-expression to an int, float, or atom.

        Raises :class:`EvalError` on type errors, unbound operands, unknown
        functors, or out-of-range string indexes.
        """
        expr = deref(expr)
        if isinstance(expr, (int, float)):
            return expr
        if isinstance(expr, Atom):
            return expr
        if isinstance(expr, Var):
            raise EvalError("unbound variable in evaluable expression")
        assert isinstance(expr, Compound)
        name, args = expr.name, expr.args
        arity = len(args)
        if name == CONS and arity == 2:
            return expr  # list literal (consumed structurally by cat)

        if name in ("+", "-", "*", "/", "mod") and arity == 2:
            left = self._eval_number(args[0])
            right = self._eval_number(args[1])
            if name == "+":
                return left + right
            if name == "-":
                return left - right
            if name == "*":
                return left * right
            if name == "/":
                if right == 0:
                    raise EvalError("division by zero")
                return left / right
            if not (isinstance(left, int) and isinstance(right, int)):
                raise EvalError("mod requires integers")
            if right == 0:
                raise EvalError("mod by zero")
            return left % right

        if name == "cat" and 2 <= arity <= 8:
            return Atom("".join(self._stringify(a) for a in args))
        if name == "string" and arity == 1:
            value = self.eval_is(args[0])
            if isinstance(value, Atom):
                return value
            if isinstance(value, (int, float)):
                return Atom(self._num_text(value))
            raise EvalError("string/1 expects a number or atom")
        if name == "substring" and arity == 3:
            text = self._eval_text(args[0])
            start = self._eval_int(args[1])
            length = self._eval_int(args[2])
            if start < 1 or length < 0 or start - 1 + length > len(text):
                raise EvalError(
                    "substring out of range: start=%d len=%d on %r" % (start, length, text)
                )
            return Atom(text[start - 1 : start - 1 + length])
        if name == "substring_after" and arity == 2:
            text = self._eval_text(args[0])
            sep = self._eval_text(args[1])
            index = text.find(sep) if sep else 0
            return Atom(text[index + len(sep) :] if index >= 0 else "")
        if name == "substring_before" and arity == 2:
            text = self._eval_text(args[0])
            sep = self._eval_text(args[1])
            index = text.find(sep) if sep else -1
            return Atom(text[:index] if index >= 0 else "")
        if name == "translate" and arity == 3:
            text = self._eval_text(args[0])
            source = self._eval_text(args[1])
            target = self._eval_text(args[2])
            mapping: dict[str, Optional[str]] = {}
            for position, ch in enumerate(source):
                if ch not in mapping:
                    mapping[ch] = target[position] if position < len(target) else None
            out: list[str] = []
            for ch in text:
                if ch in mapping:
                    if mapping[ch] is not None:
                        out.append(mapping[ch])  # type: ignore[arg-type]
                else:
                    out.append(ch)
            return Atom("".join(out))
        if name in ("plus", "minus", "mult", "div") and arity == 2:
            left = self._node_number(args[0])
            right = self._node_number(args[1])
            if name == "plus":
                return left + right
            if name == "minus":
                return left - right
            if name == "mult":
                return left * right
            if right == 0:
                raise EvalError("division by zero")
            return left / right

        raise EvalError("unknown evaluable functor %s/%d" % (name, arity))

    def _eval_number(self, t: Term):
        value = self.eval_is(t)
        if isinstance(value, (int, float)):
            return value
        raise EvalError("expected a number, got %s" % render_term(value))

    def _eval_int(self, t: Term) -> int:
        value = self.eval_is(t)
        if isinstance(value, int):
            return value
        raise EvalError("expected an integer, got %s" % render_term(value))

    def _eval_text(self, t: Term) -> str:
        value = self.eval_is(t)
        if isinstance(value, Atom):
            return value.name
        if isinstance(value, (int, float)):
            return self._num_text(value)
        raise EvalError("expected an atom, got %s" % render_term(value))

    @staticmethod
    def _num_text(value) -> str:
        return repr(value) if isinstance(value, float) else str(value)

    def _stringify(self, t: Term) -> str:
        t = deref(t)
        if isinstance(t, Atom):
            return "" if t.name == "[]" else t.name
        if isinstance(t, (int, float)):
            return self._num_text(t)
        if isinstance(t, Compound) and t.name == CONS and len(t.args) == 2:
            items = list_items(t)
            if items is None:
                raise EvalError("cat cannot flatten an improper list")
            return "".join(self._stringify(item) for item in items)
        value = self.eval_is(t)
        if isinstance(value, (int, float)):
            return self._num_text(value)
        if isinstance(value, Atom):
            return value.name
        raise EvalError("cat cannot stringify %s" % render_term(t))

    def _node_number(self, t: Term):
        t = deref(t)
        if isinstance(t, (int, float)):
            return t
        if isinstance(t, Compound) and t.name == "element" and len(t.args) == 3:
            children = list_parts(t.args[2])[0]
            if len(children) == 1:
                child = deref(children[0])
                if isinstance(child, Compound) and child.name == "text" and len(child.args) == 1:
                    content = deref(child.args[0])
                    if isinstance(content, Atom):
                        text = content.name.strip()
                        try:
                            return int(text)
                        except ValueError:
                            try:
                                return float(text)
                            except ValueError:
                                raise EvalError("text content is not a number: %r" % text)
        raise EvalError(
            "expected a number or an element with a single numeric text child, got %s"
            % render_term(t)
        )


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
def _bi_not(solver: Solver, args) -> bool:
    return not solver.solve_once(args[0])


@_builtin("findall", 3)
def _bi_findall(solver: Solver, args) -> bool:
    """findall(Template, Goal, List): a copy of Template per solution of Goal, in order.

    Goal runs on a machine of its own (a cut in it stays in it); its bindings are undone.
    """
    results = [copy_term(args[0], {}) for _ in solver._solve(args[1])]
    return solver.unify(args[2], mk_list(results))


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


def _type_test(predicate):
    return lambda solver, args: predicate(deref(args[0]))


_BUILTINS[("var", 1)] = _type_test(lambda t: isinstance(t, Var))
_BUILTINS[("nonvar", 1)] = _type_test(lambda t: not isinstance(t, Var))
_BUILTINS[("atom", 1)] = _type_test(lambda t: isinstance(t, Atom))
_BUILTINS[("number", 1)] = _BUILTINS[("isnumber", 1)] = _type_test(lambda t: isinstance(t, (int, float)))
_BUILTINS[("integer", 1)] = _BUILTINS[("inumber", 1)] = _type_test(lambda t: isinstance(t, int))
_BUILTINS[("float", 1)] = _BUILTINS[("fnumber", 1)] = _type_test(lambda t: isinstance(t, float))
_BUILTINS[("compound", 1)] = _type_test(lambda t: isinstance(t, Compound))
_BUILTINS[("atomic", 1)] = _type_test(lambda t: isinstance(t, (Atom, int, float)))
_BUILTINS[("list", 1)] = _type_test(is_list)
_BUILTINS[("ground", 1)] = _type_test(is_ground)


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
            left = solver._eval_number(args[0])
            right = solver._eval_number(args[1])
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
        return solver.unify(args[1], mk_list([ord(c) for c in Solver._num_text(a)]))
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
                # Enumerate the |c|+1 splits, sharing the suffix spine.
                spine: list[Term] = [deref(c)]
                node = deref(c)
                while isinstance(node, Compound) and node.name == CONS:
                    node = deref(node.args[1])
                    spine.append(node)
                for i in range(len(c_items) + 1):
                    mark = len(solver.trail)
                    if solver.unify(a, mk_list(c_items[:i])) and solver.unify(b, spine[i]):
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
        elif isinstance(lst, Var):
            # Extend a partial list: [x|_], [_,x|_], ...
            solver._step()
            mark = len(solver.trail)
            tail = fresh_var("_")
            solver.bind(lst, Compound(CONS, (x, tail)))
            yield
            solver.undo_to(mark)
            skipped = fresh_var("_")
            tail = fresh_var("_")
            solver.bind(lst, Compound(CONS, (skipped, tail)))
            lst = tail
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
    if isinstance(n, int):
        missing = n - len(items)
        if missing < 0:
            return
        if solver.unify(tail, mk_list([fresh_var("_") for _ in range(missing)])):
            yield
        return
    if isinstance(n, Var):
        k = len(items)
        while True:
            solver._step()
            mark = len(solver.trail)
            extension = mk_list([fresh_var("_") for _ in range(k - len(items))])
            if solver.unify(tail, extension) and solver.unify(n, k):
                yield
            solver.undo_to(mark)
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
def _bi_attribute(solver: Solver, args) -> Iterator[None]:
    """attribute(Atts, Id, Value[, Rest]): one well-formed entry of Atts per solution.

    Entries are tried in list order; malformed entries and non-proper lists
    yield nothing. Rest, given only with four arguments, is built only once
    Id and Value have unified.
    """
    items = list_items(args[0])
    with_rest = len(args) == 4
    for index, item in enumerate(items or ()):
        attr = split_attr(item)
        if attr is None:
            continue
        mark = len(solver.trail)
        if (
            solver.unify(args[1], Atom(attr[0]))
            and solver.unify(args[2], Atom(attr[1]))
            and (not with_rest or solver.unify(args[3], mk_list(items[:index] + items[index + 1 :])))
        ):
            yield
        solver.undo_to(mark)


@_builtin("upcase", 2)
def _bi_upcase(solver: Solver, args) -> bool:
    word = deref(args[1])
    if not isinstance(word, Atom):
        solver.warn("upcase/2 is one-directional: second argument must be a bound atom")
        return False
    return solver.unify(args[0], Atom(_ascii_upper(word.name)))


def _atom_pair(solver: Solver, args) -> Optional[tuple[str, str]]:
    first = deref(args[0])
    second = deref(args[1])
    if isinstance(first, Atom) and isinstance(second, Atom):
        return first.name, second.name
    return None


def _case_order_key(s: str, upper_rank: int) -> tuple:
    return (_ascii_lower(s), tuple(upper_rank if "A" <= c <= "Z" else 1 - upper_rank for c in s))


@_builtin("upper_first", 2)
def _bi_upper_first(solver: Solver, args) -> bool:
    pair = _atom_pair(solver, args)
    return pair is not None and _case_order_key(pair[0], 0) <= _case_order_key(pair[1], 0)


@_builtin("lower_first", 2)
def _bi_lower_first(solver: Solver, args) -> bool:
    pair = _atom_pair(solver, args)
    return pair is not None and _case_order_key(pair[0], 1) <= _case_order_key(pair[1], 1)


def _class_key(s: str, upper_class_first: bool) -> tuple:
    is_upper = bool(s) and "A" <= s[0] <= "Z"
    rank = 0 if is_upper == upper_class_first else 1
    return (rank, s)


@_builtin("first_upper", 2)
def _bi_first_upper(solver: Solver, args) -> bool:
    pair = _atom_pair(solver, args)
    return pair is not None and _class_key(pair[0], True) <= _class_key(pair[1], True)


@_builtin("first_lower", 2)
def _bi_first_lower(solver: Solver, args) -> bool:
    pair = _atom_pair(solver, args)
    return pair is not None and _class_key(pair[0], False) <= _class_key(pair[1], False)


@_builtin("contains", 2)
def _bi_contains(solver: Solver, args) -> bool:
    pair = _atom_pair(solver, args)
    return pair is not None and pair[1] in pair[0]


@_builtin("starts_with", 2)
def _bi_starts_with(solver: Solver, args) -> bool:
    pair = _atom_pair(solver, args)
    return pair is not None and pair[0].startswith(pair[1])
