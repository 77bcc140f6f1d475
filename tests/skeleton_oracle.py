"""The skeleton interpreter that clause code used to run, kept as a test oracle.

Before clauses were compiled into generated Python, ``Clause.compile`` turned
a clause into skeletons: every variable a :class:`_Slot` numbered by first
occurrence, every compound that holds a variable a :class:`_Skel`, and every
ground subterm the term itself, shared by every call.  ``_match`` matched a
goal argument against a head skeleton, filling the slot list, and ``_build``
built a body goal from it.  ``tests/test_generated_code.py`` compares the
generated matcher and builders with these functions, and
``GeneratorSolver`` in ``tests/test_solver_machine.py`` runs on them.
"""

from termxform.logic_engine import _conjuncts
from termxform.term_core import TRUE, Compound, Var, deref, fresh_var


class _Slot:
    """A clause variable, numbered by its first occurrence in the clause."""

    __slots__ = ("index", "name")

    def __init__(self, index, name):
        self.index = index
        self.name = name


class _Skel:
    """A clause compound that holds variables; ground compounds stay terms."""

    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args


def _skeleton(t, slots):
    t = deref(t)
    if isinstance(t, Var):
        slot = slots.get(t.id)
        if slot is None:
            slot = slots[t.id] = _Slot(len(slots), t.name)
        return slot
    if isinstance(t, Compound):
        args = tuple(_skeleton(arg, slots) for arg in t.args)
        if any(type(arg) is _Slot or type(arg) is _Skel for arg in args):
            return _Skel(t.name, args)
        return Compound(t.name, args)
    return t


_SKELETONS = {}  # id(clause) -> (clause, skeletons); the clause is kept so its id stays unique


def skeletons(clause):
    """(slot count, head argument skeletons, body goal skeletons), made once per clause."""
    entry = _SKELETONS.get(id(clause))
    if entry is None:
        slots = {}
        head = deref(clause.head)
        head_args = tuple(_skeleton(arg, slots) for arg in getattr(head, "args", ()))
        body = deref(clause.body)
        goals = () if body == TRUE else tuple(_skeleton(goal, slots) for goal in _conjuncts(body))
        entry = _SKELETONS[id(clause)] = (clause, (len(slots), head_args, goals))
    return entry[1]


def _build(skel, env):
    """The term for a skeleton; unfilled slots get fresh variables."""
    kind = type(skel)
    if kind is _Slot:
        term = env[skel.index]
        if term is None:
            term = env[skel.index] = fresh_var(skel.name)
        return term
    if kind is not _Skel:
        return skel
    args = []
    for arg in skel.args:  # slots and ground arguments inline: no call each
        kind = type(arg)
        if kind is _Skel:
            arg = _build(arg, env)
        elif kind is _Slot:
            slot = arg
            arg = env[slot.index]
            if arg is None:
                arg = env[slot.index] = fresh_var(slot.name)
        args.append(arg)
    return Compound(skel.name, args)


def _match(solver, skel, term, env):
    """Match a goal subterm against a clause skeleton, filling *env*.

    The first occurrence of a slot takes *term* as it is; a repeated slot
    or a ground subterm is unified with it.  An unbound goal variable
    facing a compound skeleton is bound to the term built from *env*.
    Arguments are matched left to right, as the WAM does.
    """
    kind = type(skel)
    if kind is _Slot:
        bound = env[skel.index]
        if bound is None:
            env[skel.index] = term
            return True
        return solver.unify(bound, term)
    if kind is _Skel:
        term = deref(term)
        if type(term) is Compound:
            args, skel_args = term.args, skel.args
            if term.name != skel.name or len(args) != len(skel_args):
                return False
            for sub, arg in zip(skel_args, args):
                if not _match(solver, sub, arg, env):
                    return False
            return True
        if type(term) is Var:
            built = _build(skel, env)
            if solver.options.occurs_check and solver._occurs(term, built):
                return False
            solver.bind(term, built)
            return True
        return False
    return solver.unify(skel, term)
