"""The test oracle of ``attribute/3,4``: the generator every call used to run.

The native now collects only the entries that can match Id (``split_attr``
with the name when Id is an atom) and answers True or False when there is at
most one; this generator, which decodes every entry and unifies Id, Value
and Rest in turn, is what it must agree with in solutions, their order and
their bindings.
"""

from termxform.term_core import Atom, list_items, mk_list, split_attr


def attribute_solutions(solver, args):
    """attribute(Atts, Id, Value[, Rest]): one well-formed entry of Atts per solution."""
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
