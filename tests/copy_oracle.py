"""The test oracle of ``term_core.copy_term``: the copy before compounds carried a ground mark.

``copy_term`` now stops at a compound marked ground (``Compound.ground``)
in both of its walks.  This copy of the function it replaced walks every
compound, marked or not, and is what the new one must agree with: the same
structure, the same sharing of fresh variables, and every subterm that holds
no ``Var`` returned as the same object.
"""

from termxform.term_core import Compound, Var, fresh_var


def copy_term(t, mapping=None):
    """Copy *t*, renaming unbound variables apart and following bound ones."""
    while type(t) is Var and t.ref is not None:
        t = t.ref
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is Compound:
            stack.extend(node.args)
        elif type(node) is Var:
            break
    else:
        return t
    if mapping is None:
        mapping = {}
    frames = []
    node = t
    while True:
        while type(node) is Var and node.ref is not None:
            node = node.ref
        if type(node) is Compound:
            frames.append([node, [], False])
            node = node.args[0]
            continue
        if type(node) is Var:
            copy = mapping.get(node.id)
            if copy is None:
                copy = mapping[node.id] = fresh_var(node.name)
        else:
            copy = node
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
