"""The test oracle of the prelude's ``equals/2``: node equality modulo attribute order."""

from termxform.term_core import Compound, Term, deref, list_items


def trees_equal(a: Term, b: Term) -> bool:
    """Structural node equality that ignores attribute order."""
    a = deref(a)
    b = deref(b)
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        if a.name == "element" and len(a.args) == 3:
            name_a, attrs_a, children_a = (deref(x) for x in a.args)
            name_b, attrs_b, children_b = (deref(x) for x in b.args)
            if name_a != name_b:
                return False
            items_a = list_items(attrs_a)
            items_b = list_items(attrs_b)
            if items_a is None or items_b is None:
                return items_a == items_b and trees_equal(children_a, children_b)
            key = lambda t: getattr(deref(t), "name", "")
            if [key(x) for x in sorted(items_a, key=key)] != [
                key(x) for x in sorted(items_b, key=key)
            ]:
                return False
            kids_a = list_items(children_a)
            kids_b = list_items(children_b)
            if kids_a is None or kids_b is None or len(kids_a) != len(kids_b):
                return False
            return all(trees_equal(x, y) for x, y in zip(kids_a, kids_b))
        return all(trees_equal(x, y) for x, y in zip(a.args, b.args))
    return a == b
