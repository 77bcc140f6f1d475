"""The recursive ``is/2`` evaluator that ``Solver.eval_is`` replaced, kept as a test oracle.

Before ``Solver.eval_is`` became one loop, now over a list of frames that
reads ``logic_engine``'s table of evaluable functors, it recursed once per
level of an expression: every functor evaluated its operands by calling
``eval_is`` again, and ``cat`` flattened nested lists by calling
``_stringify`` on each item.  The methods below are that code,
unchanged but for the class they sit in, for the ``-``/1 branch (negation,
added to both evaluators together), and for ``_node_number``, which reads
an element's text by ``xml_number``: a regular expression for XML's number
forms, where the old code took whatever ``int()`` and ``float()`` took.
``tests/test_eval_is.py`` compares it with ``eval_is`` and with compiled
``is/2`` goals on random expressions: the value, or the EvalError text.
"""

import re
from typing import Optional

from termxform.logic_engine import EvalError
from termxform.term_core import CONS, Atom, Compound, Term, Var, deref, list_items, list_parts, render_term

# A node's text is a number when, without XML whitespace around it, it is
# an optional sign, ASCII digits with at most one point, and an optional
# exponent.  An integer reads as an int, anything else as a finite float.
_XML_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def xml_number(text: str):
    """The number an element's text reads as, by the regular expression above."""
    text = text.strip(" \t\r\n")
    if _XML_NUMBER.fullmatch(text):
        value = int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else float(text)
        if value - value == 0:  # not inf or nan
            return value
    raise EvalError("text content is not a number: %r" % text)


class RecursiveEvaluator:
    """``eval_is`` and its helpers as they were, one Python call per level of an expression."""

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
        if name == "-" and arity == 1:
            return -self._eval_number(args[0])

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
                        return xml_number(content.name)
        raise EvalError(
            "expected a number or an element with a single numeric text child, got %s"
            % render_term(t)
        )
