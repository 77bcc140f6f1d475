"""The recursive rule-term reader that ``rule_language._Parser.parse_top`` replaced.

Before the reader became one loop over a stack of open terms,
``parse_term``, ``parse_primary`` and ``parse_list`` called each other once
per operator level, list and argument, so a term nested past Python's stack
was a ParseError ("term nested too deeply").  The methods below are that
code, unchanged; ``parse_top`` lets the RecursionError through, so a test
can tell a term too deep for this reader from a syntax error.
``tests/test_rule_parser.py`` compares the two readers: the terms, the
variable names, the number of fresh variables, or the whole ParseError.
"""

from termxform.rule_language import OperatorDef, Token, _Parser
from termxform.term_core import Atom, Compound, Term, fresh_var, mk_list


class RecursiveParser(_Parser):
    """``_Parser`` with the term reader as it was, one Python call per level of a term."""

    def parse_top(self) -> Term:
        return self.parse_term(1200)[0]

    def parse_term(self, max_prec: int) -> tuple[Term, int]:
        left, left_prec = self.parse_primary(max_prec)
        while True:
            token = self.peek()
            if token.kind == "comma":
                if max_prec < 1000:
                    break
                op = OperatorDef(",", 1000, "xfy")
            elif token.kind == "atom" and not token.quoted and token.value in self.table.infix:
                op = self.table.infix[str(token.value)]
                if op.precedence > max_prec:
                    break
            else:
                break
            left_max = op.precedence if op.fixity == "yfx" else op.precedence - 1
            if left_prec > left_max:
                break
            self.next()
            right_max = op.precedence if op.fixity == "xfy" else op.precedence - 1
            right, _ = self.parse_term(right_max)
            left = Compound(op.name, (left, right))
            left_prec = op.precedence
        return left, left_prec

    def parse_primary(self, max_prec: int) -> tuple[Term, int]:
        token = self.next()
        if token.kind == "int" or token.kind == "float":
            return token.value, 0  # type: ignore[return-value]
        if token.kind == "var":
            name = str(token.value)
            if name == "_":
                return fresh_var("_"), 0
            if name not in self.var_map:
                self.var_map[name] = fresh_var(name)
            return self.var_map[name], 0
        if token.kind == "open":
            term, _ = self.parse_term(1200)
            self.expect("close")
            return term, 0
        if token.kind == "open_list":
            return self.parse_list(), 0
        if token.kind == "atom":
            name = str(token.value)
            follower = self.peek()
            if follower.kind == "open_func":
                self.next()
                args = [self.parse_term(999)[0]]
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.parse_term(999)[0])
                self.expect("close")
                return Compound(name, tuple(args)), 0
            if not token.quoted and name == "-" and follower.kind in ("int", "float"):
                self.next()
                return -follower.value, 0  # type: ignore[operator, return-value]
            if not token.quoted and name in self.table.prefix:
                op = self.table.prefix[name]
                arg_max = op.precedence if op.fixity == "fy" else op.precedence - 1
                if op.precedence <= max_prec and self.starts_term(follower, arg_max):
                    operand, _ = self.parse_term(arg_max)
                    return Compound(name, (operand,)), op.precedence
            return Atom(name), 0
        raise self.error("expected a term", token, expected="term")

    def starts_term(self, token: Token, arg_max: int) -> bool:
        if token.kind in ("int", "float", "var", "open", "open_list"):
            return True
        if token.kind == "atom":
            if token.quoted:
                return True
            name = str(token.value)
            # An infix operator begins the operand only as a prefix operator that fits it.
            if name in self.table.infix:
                return name in self.table.prefix and self.table.prefix[name].precedence <= arg_max
            return True
        return False

    def parse_list(self) -> Term:
        if self.peek().kind == "close_list":
            self.next()
            return Atom("[]")
        items = [self.parse_term(999)[0]]
        while self.peek().kind == "comma":
            self.next()
            items.append(self.parse_term(999)[0])
        tail: Term = Atom("[]")
        if self.peek().kind == "bar":
            self.next()
            tail = self.parse_term(999)[0]
        self.expect("close_list")
        return mk_list(items, tail)
