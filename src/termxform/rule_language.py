"""Reader for the textual rule language.

Programs are sequences of clauses terminated by ``.``; ``%`` starts a line
comment.  Terms are built by an operator-precedence parser over a
user-extensible operator table (``:-op(Precedence, Fixity, Name)`` directives
take effect for all following clauses).  Quoted atoms escape an embedded
single quote by doubling it.  Variables start with an uppercase letter or
``_``; the bare ``_`` is fresh at every occurrence.  File extension: ``.tx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .logic_engine import Program
from .term_core import (
    Atom,
    Compound,
    Term,
    Var,
    fresh_var,
    list_items,
    mk_list,
)

__all__ = [
    "OperatorDef",
    "OperatorTable",
    "ParseError",
    "Token",
    "Query",
    "default_operators",
    "tokenize",
    "read_terms",
    "parse_program",
    "parse_query",
]


class ParseError(ValueError):
    """A position-tagged syntax error in rule-language source."""

    def __init__(self, message: str, line: int, col: int, expected: str = "", found: str = "") -> None:
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__("%s (line %d, column %d)" % (message, line, col))


@dataclass(frozen=True)
class OperatorDef:
    """One operator declaration."""

    name: str
    precedence: int
    fixity: str  # one of: yfx, xfy, xfx, fy, fx


_FIXITIES = ("yfx", "xfy", "xfx", "fy", "fx")

_DEFAULT_OPS = [
    OperatorDef(":-", 1200, "xfx"),
    OperatorDef(":-", 1200, "fx"),
    OperatorDef(";", 1100, "xfy"),
    OperatorDef(",", 1000, "xfy"),
    OperatorDef("=", 700, "xfx"),
    OperatorDef("\\=", 700, "xfx"),
    OperatorDef("==", 700, "xfx"),
    OperatorDef("\\==", 700, "xfx"),
    OperatorDef("is", 700, "xfx"),
    OperatorDef("<", 700, "xfx"),
    OperatorDef(">", 700, "xfx"),
    OperatorDef("=<", 700, "xfx"),
    OperatorDef(">=", 700, "xfx"),
    OperatorDef("+", 500, "yfx"),
    OperatorDef("-", 500, "yfx"),
    OperatorDef("*", 400, "yfx"),
    OperatorDef("mod", 400, "yfx"),
    OperatorDef("/", 100, "yfx"),
    OperatorDef("^", 100, "yfx"),
    OperatorDef("@", 100, "yfx"),
    OperatorDef("?", 100, "yfx"),
    OperatorDef("id", 100, "yfx"),
    OperatorDef("#", 100, "yfx"),
    OperatorDef("c", 100, "yfx"),
    OperatorDef("sort", 100, "yfx"),
    OperatorDef("level", 100, "yfx"),
    OperatorDef("atts", 100, "fy"),
    OperatorDef("sortbyName", 100, "fy"),
    OperatorDef("child", 100, "fy"),
    OperatorDef("descendant", 100, "fy"),
    OperatorDef("copy", 100, "fy"),
    OperatorDef("copy_of", 100, "fy"),
    OperatorDef("last", 100, "fy"),
    OperatorDef("count", 100, "fy"),
    OperatorDef("name", 100, "fy"),
    OperatorDef("distinct", 100, "fy"),
]


def default_operators() -> list[OperatorDef]:
    """The built-in operator table (navigation catalog plus standard ops)."""
    return list(_DEFAULT_OPS)


class OperatorTable:
    """Mutable name -> (infix, prefix) operator registry."""

    def __init__(self, defs: Optional[Iterable[OperatorDef]] = None) -> None:
        self.infix: dict[str, OperatorDef] = {}
        self.prefix: dict[str, OperatorDef] = {}
        for d in defs if defs is not None else default_operators():
            self.define(d)

    def define(self, d: OperatorDef) -> None:
        if d.fixity not in _FIXITIES:
            raise ValueError("unknown operator fixity: %r" % d.fixity)
        if not 1 <= d.precedence <= 1200:
            raise ValueError("operator precedence out of range: %d" % d.precedence)
        if d.fixity in ("fy", "fx"):
            self.prefix[d.name] = d
        else:
            self.infix[d.name] = d

    def copy(self) -> "OperatorTable":
        dup = OperatorTable([])
        dup.infix = dict(self.infix)
        dup.prefix = dict(self.prefix)
        return dup


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOL_CHARS = set("+-*/\\^<>=~:?@#&$")


@dataclass(frozen=True)
class Token:
    kind: str  # atom var int float open open_func close open_list close_list comma bar end eof
    value: object
    line: int
    col: int
    quoted: bool = False
    end: int = -1  # offset just past the token in the source text


def tokenize(text: str) -> list[Token]:
    """Lex rule-language source into tokens (including the final eof marker)."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def pos() -> tuple[int, int]:
        return line, i - line_start + 1

    def err(message: str, expected: str = "", found: str = "") -> ParseError:
        l, c = pos()
        return ParseError(message, l, c, expected, found)

    def emit(kind: str, value: object, l: int, c: int, quoted: bool = False) -> None:
        tokens.append(Token(kind, value, l, c, quoted, i))

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        l, c = pos()
        if ch == "'":
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise ParseError("unterminated quoted atom", l, c, "'", "end of input")
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                if text[i] == "\n":
                    line += 1
                    line_start = i + 1
                parts.append(text[i])
                i += 1
            emit("atom", "".join(parts), l, c, quoted=True)
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            is_float = False
            if i + 1 < n and text[i] == "." and text[i + 1].isdigit():
                is_float = True
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    is_float = True
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lexeme = text[start:i]
            if is_float:
                emit("float", float(lexeme), l, c)
            else:
                emit("int", int(lexeme), l, c)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word[0] == "_" or word[0].isupper():
                emit("var", word, l, c)
            else:
                emit("atom", word, l, c)
            continue
        if ch == "(":
            prev = tokens[-1] if tokens else None
            adjacent = prev is not None and prev.kind == "atom" and prev.end == i
            if prev is not None and prev.kind == "var" and prev.end == i:
                raise err("a variable cannot be applied to arguments", found="(")
            i += 1
            emit("open_func" if adjacent else "open", "(", l, c)
            continue
        if ch in "()[],|!;":
            i += 1
            kind = {
                "(": "open",
                ")": "close",
                "[": "open_list",
                "]": "close_list",
                ",": "comma",
                "|": "bar",
                "!": "atom",
                ";": "atom",
            }[ch]
            emit(kind, ch, l, c)
            continue
        if ch == ".":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "" or nxt in " \t\r\n%":
                i += 1
                emit("end", ".", l, c)
                continue
            raise err("unexpected '.'", found=repr(text[i : i + 2]))
        if ch in _SYMBOL_CHARS:
            start = i
            while i < n and text[i] in _SYMBOL_CHARS:
                i += 1
            emit("atom", text[start:i], l, c)
            continue
        raise err("unexpected character", found=repr(ch))
    tokens.append(Token("eof", None, line, n - line_start + 1, False, n))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token], table: OperatorTable) -> None:
        self.tokens = tokens
        self.pos = 0
        self.table = table
        self.var_map: dict[str, Var] = {}

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Token, expected: str = "") -> ParseError:
        found = "end of input" if token.kind == "eof" else repr(str(token.value))
        return ParseError(message, token.line, token.col, expected, found)

    # -- terms -------------------------------------------------------------

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
                if op.precedence <= max_prec and self.starts_term(follower):
                    arg_max = op.precedence if op.fixity == "fy" else op.precedence - 1
                    operand, _ = self.parse_term(arg_max)
                    return Compound(name, (operand,)), op.precedence
            return Atom(name), 0
        raise self.error("expected a term", token, expected="term")

    def starts_term(self, token: Token) -> bool:
        if token.kind in ("int", "float", "var", "open", "open_list"):
            return True
        if token.kind == "atom":
            if token.quoted:
                return True
            name = str(token.value)
            # An infix-only operator cannot begin a term.
            if name in self.table.infix and name not in self.table.prefix:
                return False
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

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise self.error("unexpected token", token, expected=kind)
        return token


def read_terms(
    text: str, table: Optional[OperatorTable] = None
) -> tuple[list[Term], OperatorTable]:
    """Read all clause terms of *text*, applying ``:-op`` directives in order.

    Returns the clause terms (directives included) and the final table.
    """
    table = table.copy() if table is not None else OperatorTable()
    tokens = tokenize(text)
    terms: list[Term] = []
    parser = _Parser(tokens, table)
    while parser.peek().kind != "eof":
        parser.var_map = {}
        term, _ = parser.parse_term(1200)
        parser.expect("end")
        terms.append(term)
        directive = _as_directive(term)
        if directive is not None:
            _apply_directive(directive, table, parser)
    return terms, table


def _as_directive(term: Term) -> Optional[Term]:
    if isinstance(term, Compound) and term.name == ":-" and len(term.args) == 1:
        return term.args[0]
    return None


def _apply_directive(directive: Term, table: OperatorTable, parser: _Parser) -> None:
    token = parser.peek()
    if (
        isinstance(directive, Compound)
        and directive.name == "op"
        and len(directive.args) == 3
    ):
        precedence, fixity, names = directive.args
        if not isinstance(precedence, int) or not isinstance(fixity, Atom):
            raise parser.error("malformed op directive", token)
        name_terms = [names]
        listed = list_items(names)
        if listed is not None:
            name_terms = listed
        for name_term in name_terms:
            if not isinstance(name_term, Atom):
                raise parser.error("op name must be an atom", token)
            try:
                table.define(OperatorDef(name_term.name, precedence, fixity.name))
            except ValueError as exc:
                raise parser.error(str(exc), token)
        return
    raise parser.error("unsupported directive", token)


def parse_program(text: str, table: Optional[OperatorTable] = None) -> Program:
    """Parse rule-language source into an ordered clause store."""
    terms, final_table = read_terms(text, table)
    program = Program(operators=final_table)
    for term in terms:
        if _as_directive(term) is not None:
            continue
        if isinstance(term, Compound) and term.name == ":-" and len(term.args) == 2:
            head, body = term.args
        else:
            head, body = term, Atom("true")
        program.add(head, body)
    return program


@dataclass
class Query:
    """A parsed query goal plus its named variables (for printing answers)."""

    goal: Term
    variables: dict[str, Var]


def parse_query(text: str, table: Optional[OperatorTable] = None) -> Query:
    """Read one goal term; the leading ``?-`` and trailing ``.`` are optional."""
    table = table.copy() if table is not None else OperatorTable()
    tokens = tokenize(text)
    parser = _Parser(tokens, table)
    first = parser.peek()
    if first.kind == "atom" and first.value == "?-":
        parser.next()
    if parser.peek().kind == "eof":
        raise ParseError("empty query", first.line, first.col, "goal", "end of input")
    goal, _ = parser.parse_term(1200)
    if parser.peek().kind == "end":
        parser.next()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise parser.error("unexpected input after query", trailing)
    named = {name: var for name, var in parser.var_map.items()}
    return Query(goal, named)
