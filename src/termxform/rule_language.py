"""Reader for the textual rule language.

Programs are sequences of clauses terminated by ``.``; ``%`` starts a line
comment.  ``tokenize`` lexes by one compiled pattern with a named
alternative per token class (blank or comment, quoted atom, number, name,
punctuation, end, symbol run); its symbol characters are
``term_core.SYMBOL_CHAR``, the class the renderer quotes by.  Terms are built
by an operator-precedence parser over a user-extensible operator table
(``:-op(Precedence, Fixity, Name)`` directives take effect for all following
clauses).  The parser is one loop over a stack of open terms, so a term
nests as deep as memory allows.  Each frame is a term waiting for its next
subterm, with the precedence it was read at: an infix or prefix operator's
operand, the inside of parentheses, a compound's next argument, a list's
next item or its tail.  A term once read is extended with infix operators,
and then closes every frame it completes.  Quoted atoms escape an embedded
single quote by doubling it.  Variables start with an uppercase letter or
``_``; the bare ``_`` is fresh at every occurrence.  File extension: ``.tx``.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

from .logic_engine import Program
from .term_core import (
    SYMBOL_CHAR,
    Atom,
    Compound,
    PositionError,
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


class ParseError(PositionError):
    """A position-tagged syntax error in rule-language source."""


class OperatorDef(NamedTuple):
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
    OperatorDef("-", 200, "fy"),
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

# One named alternative per token class, tried in this order; a group named
# after a token kind gives that kind.  A name is any run of word characters,
# so ``tokenize`` checks its start: ``\w`` also admits numerals such as ``²``.
# ``.`` ends a clause only before a blank, a comment or the end of the text.
_TOKEN_RE = re.compile(
    r"(?P<blank>[ \t\r\n]+|%[^\n]*)"
    r"|(?P<quoted>'(?:[^']|'')*'(?!'))"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>\w+)"
    r"|(?P<open>\()|(?P<close>\))|(?P<open_list>\[)|(?P<close_list>\])|(?P<comma>,)|(?P<bar>\|)"
    r"|(?P<end>\.(?![^ \t\r\n%]))"
    r"|(?P<atom>[!;]|" + SYMBOL_CHAR + r"+)"
)


class Token(NamedTuple):
    kind: str  # atom var int float open open_func close open_list close_list comma bar end eof
    value: object
    line: int
    col: int
    quoted: bool = False


def tokenize(text: str) -> list[Token]:
    """Lex rule-language source into tokens (including the final eof marker)."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    glued = ""  # kind of the token that ends where the next match starts
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        kind = match.lastgroup if match else None
        col = pos - line_start + 1
        if kind == "name" and not (text[pos] == "_" or text[pos].isalpha()):
            kind = None
        if kind is None:
            if text[pos] == "'":
                raise ParseError("unterminated quoted atom", line, col, "'", "end of input")
            if text[pos] == ".":
                raise ParseError("unexpected '.'", line, col, found=repr(text[pos : pos + 2]))
            raise ParseError("unexpected character", line, col, found=repr(text[pos]))
        lexeme = match.group()
        if kind == "blank":
            glued = ""
        else:
            value: object = lexeme
            quoted = kind == "quoted"
            if quoted:
                kind, value = "atom", lexeme[1:-1].replace("''", "'")
            elif kind == "number":
                kind, value = ("int", int(lexeme)) if lexeme.isdecimal() else ("float", float(lexeme))
            elif kind == "name":
                kind = "var" if lexeme[0] == "_" or lexeme[0].isupper() else "atom"
            elif kind == "open" and glued == "var":
                raise ParseError("a variable cannot be applied to arguments", line, col, found="(")
            elif kind == "open" and glued == "atom":
                kind = "open_func"
            tokens.append(Token(kind, value, line, col, quoted))
            glued = kind
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = pos + lexeme.rindex("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", None, line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_COMMA = OperatorDef(",", 1000, "xfy")
_TERM_STARTS = ("int", "float", "var", "open", "open_list")


class _Parser:
    def __init__(self, tokens: list[Token], table: OperatorTable) -> None:
        self.tokens = tokens
        self.pos = 0
        self.table = table
        self.var_map: dict[str, Var] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Token, expected: str = "") -> ParseError:
        found = "end of input" if token.kind == "eof" else repr(str(token.value))
        return ParseError(message, token.line, token.col, expected, found)

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise self.error("unexpected token", token, expected=kind)
        return token

    def parse_top(self) -> Term:
        """Read one term of precedence at most 1200 (the loop is in the module docstring)."""
        tokens, pos, infix, prefix = self.tokens, self.pos, self.table.infix, self.table.prefix
        # The open terms, innermost last, each [kind, precedence read at, ...]: "infix" adds
        # the operator, its precedence and the left operand, "prefix" the operator and its
        # precedence, "args" the functor and the arguments so far, "[" and "|" the items.
        stack: list[list] = []
        max_prec = 1200
        while True:
            # A primary term, or a frame for its first subterm.
            token = tokens[pos]
            kind, value, _, _, quoted = token
            pos += 1  # past an eof only to raise below
            if kind == "atom":
                follower = tokens[pos]
                if follower.kind == "open_func":
                    stack.append(["args", max_prec, value, []])
                    pos, max_prec = pos + 1, 999
                    continue
                op = None if quoted else prefix.get(value)
                if not quoted and value == "-" and (follower.kind == "int" or follower.kind == "float"):
                    term, pos = -follower.value, pos + 1
                elif op is not None and op.precedence <= max_prec and (
                    # An infix operator begins the operand only as a prefix operator that fits it.
                    follower.kind in _TERM_STARTS or follower.kind == "atom" and (
                        follower.quoted or follower.value not in infix or follower.value in prefix
                        and prefix[follower.value].precedence <= op.precedence - (op.fixity != "fy")
                    )
                ):
                    stack.append(["prefix", max_prec, value, op.precedence])
                    max_prec = op.precedence if op.fixity == "fy" else op.precedence - 1
                    continue
                else:
                    term = Atom(value)
            elif kind == "var":
                term = fresh_var("_") if value == "_" else self.var_map.get(value)
                if term is None:
                    term = self.var_map[value] = fresh_var(value)
            elif kind == "int" or kind == "float":
                term = value
            elif kind == "open" or kind == "open_list" and tokens[pos].kind != "close_list":
                stack.append(["(", max_prec] if kind == "open" else ["[", max_prec, []])
                max_prec = 1200 if kind == "open" else 999
                continue
            elif kind == "open_list":
                term, pos = Atom("[]"), pos + 1
            else:
                raise self.error("expected a term", token, expected="term")
            prec = 0
            while True:
                # Extend the term with an infix operator, or close the innermost frame.
                token = tokens[pos]
                kind = token.kind
                op = _COMMA if kind == "comma" else infix.get(token.value) if kind == "atom" and not token.quoted else None
                if op is not None and op.precedence <= max_prec and (
                    prec <= (op.precedence if op.fixity == "yfx" else op.precedence - 1)
                ):
                    stack.append(["infix", max_prec, op.name, op.precedence, term])
                    pos, max_prec = pos + 1, op.precedence if op.fixity == "xfy" else op.precedence - 1
                    break
                if not stack:
                    self.pos = pos
                    return term
                frame = stack.pop()
                what, max_prec, prec = frame[0], frame[1], 0
                if what == "infix" or what == "prefix":
                    term, prec = Compound(frame[2], (frame[4], term) if what == "infix" else (term,)), frame[3]
                    continue
                if what == "args" or what == "[":
                    frame[-1].append(term)
                    if kind == "comma" or kind == "bar" and what == "[":
                        if kind == "bar":
                            frame[0] = "|"
                        stack.append(frame)
                        pos, max_prec = pos + 1, 999
                        break
                closer = "close" if what == "(" or what == "args" else "close_list"
                if kind != closer:
                    raise self.error("unexpected token", token, expected=closer)
                pos += 1
                if what == "args":
                    term = Compound(frame[2], tuple(frame[3]))
                elif what != "(":
                    term = mk_list(frame[2], term) if what == "|" else mk_list(frame[2])


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
        term = parser.parse_top()
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


class Query(NamedTuple):
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
    goal = parser.parse_top()
    if parser.peek().kind == "end":
        parser.next()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise parser.error("unexpected input after query", trailing)
    named = {name: var for name, var in parser.var_map.items()}
    return Query(goal, named)
