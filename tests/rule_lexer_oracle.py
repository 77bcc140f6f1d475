"""The hand-written rule-language lexer that ``rule_language.tokenize`` replaced.

Before the reader lexed by one token pattern, ``tokenize`` was a loop of
character scanners with their own index and line bookkeeping, and its tokens
carried ``end``, the offset just past them, to tell ``f(`` from ``f (``.
``tests/test_rule_lexer.py`` compares the token pattern with this lexer:
every token's kind, value, line, column and quoting, and every ParseError.
"""

from dataclasses import dataclass

from termxform.rule_language import ParseError

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
