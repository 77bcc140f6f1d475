"""Halstead-style size metrics for rule-language sources.

The calculator works on raw counts (distinct/total operators and operands)
and derives length ``N``, volume ``V = N*log2(eta)``, the theoretical
length ``N_T = eta1*log2(eta1) + eta2*log2(eta2)``, the percent length
deviation ``Delta_N``, the abstraction level ``lambda = 64/V`` (the ideal
program has volume ``V* = 8``), and the error estimate ``B = V/300``.

Token classification for rule sources is a fixed convention: structural
tokens (``:- , . ( ) [ ] | ! ;``) and non-head compound functors count as
operators; clause head names, leaf atoms, numbers, quoted atoms, and
variables (distinct per clause by default) count as operands.  The
convention is adjustable through a flat ``key=value`` configuration file.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .rule_language import read_terms, tokenize
from .term_core import Atom, Compound, Term, Var, deref

__all__ = [
    "DegenerateCountsError",
    "HalsteadCounts",
    "HalsteadReport",
    "ClassifierConfig",
    "load_classification_config",
    "halstead",
    "tokenize_classify",
    "report_csv",
    "render_report",
]


class DegenerateCountsError(ValueError):
    """Counts from which no meaningful metrics can be derived."""


@dataclass(frozen=True)
class HalsteadCounts:
    """Raw operator/operand counts plus source size."""

    eta1: int  # distinct operators
    eta2: int  # distinct operands
    n1: int  # total operator occurrences
    n2: int  # total operand occurrences
    loc: int = 0
    bytes: int = 0

    def __post_init__(self) -> None:
        values = (self.eta1, self.eta2, self.n1, self.n2, self.loc, self.bytes)
        if any(v < 0 for v in values):
            raise ValueError("counts must be non-negative")
        if self.eta1 > 0 and self.n1 < self.eta1:
            raise ValueError("total operators cannot be below distinct operators")
        if self.eta2 > 0 and self.n2 < self.eta2:
            raise ValueError("total operands cannot be below distinct operands")


@dataclass(frozen=True)
class HalsteadReport:
    """Derived metrics; every field is recomputable from ``counts``."""

    counts: HalsteadCounts
    length: int  # N
    vocabulary: int  # eta
    volume: float  # V
    theoretical_length: float  # N_T
    delta: float  # Delta_N, percent
    lam: float  # abstraction level lambda
    bugs: float  # B
    ratio: float  # n1/n2


def halstead(counts: HalsteadCounts) -> HalsteadReport:
    """Derive the metric report from raw counts.

    Raises DegenerateCountsError when the counts describe an empty or
    single-token vocabulary program (eta = 0, N = 0, or V = 0).
    """
    length = counts.n1 + counts.n2
    vocabulary = counts.eta1 + counts.eta2
    if vocabulary == 0 or length == 0:
        raise DegenerateCountsError("empty program: no operators or operands")
    volume = length * math.log2(vocabulary)
    if volume == 0:
        raise DegenerateCountsError("degenerate program: zero volume")
    theoretical = 0.0
    if counts.eta1 > 0:
        theoretical += counts.eta1 * math.log2(counts.eta1)
    if counts.eta2 > 0:
        theoretical += counts.eta2 * math.log2(counts.eta2)
    top = max(theoretical, float(length))
    delta = 100.0 * (top - min(theoretical, float(length))) / top
    ratio = counts.n1 / counts.n2 if counts.n2 else math.inf
    return HalsteadReport(
        counts=counts,
        length=length,
        vocabulary=vocabulary,
        volume=volume,
        theoretical_length=theoretical,
        delta=delta,
        lam=64.0 / volume,
        bugs=volume / 300.0,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# Classification


_STRUCTURAL = {":-", ",", ".", "(", ")", "[", "]", "|", "!", ";"}

_PUNCT_NAMES = {"open", "open_func", "close", "open_list", "close_list", "comma", "bar", "end"}


@dataclass(frozen=True)
class ClassifierConfig:
    """Classification convention knobs."""

    functor_as: str = "operator"  # or "operand"
    head_name_as: str = "operand"  # or "operator"
    variables_scope: str = "clause"  # or "file"


def load_classification_config(path: str) -> ClassifierConfig:
    """Read a flat ``key=value`` configuration file (``#`` comments)."""
    values: dict[str, str] = {}
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("malformed configuration line: %r" % raw_line)
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    config = ClassifierConfig(**{
        key: values[key]
        for key in ("functor_as", "head_name_as", "variables_scope")
        if key in values
    })
    _validate_config(config)
    unknown = set(values) - {"functor_as", "head_name_as", "variables_scope"}
    if unknown:
        raise ValueError("unknown configuration keys: %s" % sorted(unknown))
    return config


def _validate_config(config: ClassifierConfig) -> None:
    if config.functor_as not in ("operator", "operand"):
        raise ValueError("functor_as must be 'operator' or 'operand'")
    if config.head_name_as not in ("operator", "operand"):
        raise ValueError("head_name_as must be 'operator' or 'operand'")
    if config.variables_scope not in ("clause", "file"):
        raise ValueError("variables_scope must be 'clause' or 'file'")


def tokenize_classify(text: str, config: Optional[ClassifierConfig] = None) -> HalsteadCounts:
    """Count operators and operands of a rule-language source.

    Structural tokens come straight from the token stream; functors and
    leaves are classified on the parsed clause terms so that operator atoms
    (infix or prefix) count once per textual occurrence.
    """
    config = config or ClassifierConfig()
    _validate_config(config)
    operators: dict[str, int] = {}
    operands: dict[object, int] = {}

    for token in tokenize(text):
        if token.kind in _PUNCT_NAMES:
            _bump(operators, token.value)
        elif token.kind == "atom" and not token.quoted and token.value in (":-", "!", ";"):
            _bump(operators, str(token.value))

    terms, _ = read_terms(text)
    for clause_index, term in enumerate(terms):
        head: Optional[Term] = term
        bodies: list[Term] = []
        if isinstance(term, Compound) and term.name == ":-":
            if len(term.args) == 2:
                head, bodies = term.args[0], [term.args[1]]
            else:
                head, bodies = None, [term.args[0]]
        if head is not None:
            head = deref(head)
            if isinstance(head, Compound):
                _bump_role(operators, operands, head.name, config.head_name_as)
                for arg in head.args:
                    _walk(arg, clause_index, operators, operands, config)
            else:
                _classify_leaf(head, clause_index, operators, operands, config)
        for body in bodies:
            _walk(body, clause_index, operators, operands, config)

    return HalsteadCounts(
        eta1=len(operators),
        eta2=len(operands),
        n1=sum(operators.values()),
        n2=sum(operands.values()),
        loc=_count_loc(text),
        bytes=len(text.encode("utf-8")),
    )


def _bump(counter: dict, key: object) -> None:
    counter[key] = counter.get(key, 0) + 1


def _bump_role(operators: dict, operands: dict, name: str, role: str) -> None:
    if role == "operator":
        _bump(operators, name)
    else:
        _bump(operands, name)


def _walk(
    term: Term,
    clause_index: int,
    operators: dict,
    operands: dict,
    config: ClassifierConfig,
) -> None:
    stack = [term]  # pre-order over a stack of its own: a term's depth is bounded by memory
    while stack:
        term = deref(stack.pop())
        if isinstance(term, Compound):
            if term.name not in _STRUCTURAL:
                _bump_role(operators, operands, term.name, config.functor_as)
            stack.extend(reversed(term.args))
        else:
            _classify_leaf(term, clause_index, operators, operands, config)


def _classify_leaf(
    term: Term,
    clause_index: int,
    operators: dict,
    operands: dict,
    config: ClassifierConfig,
) -> None:
    if isinstance(term, Var):
        if config.variables_scope == "file" and term.name != "_":
            _bump(operands, ("var", term.name))
        else:
            _bump(operands, ("var", clause_index, term.id if term.name == "_" else term.name))
        return
    if isinstance(term, Atom):
        if term.name in _STRUCTURAL:
            return  # already counted from the token stream
        _bump(operands, term.name)
        return
    _bump(operands, repr(term))


def _count_loc(text: str) -> int:
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Reporting


_CSV_COLUMNS = [
    "label",
    "LOC",
    "Bytes",
    "eta1",
    "eta2",
    "N1",
    "N2",
    "N1/N2",
    "N_T",
    "Delta_N",
    "lambda",
    "B",
]


def report_csv(reports: Sequence[tuple[str, HalsteadReport]]) -> str:
    """Render labeled reports as CSV (one row per label, supplied order)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for label, report in reports:
        counts = report.counts
        writer.writerow(
            [
                label,
                counts.loc,
                counts.bytes,
                counts.eta1,
                counts.eta2,
                counts.n1,
                counts.n2,
                _round(report.ratio),
                _round(report.theoretical_length),
                _round(report.delta),
                _round(report.lam),
                _round(report.bugs),
            ]
        )
    return buffer.getvalue()


def _round(value: float) -> object:
    if value == math.inf:
        return "inf"
    return round(value, 4)


def render_report(report: HalsteadReport) -> str:
    """Human-readable multi-line report."""
    counts = report.counts
    lines = [
        "distinct operators (eta1) = %d" % counts.eta1,
        "distinct operands  (eta2) = %d" % counts.eta2,
        "total operators    (N1)   = %d" % counts.n1,
        "total operands     (N2)   = %d" % counts.n2,
        "length             (N)    = %d" % report.length,
        "vocabulary         (eta)  = %d" % report.vocabulary,
        "volume             (V)    = %.4f" % report.volume,
        "theoretical length (N_T)  = %.4f" % report.theoretical_length,
        "length deviation   (D%%)   = %.4f" % report.delta,
        "abstraction level  (lam)  = %.4f" % report.lam,
        "error estimate     (B)    = %.4f" % report.bugs,
        "operator/operand ratio    = %s"
        % ("inf" if report.ratio == math.inf else "%.4f" % report.ratio),
    ]
    if counts.loc or counts.bytes:
        lines.insert(0, "source size: %d LOC, %d bytes" % (counts.loc, counts.bytes))
    return "\n".join(lines)
