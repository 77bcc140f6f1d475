"""Unification-based XML transformation over logic terms.

XML documents parse into ``element``/``text``/``comment``/``pi`` terms;
rule programs written in a small operator-extensible language run on a
backtracking solver with a built-in navigation/transformation rule set;
results serialize back to XML.  A Halstead-style metrics calculator for
the rule language rounds out the toolbox; it loads on first use, so that
importing the package for a transformation does not pay for it.
"""

from .logic_engine import (
    Clause,
    EvalError,
    Program,
    ResourceLimitError,
    Solver,
    SolverOptions,
)
from .rule_language import (
    OperatorDef,
    OperatorTable,
    Query,
    default_operators,
    parse_program,
    parse_query,
)
from .rule_language import ParseError as RuleParseError
from .template_engine import (
    TransformOptions,
    TransformReport,
    transform_file,
    traverse,
)
from .term_core import (
    Atom,
    Compound,
    Term,
    Var,
    copy_term,
    deref,
    mk_element,
    mk_list,
    render_term,
    term_equal,
)
from .transform_prelude import load_prelude, prelude_program, tree_to_relation
from .xml_io import (
    ParseError as XmlParseError,
)
from .xml_io import (
    ValidationError,
    check_serializable,
    parse_document,
    serialize_document,
    serialize_fragment,
)

__version__ = "0.1.0"

_METRICS_NAMES = ("HalsteadCounts", "HalsteadReport", "halstead", "tokenize_classify")


def __getattr__(name: str):
    if name in _METRICS_NAMES:
        from . import metrics

        return getattr(metrics, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "Atom",
    "Clause",
    "Compound",
    "EvalError",
    "HalsteadCounts",
    "HalsteadReport",
    "OperatorDef",
    "OperatorTable",
    "Program",
    "Query",
    "ResourceLimitError",
    "RuleParseError",
    "Solver",
    "SolverOptions",
    "Term",
    "TransformOptions",
    "TransformReport",
    "ValidationError",
    "Var",
    "XmlParseError",
    "check_serializable",
    "copy_term",
    "default_operators",
    "deref",
    "halstead",
    "load_prelude",
    "mk_element",
    "mk_list",
    "parse_document",
    "parse_program",
    "parse_query",
    "prelude_program",
    "render_term",
    "serialize_document",
    "serialize_fragment",
    "term_equal",
    "tokenize_classify",
    "transform_file",
    "traverse",
    "tree_to_relation",
    "__version__",
]
