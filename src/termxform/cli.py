"""Command-line interface.

Subcommands: ``transform`` (apply a rule file to an XML document),
``query`` (solve a goal against a rule file, optionally binding ``Doc`` to
a parsed document), ``roundtrip`` (parse/serialize/parse fidelity check),
``metrics`` (size metrics from a source file or raw counts), and ``check``
(static lint of a rule file).

Exit codes: 0 success, 1 no solution (including roundtrip divergence),
2 input error (parse/validation/degenerate counts, a cyclic query answer),
3 internal error or resource limit.  The solver step limit defaults to the
``TERMXFORM_DEPTH`` environment variable when set; the ``--depth-limit``
flag wins over both.
``--max``, ``--depth-limit`` and ``TERMXFORM_DEPTH`` must be at least 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .logic_engine import AND, CALL, CALL_N, DEFAULT_STEP_LIMIT, OR, ResourceLimitError, Solver, SolverOptions
from .logic_engine import call_goal, goal_kind
from .rule_language import parse_query
from .template_engine import TransformOptions, rule_program, transform_file
from .term_core import (
    Atom,
    Compound,
    Term,
    deref,
    is_cyclic,
    list_items,
    render_term,
    term_equal,
)
from .xml_io import _is_element, parse_document, serialize_document

__all__ = ["main"]

PRELUDE_ONLY = "prelude-only"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # Covers rule/XML parse errors, validation errors, degenerate
        # counts, and missing files: all input problems.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termxform",
        description="Rule-based XML transformation over logic terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    transform = sub.add_parser("transform", help="apply a rule file to an XML document")
    transform.add_argument("--rules", required=True, help="rule file (.tx) or 'prelude-only'")
    transform.add_argument("--in", dest="input", required=True, help="input XML document")
    transform.add_argument("--out", dest="output", help="output file (stdout when omitted)")
    transform.add_argument("--all", action="store_true", help="emit every solution, numbered")
    transform.add_argument("--no-wrap", action="store_true", help="emit fragments, no synthetic root")
    transform.add_argument("--keep-ws", action="store_true", help="keep whitespace-only text nodes")
    transform.add_argument("--pretty", action="store_true", help="indent the output")
    transform.add_argument(
        "--default-text", choices=("drop", "copy"), default="drop",
        help="what unmatched text nodes contribute",
    )
    _solver_flags(transform)
    transform.set_defaults(func=_cmd_transform)

    query = sub.add_parser("query", help="solve a goal against a rule file")
    query.add_argument("--rules", required=True, help="rule file (.tx) or 'prelude-only'")
    query.add_argument("--in", dest="input", help="XML document bound to the variable Doc")
    query.add_argument("--max", type=_positive_int, default=1, help="maximum solutions to print")
    query.add_argument("goal", help="goal text, e.g. \"gcd(24,30,C)\"")
    _solver_flags(query)
    query.set_defaults(func=_cmd_query)

    roundtrip = sub.add_parser("roundtrip", help="check parse/serialize fidelity of a document")
    roundtrip.add_argument("--in", dest="input", required=True, help="XML document")
    roundtrip.set_defaults(func=_cmd_roundtrip)

    metrics = sub.add_parser("metrics", help="size metrics for a rule source or raw counts")
    source = metrics.add_mutually_exclusive_group(required=True)
    source.add_argument("--src", help="rule file to measure")
    source.add_argument("--counts", help="raw counts 'eta1,eta2,N1,N2'")
    metrics.add_argument("--csv", action="store_true", help="CSV output")
    metrics.add_argument("--config", help="classification config file (key=value lines)")
    metrics.add_argument("--label", help="row label (defaults to the file name)")
    metrics.set_defaults(func=_cmd_metrics)

    check = sub.add_parser("check", help="lint a rule file")
    check.add_argument("--rules", required=True, help="rule file (.tx)")
    check.set_defaults(func=_cmd_check)

    return parser


def _solver_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--depth-limit", type=_positive_int, help="solver step limit")
    command.add_argument("--occurs-check", action="store_true", help="unify with occurs check")


def _positive_int(text: str) -> int:
    """An integer of at least 1; argparse names the flag in its error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _resolve_depth(flag: Optional[int]) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("TERMXFORM_DEPTH")
    if env is not None:
        try:
            return _positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError("TERMXFORM_DEPTH: %s" % exc) from None
    return DEFAULT_STEP_LIMIT


def _cmd_transform(args: argparse.Namespace) -> int:
    options = TransformOptions(
        all_solutions=args.all,
        no_wrap=args.no_wrap,
        keep_ws=args.keep_ws,
        pretty=args.pretty,
        unmatched_text=args.default_text,
        depth_limit=_resolve_depth(args.depth_limit),
        occurs_check=args.occurs_check,
    )
    rules_path = None if args.rules == PRELUDE_ONLY else args.rules
    report = transform_file(args.input, rules_path, args.output, options)
    if report.status != "ok":
        print("no solution", file=sys.stderr)
        return 1
    if args.output is None:
        for text in report.documents:
            print(text)
    print(
        "%d solution(s); parse %.3fs, rules %.3fs, solve %.3fs, serialize %.3fs"
        % (
            report.solutions,
            report.timings.get("parse", 0.0),
            report.timings.get("rules", 0.0),
            report.timings.get("solve", 0.0),
            report.timings.get("serialize", 0.0),
        ),
        file=sys.stderr,
    )
    return 0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as source:
        return source.read()


def _cmd_query(args: argparse.Namespace) -> int:
    text = None if args.rules == PRELUDE_ONLY else _read(args.rules)
    _, program = rule_program(text)
    query = parse_query(args.goal, program.operators)
    solver = Solver(
        program,
        SolverOptions(
            occurs_check=args.occurs_check,
            depth_limit=_resolve_depth(args.depth_limit),
        ),
    )
    doc_bound = False
    if args.input is not None:
        doc = parse_document(_read(args.input))
        if "Doc" in query.variables:
            solver.unify(query.variables["Doc"], doc)
            doc_bound = True
    solutions = 0
    printed = {
        name: var for name, var in query.variables.items() if not (doc_bound and name == "Doc")
    }
    for _ in solver.solve(query.goal):
        for name, var in printed.items():
            _check_acyclic(name, var)
        solutions += 1
        print("YES.")
        for name, var in printed.items():
            print("%s/%s" % (name, render_term(var, quoted=True)))
        if solutions >= args.max:
            break
    if solutions == 0:
        print("NO")
        return 1
    return 0


def _check_acyclic(name: str, term: Term) -> None:
    """Raise ValueError if *term* contains itself, which no text can print."""
    if is_cyclic(term):
        raise ValueError(
            "the answer binds %s to a cyclic term; --occurs-check makes such "
            "a unification fail" % name
        )


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    first = parse_document(_read(args.input))
    second = parse_document(serialize_document(first))
    if term_equal(first, second):
        print("roundtrip OK")
        return 0
    path = _divergence_path(first, second)
    print("roundtrip diverged at path %s" % path, file=sys.stderr)
    return 1


def _divergence_path(a: Term, b: Term) -> list[int]:
    """Child-index path to the first structural difference.

    Two elements lead into their first pair of differing children, or to
    the first missing child when only the counts differ.  One lockstep walk
    compares each pair of nodes once.
    """
    path: list[int] = []  # path[k]: the child pair of frames[k] being compared
    frames: list[tuple[Compound, Compound, list[Term], list[Term], bool]] = []
    pair: Optional[tuple[Term, Term]] = (a, b)
    while True:
        if pair is not None:
            x, y = deref(pair[0]), deref(pair[1])
            pair = None
            if _is_element(x) and _is_element(y):
                kids_a = list_items(deref(x.args[2]))
                kids_b = list_items(deref(y.args[2]))
                proper = kids_a is not None and kids_b is not None
                frames.append((x, y, kids_a or [], kids_b or [], proper))
                path.append(-1)
            elif not term_equal(x, y) or not frames:
                return path
        x, y, kids_a, kids_b, proper = frames[-1]
        index = path[-1] + 1
        if index < len(kids_a) and index < len(kids_b):
            path[-1] = index
            pair = (kids_a[index], kids_b[index])
            continue
        if len(kids_a) != len(kids_b):
            path[-1] = index
            return path
        # Every child agrees, so the elements differ, if at all, by name,
        # attributes or an improper children list; then the path ends here.
        frames.pop()
        path.pop()
        same = (
            term_equal(x.args[0], y.args[0])
            and term_equal(x.args[1], y.args[1])
            and (proper or term_equal(x.args[2], y.args[2]))
        )
        if not same or not frames:
            return path


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import (
        HalsteadCounts,
        halstead,
        load_classification_config,
        render_report,
        report_csv,
        tokenize_classify,
    )

    if args.counts is not None:
        parts = [p.strip() for p in args.counts.split(",")]
        if len(parts) != 4:
            raise ValueError("--counts expects four comma-separated integers")
        eta1, eta2, n1, n2 = (int(p) for p in parts)
        counts = HalsteadCounts(eta1, eta2, n1, n2)
        label = args.label or "counts"
    else:
        config = load_classification_config(args.config) if args.config else None
        counts = tokenize_classify(_read(args.src), config)
        label = args.label or os.path.basename(args.src)
    report = halstead(counts)
    if args.csv:
        print(report_csv([(label, report)]), end="")
    else:
        print(render_report(report))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    user, combined = rule_program(_read(args.rules))
    warnings: list[str] = []

    defined = set(combined.clauses)
    for (name, arity), clauses in user.clauses.items():
        for clause in clauses:
            for goal_name, goal_arity in _referenced_goals(clause.body):
                if (goal_name, goal_arity) in defined or Solver.is_builtin(goal_name, goal_arity):
                    continue
                warnings.append(
                    "warning: unknown predicate %s/%d referenced in %s/%d"
                    % (goal_name, goal_arity, name, arity)
                )

    for clause in user.clauses.get(("template", 2), []):
        head = clause.head
        if isinstance(head, Compound) and len(head.args) == 2:
            pattern = deref(head.args[0])
            if isinstance(pattern, (Atom, int, float)):
                warnings.append(
                    "warning: template head %s can never match a document node"
                    % render_term(pattern)
                )

    for line in dict.fromkeys(warnings):
        print(line)
    return 0


def _referenced_goals(body: Term) -> list[tuple[str, int]]:
    """Callable (name, arity) pairs, also inside ``,`` ``;`` ``not/1`` ``findall/3`` ``call/N``."""
    found: list[tuple[str, int]] = []
    stack = [body]
    while stack:
        kind, name, args = goal_kind(deref(stack.pop()))
        if kind is AND or kind is OR:
            stack.extend(args)
        elif kind is CALL_N:
            target = call_goal(args[0], args[1:])
            if target is not None:
                stack.append(target)
        elif (name, len(args)) == ("not", 1):
            stack.append(args[0])
        elif (name, len(args)) == ("findall", 3):
            stack.append(args[1])
        elif kind is CALL:
            found.append((name, len(args)))
    return found


if __name__ == "__main__":
    sys.exit(main())
