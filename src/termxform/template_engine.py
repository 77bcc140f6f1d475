"""Rule-driven document traversal and whole-file transformation.

Traversal walks a document in pre-order.  Processing instructions and
comments contribute nothing; a node for which the solver finds
``template(Node, Result)`` contributes the first solution's ``Result`` list
(clauses are tried in text order, and a cut in a template body commits to
its clause).  That solution is committed, as ``template(Node, Result), !``
would: the list is the solution's own terms, not a copy, and a variable in
the node that the template binds stays bound.  An unmatched element
recurses into its children, concatenating their results; unmatched text
contributes nothing, unless the ``copy`` policy adds XSLT's built-in rule
``template(text(T), [text(T)])`` after the program's own templates.  A
node that the first-argument index gives no ``template/2`` clause is
unmatched without a goal being run for it.  The
walk is the native ``traverse(Node, Result)``: the machine that runs it
runs each template goal as a request (see ``Solver``).

Whole-file transformation solves ``go(Doc, Result)`` against the parsed
input document if the rule program defines ``go/2``, and
``traverse(Doc, Result)`` (template mode, where an empty result is no
solution) otherwise.  It commits to the first solution as traversal commits
to a template's, and serializes its own terms; only ``all_solutions``
copies each solution's ``Result`` before the next one undoes it.  Result
lists are wrapped for serialization: a singleton is emitted directly,
anything else inside a synthetic ``result`` root (``no_wrap`` emits a
fragment stream).  :func:`rule_program` parses, merges and indexes a rule
text once per process; every later document with the same text reuses
that program and its compiled clauses.
"""

from __future__ import annotations

import gc
import os
import time
from functools import lru_cache
from typing import Optional

from .logic_engine import DEFAULT_STEP_LIMIT, Program, Solver, SolverOptions, _builtin
from .rule_language import parse_program
from .term_core import (
    Atom,
    Compound,
    Term,
    copy_term,
    deref,
    fresh_var,
    list_items,
    mk_list,
    render_term,
)
from .transform_prelude import load_prelude
from .xml_io import parse_document, serialize_document, serialize_fragment

__all__ = [
    "TemplateError",
    "TransformOptions",
    "TransformReport",
    "rule_program",
    "traverse",
    "transform_file",
]


class TemplateError(ValueError):
    """A template clause violated the traversal contract."""


class TransformOptions:
    """Options for whole-file transformation (CLI flags map 1:1)."""

    __slots__ = (
        "all_solutions", "no_wrap", "keep_ws", "pretty", "unmatched_text", "depth_limit", "occurs_check"
    )

    def __init__(
        self,
        all_solutions: bool = False,
        no_wrap: bool = False,
        keep_ws: bool = False,
        pretty: bool = False,
        unmatched_text: str = "drop",
        depth_limit: int = DEFAULT_STEP_LIMIT,
        occurs_check: bool = False,
    ) -> None:
        self.all_solutions = all_solutions
        self.no_wrap = no_wrap
        self.keep_ws = keep_ws
        self.pretty = pretty
        self.unmatched_text = _check_text_policy(unmatched_text)
        self.depth_limit = depth_limit
        self.occurs_check = occurs_check


class TransformReport:
    """Outcome of one whole-file transformation."""

    __slots__ = ("status", "solutions", "outputs", "documents", "timings")

    def __init__(
        self,
        status: str,  # "ok" or "no_solution"
        solutions: int,
        outputs: Optional[list[str]] = None,
        documents: Optional[list[str]] = None,
        timings: Optional[dict[str, float]] = None,
    ) -> None:
        self.status = status
        self.solutions = solutions
        self.outputs = [] if outputs is None else outputs
        self.documents = [] if documents is None else documents
        self.timings = {} if timings is None else timings


def traverse(node: Term, program: Program, unmatched_text: str = "drop") -> list[Term]:
    """Collect the result nodes of a pre-order traversal rooted at *node*.

    *program* should already include the built-in rule set when template
    bodies rely on it.  *unmatched_text* is ``"drop"`` or ``"copy"``.
    """
    if _check_text_policy(unmatched_text) == "copy":
        program = _with_text_rule(program)
    result = fresh_var("Result")
    Solver(program).commit_first(Compound("traverse", (node, result)))
    return list_items(result)


def _check_text_policy(unmatched_text: str) -> str:
    if unmatched_text not in ("drop", "copy"):
        raise ValueError("unmatched text policy must be 'drop' or 'copy', not %r" % (unmatched_text,))
    return unmatched_text


@lru_cache(maxsize=8)
def _with_text_rule(program: Program) -> Program:
    """*program* and then XSLT's built-in ``template(text(T), [text(T)])``.

    Made once per program: callers must not change *program* afterwards.
    """
    extended, text = program.copy(), Compound("text", (fresh_var("T"),))
    extended.add(Compound("template", (text, mk_list([text]))))
    return extended


@_builtin("traverse", 2)
def _bi_traverse(solver: Solver, args):
    """traverse(Node, Result): the walk's one answer; a bound Result is unified with it once the walk ends."""
    return solver.unify(args[1], mk_list((yield from _walk(args[0], solver))))


def _walk(node: Term, solver: Solver):
    # Pre-order over an explicit stack: a node's results all come before
    # those of its later siblings.  A node that no template/2 clause is
    # indexed for is not asked about: its request could only fail.
    candidates = solver.program.candidates
    results: list[Term] = []
    stack = [node]
    while stack:
        node = deref(stack.pop())
        if not isinstance(node, Compound) or node.name in ("pi", "comment") and len(node.args) == 1:
            continue
        out = fresh_var("Result")
        if candidates("template", 2, (node,)) and (yield Compound("template", (node, out)), None):
            items = list_items(out)  # the first solution's own terms: nothing is copied
            if items is None:
                raise TemplateError(
                    "the template for %s produced %s, which is not a result list"
                    % (render_term(node), render_term(out))
                )
            results.extend(items)
        elif node.name == "element" and len(node.args) == 3:  # no template matched
            for child in reversed(list_items(deref(node.args[2])) or []):
                child = deref(child)
                if isinstance(child, Compound) and child.name != ".":
                    stack.append(child)
    return results


# ---------------------------------------------------------------------------
# Whole-file transformation


@lru_cache(maxsize=8)
def rule_program(text: Optional[str]) -> tuple[Optional[Program], Program]:
    """The parsed rules of *text* and the prelude merged with them.

    *text* ``None`` means the prelude alone.  The first call for a text
    parses it; later calls return the same two programs, so the clause code
    compiled while transforming one document serves every later one.
    Callers must not change them (:func:`load_prelude` gives a program of
    one's own).  A :class:`ParseError` is raised again on every call.
    """
    user = parse_program(text) if text is not None else None
    return user, load_prelude(user)


def transform_file(
    input_path: str,
    rules_path: Optional[str],
    output_path: Optional[str] = None,
    options: Optional[TransformOptions] = None,
) -> TransformReport:
    """Transform *input_path* with the rules in *rules_path*.

    With no *output_path* the serialized results are only returned in the
    report; otherwise they are written to disk (``all_solutions`` numbers
    them ``base.1.xml``, ``base.2.xml``, ...).  Nothing is written when no
    solution exists.

    The cyclic garbage collector is paused for the call and turned back on
    afterwards only if it was on before.  Terms are trees, so reference
    counting frees every one of them; the collector's passes over a large
    document only cost time.  The pause is process-wide, and termxform runs
    on one thread.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        options = options or TransformOptions()
        timings: dict[str, float] = {}

        started = time.perf_counter()
        with open(input_path, encoding="utf-8") as source:
            doc = parse_document(source.read(), keep_ws=options.keep_ws)
        timings["parse"] = time.perf_counter() - started

        started = time.perf_counter()
        rules = None
        if rules_path is not None:
            with open(rules_path, encoding="utf-8") as source:
                rules = source.read()
        user, program = rule_program(rules)
        timings["rules"] = time.perf_counter() - started

        if _check_text_policy(options.unmatched_text) == "copy":
            program = _with_text_rule(program)
        solver = Solver(
            program, SolverOptions(occurs_check=options.occurs_check, depth_limit=options.depth_limit)
        )

        started = time.perf_counter()
        goal_mode = user is not None and user.defines("go", 2)
        result_var = fresh_var("Result")
        goal = Compound("go" if goal_mode else "traverse", (doc, result_var))
        if options.all_solutions:  # each solution is copied before the next undoes it
            solutions = [copy_term(result_var) for _ in solver.solve(goal)]
        else:  # the first solution's own terms: nothing is copied
            solutions = [result_var] if solver.commit_first(goal) else []
        result_sets: list[list[Term]] = []
        for solution in solutions:
            items = list_items(solution)
            if goal_mode or items:  # an empty walk is no solution
                result_sets.append(items if items is not None else [solution])
        timings["solve"] = time.perf_counter() - started

        if not result_sets:
            timings["serialize"] = 0.0
            return TransformReport("no_solution", 0, timings=timings)

        started = time.perf_counter()
        documents = [_serialize_results(items, options) for items in result_sets]
        timings["serialize"] = time.perf_counter() - started

        outputs: list[str] = []
        if output_path is not None:
            directory, name = os.path.split(output_path)
            dot = name.rfind(".")  # the suffix starts at the last dot, if not the first or last character
            if not 0 < dot < len(name) - 1:
                dot = len(name)
            for index, text in enumerate(documents, start=1):
                target = output_path
                if options.all_solutions:
                    target = os.path.join(directory, "%s.%d%s" % (name[:dot], index, name[dot:]))
                with open(target, "w", encoding="utf-8") as out:
                    out.write(text + ("" if text.endswith("\n") else "\n"))
                outputs.append(target)
        return TransformReport("ok", len(result_sets), outputs, documents, timings)
    finally:
        if collecting:
            gc.enable()


def _serialize_results(items: list[Term], options: TransformOptions) -> str:
    if options.no_wrap:
        return serialize_fragment(items)
    if len(items) == 1:
        node = deref(items[0])
        if isinstance(node, Compound) and node.name == "element" and len(node.args) == 3:
            return serialize_document(node, pretty=options.pretty)
        return serialize_fragment(items)
    wrapped = Compound("element", (Atom("result"), Atom("[]"), mk_list(items)))
    return serialize_document(wrapped, pretty=options.pretty)
