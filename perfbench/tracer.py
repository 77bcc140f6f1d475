"""Per-layer tracing of one ``transform_file`` call, from outside the engine.

``Tracer.install`` replaces module attributes of the engine with wrappers
and ``Tracer.uninstall`` puts the originals back, so the untraced path runs
the engine's own functions untouched.

Coarse boundaries (parse, rule loading, each solver entry, serialization)
become spans: name, start, end, parent span and document id, kept in memory
and written out when the run ends.  Fine boundaries (``unify``,
``copy_term``, trail undo) only add to counters and to their layer's time,
because a span record per call would cost more than the call.

Every timed boundary, coarse or fine, goes through one stack, so a layer's
self time is its own duration minus the time of the boundaries nested in it.

The wrappers cost time of their own.  ``Tracer.calibrate`` measures that
cost per call of each wrapper kind on stand-in functions that do nothing,
as the stdlib ``profile`` module calibrates its bias: the part that falls
inside the wrapper's timed interval and the part outside it, in the caller.
Each wrapped call then moves its calibrated cost out of the layer it landed
in and into the ``harness`` layer.  The harness time is an estimate, not an
identity: the traced wall time minus it should come out at the document's
untraced wall time, and ``run.py`` checks that it does.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from termxform import logic_engine, template_engine, transform_prelude, xml_io
from termxform.term_core import Atom, Compound, Var

HARNESS = "harness"
CALIBRATION = "calibration"
# Wrapper kinds with a calibrated cost.  "solve" is one resumption of a
# traced solve; "solve_call" is the rest of a traced solve call.
KINDS = ("span", "solve", "solve_call", "unify", "copy_term", "undo")
CALIBRATION_CALLS = 250
CALIBRATION_REPEATS = 11


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        # Frames: [layer, start, time of nested boundaries, span id].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.trail_peak = 0
        self.spans: list[list] = []
        self.doc = -1
        self._root = -1
        self._saved: list[tuple[object, str, object]] = []
        # Kind -> [seconds per call inside the timed interval, outside it].
        self.cost: dict[str, list[float]] = {kind: [0.0, 0.0] for kind in KINDS}

    # -- spans --------------------------------------------------------------

    def enter(self, layer: str) -> None:
        span = len(self.spans)
        parent = self.stack[-1][3] if self.stack else -1
        self.spans.append([span, parent, self.doc, layer, 0.0, 0.0])
        self.stack.append([layer, self.clock(), 0.0, span])

    def exit(self, cost=(0.0, 0.0)) -> None:
        end = self.clock()
        layer, start, nested, span = self.stack.pop()
        duration = end - start
        inside, outside = cost
        self.self_s[layer] += duration - nested - inside
        self.total_s[layer] += duration - inside
        self.self_s[HARNESS] += inside + outside
        if self.stack:
            self.stack[-1][2] += duration + outside
        self.spans[span][4] = start
        self.spans[span][5] = end

    def charge(self, outside: float) -> None:
        """Move a wrapper's cost in the current frame to the harness layer."""
        self.self_s[HARNESS] += outside
        if self.stack:
            self.stack[-1][2] += outside

    def begin_doc(self, doc: int) -> None:
        """Reset the per-document counters and open the document's root span."""
        self.doc = doc
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.trail_peak = 0
        self._root = len(self.spans)
        self.enter(HARNESS)

    def end_doc(self) -> float:
        """Close the root span; returns the document's traced wall time."""
        self.exit()
        root = self.spans[self._root]
        return root[5] - root[4]

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, layer: str):
        enter, exit_, cost = self.enter, self.exit, self.cost["span"]

        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(cost)

        return wrapper

    def install(self) -> None:
        te, lp = template_engine, transform_prelude
        span = self._span_wrapper
        self._patch(te, "parse_document", span(te.parse_document, "xml_io.parse_document"))
        self._patch(te, "parse_program", span(te.parse_program, "rule_language.parse_program"))
        self._patch(lp, "parse_program", span(lp.parse_program, "rule_language.prelude_parse"))
        self._patch(te, "load_prelude", span(te.load_prelude, "transform_prelude.load_prelude"))
        self._patch(te, "serialize_document", span(te.serialize_document, "xml_io.serialize"))
        self._patch(te, "serialize_fragment", span(te.serialize_fragment, "xml_io.serialize"))
        self._patch(xml_io, "check_serializable", span(xml_io.check_serializable, "xml_io.check_serializable"))
        self._patch(logic_engine.Solver, "solve", self._solve_wrapper(logic_engine.Solver.solve))
        self._patch(logic_engine.Solver, "unify", self._timed_wrapper(logic_engine.Solver.unify, "unify"))
        self._patch(logic_engine.Solver, "undo_to", self._undo_wrapper(logic_engine.Solver.undo_to))
        copy = self._timed_wrapper(logic_engine.copy_term, "copy_term")
        self._patch(logic_engine, "copy_term", copy)
        self._patch(te, "copy_term", copy)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _solve_wrapper(self, solve):
        enter, exit_, charge, counts = self.enter, self.exit, self.charge, self.counts
        resume, call = self.cost["solve"], self.cost["solve_call"]

        def traced_solve(solver, goal):
            counts["solve.calls"] += 1
            charge(call[1])
            inner = solve(solver, goal)
            done = False
            try:
                while True:
                    enter("logic_engine.solve")
                    before = solver.steps
                    try:
                        next(inner)
                    except StopIteration:
                        done = True
                        return
                    finally:
                        counts["steps"] += solver.steps - before
                        exit_(resume)
                    yield
            finally:
                if not done:
                    # An abandoned solve unwinds its bindings when closed.
                    enter("logic_engine.solve")
                    inner.close()
                    exit_(resume)

        return traced_solve

    def _timed_wrapper(self, fn, kind: str):
        """A counted and timed wrapper for ``Solver.unify`` or ``copy_term``."""
        stack, clock, self_s, counts, cost = self.stack, self.clock, self.self_s, self.counts, self.cost[kind]
        layer = "logic_engine.unify" if kind == "unify" else "term_core.copy_term"
        calls, successes = kind + ".calls", kind + ".success"

        def traced(*args):
            start = clock()
            result = fn(*args)
            duration = clock() - start
            inside, outside = cost
            self_s[layer] += duration - inside
            self_s[HARNESS] += inside + outside
            if stack:
                stack[-1][2] += duration + outside
            counts[calls] += 1
            if result is True:  # a successful unify
                counts[successes] += 1
            return result

        return traced

    def _undo_wrapper(self, undo_to):
        tracer, charge, cost = self, self.charge, self.cost["undo"]

        def traced_undo(solver, mark):
            # The trail is at a local maximum just before it is unwound.
            if len(solver.trail) > tracer.trail_peak:
                tracer.trail_peak = len(solver.trail)
            undo_to(solver, mark)
            charge(cost[1])

        return traced_undo

    # -- calibration --------------------------------------------------------

    def calibrate(self) -> dict[str, list[float]]:
        """Measure each wrapper kind's own cost per call; returns ``self.cost``.

        Each kind is timed wrapped and bare, under a calibration frame as in
        a real run, and called the way the engine calls it.  ``unify``,
        ``copy_term`` and ``undo_to`` are the engine's own, on small terms;
        spans and solves wrap stand-ins that do nothing.  Per call, wrapped
        minus bare is the whole cost; the wrapper's timed interval minus the
        bare call's own bracketed time is the part inside; the rest is
        outside.  Each figure is the median of short repeats, so that a
        repeat the machine interrupts does not count.
        """
        for kind in KINDS:
            self.cost[kind][:] = [0.0, 0.0]
        mark = len(self.spans)
        n = CALIBRATION_CALLS
        solver = logic_engine.Solver(logic_engine.Program())
        # Two equal ground terms (unify walks them and binds nothing) and a
        # term with a variable to copy.
        a, b = (Compound("row", (Atom("r1"), Compound("qty", (7, Atom("[]"))))) for _ in range(2))
        term = Compound("row", (Var("X", 1), Atom("r1")))
        unify, copy_term, undo_to = logic_engine.Solver.unify, logic_engine.copy_term, logic_engine.Solver.undo_to
        span = self._span_wrapper(_noop, CALIBRATION + ".inner")
        traced_unify = self._timed_wrapper(unify, "unify")
        traced_copy = self._timed_wrapper(copy_term, "copy_term")
        traced_undo = self._undo_wrapper(undo_to)
        solve = self._solve_wrapper(_Stub.solve)
        stub = _Stub()

        def drain(solve_fn):
            for _ in solve_fn(stub, None):
                pass

        self.enter(CALIBRATION)
        # kind -> (wrapped call, bare call, inner layer or None when untimed)
        cases = {
            "span": (lambda: span(solver, a), lambda: _noop(solver, a), CALIBRATION + ".inner"),
            "unify": (lambda: traced_unify(solver, a, b), lambda: unify(solver, a, b), "logic_engine.unify"),
            "copy_term": (lambda: traced_copy(term), lambda: copy_term(term), "term_core.copy_term"),
            "undo": (lambda: traced_undo(solver, 0), lambda: undo_to(solver, 0), None),
        }
        measured = {kind: self._measure(wrapped, bare, layer, n) for kind, (wrapped, bare, layer) in cases.items()}
        # A solve yielding once resumes twice; yielding five times, six times.
        # The difference gives the cost per resumption, the rest is per call.
        once = self._measure(lambda: drain(solve), lambda: drain(_Stub.solve), "logic_engine.solve", n)
        stub.yields = 5
        five = self._measure(lambda: drain(solve), lambda: drain(_Stub.solve), "logic_engine.solve", n)
        self.exit()
        del self.spans[mark:]
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

        for kind, (_, _, layer) in cases.items():
            whole, inside = measured[kind]
            inside = max(0.0, inside) if layer else 0.0
            self.cost[kind][:] = [inside, max(0.0, whole - inside)]
        per_resume = (five[0] - once[0]) / 4
        per_resume_inside = max(0.0, (five[1] - once[1]) / 4)
        self.cost["solve"][:] = [per_resume_inside, max(0.0, per_resume - per_resume_inside)]
        self.cost["solve_call"][:] = [0.0, max(0.0, once[0] - 2 * per_resume)]
        return self.cost

    def _measure(self, wrapped, bare, layer: str | None, n: int) -> tuple[float, float]:
        """Per call: (wrapped minus bare wall time, wrapper-timed minus bare-bracketed time)."""
        clock = self.clock
        whole, inside = [], []
        for _ in range(CALIBRATION_REPEATS):
            before = self.self_s[layer] if layer else 0.0
            start = clock()
            for _ in range(n):
                wrapped()
            wrapped_s = clock() - start
            timed = (self.self_s[layer] - before) if layer else 0.0
            start = clock()
            for _ in range(n):
                bare()
            bare_s = clock() - start
            # The bare call's own time inside a bracket like the wrapper's.
            bracketed = 0.0
            for _ in range(n):
                t = clock()
                bare()
                bracketed += clock() - t
            empty = 0.0
            for _ in range(n):
                t = clock()
                empty += clock() - t
            whole.append((wrapped_s - bare_s) / n)
            inside.append((timed - (bracketed - empty)) / n)
        return statistics.median(whole), statistics.median(inside)


def _noop(*args):
    return None


class _Stub:
    """A stand-in solver whose ``solve`` yields *yields* times."""

    steps = 0
    yields = 1

    def solve(self, goal):
        for _ in range(self.yields):
            yield
