"""One measuring process; ``run.py`` starts one per set-up sample, per pass,
per traced run and per probe.

    child.py setup                      time import + first load_prelude
    child.py pass DIR N                 transform DIR's documents once (pass N)
    child.py traced DIR SECONDS SPANS   each document 3x untraced, 3x traced
    child.py probe NAME [--smoke]       one operator or bare-solver probe

Results go to standard output as JSON lines, one per document as it
finishes, so a parent that has to kill this process keeps what was done.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def reference(reps: int = 3) -> float:
    """Seconds of a fixed pure-Python task, the fastest of *reps*.

    The task walks nested tuples with an explicit stack and type tests, as
    the engine's inner loops do, without using the engine, so its time
    follows the machine's speed of the moment and not the program's.
    """
    tree = ("f", 1)
    for i in range(400):
        tree = ("g", tree, ("h", i, "x"), [i])
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        count = 0
        for _ in range(4):
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, tuple):
                    stack.extend(node[1:])
                elif isinstance(node, list):
                    stack.append(node[-1])
                else:
                    count += 1
        best = min(best, time.perf_counter() - start)
    return best


def setup() -> None:
    before = reference()
    start = time.perf_counter()
    import termxform

    termxform.load_prelude()
    elapsed = time.perf_counter() - start
    emit({"setup_s": elapsed, "ref_s": (before + reference()) / 2})


class DocRunner:
    def __init__(self, directory: Path, traced: bool) -> None:
        from termxform import load_prelude
        from termxform.logic_engine import ResourceLimitError
        from termxform.template_engine import transform_file

        self.transform_file = transform_file
        self.limit_errors = (MemoryError, ResourceLimitError)
        self.dir = directory
        self.manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        self.rules = str(directory / self.manifest["rules"])
        self.tracer = None
        if traced:
            from tracer import Tracer

            self.tracer = Tracer()
            self.tracer.install()
            self.tracer.enter("setup")
            load_prelude()
            self.tracer.exit()
            self.tracer.uninstall()
            emit({"setup_layers": dict(self.tracer.self_s)})
        else:
            # The prelude parse is paid once per process; setup_s reports it.
            load_prelude()

    def run(self, index: int, traced: bool) -> None:
        docs = self.manifest["docs"]
        doc = docs[index % len(docs)]
        path = str(self.dir / doc["input"])
        tracer = self.tracer if traced else None
        diagnostics = io.StringIO()
        report, error = None, None
        with contextlib.redirect_stderr(diagnostics):
            if tracer:
                tracer.install()
                tracer.begin_doc(index)
                tracer.enter("template_engine")
            else:
                before = reference()
            start = time.perf_counter()
            try:
                report = self.transform_file(path, self.rules)
            except Exception as exc:  # a failing document is a result to count
                error = exc
            wall = time.perf_counter() - start
            if tracer:
                tracer.exit()
                traced_wall = tracer.end_doc()
                tracer.uninstall()
        record = {"doc": index % len(docs), "pass": index // len(docs), "traced": traced, "wall": wall, "nodes": doc["nodes"], "bytes": doc["bytes"]}
        if not tracer:
            record["ref_s"] = (before + reference()) / 2
        record["why"] = self.check(doc, report, error, diagnostics.getvalue())
        if report is not None:
            record["timings"] = report.timings
            record["out_bytes"] = sum(len(text.encode("utf-8")) for text in report.documents)
        if tracer:
            record["traced_wall"] = traced_wall
            record["layers"] = dict(tracer.self_s)
            record["solve_total_s"] = tracer.total_s["logic_engine.solve"]
            record["counts"] = dict(tracer.counts)
            record["trail_peak"] = tracer.trail_peak
            record["wrapper_cost_s"] = {kind: list(c) for kind, c in tracer.cost.items()}
        emit(record)

    def check(self, doc: dict, report, error, diagnostics: str):
        """Why the document failed, or None when its output is right."""
        if error is not None:
            kind = "exceeded" if isinstance(error, self.limit_errors) else "raised"
            return "%s: %s: %s" % (kind, type(error).__name__, error)
        if report.status != "ok" or len(report.documents) != 1:
            return "no_solution" if report.status != "ok" else "%d outputs" % len(report.documents)
        if "warning:" in diagnostics:
            return "solver warning: %s" % diagnostics.strip().splitlines()[0]
        output = report.documents[0]
        if output != (self.dir / doc["expected"]).read_text(encoding="utf-8"):
            return "output differs from the oracle"
        return None


def peak_rss() -> None:
    emit({"final": {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}})


def one_pass(directory: Path, number: int) -> None:
    runner = DocRunner(directory, traced=False)
    count = len(runner.manifest["docs"])
    for index in range(number * count, (number + 1) * count):
        runner.run(index, False)
    peak_rss()


# Untraced (False) and traced (True) runs of one document, in order.
TRACED_ORDER = (False, True, True, False, False, True)


def traced_run(directory: Path, seconds: float, spans_path: str) -> None:
    runner = DocRunner(directory, traced=True)
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        # Each document runs untraced and traced in turns, so that a drift
        # in the machine's speed falls on both sides alike.  The tracer is
        # calibrated next to the document, at the machine's speed of the moment.
        runner.tracer.calibrate()
        for flag in TRACED_ORDER:
            runner.run(index, flag)
        index += 1
    Path(spans_path).write_text(json.dumps(runner.tracer.spans), encoding="utf-8")
    peak_rss()


def probe(name: str, smoke: bool) -> None:
    from probes import run_probe

    emit({"probe": name, "result": run_probe(name, smoke)})


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup()
    elif mode == "pass":
        one_pass(Path(argv[1]), int(argv[2]))
    elif mode == "traced":
        traced_run(Path(argv[1]), float(argv[2]), argv[3])
    elif mode == "probe":
        probe(argv[1], "--smoke" in argv)
    else:
        raise SystemExit("unknown mode %r" % mode)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
