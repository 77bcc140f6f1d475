"""termxform benchmark: seeded documents through ``transform_file``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --smoke    (tiny sizes, seconds)

One closed-loop client transforms the workload's documents back to back,
in process, and checks every output against an oracle that does not use
the engine.  The document set is sized so that a run takes about S seconds.

With ``--trace 0`` the run reports the end-to-end metrics.  It transforms
the whole set a fixed number of times (PASSES), each pass in a fresh
process, and takes SETUP_ROUNDS set-up times in fresh interpreters before
each pass and after the last.  The number of samples is fixed, so the
statistics do not shift when the program gets faster.

On a shared machine the CPU's speed drifts with the load of its
neighbours, by up to 1.6x and for minutes at a time, and CPU time drifts
with it.  So every timed sample is bracketed by a fixed pure-Python task
that does not use the engine (``child.reference``), and the end-to-end
times are stated at the machine's reference speed: seconds measured, times
REFERENCE_S over the task's time around the sample.  A change to the
program moves these times in proportion to its wall time; a change in the
machine's load does not.  The raw wall times are kept in the record.  A
document's latency is the median of its passes; ``setup_s`` is the median
of all set-up samples.

With ``--trace 1`` each document runs three times untraced and three times
traced, in turns, for S seconds, and the run reports per-layer self times and counters, the
tracing overhead, and the operator and bare-solver probes.  The traced
wall time minus the calibrated cost of the tracer's wrappers must come out
at the untraced wall time (see ``tracer.py``); a run where it does not is
not correct.  Smoke runs print that comparison but do not check it: their
documents take milliseconds.

Every measuring process is a child with a time cap and a memory cap, so a
case that runs away or crashes is counted as a failed document.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, each document's
size and phase timings, probe details, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MEMORY_CAP_MB = 2048
CHILD_CAP_S = 60
# A run must end within 180 s; children are capped to fit in this.
RUN_DEADLINE_S = 170
# Passes over the document set in an end-to-end run, and set-up samples
# taken before each pass and after the last.
PASSES = 5
SETUP_ROUNDS = 3
# The reference task's time at the machine's full speed (2-core Xeon VM,
# Python 3.11, no other load): the speed that end-to-end times are stated at.
REFERENCE_S = 0.0015
# How far the traced wall time less the tracer's calibrated cost may be from
# the untraced wall time, as a share of it (median over documents).  On a
# shared 2-core machine whose speed drifts, the fastest of three runs on
# each side still differ by up to 0.1 in the median; the tracer costs 0.2
# to 0.35, so a run that did not account for it fails.
ACCOUNTING_TOLERANCE = 0.15

# ---------------------------------------------------------------------------
# Child processes


def _limits(cap_s: float):
    def apply() -> None:
        memory = MEMORY_CAP_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
        cpu = int(cap_s) + 1
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 5))

    return apply


def run_child(args: list[str], cap_s: float) -> tuple[list[dict], str]:
    """Run child.py with *args* under the caps; its JSON lines and a status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, timeout=cap_s, preexec_fn=_limits(cap_s)
        )
        stdout, stderr = proc.stdout, proc.stderr
        if proc.returncode == 0:
            status = "ok"
        elif proc.returncode < 0:
            status = "crashed (signal %d)" % -proc.returncode
        else:
            status = "crashed (exit %d)" % proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout, stderr = exc.stdout or b"", exc.stderr or b""
        status = "exceeded (time cap %.0f s)" % cap_s
    records = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # cut short by a kill, or not a record
            pass
    if status != "ok":
        last_lines = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        status += ": " + " | ".join(last_lines)
    return records, status


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def accounted_ratio(pairs: list[tuple[dict, dict]]) -> float:
    """Median over (untraced, traced) pairs of traced wall minus harness cost, over untraced wall."""
    return statistics.median((t["traced_wall"] - t["layers"].get("harness", 0.0)) / p["wall"] for p, t in pairs)


def median_of(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


# ---------------------------------------------------------------------------
# Environment


def commit() -> str | None:
    """The checkout's commit read from .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "termxform").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# One workload


def write_inputs(workload: workloads.Workload, directory: Path) -> None:
    docs = []
    for index, doc in enumerate(workload.docs):
        source, expected = "doc-%03d.xml" % index, "doc-%03d.expected.xml" % index
        (directory / source).write_text(doc.text, encoding="utf-8")
        (directory / expected).write_text(doc.expected, encoding="utf-8")
        docs.append({"input": source, "expected": expected, "nodes": doc.nodes, "bytes": len(doc.text.encode("utf-8"))})
    (directory / "rules.tx").write_text(workload.rules, encoding="utf-8")
    manifest = {"rules": "rules.tx", "docs": docs}
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class Outcome:
    """Counts, failures and the time left of one run, shared by its children."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, args: list[str], cap_s: float = CHILD_CAP_S) -> tuple[list[dict], str]:
        left = self.deadline - time.perf_counter()
        if left < 1:
            return [], "exceeded (no time left in the run)"
        return run_child(args, min(cap_s, left))

    def docs(self, records: list[dict], status: str) -> list[dict]:
        docs = [r for r in records if "doc" in r]
        self.attempted += len(docs)
        self.failures += ["doc %d: %s" % (r["doc"], r["why"]) for r in docs if r["why"]]
        if status != "ok":
            # The document in flight when the child died, or the whole run
            # when it died before one finished.
            self.attempted += 1
            self.failures.append("documents child " + status)
        return docs

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def at_reference_speed(record: dict, key: str) -> float:
    """The time *key* of a sample, scaled to the machine's reference speed."""
    return record[key] * REFERENCE_S / record["ref_s"]


def setup_times(outcome: Outcome, rounds: int) -> list[dict]:
    """Set-up samples from *rounds* fresh interpreters in a row; a failed child gives none."""
    samples = []
    for _ in range(rounds):
        records, status = outcome.child(["setup"])
        outcome.attempted += 1
        if status != "ok" or not records:
            outcome.failures.append("setup child " + status)
        else:
            samples.append(records[0])
    return samples


def end_to_end(directory: Path, args, outcome: Outcome, record: dict) -> dict:
    passes, rounds = (2, 1) if args.smoke else (PASSES, SETUP_ROUNDS)
    setups, docs, peaks, statuses = [], [], [], []
    for number in range(passes + 1):
        setups += setup_times(outcome, rounds)
        if number == passes:
            break
        records, status = outcome.child(["pass", str(directory), str(number)])
        docs += outcome.docs(records, status)
        peaks += [r["final"]["peak_rss_mb"] for r in records if "final" in r]
        statuses.append(status)
        if status != "ok":
            break
    record.update(setup_runs=setups, docs=docs, child_status=statuses)
    if len(statuses) < passes or statuses[-1] != "ok" or not peaks or len(setups) < rounds * (passes + 1):
        return {}
    passes_of: dict[int, list[dict]] = {}
    for d in docs:
        passes_of.setdefault(d["doc"], []).append(d)
    latencies = [
        {"nodes": runs[0]["nodes"], "s": statistics.median(at_reference_speed(d, "wall") for d in runs),
         "wall": statistics.median(d["wall"] for d in runs)}
        for runs in passes_of.values()
    ]
    percentile, tail_value = tail([d["s"] for d in latencies])
    record["tail"] = {"percentile": percentile, "samples": len(latencies)}
    record["raw_wall"] = {"doc_s_p50": median_of(latencies, lambda d: d["wall"]), "setup_s": median_of(setups, lambda r: r["setup_s"])}
    return {
        "nodes_per_s": median_of(latencies, lambda d: d["nodes"] / d["s"]),
        "doc_s_p50": median_of(latencies, lambda d: d["s"]),
        "doc_s_tail": tail_value,
        "setup_s": median_of(setups, lambda r: at_reference_speed(r, "setup_s")),
        "peak_rss_mb": max(peaks),
    }


def per_layer(directory: Path, args, outcome: Outcome, record: dict, probes: dict) -> dict:
    spans = OUT / ("%s-seed%d.spans.json" % (record["workload"], args.seed))
    records, status = outcome.child(["traced", str(directory), str(args.seconds), str(spans)], args.seconds + CHILD_CAP_S)
    docs = outcome.docs(records, status)
    setup_layers = next((r["setup_layers"] for r in records if "setup_layers" in r), {})
    traced = [d for d in docs if d["traced"] and "layers" in d]
    plain = [d for d in docs if not d["traced"] and "timings" in d]
    record.update(docs=docs, child_status=status, spans=str(spans.relative_to(ROOT)))
    # Per document, the fastest of its untraced runs and of its traced ones:
    # each is taken at the machine's fast speed, so they compare.
    fastest: dict[int, list] = {}
    for d in docs:
        if "timings" in d:
            sides = fastest.setdefault(d["doc"], [None, None])
            side = int(d["traced"])
            if sides[side] is None or d["wall"] < sides[side]["wall"]:
                sides[side] = d
    pairs = [(p, t) for p, t in fastest.values() if p and t]
    if not pairs or not traced:
        return {}
    # Without the tracer's calibrated cost, a traced document must take as
    # long as the same document untraced.
    # Smoke documents take milliseconds, too short to time this closely.
    accounted = accounted_ratio(pairs)
    record["accounting"] = {"median_ratio": accounted, "tolerance": ACCOUNTING_TOLERANCE, "documents": len(pairs)}
    if not args.smoke:
        outcome.check(abs(accounted - 1) <= ACCOUNTING_TOLERANCE,
                      "traced wall minus harness cost is %.3f of the untraced wall (tolerance %.2f)" % (accounted, ACCOUNTING_TOLERANCE))

    def layer(name: str):
        return lambda d: d["layers"].get(name, 0.0)

    def count(name: str):
        return lambda d: d["counts"].get(name, 0)

    def total(key) -> float:
        return sum(key(d) for d in traced)

    serialize_s = total(layer("xml_io.serialize")) + total(layer("xml_io.check_serializable"))
    metrics = {
        "xml_io.parse_document.s": median_of(traced, layer("xml_io.parse_document")),
        "xml_io.parse_document.mb_per_s": total(lambda d: d["bytes"]) / total(layer("xml_io.parse_document")) / 1e6,
        "xml_io.serialize.s": median_of(traced, layer("xml_io.serialize")),
        "xml_io.serialize.mb_per_s": total(lambda d: d["out_bytes"]) / serialize_s / 1e6,
        "xml_io.check_serializable.s": median_of(traced, layer("xml_io.check_serializable")),
        "rule_language.prelude_parse.s": setup_layers.get("rule_language.prelude_parse", 0.0),
        "rule_language.parse_program.s": median_of(traced, layer("rule_language.parse_program")),
        "transform_prelude.load_prelude.s": median_of(traced, layer("transform_prelude.load_prelude")),
        "logic_engine.solve.s": median_of(traced, layer("logic_engine.solve")),
        "logic_engine.solve.calls": median_of(traced, count("solve.calls")),
        "logic_engine.steps": median_of(traced, count("steps")),
        "logic_engine.steps_per_s": total(count("steps")) / total(lambda d: d["solve_total_s"]),
        "logic_engine.unify.s": median_of(traced, layer("logic_engine.unify")),
        "logic_engine.unify.calls": median_of(traced, count("unify.calls")),
        "logic_engine.unify.success_ratio": total(count("unify.success")) / total(count("unify.calls")),
        "logic_engine.trail.peak": max(d["trail_peak"] for d in traced),
        "term_core.copy_term.calls": median_of(traced, count("copy_term.calls")),
        "term_core.copy_term.s": median_of(traced, layer("term_core.copy_term")),
        "template_engine.self_s": median_of(traced, layer("template_engine")),
        "template_engine.nodes_per_s": median_of(plain, lambda d: d["nodes"] / d["timings"]["solve"]),
        "template_engine.solves_per_node": total(count("solve.calls")) / total(lambda d: d["nodes"]),
        "trace.overhead_ratio": sum(t["wall"] for _, t in pairs) / sum(p["wall"] for p, _ in pairs),
        "trace.harness_share": total(layer("harness")) / total(lambda d: d["traced_wall"]),
    }
    for name in ("at", "slash", "descendant", "sort", "sortbyName"):
        result = probes.get(name)
        if result:
            for what in ("steps", "s", "step_exponent"):
                metrics["transform_prelude.op_%s.%s" % (name, what)] = result[what]
    if probes.get("nrev30"):
        metrics["logic_engine.nrev30.lips"] = probes["nrev30"]["lips"]
    if probes.get("countdown"):
        metrics["logic_engine.countdown.steps_per_s"] = probes["countdown"]["steps_per_s"]
    return metrics


def run_probes(args, outcome: Outcome) -> dict:
    from_probes = {}
    names = ("at", "slash", "descendant", "sort", "sortbyName", "nrev30", "countdown")
    for name in names:
        records, status = outcome.child(["probe", name] + (["--smoke"] if args.smoke else []))
        outcome.attempted += 1
        if status != "ok" or not records:
            outcome.failures.append("probe %s: %s" % (name, status))
            continue
        from_probes[name] = records[0]["result"]
    return from_probes


def run_workload(name: str, args, probes: dict | None, outcome: Outcome) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(name, args.seed, args.seconds, smoke=args.smoke)
    directory = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    record = {"workload": name, "environment": environment(args)}
    try:
        write_inputs(workload, directory)
        if args.trace:
            record["probes"] = probes
            metrics = per_layer(directory, args, outcome, record, probes or {})
        else:
            metrics = end_to_end(directory, args, outcome, record)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    record["metrics"] = metrics
    record["failures"] = list(outcome.failures)
    path = OUT / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return metrics, record


# ---------------------------------------------------------------------------
# Command line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and probes; runs in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "termxform" / "__init__.py").is_file():
        print("error: no termxform sources under %s" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else spec["run_seconds"]

    started = time.perf_counter()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outcome = Outcome(started + RUN_DEADLINE_S * len(names))
    probes = run_probes(args, outcome) if args.trace else None
    # Name -> unit of the metrics BENCHMARK.json lists for this kind of run.
    known = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("environment %s" % json.dumps(environment(args)))
    for name, result in (probes or {}).items():
        print("probe %-10s %s" % (name, json.dumps(result)))
    results = {}
    for name in names:
        metrics, record = run_workload(name, args, probes, outcome)
        results[name] = metrics
        for metric, value in metrics.items():
            print("%-14s %-40s %14.6g %s" % (name, metric, value, known.get(metric, "")))
        if "accounting" in record:
            print("%-14s traced wall minus harness cost = %.4f of untraced wall (median of %d documents)" % (
                name, record["accounting"]["median_ratio"], record["accounting"]["documents"]))
        if "raw_wall" in record:
            print("%-14s measured wall time (s), not at reference speed: %s" % (name, json.dumps(record["raw_wall"])))
        if "tail" in record:
            print("%-14s doc_s_tail is p%.1f of %d documents" % (name, record["tail"]["percentile"], record["tail"]["samples"]))
        docs = [d for d in record.get("docs", []) if not d["traced"] and "timings" in d]
        if docs:
            split = {phase: statistics.median(d["timings"][phase] for d in docs) for phase in ("parse", "solve", "serialize")}
            print("%-14s median phase split (s): %s" % (name, json.dumps(split)))
    failed = len(outcome.failures)
    for failure in outcome.failures[:20]:
        print("FAILED %s" % failure)
    print("attempted %d, failed %d, error_rate %.4f, %.1f s" % (
        outcome.attempted, failed, failed / max(outcome.attempted, 1), time.perf_counter() - started))

    expected = list(known)
    if len(names) == 1:
        metrics = {m: {"value": results[names[0]][m], "unit": known[m]} for m in expected if m in results[names[0]]}
    else:
        metrics = {"%s/%s" % (n, m): {"value": results[n][m], "unit": known[m]} for n in names for m in expected if m in results[n]}
    complete = all(m in results[n] for n in names for m in expected)
    summary = {"correct": failed == 0 and complete, "attempted": max(outcome.attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
