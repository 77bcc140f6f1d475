"""Time template-rows documents of growing size through ``transform_file``.

Each size runs in a child process of its own.  The child builds one
template-rows document of that many rows with ``perfbench/workloads.py``,
transforms it once untimed (so that the rules are compiled) and then
timed, ``--repeat`` times and on until ``--seconds`` have passed, and
reports:

- the median wall time of ``transform_file``;
- its peak RSS, read with ``getrusage`` in the child;
- the collections each generation of the garbage collector ran during the
  timed calls, from the change in ``gc.get_stats()`` around each call (so
  a young collection that starts as soon as a call has turned the
  collector back on counts as well);
- whether every output matches the workload's oracle.

Last comes the size exponent, the least-squares slope of log wall time
against log rows.  The exit code is 1 when an output differs from the
oracle or a child fails, and 0 otherwise; no wall time is checked.

    PYTHONPATH=src python scripts/size_sweep.py [--rows 90 900 9000] [--repeat 3] [--seconds 2] [--seed 17]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import template_rows  # noqa: E402


def measure(rows: int, repeat: int, seconds: float, seed: int) -> dict:
    """Transform one *rows*-row document at least *repeat* times and *seconds* long."""
    from termxform.template_engine import transform_file

    workload = template_rows(seed, 1, rows, rows)
    warm_up = template_rows(seed, 1, 1, 1)
    with tempfile.TemporaryDirectory() as directory:
        rules = os.path.join(directory, "rules.tx")
        with open(rules, "w", encoding="utf-8") as out:
            out.write(workload.rules)
        paths = []
        for name, doc in (("warm-up.xml", warm_up.docs[0]), ("doc.xml", workload.docs[0])):
            paths.append(os.path.join(directory, name))
            with open(paths[-1], "w", encoding="utf-8") as out:
                out.write(doc.text)
        correct = transform_file(paths[0], rules).documents == [warm_up.docs[0].expected]
        walls = []
        collections = [0, 0, 0]
        deadline = time.perf_counter() + seconds
        while len(walls) < repeat or time.perf_counter() < deadline:
            before = gc.get_stats()
            started = time.perf_counter()
            report = transform_file(paths[1], rules)
            walls.append(time.perf_counter() - started)
            after = gc.get_stats()
            for generation, (old, new) in enumerate(zip(before, after)):
                collections[generation] += new["collections"] - old["collections"]
            correct = correct and report.documents == [workload.docs[0].expected]
    return {
        "rows": rows,
        "calls": len(walls),
        "median_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "collections": collections,
        "correct": correct,
    }


def exponent(points: list[tuple[int, float]]) -> float:
    """The least-squares slope of log(seconds) against log(rows)."""
    xs = [math.log(rows) for rows, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum((x - mean_x) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[90, 900, 9000])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.rows[0], args.repeat, args.seconds, args.seed)))
        return 0

    print("rows  calls  median_s  peak_rss_mb  collections (gen 0/1/2)  output")
    points = []
    ok = True
    for rows in args.rows:
        command = [sys.executable, __file__, "--child", "--rows", str(rows)]
        command += ["--repeat", str(args.repeat), "--seconds", str(args.seconds), "--seed", str(args.seed)]
        child = subprocess.run(command, capture_output=True, text=True)
        if child.returncode != 0:
            print("%d rows: the child failed with exit code %d\n%s" % (rows, child.returncode, child.stderr), file=sys.stderr)
            return 1
        result = json.loads(child.stdout)
        ok = ok and result["correct"]
        points.append((rows, result["median_s"]))
        collections = "/".join(map(str, result["collections"]))
        output = "ok" if result["correct"] else "WRONG"
        print("%4d  %5d  %8.4f  %11.1f  %24s  %s" % (rows, result["calls"], result["median_s"], result["peak_rss_mb"], collections, output))
    if len(points) > 1:
        print("size exponent over %d-%d rows: %.3f" % (min(args.rows), max(args.rows), exponent(points)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
