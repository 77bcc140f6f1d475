"""Compare two commits' document times in one process, alternating document by document.

    python scripts/ab.py BASE HEAD [--workload NAME] [--seed N] [--rounds R]
    python scripts/ab.py BASE HEAD --goals [--rounds R]

Each commit is written with ``git archive`` into a sibling directory of a
fresh temporary directory, and its ``termxform`` package is imported from
there under a name of its own (``ab_base``, ``ab_head``).  The package
imports relatively, so both copies load side by side, each with its own
natives and caches, and no bytecode is written or read for either.

The documents come from ``perfbench/workloads.make(NAME, SEED, SECONDS)``,
with the benchmark's ``run_seconds`` from ``BENCHMARK.json``, so they are
the documents of a benchmark run with that seed; the module is imported
read-only from this checkout, and nothing under ``perfbench/`` is changed.
Both sides go through ``transform_file`` on the same input files, as the
benchmark's children do.  First one untimed pass per side compiles the
rules, counts the solver steps and checks every output against the
workload's oracle.  Then each round runs every document on both sides in
turn, base first in even rounds and head first in odd ones, so that a drift
in the host's speed falls on both alike.

For each workload it prints the seed, each side's median document time
and its steps, whether every output equals the oracle, and for the pair the
median over rounds of the ratio head/base of a round's total time, with its
quartiles, and the rounds head won.  The exit code is 1 when an output
differs from the oracle or a document raises, and 0 otherwise; no time is
checked.  ``BASE`` and ``HEAD`` may be the same commit, which shows the
tool's own spread.

With ``--goals`` it times, instead of documents, the prelude goals whose
work once grew faster than their steps (``GOALS``), each at one fixed size:
each side parses the document with its own parser, and only the solve of
the goal's first answer is timed, with the cyclic garbage collector paused
as ``transform_file`` pauses it.  Rounds alternate the sides as above
(5 rounds unless ``--rounds`` says otherwise).  For each goal it prints
each side's median time and steps, and the median ratio head/base with its
quartiles and the rounds head won; the exit code is 1 when a side finds no
answer.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

DEFAULT_SEED = 5001  # a seed no benchmark claim used; --seed picks another


def _rows(n: int) -> str:
    """*n* same-named rows with repeated prices, as perfbench's operator probes make them."""
    rows = "".join('<row id="r%d" price="%d"><v>%d</v></row>' % (i, (i * 37) % (n // 2 + 1), i) for i in range(n))
    return "<table>%s</table>" % rows


# name -> (what the document is, the goal over its root D, the document)
GOALS = {
    "distinct": ("2,000 flat rows", "transform(distinct D, X)", "<t>%s</t>" % "".join('<r k="%d"/>' % i for i in range(2000))),
    "descendant": ("a 4,000-deep nest", "findall(X, transform(descendant D, X), L)", "<a>" * 4000 + "x" + "</a>" * 4000),
    "sortbyName": ("256 rows", "transform(sortbyName D, S)", _rows(256)),
}


def archive(commit: str, directory: Path) -> None:
    """Write *commit*'s tree into *directory* with ``git archive``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:  # pragma: no cover - Python before 3.11.4
            tar.extractall(directory)


def load(name: str, source: Path):
    """The ``termxform`` package under *source*, imported as *name*."""
    package = source / "termxform"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One commit's ``transform_file``, with the solvers it makes recorded so that their steps add up."""

    def __init__(self, label: str, package) -> None:
        self.label = label
        self.package = package
        template_engine = importlib.import_module(package.__name__ + ".template_engine")
        self.transform_file = template_engine.transform_file
        self.solvers: list = []
        solvers = self.solvers

        class Recorded(template_engine.Solver):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                solvers.append(self)

        template_engine.Solver = Recorded
        self.times: list[float] = []
        self.steps = 0
        self.same = True

    def run(self, source: Path, rules: Path) -> tuple[float, list[str]]:
        start = time.perf_counter()
        report = self.transform_file(str(source), str(rules))
        return time.perf_counter() - start, report.documents

    def solve(self, goal: str, document: str) -> tuple[float, int, bool]:
        """The time and steps of *goal*'s first answer with D bound to *document*, and whether there is one."""
        package = self.package
        program = package.load_prelude()
        query = package.parse_query(goal, program.operators)
        solver = package.Solver(program, package.SolverOptions(depth_limit=10_000_000))
        solver.unify(query.variables["D"], package.parse_document(document))
        collecting = gc.isenabled()
        gc.disable()  # as transform_file pauses the cyclic collector around a document
        try:
            start = time.perf_counter()
            found = solver.solve_once(query.goal)
            return time.perf_counter() - start, solver.steps, found
        finally:
            if collecting:
                gc.enable()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(name: str, sides: list[Side], seed: int, rounds: int, directory: Path) -> bool:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    workload = workloads.make(name, seed, seconds)
    rules = directory / ("%s.tx" % name)
    rules.write_text(workload.rules, encoding="utf-8")
    sources = []
    for index, doc in enumerate(workload.docs):
        sources.append(directory / ("%s-%d.xml" % (name, index)))
        sources[-1].write_text(doc.text, encoding="utf-8")
    ok = True
    for side in sides:  # the untimed pass: compiles the rules, counts steps, checks outputs
        side.solvers.clear()
        side.times = []
        same = True
        for source, doc in zip(sources, workload.docs):
            try:
                same &= side.run(source, rules)[1] == [doc.expected]
            except Exception as error:  # noqa: BLE001 - a failing document is a result to report
                print("  %s raised on %s: %s: %s" % (side.label, source.name, type(error).__name__, error))
                same = False
        side.steps = sum(solver.steps for solver in side.solvers)
        side.same = same
        ok &= same
    ratios, won = [], 0
    for number in range(rounds):
        order = sides if number % 2 == 0 else sides[::-1]
        totals = {side.label: 0.0 for side in sides}
        for source in sources:
            for side in order:
                wall = side.run(source, rules)[0]
                side.times.append(wall)
                totals[side.label] += wall
        ratios.append(totals["head"] / totals["base"])
        won += totals["head"] < totals["base"]
    print("%s: seed %d, %d documents, %d rounds" % (name, seed, len(sources), rounds))
    for side in sides:
        print(
            "  %-4s median document %.3f ms, %d steps, outputs %s the oracle"
            % (side.label, 1000 * statistics.median(side.times), side.steps, "equal" if side.same else "DIFFER from")
        )
    print_ratios(ratios, won)
    return ok


def print_ratios(ratios: list[float], won: int) -> None:
    low, middle, high = quartiles(ratios)
    print("  head/base: median ratio %.3f (quartiles %.3f-%.3f), head won %d of %d rounds" % (middle, low, high, won, len(ratios)))


def compare_goals(sides: list[Side], rounds: int) -> bool:
    """Alternate the sides on each of ``GOALS`` for *rounds* rounds; False if a side finds no answer."""
    print("goals: %d rounds" % rounds)
    ok = True
    for name, (size, goal, document) in GOALS.items():
        times: dict[str, list[float]] = {side.label: [] for side in sides}
        steps, ratios, won = {}, [], 0
        for number in range(rounds):
            for side in sides if number % 2 == 0 else sides[::-1]:
                wall, steps[side.label], found = side.solve(goal, document)
                times[side.label].append(wall)
                ok &= found
            ratios.append(times["head"][-1] / times["base"][-1])
            won += times["head"][-1] < times["base"][-1]
        print("%s on %s: %s" % (name, size, goal))
        for side in sides:
            print("  %-4s median %.3f s, %d steps" % (side.label, statistics.median(times[side.label]), steps[side.label]))
        print_ratios(ratios, won)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, help="rounds of alternation (15, or 5 with --goals)")
    parser.add_argument("--goals", action="store_true", help="time the goals of GOALS instead of the workloads' documents")
    args = parser.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="ab-") as temporary:
        directory = Path(temporary)
        sides = []
        for label, commit in (("base", args.base), ("head", args.head)):
            archive(commit, directory / label)
            sides.append(Side(label, load("ab_" + label, directory / label / "src")))
        print("base %s, head %s" % (args.base, args.head))
        if args.goals:
            ok = compare_goals(sides, args.rounds or 5)
        else:
            ok = True
            for name in names:
                ok &= compare(name, sides, args.seed, args.rounds or 15, directory)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
