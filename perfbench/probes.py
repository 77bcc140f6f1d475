"""Operator and bare-solver probes.

Each probe solves one query on a fixed input (no seed: solver step counts
then repeat exactly from run to run and between commits).  An operator
probe runs at two sizes, n and 4n, and reports the larger size; the step
exponent ``log(steps(4n) / steps(n)) / log 4`` shows how the operator
scales, independent of the machine.
"""

from __future__ import annotations

import math
import statistics
import time

from termxform import Atom, Solver, load_prelude, parse_document, parse_program, parse_query

# Naive reverse over a user-defined append: app/3 is not the native
# append/3, so reversing 30 elements takes the textbook 496 inferences.
NREV_RULES = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""
NREV_INFERENCES = 496

COUNTDOWN_RULES = """\
cnt(0) :- !.
cnt(N) :- M is N - 1, cnt(M).
"""
# The recursive solver overflows the C stack near 15,000 levels (a crash,
# not a step-limit error), so the probe stays well below that.
COUNTDOWN_DEPTH = 5000


def _attributes_doc(n: int) -> tuple[str, str]:
    attrs = " ".join('a%d="v%d"' % (i, i) for i in range(n))
    return "<e %s/>" % attrs, "a%d" % (n - 1)


def _rows_doc(n: int) -> tuple[str, str]:
    # Same-named siblings, prices with repeats: sortbyName compares equal
    # keys throughout, and sort sees ties.
    rows = "".join('<row id="r%d" price="%d"><v>%d</v></row>' % (i, (i * 37) % (n // 2 + 1), i) for i in range(n))
    return "<table>%s</table>" % rows, ""


# name -> (query over the document D, document maker, n, smoke n)
OPERATORS = {
    "at": ("transform(D @ Last, V)", _attributes_doc, 8, 2),
    "slash": ("findall(X, transform(D / row, X), L)", _rows_doc, 50, 2),
    "descendant": ("findall(X, transform(descendant D, X), L)", _rows_doc, 20, 2),
    "sort": ("transform(D sort price, S)", _rows_doc, 25, 2),
    "sortbyName": ("transform(sortbyName D, S)", _rows_doc, 16, 2),
}


def _timed_solve(program, query_text: str, bindings: dict, reps: int) -> tuple[int, float]:
    """Solver steps of one solution of the query, and the median time of *reps* runs."""
    times = []
    steps = 0
    for _ in range(reps):
        solver = Solver(program)
        query = parse_query(query_text, program.operators)
        for name, value in bindings.items():
            solver.unify(query.variables[name], value)
        start = time.perf_counter()
        found = solver.solve_once(query.goal)
        times.append(time.perf_counter() - start)
        if not found:
            raise RuntimeError("probe query has no solution: %s" % query_text)
        steps = solver.steps
    return steps, statistics.median(times)


def operator_probe(name: str, smoke: bool) -> dict:
    query_text, maker, n, smoke_n = OPERATORS[name]
    if smoke:
        n = smoke_n
    program = load_prelude()
    result = {"sizes": [n, 4 * n]}
    points = []
    for size in (n, 4 * n):
        xml, last = maker(size)
        bindings = {"D": parse_document(xml)}
        if last:
            bindings["Last"] = Atom(last)
        # Steps repeat exactly; only the reported (larger) size is timed thrice.
        points.append(_timed_solve(program, query_text, bindings, reps=3 if size > n else 1))
    (steps_n, _), (steps_4n, seconds_4n) = points
    result.update(
        steps=steps_4n,
        s=seconds_4n,
        step_exponent=math.log(steps_4n / steps_n) / math.log(4),
        steps_small=steps_n,
    )
    return result


def nrev_probe(smoke: bool) -> dict:
    program = load_prelude(parse_program(NREV_RULES))
    items = "[%s]" % ",".join(str(i) for i in range(30))
    reps = 5 if smoke else 60
    solver = Solver(program)
    query = parse_query("nrev(%s, R)" % items, program.operators)
    start = time.perf_counter()
    for _ in range(reps):
        if not solver.solve_once(query.goal):
            raise RuntimeError("nrev30 failed")
    elapsed = time.perf_counter() - start
    return {"lips": NREV_INFERENCES * reps / elapsed, "reps": reps, "steps_per_nrev": solver.steps // reps, "s": elapsed}


def countdown_probe(smoke: bool) -> dict:
    program = load_prelude(parse_program(COUNTDOWN_RULES))
    depth = 50 if smoke else COUNTDOWN_DEPTH
    steps, seconds = _timed_solve(program, "cnt(%d)" % depth, {}, reps=3)
    return {"depth": depth, "steps": steps, "s": seconds, "steps_per_s": steps / seconds}


def run_probe(name: str, smoke: bool) -> dict:
    if name == "nrev30":
        return nrev_probe(smoke)
    if name == "countdown":
        return countdown_probe(smoke)
    return operator_probe(name, smoke)
