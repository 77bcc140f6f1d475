"""Rule recursion far deeper than the C stack allowed the old solver.

The solver keeps the goals still to run and its choicepoints in lists of its
own, so deep rule recursion is bounded by memory and the step limit.  When
each level nested Python generators, every query below but the last
crashed the interpreter (exit 139).  Each test runs ``termxform query``, or
the solver itself, in a fresh interpreter, so that such a crash fails one
test instead of the run.
"""

import os
import subprocess
import sys

import termxform

SRC = os.path.dirname(os.path.dirname(os.path.abspath(termxform.__file__)))
RULES = """\
cnt(0).
cnt(N) :- N > 0, M is N-1, cnt(M).
len([],0).
len([_|T],N) :- len(T,M), N is M+1.
ok(text(_)).
ok(element(_,_,[C])) :- not(not(ok(C))).
"""


def query(tmp_path, goal, *options, depth=None):
    rules = tmp_path / "rules.tx"
    rules.write_text(RULES, encoding="utf-8")
    args = ["--rules", str(rules), *options]
    if depth is not None:
        document = tmp_path / "deep.xml"
        document.write_text("<a>" * depth + "x" + "</a>" * depth, encoding="utf-8")
        args += ["--in", str(document)]
    return subprocess.run(
        [sys.executable, "-m", "termxform.cli", "query", *args, goal],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def test_a_countdown_of_100000_levels_answers(tmp_path):
    done = query(tmp_path, "cnt(100000)", "--depth-limit", "600000")
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\n", "")


def test_a_countdown_past_the_step_limit_exits_3(tmp_path):
    done = query(tmp_path, "cnt(1000000)", "--depth-limit", "300000")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: step limit of 300000 resolution steps exceeded\n"


def test_a_non_tail_recursion_over_100000_cells_answers(tmp_path):
    done = query(tmp_path, "length(L,100000), len(L,N)", "--depth-limit", "400000")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "N/100000"


def test_equals_on_a_20000_deep_document_answers(tmp_path):
    done = query(tmp_path, "equals(Doc, Doc)", depth=20_000)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\n", "")


def test_recursion_through_not_over_a_2000_deep_document_answers(tmp_path):
    # Each not/1 runs a nested solve on the Python stack; this depth needs
    # the recursion limit the solver raises.
    done = query(tmp_path, "ok(Doc)", depth=2_000)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\n", "")


def test_a_countdown_of_200000_levels_in_process_peaks_under_100_mb():
    # Natives that succeed at most once (`>`, `is`) push no choicepoint, so
    # a level keeps only its trail entry: about 43 MB here, against 288 MB
    # when every native success left a choicepoint behind.
    child = """
import resource
from termxform.logic_engine import Solver
from termxform.rule_language import parse_program, parse_query
solver = Solver(parse_program(%r))
print(solver.solve_once(parse_query("cnt(200000)").goal), solver.steps)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
""" % RULES
    done = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    answer, peak_mb = done.stdout.splitlines()
    assert answer == "True 600001", done.stderr
    assert int(peak_mb) < 100
