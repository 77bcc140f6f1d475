"""Recursion far deeper than the C stack allowed the old solver.

The solver keeps the goals still to run and its choicepoints in lists of its
own, so deep rule recursion is bounded by memory and the step limit.  When
each level nested Python generators, every query below but the last
crashed the interpreter (exit 139).  ``not/1``, ``findall/3`` and
``traverse/2`` hand their goals to the machine that called them, so
recursion through them is bounded the same way; when each ran a solve of its
own on the Python stack, 100,000 levels through any of them crashed too.
The rule reader, the clause compiler and ``is/2`` walk a term over lists of
their own as well, so the package leaves Python's recursion limit as it
finds it (pinned below).  Each test runs ``termxform``, or the solver
itself, in a fresh interpreter, so that a crash fails one test instead of
the run.
"""

import os
import subprocess
import sys

import pytest

import termxform

SRC = os.path.dirname(os.path.dirname(os.path.abspath(termxform.__file__)))
RULES = """\
cnt(0).
cnt(N) :- N > 0, M is N-1, cnt(M).
len([],0).
len([_|T],N) :- len(T,M), N is M+1.
ok(text(_)).
ok(element(_,_,[C])) :- not(not(ok(C))).
f(element(a,_,[C]), L) :- findall(X, f(C, X), [L]).
f(text(_), x).
"""
NEST = """\
template(element(a,_,[C]), [element(b,[],R)]) :- traverse(C, R).
template(text(T), [text(T)]).
"""


def termxform(tmp_path, command, *args, depth=None, rules=RULES):
    path = tmp_path / "rules.tx"
    path.write_text(rules, encoding="utf-8")
    args = ["--rules", str(path), *args]
    if depth is not None:
        document = tmp_path / "deep.xml"
        document.write_text("<a>" * depth + "x" + "</a>" * depth, encoding="utf-8")
        args += ["--in", str(document)]
    return subprocess.run(
        [sys.executable, "-m", "termxform.cli", command, *args],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def query(tmp_path, goal, *options, depth=None, rules=RULES):
    return termxform(tmp_path, "query", *options, goal, depth=depth, rules=rules)


# The child's own peak RSS in MB.  On Linux, ru_maxrss keeps the high-water
# mark across execve, so a child's reading includes the size of the pytest
# process it was forked from (a trivial child of a 150 MB parent reads 163 MB,
# against a VmHWM of 13.5 MB); VmHWM is the child's own.  Where /proc is
# absent, ru_maxrss is the fallback.
PEAK_MB = """
def peak_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
"""


def in_process(child):
    """The lines *child*, a Python program that may call ``peak_mb()``, prints to standard output."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK_MB + child], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


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
    done = query(tmp_path, "ok(Doc)", depth=2_000)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\n", "")


def test_recursion_through_not_over_a_100000_deep_document_answers(tmp_path):
    done = query(tmp_path, "ok(Doc)", depth=100_000)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\n", "")


def test_nested_findall_over_a_100000_deep_document_answers(tmp_path):
    done = query(tmp_path, "f(Doc, L)", depth=100_000)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\nL/x\n", "")


def test_templates_nested_100000_deep_through_traverse_answer(tmp_path):
    done = termxform(tmp_path, "transform", depth=100_000, rules=NEST)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "<b>" * 100_000 + "x" + "</b>" * 100_000 + "\n"


def test_a_countdown_of_200000_levels_in_process_peaks_under_100_mb():
    # Natives that succeed at most once (`>`, `is`) push no choicepoint, so
    # a level keeps only its trail entry: about 43 MB here, against 288 MB
    # when every native success left a choicepoint behind.
    child = """
from termxform.logic_engine import Solver
from termxform.rule_language import parse_program, parse_query
solver = Solver(parse_program(%r))
print(solver.solve_once(parse_query("cnt(200000)").goal), solver.steps)
print(peak_mb())
""" % RULES
    answer, peak_mb = in_process(child)
    assert answer == "True 600001"
    assert int(peak_mb) < 100


def test_200000_levels_each_running_not_findall_and_traverse_peak_under_100_mb():
    # Each native's choicepoint goes when it gives its answer, so a level
    # keeps no more than in the countdown above: 63 MB here.
    child = """
from termxform.logic_engine import Solver, SolverOptions
from termxform.rule_language import parse_program, parse_query
solver = Solver(parse_program(%r), SolverOptions(depth_limit=2_000_000))
print(solver.solve_once(parse_query("loop(200000)").goal), solver.steps)
print(peak_mb())
""" % """
loop(0).
loop(N) :- N > 0, not(fail), findall(x, true, [x]), traverse(text(t), []), M is N-1, loop(M).
template(text(_), []).
"""
    answer, peak_mb = in_process(child)
    assert answer == "True 1800001"
    assert int(peak_mb) < 100


# The clause compiler walks a clause term over lists of its own: a ground
# list, or one that ends in a variable, is bounded by memory, not by Python's
# recursion limit.  When the compiler recursed once per cell, a ground list
# of 20,000 cells crashed the interpreter (exit 139), and a list that ends in
# a variable needed the recursion limit the solver used to raise: without it,
# 500 cells failed, and with it 20,000 cells crashed on Python 3.10 (exit 139).
@pytest.mark.parametrize("cells", [5_000, 20_000])
def test_a_5000_element_list_in_a_clause_head_answers(tmp_path, cells):
    done = query(tmp_path, "p(L), length(L, N)", rules="p([%s])." % ", ".join(["1"] * cells))
    assert (done.returncode, done.stdout.splitlines()[-1], done.stderr) == (0, "N/%d" % cells, "")


@pytest.mark.parametrize("cells", [5_000, 20_000])
def test_a_5000_element_list_in_a_clause_body_answers(tmp_path, cells):
    done = query(tmp_path, "q(N)", rules="q(N) :- length([%s], N)." % ", ".join(["1"] * cells))
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\nN/%d\n" % cells, "")


CELLS = 5_000
ONES = ", ".join(["1"] * CELLS)


@pytest.mark.parametrize("goal, answer", [("r(L, [])", CELLS), ("r([1|L], [])", CELLS - 1)])
def test_a_5000_cell_list_ending_in_a_variable_in_a_clause_head_answers(tmp_path, goal, answer):
    # r(L, []) binds L through the argument's builder, r([1|L], []) through
    # the copy of the head list below its first cell.
    done = query(tmp_path, goal, rules="r([%s|T], T)." % ONES)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\nL/[%s]\n" % ",".join(["1"] * answer), "")


def test_a_5000_cell_list_ending_in_a_variable_in_a_clause_body_answers(tmp_path):
    done = query(tmp_path, "q(L)", rules="q(L) :- L = [%s|T], T = []." % ONES)
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\nL/[%s]\n" % ",".join(["1"] * CELLS), "")


def test_a_sum_of_20000_terms_answers(tmp_path):
    done = query(tmp_path, "X is " + "+".join(["1"] * 20_000))
    assert (done.returncode, done.stdout, done.stderr) == (0, "YES.\nX/20000\n", "")


def test_a_rule_built_string_nest_3000_deep_evaluates(tmp_path):
    rules = "nest(0,E,E) :- !.\nnest(N,E0,E) :- M is N-1, nest(M,string(E0),E).\n"
    done = query(tmp_path, "nest(3000, a, E), X is E", rules=rules)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "YES.\nE/%sa%s\nX/a\n" % ("string(" * 3000, ")" * 3000)


def test_solving_and_transforming_leave_the_recursion_limit_as_it_was(tmp_path):
    # The reader keeps its open terms on a stack of its own, so the
    # 1,500-goal body below parses at the default limit, before and after a
    # Solver is made.  Making one used to raise the limit for the whole
    # process, and the body then parsed only after it.
    (tmp_path / "nest.tx").write_text(NEST, encoding="utf-8")
    (tmp_path / "deep.xml").write_text("<a>" * 3000 + "x" + "</a>" * 3000, encoding="utf-8")
    child = """
import sys
from termxform.logic_engine import Solver
from termxform.rule_language import ParseError, parse_program, parse_query
from termxform.template_engine import transform_file
sys.setrecursionlimit(1000)
def parses(text):
    try:
        parse_program(text)
    except ParseError:
        return "ParseError"
    return "parsed"
deep = "p :- " + ", ".join(["true"] * 1500) + "."
print(parses(deep))
solver = Solver(parse_program(%r))
print(solver.solve_once(parse_query("cnt(3000), X is " + "+".join(["1"] * 3000)).goal))
report = transform_file(%r, %r)
print(report.status, report.documents[0].count("<b>"))
print(parses(deep), sys.getrecursionlimit())
""" % (RULES, str(tmp_path / "deep.xml"), str(tmp_path / "nest.tx"))
    assert in_process(child) == ["parsed", "True", "ok 3000", "parsed 1000"]


def test_disjunctions_nested_20000_deep_in_a_clause_body_compile():
    # The clause compiler reads a body's `;` nesting over a stack of its own,
    # and the reader reads it over another: a 20,000-deep body read from
    # text, and one built in Python, compile and run at the default limit.
    child = """
import sys
from termxform.logic_engine import Program, Solver
from termxform.rule_language import parse_program, parse_query
from termxform.term_core import Atom, Compound
sys.setrecursionlimit(1000)
text = "p :- " + "(fail ; " * 20000 + "true" + ")" * 20000 + "."
solver = Solver(parse_program(text))
print(solver.solve_once(parse_query("p").goal), solver.steps)
goal = Atom("true")
for i in range(20000):
    goal = Compound(";", (Compound(",", (Atom("true"), goal)), Atom("fail")) if i % 2 else (Atom("fail"), goal))
program = Program()
program.add(Atom("q"), goal)
solver = Solver(program)
print(solver.solve_once(Atom("q")), solver.steps)
"""
    assert in_process(child) == ["True 40002", "True 40002"]
