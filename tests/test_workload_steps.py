"""Solver steps on the benchmark's seed-17 document sets, pinned exactly.

Steps do not depend on the machine, so these totals show whether a change to
the solver changed the work it does on the two benchmark workloads, apart
from how fast the host runs it.  Each set is the first 30 documents of
``perfbench.workloads.make(name, 17, 45)``; every document runs on a solver
of its own, as in ``transform_file``, and its output must be the workload's
expected text.
"""

import sys
from pathlib import Path

import pytest

from termxform.logic_engine import Solver
from termxform.template_engine import TransformOptions, _serialize_results, _traverse, rule_program
from termxform.term_core import Compound, copy_term, fresh_var, list_items
from termxform.xml_io import parse_document

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import make  # noqa: E402


def _results(name, doc, solver):
    if name == "template-rows":
        return _traverse(doc, solver)
    result = fresh_var("Result")
    for _ in solver.solve(Compound("go", (doc, result))):
        return list_items(copy_term(result))
    return []


@pytest.mark.parametrize("name, steps", [("template-rows", 49_896), ("goal-query", 18_998)])
def test_seed_17_sets_give_the_expected_outputs_in_pinned_steps(name, steps):
    workload = make(name, 17, 45)
    _, program = rule_program(workload.rules)
    total = 0
    for doc in workload.docs[:30]:
        solver = Solver(program)
        results = _results(name, parse_document(doc.text), solver)
        assert _serialize_results(results, TransformOptions()) == doc.expected
        total += solver.steps
    assert total == steps
