"""Solver steps on the benchmark's seed-17 document sets, pinned exactly.

Steps do not depend on the machine, so these totals show whether a change to
the solver changed the work it does on the two benchmark workloads, apart
from how fast the host runs it.  Each set is the first 30 documents of
``perfbench.workloads.make(name, 17, 45)``; every document goes through
``transform_file``, as in the benchmark, which solves its one goal,
``traverse(Doc, Result)`` or ``go(Doc, Result)``, on a solver of its own,
and its output must be the workload's expected text.  In template mode the
``traverse/2`` goal is a step of its own, one per document.
"""

import sys
from pathlib import Path

import pytest

from termxform import template_engine
from termxform.logic_engine import Solver
from termxform.template_engine import transform_file

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import make  # noqa: E402


class _Recorded(Solver):
    """A solver that remembers every instance, to add up their steps."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


@pytest.mark.parametrize("name, steps", [("template-rows", 36_806), ("goal-query", 7_012)])
def test_seed_17_sets_give_the_expected_outputs_in_pinned_steps(name, steps, tmp_path, monkeypatch):
    workload = make(name, 17, 45)
    rules, source = tmp_path / "rules.tx", tmp_path / "in.xml"
    rules.write_text(workload.rules, encoding="utf-8")
    monkeypatch.setattr(template_engine, "Solver", _Recorded)
    _Recorded.made = []
    for doc in workload.docs[:30]:
        source.write_text(doc.text, encoding="utf-8")
        assert transform_file(str(source), str(rules)).documents == [doc.expected]
    assert len(_Recorded.made) == 30
    assert sum(solver.steps for solver in _Recorded.made) == steps
