"""The benchmark's own checks: the smoke run, the oracles and the statistics."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in spec()["workloads"]} <= set(workloads.WORKLOADS)


def test_smoke_reports_every_end_to_end_metric():
    proc, result = smoke(0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {"%s/%s" % (w, m["name"]) for w in workloads.WORKLOADS for m in spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every document is timed in the same, fixed number of passes.
    record = json.loads((run.OUT / "goal-query-seed1-trace0.json").read_text(encoding="utf-8"))
    passes = {}
    for doc in record["docs"]:
        passes[doc["doc"]] = passes.get(doc["doc"], 0) + 1
    assert set(passes.values()) == {2}


def test_smoke_traced_reports_every_per_layer_metric():
    proc, result = smoke(1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    names = {"%s/%s" % (w, m["name"]) for w in workloads.WORKLOADS for m in spec()["per_layer"]}
    assert set(result["metrics"]) == names


def test_without_the_engine_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "goal-query", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_cost_is_charged_to_the_harness_layer():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    t = tracer.Tracer()
    cost = t.calibrate()
    assert all(inside >= 0 and outside >= 0 for inside, outside in cost.values())
    assert cost["unify"][1] > 0 and cost["span"][1] > 0
    t.begin_doc(0)
    t.enter("work")
    t.exit((0.25, 0.5))  # a wrapper's cost inside and outside its timed interval
    t.charge(1.0)
    wall = t.end_doc()
    # The inside part leaves the layer it was timed in for the harness; the
    # rest leaves the enclosing frame, here the harness itself.  The layers
    # still add up to the wall time.
    assert abs(t.self_s["work"] + 0.25) < 0.01
    assert abs(sum(t.self_s.values()) - wall) < 1e-9


def test_accounting_check_fails_on_unexplained_overhead():
    plain = {"wall": 1.0}
    explained = {"traced_wall": 1.2, "layers": {"harness": 0.19}}
    unexplained = {"traced_wall": 1.2, "layers": {"harness": 0.0}}
    assert abs(run.accounted_ratio([(plain, explained)]) - 1.01) < 1e-9
    assert abs(run.accounted_ratio([(plain, unexplained)]) - 1) > run.ACCOUNTING_TOLERANCE


def test_a_child_over_its_time_cap_is_reported_as_exceeded():
    records, status = run.run_child(["probe", "sortbyName"], cap_s=0.5)
    assert records == [] and status.startswith("exceeded")


def test_sort_oracle_puts_ties_in_reverse_input_order():
    rows = [("x", 1), ("x", 2), ("x", 3), ("a", 4)]
    assert workloads.reverse_stable_sort(rows, key=lambda r: r[0]) == [("a", 4), ("x", 3), ("x", 2), ("x", 1)]


def test_sort_oracle_is_lexical_not_numeric():
    assert workloads.reverse_stable_sort(["3", "23", "229"], key=str) == ["229", "23", "3"]


def test_inputs_come_from_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.make(name, 5, 1.0, smoke=True).docs
        assert first == workloads.make(name, 5, 1.0, smoke=True).docs
        assert [d.text for d in first] != [d.text for d in workloads.make(name, 6, 1.0, smoke=True).docs]


def test_sizes_do_not_depend_on_the_seed():
    sizes = [[d.text.count("<row ") for d in workloads.make("template-rows", seed, 40).docs] for seed in (1, 2)]
    assert sizes[0] == sizes[1]


def test_document_count_follows_the_run_length():
    assert len(workloads.make("goal-query", 1, 45).docs) == 30
    assert len(workloads.make("goal-query", 1, 1).docs) == workloads.MIN_DOCS


def test_times_are_stated_at_the_reference_speed():
    # A sample taken while the reference task ran at half speed counts half.
    sample = {"wall": 0.2, "ref_s": 2 * run.REFERENCE_S}
    assert abs(run.at_reference_speed(sample, "wall") - 0.1) < 1e-12


def test_tail_keeps_ten_samples_beyond_it():
    percentile, value = run.tail([float(i) for i in range(1, 41)])
    assert (percentile, value) == (75.0, 30.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
