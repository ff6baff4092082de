"""Self-tests of the benchmark, at a tiny scale.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import finmonad
import planted
import run
import workloads


def run_bench(workload: str, trace: int, cwd=run.ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc, None


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_exhaustive_checks_catch_every_planted_defect():
    _, result = run_bench("powerset-cli", 1)
    metrics = result["metrics"]
    assert metrics["checks.planted"]["value"] == 3
    assert metrics["checks.planted_missed"]["value"] == 0


def test_layer_self_times_add_up_to_the_traced_verdict():
    _, result = run_bench("powerset-cli", 1)
    metrics = result["metrics"]
    self_times = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    total = self_times + metrics["trace.untraced_s"]["value"]
    assert total == pytest.approx(metrics["trace.verdict_s"]["value"], rel=1e-9)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc, result = run_bench("container-laws", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_a_differing_line_is_named():
    problems = run.compare(["PASS a @ x checked=1", "PASS b @ x checked=2"], ["PASS a @ x checked=1"])
    assert problems == ["line 2: expected 'PASS b @ x checked=2', got None"]


def test_corrupt_mu_changes_one_family_of_at_least_two_members():
    space = finmonad.make_finite_set([1, 2])
    mu, _ = planted.corrupt_mu(space, random.Random(0))
    good, bad = finmonad.mu_component(space), mu.component(space)
    changed = [f for f in good.domain if good.table[f] != bad.table[f]]
    assert len(changed) == 1 and len(changed[0]) >= 2


def test_corrupt_eta_sends_one_element_to_the_empty_subset():
    space = finmonad.make_finite_set([1, 2])
    eta, _ = planted.corrupt_eta(space, random.Random(0))
    good, bad = finmonad.eta_component(space), eta.component(space)
    changed = [x for x in space if good.table[x] != bad.table[x]]
    assert len(changed) == 1 and len(bad.table[changed[0]]) == 0


@pytest.mark.parametrize("workload", ["powerset-sampled", "container-laws"])
def test_a_first_verdict_worker_stops_at_the_reference_first_line(workload):
    run.RESULTS.mkdir(exist_ok=True)
    worker = run.spawn(workload, 5, "tiny", False, first=True)
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    assert worker["lawful"] == reference["tiny"][workload]["5"][:1]
    assert worker["planted"] == [] and worker["first"] == worker["last"]
