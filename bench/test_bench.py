"""The benchmark's own test, on small instances of each workload.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402

SMALL_SEED = 7


def _definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_definition():
    spec = _definition()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(child.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_verdicts_agree_and_wrappers_are_removed(workload):
    plain = child.run(workload, SMALL_SEED, trace=False, small=True)
    traced = child.run(workload, SMALL_SEED, trace=True, small=True)
    assert traced["verdict"] == plain["verdict"]
    assert plain["ref_wall_s"] > 0 and plain["ref_cpu_s"] > 0
    assert traced["restored"] is True
    layers = traced["layers"]
    assert set(layers) == set(run.PER_LAYER_UNITS) - {"trace.wall_s", "trace_overhead_s"}
    self_times = [v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s")]
    assert sum(self_times) + layers["unattributed_s"] == pytest.approx(traced["wall_s"])
    assert layers["unattributed_s"] >= 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    golden = child.run(workload, SMALL_SEED, trace=False, small=True)["verdict"]
    runner = run.Runner(ROOT, 120, small=True)
    for result in (run.measure(runner, workload, SMALL_SEED, 0.5, golden),
                   run.measure_traced(runner, workload, SMALL_SEED, 0.5, golden)):
        attempted, failed, values, units = result
        assert failed == 0 and attempted >= 2
        assert set(values) == set(units)
        assert all(isinstance(v, (int, float)) for v in values.values())


def test_counts_repeat_exactly_across_fresh_interpreters():
    runner = run.Runner(ROOT, 120, small=True)
    for workload in run.WORKLOADS:
        first, second = (runner.sample(workload, SMALL_SEED, trace=True) for _ in range(2))
        counts = [
            {k: r["layers"][k] for k, unit in run.PER_LAYER_UNITS.items()
             if unit in run.COUNT_UNITS}
            for r in (first, second)
        ]
        assert counts[0] == counts[1], workload


def test_rewrite_grid_reads_its_seed():
    runner = run.Runner(ROOT, 120, small=True)
    steps = {runner.sample("rewrite_grid", seed, trace=True)["layers"]["qalgebra.rewrite_steps"]
             for seed in (1, 2)}
    assert len(steps) == 2


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fft_kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
