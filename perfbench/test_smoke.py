"""Smoke test of the benchmark: every workload at a tiny size, all checks on.

    python3 -m pytest perfbench/test_smoke.py

Kept out of the tier-1 suite, which collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

from cevnorm.simulate import CHUNK_ROWS  # noqa: E402
from tracing import UNITS, WORK_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "verify-rn": {"n": 2000, "b": 99},
    "limit-law": {},  # the gap oracles hold only on the full 19-level grid
    "diagnose": {"rows": 4000, "b": 99},
    "sample-write": {"n_binary": CHUNK_ROWS + 5, "n_csv": 500},
}

# the per-layer metrics that must be non-zero on each workload
LAYERS = {
    "verify-rn": ["cli.config_s", "cli.report_s", "cli.self_s", "simulate.draw_s",
                  "simulate.draw_rows", "models.map_s", "simulate.thread_util",
                  "simulate.norm_s", "stats.perm_s", "stats.perm_replicates",
                  "stats.perm_s_per_replicate", "stats.fstat_s", "stats.ks_s"],
    "limit-law": ["cli.self_s", "limits.gap_s", "limits.quantile_s",
                  "limits.quantile_calls", "limits.marginal_calls",
                  "limits.marginal_calls_per_quantile", "limits.H_s",
                  "limits.H_calls", "limits.H_calls_per_point"],
    "diagnose": ["data.load_csv_s", "data.rows_read", "data.rows_dropped",
                 "data.csv_read_bytes", "data.fit_s", "data.fits",
                 "data.fit_iterations", "data.diag_s", "data.residual_s",
                 "stats.perm_s"],
    "sample-write": ["simulate.draw_s", "simulate.draw_rows", "models.map_s",
                     "simulate.thread_util", "simulate.write_binary_s",
                     "simulate.binary_bytes", "simulate.write_csv_s",
                     "simulate.csv_bytes"],
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_run_is_clean(name, tmp_path):
    result = run.measure(name, 3, 0.01, tmp_path, TINY[name], setup_runs=1)
    assert result["runner"].failures == []
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["metrics"]["ok_frac"] == 1.0
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat(name, tmp_path):
    first = run.measure_traced(name, 3, 0.01, tmp_path / "a", TINY[name])
    second = run.measure_traced(name, 3, 0.01, tmp_path / "b", TINY[name])
    for result in (first, second):
        assert result["runner"].failures == []
        assert result["detail"]["unstable_counts"] == []
        assert set(UNITS) <= set(result["metrics"])
    assert {k: first["metrics"][k] for k in WORK_COUNTS} == \
        {k: second["metrics"][k] for k in WORK_COUNTS}
    assert [k for k in LAYERS[name] if not first["metrics"][k] > 0] == []
    assert first["metrics"]["limits.errors"] == first["metrics"]["data.fit_errors"] == 0


@pytest.mark.parametrize("name", ["verify-rn", "diagnose"])
def test_peak_memory_is_set_by_the_program(name):
    """At full size, the timed passes, not the making of the inputs, set peak_rss_mb."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.01", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    record = json.loads((run.OUT / f"{name}-seed3-trace0.json").read_text())
    assert record["built_rss_mb"] < record["metrics"]["peak_rss_mb"]


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "limit-law",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) \
        == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**UNITS, **run.TRACE_UNITS}
