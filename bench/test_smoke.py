"""Smoke tests for the benchmark: a few ops of each workload on a fixed seed.

    python3 -m pytest bench

The tier-1 suite does not collect these (pyproject sets testpaths to tests).
"""

import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

import run

sys.path.insert(0, run.SRC)

SEED = 7


@pytest.mark.parametrize("name,n_ops", [("screen", 4), ("figures", 4), ("files", 7)])
def test_workload_runs_and_passes_checks(name, n_ops, tmp_path):
    r = run.measure(name, SEED, 600.0, True, str(tmp_path), max_ops=n_ops)
    assert r.failures == []
    assert len(r.ops) == n_ops and r.attempted == n_ops + run.WARMUP_OPS
    e2e = run.end_to_end(r)
    assert list(e2e) == list(run.END_TO_END) and all(v > 0 for v in e2e.values())
    layer = run.per_layer(r)
    assert list(layer) == list(run.per_layer_units())
    assert layer["failed_frac"] == 0.0
    if name == "files":
        assert layer["cli.cli_main.calls_per_op"] == 1.0
        return
    self_ns = defaultdict(int)
    for op, *_, self_dur, _cells, _bytes in r.tracer.spans:
        self_ns[op] += self_dur
    traced = [(i, dt) for i, is_traced, dt in r.ops if is_traced]
    assert traced and all(self_ns[i] / 1e9 <= dt for i, dt in traced)
    assert layer["trace.uncovered_frac"] < 0.1


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "screen", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tier1_command_does_not_collect_bench():
    path = os.pathsep.join(filter(None, [run.SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "--continue-on-collection-errors"],
                          cwd=run.ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert "tests/test_metrics.py" in proc.stdout
    assert "bench/" not in proc.stdout
