"""Tests of the benchmark itself: the smoke mode and the tail rule."""

import importlib.util
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_mode_runs_every_workload_and_matches_benchmark_json():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    tail = _load("run").tail
    assert tail([1.0] * 19) is None
    assert tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def test_self_time_subtracts_the_union_of_parallel_children():
    union = _load("tracer")._union
    assert union([(2, 5), (3, 7), (9, 12)], 0, 10) == 6
    assert union([], 0, 10) == 0
