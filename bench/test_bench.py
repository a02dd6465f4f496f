"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/test_bench.py

They start the benchmark from the command line, one workload at a time, with a
one-second measuring budget (each run still makes whole passes, two of them
when traced: about 20 s for a traced sweep run).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import percentile  # noqa: E402

SEED = 7


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_counts(workload: str) -> dict:
    result = last_json(run_bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1.json"
    layers = json.loads(path.read_text())["results"][0]["per_layer"]
    return {k: v for k, v in layers.items()
            if not k.endswith(".self_s") and k != "trace.overhead"}


@pytest.mark.parametrize("workload", ["sweep", "paper", "simulate"])
def test_traced_counts_repeat(workload):
    first = traced_counts(workload)
    assert first == traced_counts(workload)
    assert any(k.endswith(".calls") and v > 0 for k, v in first.items())
    if workload == "sweep":
        assert first["sweep.records.attempted"] == 8820 + 4950
        assert first["sweep.records.feasible"] == 8036 + 4585
        assert first["equilibrium.solve.iterations"] > 0
        assert first["mcsim.run_ttc_finite.calls"] == 0
    if workload == "simulate":
        assert first["mcsim.replication_stats.calls"] == 3
        assert first["sweep.kink_sweep.calls"] == 0


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = last_json(run_bench("paper", trace))["metrics"]
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in metrics.items()} == want
        if trace == 0:
            assert all(v["value"] > 0 for v in metrics.values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_missing_trace_target_fails(tmp_path):
    """A layer function the tracer cannot find fails the traced run instead of
    reading as an idle layer."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for sub in ("bench", "src"):
        shutil.copytree(ROOT / sub, tmp_path / sub, ignore=shutil.ignore_patterns("__pycache__"))
    for path in (tmp_path / "src" / "segsolve").glob("*.py"):
        text = path.read_text()
        path.write_text(text.replace("check_theorems", "check_all_theorems"))
    done = run_bench("paper", 1, cwd=tmp_path)
    assert done.returncode != 0
    assert "trace targets not found: segregation.check_theorems" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_percentile_counts_ops_beyond():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == (50.0, 50)
    assert percentile(values, 95.0) == (95.0, 5)
    assert percentile([3.0], 99.0) == (3.0, 0)
