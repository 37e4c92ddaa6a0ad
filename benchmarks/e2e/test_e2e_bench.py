"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Every workload runs at ``--scale smoke`` twice — untraced and traced —
and must emit exactly the metrics BENCHMARK.json names, each with its
unit, fail nothing, and report the deterministic metrics identically
both times.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

pytestmark = pytest.mark.bench_smoke


def _run(workload: str, trace: int, tmp_path: Path) -> dict:
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke", "--json", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == doc["result"]
    return doc


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, tmp_path):
    plain = _run(workload, 0, tmp_path)
    traced = _run(workload, 1, tmp_path)
    for doc, section in ((plain, "end_to_end"), (traced, "per_layer")):
        result = doc["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, doc["errors"]
        assert result["attempted"] >= 1
        emitted = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCH[section]}
    metrics = plain["result"]["metrics"]
    assert metrics["ok_share"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())
    assert plain["deterministic"] == traced["deterministic"]


def test_fails_without_the_source_tree(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the
    benchmark exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fig10-cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
