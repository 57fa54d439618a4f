"""Self-tests of the benchmark at smoke size: `python -m pytest perfbench`."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def tree_files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")
            if "__pycache__" not in p.parts and ".git" not in p.parts
            and ".pytest_cache" not in p.parts and ".hypothesis" not in p.parts}


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["series", "bounds", "sampling"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_leaves_no_files(workload):
    before = tree_files(ROOT)
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert tree_files(ROOT) == before


def test_traced_run_accounts_for_its_wall_time():
    proc = run_bench("sampling", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert list(values) == [name for name, _, _ in layers.PER_LAYER]
    parts = [values[name] for name in layers.SELF_METRIC.values()]
    parts.append(values["trace.unattributed_s"])
    assert math.isclose(math.fsum(parts), values["trace.wall_s"], rel_tol=1e-9)
    assert values["gibbsmc.mcmc.proposals"] > 0 and values["gibbsmc.rejection.draws"] > 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("series", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
