"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import workload
import treemoves.cli  # importable once workload has put src/ on sys.path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {key: metric["unit"] for key, metric in result["metrics"].items()}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_match_spec(name):
    assert _run(name, 0) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_metrics_match_spec():
    assert _run("search", 1) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_inputs_depend_only_on_seed():
    a, b, c = (inputs.digest(workload.build_jobs("shallow", s, "tiny")) for s in (5, 5, 6))
    assert a == b != c


@pytest.mark.parametrize(
    "attr, corrupt, fails",
    [
        # a distance one too high fails exactly the dist linkcut jobs
        ("linkcut_distance", lambda real: lambda t1, t2: real(t1, t2) + 1,
         lambda job: job.kind == "linkcut"),
        # a verifier saying false fails every job except the guard rejects,
        # which print no witness
        ("verify_sequence", lambda real: lambda *args: False,
         lambda job: not job.argv[2].startswith("red")),
    ],
)
def test_corrupted_answer_counts_as_failure(monkeypatch, attr, corrupt, fails):
    monkeypatch.setattr(treemoves.cli, attr, corrupt(getattr(treemoves.cli, attr)))
    result = workload.run("search", 1, 0.0, scale="tiny")
    expected = sum(map(fails, workload.build_jobs("search", 1, "tiny")))
    assert result["rounds"] == 1
    assert result["failed"] == expected > 0
    assert result["failed"] / result["attempted"] > 0


def test_missing_layer_name_drops_its_metric(monkeypatch):
    monkeypatch.delattr(treemoves.cli, "brute_force_distance")
    result = workload.run("shallow", 1, 0.0, trace=True, scale="tiny")
    assert result["failed"] == 0
    assert "rearrangement.oracle" in result["missing"]
    assert "rearrangement.oracle_s" not in result["layers"]
    assert "permutation.table_s" in result["layers"]
