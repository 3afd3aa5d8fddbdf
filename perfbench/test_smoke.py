"""Smoke test of the benchmark harness; not part of the tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once at tiny sizes, untraced and traced, and checks that
the result line names every metric of BENCHMARK.json with its unit.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

from layer_trace import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *human, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for name, m in result["metrics"].items():  # also printed for people, by name and unit
        assert any(line.split()[:1] == [name] and line.endswith(" " + m["unit"]) for line in human)


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, w["why"]) for name, w in WORKLOADS.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "small_instances", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
