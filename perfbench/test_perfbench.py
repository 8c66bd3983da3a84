"""Self-test: every workload at tiny scale, untraced and traced.

Run with ``python3 -m pytest perfbench``.  Each case runs the command
that ``BENCHMARK.json`` names, then checks that every metric it lists is
printed with its unit and that the traced pass reproduced the untraced
digests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, seed: int = 3) -> dict:
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    result = run_benchmark(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == wanted
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_and_reproduces_outputs(workload):
    seed = 5
    result = run_benchmark(workload, trace=1, seed=seed)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == wanted
    written = json.loads(
        (ROOT / ".perfbench-out" / f"{workload}-seed{seed}-tiny.json")
        .read_text()
    )
    digests = written["digests"]
    assert digests["traced"] == digests["untraced"]
    assert digests["traced"]
    assert not written["count_mismatches"]
    names = {span["name"] for span in written["spans"]}
    assert workload in names and set(digests["traced"]) <= names


def test_missing_simulator_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
