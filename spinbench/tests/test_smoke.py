"""A short run of every workload, traced and untraced: every metric the
benchmark declares is printed with its unit, and the output check
passes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(cwd, workload, trace, seconds=2):
    return subprocess.run(
        [sys.executable, "spinbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        routes = {k: result["metrics"][k]["value"]
                  for k in ("cim.mvm.analog_per_call",
                            "cim.mvm.exact_per_call")}
        if workload == "cnn-nonideal":
            assert routes == {"cim.mvm.analog_per_call": 80.0,
                              "cim.mvm.exact_per_call": 0.0}
        if workload == "cnn-ideal-threads":
            assert routes["cim.mvm.analog_per_call"] == 0.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "spinbench"), tmp_path / "spinbench",
                    ignore=shutil.ignore_patterns("_work", "_traces",
                                                  "__pycache__"))
    proc = run(tmp_path, "cnn-nonideal", 0, seconds=1)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
