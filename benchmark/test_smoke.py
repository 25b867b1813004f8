"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest benchmark/test_smoke.py -q

Runs every workload with its correctness checks, untraced and traced,
and checks the result line against BENCHMARK.json.  It also checks that
the harness refuses to run where the package sources are missing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers each workload must reach (a traced time or count above zero)
EXERCISED = {
    "committed_sim": ["env.loop_s", "env.accounting_s", "dp.dp_star_s",
                      "dp.action_table_s", "matching.doalg_calls", "lcb.lcb_star_s"],
    "planner_build": ["env.loop_s", "dp.mer_table_calls", "dp.table_cells",
                      "matching.doalg_calls", "lcb.greedy_subset_s", "lcb.oracle_calls",
                      "lmatch.doalg_calls", "lmatch.policy_build_s"],
    "learn_sweep": ["env.loop_s", "dp.dp_star_s", "learn.replan_s",
                    "learn.explore_rounds", "cli.experiment_s"],
}


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
        for m in wanted:
            if m["unit"] == "count":
                assert float(result["metrics"][m["name"]]["value"]).is_integer(), m["name"]


def test_refuses_to_run_without_the_package_sources():
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
