"""Tests of the benchmark itself: planted faults must be caught, exact counts
must repeat, and the trace must account for the whole timed region.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

PASSRUN = run.BENCH / "passrun.py"


def one_pass(tmp_path, workload, seed=0, trace=0, inject=()):
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(PASSRUN), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
           "--result", str(result)]
    for fault in inject:
        cmd += ["--inject", fault]
    subprocess.run(cmd, cwd=tmp_path, env=run.child_env(), check=True, timeout=170)
    with open(result) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload, faults, messages", [
    ("grid-scale", ["objective"], ["!= reference"]),
    ("small-corpus", ["objective"], ["!= oracle"]),
    ("continuum", ["csv", "mc-seed"], ["decreases in", "does not repeat"]),
])
def test_planted_faults_make_operations_fail(tmp_path, workload, faults, messages):
    out = one_pass(tmp_path, workload, inject=faults)
    assert out["failed"] == len(faults)
    assert out["failed"] / out["attempted"] > 0
    reported = " | ".join(out["failures"].values())
    for message in messages:
        assert message in reported


def test_counts_repeat_and_trace_accounts_for_run_time(tmp_path):
    reports = []
    for i in range(2):
        d = tmp_path / f"pass{i}"
        d.mkdir()
        out = one_pass(d, "grid-scale", seed=3, trace=1)
        assert out["failed"] == 0
        reports.append(out)
    assert reports[0]["trace"]["counts"] == reports[1]["trace"]["counts"]
    for out in reports:
        trace = out["trace"]
        accounted = sum(trace["layer_self_s"].values()) + trace["harness_s"]
        assert accounted == pytest.approx(out["run_s"], rel=1e-9)
        assert trace["counts"]["solver.witness_elements"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
