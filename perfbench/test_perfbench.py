"""Checks on the benchmark itself; run with `python3 -m pytest perfbench`.

Wall times are noisy, but the traced operation counts are deterministic in
the seed, so two runs must report them identically.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = (
    "core.reach_mask.calls",
    "core.graph_builds",
    "dynamics.activations",
    "dynamics.moves",
    "optimum.connectivity_tests",
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["dynamics-large", "spanner-exact", "scenario-suite"])
def test_traced_counts_repeat_across_runs(workload):
    counts = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: result["metrics"][k]["value"] for k in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["core.reach_mask.calls"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "spanner-exact", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
