"""Smoke test of the benchmark: every workload, both modes, tiny inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "error_rate"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    names = set(result["metrics"])
    if trace == "0":
        assert names == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert names == set(tracing.metric_names())
        info = json.loads(proc.stdout.strip().splitlines()[-2][len("info "):])
        assert info["counts_drift"] == {}


def test_generator_probe_counts_in_error_rate():
    proc = _run(ROOT, "--workload", "certify-grid", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2][len("info "):])
    assert info["generator_probe"] == "failed"  # ROADMAP item 4's known defect
    # one failed probe and four passing operations: (1 + 1) / (1 + 4 + 2)
    assert json.loads(lines[-1])["metrics"]["error_rate"]["value"] == pytest.approx(2 / 7)


def test_fails_without_program_source():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, "--workload", "ratio-sweep", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
