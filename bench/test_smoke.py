"""Smoke test of the benchmark harness at tiny sizes: one run per workload,
the fleet at N = 2.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("lifecycle", "fleet", "attack")
PRINTED = ("setup_s", "lifecycles_per_s", "step_ms.p50", "step_ms.p99", "peak_rss_mb", "fail_ratio")


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        os.path.join(cwd, "bench", "run.py"),
        f"--workload={workload}",
        "--seed=5",
        "--seconds=0",
        f"--trace={trace}",
        "--fleet-size=2",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> tuple[list[str], dict]:
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    return lines[:-1], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_passes_and_prints_every_metric(workload):
    text, result = _result(workload, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("end_to_end")
    printed = {line.split()[0]: line.split()[1:] for line in text if line.startswith("  ")}
    assert set(PRINTED) <= set(printed)
    assert float(printed["fail_ratio"][0]) == 0
    assert any(line.startswith("trace_sha256") and line.endswith("repeat=same") for line in text)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_accounts_for_host_time(workload):
    text, result = _result(workload, 1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_ms = sum(value for name, value in values.items() if name.endswith(".self_ms"))
    assert math.isclose(self_ms + values["trace.unattributed_ms"], values["trace.host_ms"], rel_tol=1e-9)
    assert any(line.startswith("trace_sha256") and line.endswith("traced=same") for line in text)


def test_traced_counts_and_digest_repeat_at_a_fixed_seed():
    runs = [_result("attack", 1) for _ in range(2)]
    digests = [next(line for line in text if line.startswith("trace_sha256")) for text, _ in runs]
    counts = [
        {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in ("count", "bytes", "ratio")}
        for _, result in runs
    ]
    assert digests[0] == digests[1]
    assert counts[0] == counts[1]
    assert counts[0]["messages.open_inner.failed"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _bench("lifecycle", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
