"""Guard on the benchmark's result line.

``benchmarks/run.py`` must end its stdout with one strict-JSON object that
reports a correct run with no failed op and a finite, positive value for
every end-to-end metric ``BENCHMARK.json`` declares.  Each workload runs in
smoke mode on a copy of ``src/`` and ``benchmarks/``, so the run's scratch
directory never lands in the checkout.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_run")
    for name in ("src", "benchmarks"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_ends_with_json_result(checkout, workload):
    argv = ["benchmarks/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, *argv, "--smoke", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = strict_json(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    for metric in BENCHMARK["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        assert math.isfinite(value) and value > 0.0, (metric["name"], value)
