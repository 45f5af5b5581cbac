"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/test_benchmark.py -q

The smoke runs use ``--smoke`` (tiny op sizes) and take a few seconds per
workload; they check that every metric of BENCHMARK.json is emitted with its
unit.  The other tests feed the output checks known-good and deliberately
wrong outputs.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS, pass_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(argv: list[str]) -> tuple[int, str]:
    from nonlocality_lab.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _verdict(op: dict) -> tuple[dict, str | None]:
    rc, out = _cli(op["argv"])
    return op, checks.check_op(op, rc, None, out)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "fail_frac" in proc.stdout


def test_wrong_output_is_counted_in_fail_frac():
    prbox = {"kind": "prbox", "argv": ["prbox", "--json"], "tag": None}
    singlet = pass_ops("singlet-mc", 1, 0, "unused", smoke=True)[0]
    good = [_verdict(prbox), _verdict(singlet)]
    assert [reason for _, reason in good] == [None, None]

    rc, out = _cli(prbox["argv"])
    wrong_f = out.replace('"f": 4.0', '"f": 3.9')
    rc, out = _cli(singlet["argv"])
    payload = json.loads(out)
    payload["pairs"][0]["e_hat"] += 0.5
    wrong = [
        (prbox, checks.check_op(prbox, rc, None, wrong_f)),
        (singlet, checks.check_op(singlet, 0, None, json.dumps(payload))),
        (prbox, checks.check_op(prbox, 1, None, "")),
        (prbox, checks.check_op(prbox, None, "ValueError: boom", "")),
    ]
    assert all(reason for _, reason in wrong)
    summary = run.evaluate(good + wrong)
    assert (summary["attempted"], summary["failed"]) == (6, 4)
    assert summary["fail_frac"] == pytest.approx(4 / 6)
    assert summary["correct"] is False


def test_scan_check_catches_one_bad_cell(tmp_path):
    op = pass_ops("crypto-scan", 1, 0, str(tmp_path / "scan"), smoke=True)[0]
    rc, out = _cli(op["argv"])
    assert checks.check_op(op, rc, None, out) is None
    path = Path(op["out"])
    lines = path.read_text().splitlines()
    alpha, tau, f, cls = lines[5].split(",")
    lines[5] = ",".join([alpha, tau, repr(float(f) + 1e-6), cls])
    path.write_text("\n".join(lines) + "\n")
    assert "closed form" in checks.check_op(op, rc, None, out)


def test_known_tau_average_defect_fails_and_is_probed_not_drawn():
    alpha = 0.5248988421709102
    op = {"kind": "tau_average", "argv": ["crypto", "tau-average", "--alpha", repr(alpha)],
          "tag": None, "alpha": alpha}
    verdict = _verdict(op)
    assert verdict[1] == "exit code 1"
    summary = run.evaluate([verdict])
    assert (summary["failed"], summary["correct"]) == (1, False)
    # Workload ops draw from the grid, which keeps out of the defect window;
    # the probe covers the window and the spikes.
    lo, hi = workloads.KNOWN_DEFECT_ALPHA
    assert lo <= alpha <= hi
    grid = workloads.tau_average_grid()
    assert not any(lo <= a <= hi for a in grid)
    assert grid[0] < 0.001 and grid[-1] > math.pi / 4.0 - 0.001
    alphas = {
        o["alpha"] for seed in range(20)
        for o in pass_ops("point-queries", seed, 0, "unused") if o["kind"] == "tau_average"
    }
    assert alphas <= set(grid) and len(alphas) > 600
    probe = [o["alpha"] for o in workloads.defect_probe_ops()]
    window = probe[len(workloads.DEFECT_SPIKES):]
    assert lo < min(window) < 0.5222 and 0.5250 < max(window) < hi


def test_every_tau_average_grid_alpha_passes():
    # Workload ops must not fail; this is what makes point-queries clean.
    failing = [
        alpha for alpha in workloads.tau_average_grid()
        if _verdict(workloads._tau_average_op(alpha))[1] is not None
    ]
    assert failing == []


def test_eval_output_with_nan_is_parsed():
    alpha = 3.141592653589793 / 6.0
    op = {"kind": "eval", "argv": ["crypto", "eval", "--alpha", repr(alpha),
                                   "--tau", repr(3.141592653589793 / 2.0), "--json"],
          "tag": None, "alpha": alpha, "tau": 3.141592653589793 / 2.0}
    rc, out = _cli(op["argv"])
    assert "NaN" in out
    assert checks.check_op(op, rc, None, out) is None


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    import nonlocality_lab.cli as cli
    import nonlocality_lab.crypto_bell as crypto_bell

    original = crypto_bell.region_scan
    tracer = Tracer(layers.PACKAGE)
    tracer.install({layers.REGION_SCAN: Probe(), "crypto_bell.no_such_function": Probe()},
                   (layers.ARC_AVERAGE, "singlet_sim._no_such_kernel"))
    try:
        assert cli.region_scan is crypto_bell.region_scan is not original
        argv = ["crypto", "scan", "--grid", "4x4", "--out", str(tmp_path / "scan.csv")]
        tracer.call(0, layers.OP_SPAN, cli.main, argv)
    finally:
        tracer.uninstall()
    assert cli.region_scan is crypto_bell.region_scan is original
    assert tracer.missing == ["crypto_bell.no_such_function", "singlet_sim._no_such_kernel"]
    assert tracer.counts[layers.ARC_AVERAGE] == 4 * 16
    op_span, scan_span = tracer.spans
    assert (op_span.name, scan_span.name) == (layers.OP_SPAN, layers.REGION_SCAN)
    assert scan_span.parent == op_span.sid and op_span.parent is None


def test_metric_of_a_removed_function_is_absent():
    trace = layers.PassTrace([], {}, {}, 0)
    values, absent = layers.pass_metrics(trace, [layers.ARC_AVERAGE, layers.SIGN_PRODUCTS])
    assert absent == ["singlet_sim.sign_products.busy_s", "crypto_bell.arc_average.calls"]
    assert not set(absent) & set(values)
