"""Tests for the command-line front end."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonlocality_lab import cli, entangled_ops
from nonlocality_lab.cli import main
from nonlocality_lab.crypto_bell import _SCAN_BLOCK_CELLS, RegionScan, region_scan, scan_to_csv
from nonlocality_lab.entangled_ops import MAX_DIM
from nonlocality_lab.singlet_sim import SingletEstimate

SRC = Path(__file__).resolve().parents[1] / "src"
GRID = re.compile(r"([0-9]+)x([0-9]+)")
# near misses of GRID: separators int() accepts, signs, non-ASCII digits
NEAR_GRID = "0123456789xX _+-.\n\u0663\uff13"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def dispatch_targets():
    """numpy's dispatch targets on this host above its baseline, read from
    ``numpy.lib.introspect.opt_func_info``."""
    introspect = pytest.importorskip("numpy.lib.introspect")
    targets = {
        target
        for signatures in introspect.opt_func_info().values()
        for info in signatures.values()
        for target in info["available"].split()
    }
    return sorted(target for target in targets if not target.startswith("baseline("))


#: Runs the CLI after checking that no numpy kernel in use belongs to a
#: target that NPY_DISABLE_CPU_FEATURES turned off.
DISPATCH_CHILD = (
    "import os, sys\n"
    "from numpy.lib.introspect import opt_func_info\n"
    "off = set(os.environ.get('NPY_DISABLE_CPU_FEATURES', '').split())\n"
    "used = {i['current'] for s in opt_func_info().values() for i in s.values()}\n"
    "assert not off & used, off & used\n"
    "from nonlocality_lab.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_per_dispatch_level(argv, written=None):
    """(exit code, stdout, bytes of the file ``written``) of the CLI in child
    processes, keyed by the dispatch target turned off in that child; key
    None is a child with every target the host has.  The file is removed
    before each child runs; without ``written`` the bytes are None."""
    results = {}
    for target in (None, *dispatch_targets()):
        env = child_env()
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if target is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = target
        if written is not None:
            Path(written).unlink(missing_ok=True)
        result = subprocess.run(
            [sys.executable, "-c", DISPATCH_CHILD, *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert result.returncode in (0, 1), result.stderr
        file_bytes = None if written is None else Path(written).read_bytes()
        results[target] = (result.returncode, result.stdout, file_bytes)
    return results


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestPrbox:
    def test_text_report(self, capsys):
        code, out = run_cli(capsys, "prbox")
        assert code == 0
        assert "F = 4.000000, class = superquantum" in out
        assert "no-signaling: PASS (max deviation 0)" in out
        assert "parameter independence: PASS" in out
        assert "outcome independence: FAIL (expected)" in out

    def test_json_report(self, capsys):
        code, out = run_cli(capsys, "prbox", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["f"] == 4.0
        assert payload["class"] == "superquantum"
        assert payload["ok"] is True
        assert payload["table"]["1,1"] == [0.0, 0.5, 0.5, 0.0]


class TestSinglet:
    def test_small_run_passes(self, capsys):
        code, out = run_cli(
            capsys, "singlet", "--n", "200000", "--seed", "7", "--pairs", "3"
        )
        assert code == 0
        assert "all pairs PASS" in out

    def test_zero_rounds_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["singlet", "--n", "0"])
        assert excinfo.value.code == 2

    def test_deterministic_bytes(self, capsys):
        _, first = run_cli(capsys, "singlet", "--n", "50000", "--seed", "3", "--pairs", "2")
        _, second = run_cli(capsys, "singlet", "--n", "50000", "--seed", "3", "--pairs", "2")
        assert first == second

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--n", "300000", "--pairs", "3", "--json", "--seed", "1"], "99b6e3b82c5ede9d"),
            (["--n", "300000", "--pairs", "3", "--json", "--seed", "7"], "29b2ea182568da86"),
            (["--n", "300000", "--pairs", "3", "--json", "--seed", "12345"], "46ffa1b785037cd6"),
            (["--seed", "7"], "a7f7aba8a400a819"),
        ],
        ids=["json-1", "json-7", "json-12345", "text-7"],
    )
    def test_stdout_bytes_pinned(self, capsys, argv, digest):
        # SHA-256 prefixes of stdout; test_bytes_are_the_same_at_every_
        # dispatch_level checks the singlet output at every SIMD level the
        # host has, so these hold across CPUs
        code, out = run_cli(capsys, "singlet", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_bytes_are_the_same_at_every_dispatch_level(self):
        # numpy picks its ufunc kernels by CPU feature at run time; turning
        # one target off in a child makes it run the next one down
        if not dispatch_targets():
            pytest.skip("numpy dispatches to no target above its baseline on this host")
        results = run_per_dispatch_level(["singlet", "--n", "20000", "--pairs", "5", "--seed", "7"])
        assert results[None][0] == 0
        for target, result in results.items():
            assert result == results[None], f"NPY_DISABLE_CPU_FEATURES={target}"

    def test_json_schema(self, capsys):
        code, out = run_cli(
            capsys, "singlet", "--n", "50000", "--seed", "5", "--pairs", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["pairs"]) == 2
        record = payload["pairs"][0]
        assert set(record) == {
            "a", "b", "n", "seed", "e_hat", "stderr", "quantum_reference", "pass",
        }

    def test_failing_pair_is_named_on_stderr(self, capsys, monkeypatch):
        # pair 1 misses -a.b by 0.05 at a 0.004 threshold; stdout and the
        # exit code are those of the report before it named the pair
        calls = []

        def estimate(a, b, n, seed):
            calls.append(seed)
            return SingletEstimate(-float(a @ b) + (0.05 if len(calls) == 2 else 0.0), 0.001)

        monkeypatch.setattr(cli, "estimate_singlet_correlation", estimate)
        code = main(["singlet", "--n", "1000", "--pairs", "3", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            "       a.b      e_hat       -a.b     stderr  verdict (4 sigma, 0.01 floor)\n"
            "  +0.66783   -0.66783   -0.66783    0.00100  PASS\n"
            "  +0.40996   -0.35996   -0.40996    0.00100  FAIL\n"
            "  -0.37539   +0.37539   +0.37539    0.00100  PASS\n"
            "all pairs FAIL\n"
        )
        assert captured.err == (
            "nonlocality-lab: singlet: pair 1: gap 5.000e-02 is not below threshold 1.000e-02\n"
        )

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and two usable CPUs",
    )
    def test_core_count_never_shows(self):
        # pinned to one CPU the estimate runs serially; unpinned it splits
        # 20 000 rounds (three chunks) across the usable CPUs
        cpu = min(os.sched_getaffinity(0))
        argv = ["singlet", "--n", "20000", "--pairs", "2", "--json"]
        code = (
            "import os, sys\n"
            "from nonlocality_lab.cli import main\n"
            "if sys.argv[1] != 'all':\n"
            "    os.sched_setaffinity(0, {int(sys.argv[1])})\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        outputs = []
        for pin in (str(cpu), "all"):
            result = subprocess.run(
                [sys.executable, "-c", code, pin, *argv],
                env=child_env(), capture_output=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["ok"] is True


class TestCrypto:
    def test_eval_near_singularity(self, capsys):
        code, out = run_cli(
            capsys, "crypto", "eval", "--alpha", "0.5235987756", "--tau", "1.5607963268"
        )
        assert code == 0
        assert "class = superquantum" in out
        assert "matching variant: normalized" in out
        f_line = next(line for line in out.splitlines() if line.startswith("F = "))
        assert abs(float(f_line.split()[2].rstrip(","))) > 3.8

    def test_eval_json(self, capsys):
        code, out = run_cli(
            capsys, "crypto", "eval", "--alpha", "0.5", "--tau", "0.7", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "alpha", "tau", "correlations", "f", "class", "closed_form", "discrepancy",
        }
        assert payload["discrepancy"]["matching_variant"] == "normalized"

    def test_eval_domain_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["crypto", "eval", "--alpha", "2.0", "--tau", "0.5"])
        assert excinfo.value.code == 2

    def test_scan_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, out = run_cli(capsys, "crypto", "scan", "--grid", "30x30", "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["alpha", "tau", "f", "class"]
        classes = {row[3] for row in rows[1:]}
        assert classes == {"local", "quantum_nonlocal", "superquantum"}

    @pytest.mark.parametrize(
        "grid, digest",
        [("200x200", "fab93f0f11974075"), ("40x1000", "ee2fa0ee352bec30"),
         ("1000x40", "6cf10ef44f175d65")],
    )
    def test_scan_csv_bytes_pinned(self, capsys, tmp_path, grid, digest):
        # SHA-256 prefixes of the benchmark grids' CSV files;
        # test_scan_and_eval_bytes_are_the_same_at_every_dispatch_level
        # checks the 200x200 one at every SIMD level the host has
        out_path = tmp_path / "scan.csv"
        assert run_cli(capsys, "crypto", "scan", "--grid", grid, "--out", str(out_path))[0] == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest()[:16] == digest

    def test_scan_and_eval_bytes_are_the_same_at_every_dispatch_level(self, tmp_path):
        # the eval point is a sensitive one: an arctan2 in the rotation
        # makes its output move with the dispatch level
        if not dispatch_targets():
            pytest.skip("numpy dispatches to no target above its baseline on this host")
        out_path = tmp_path / "scan.csv"
        scans = run_per_dispatch_level(
            ["crypto", "scan", "--grid", "200x200", "--out", str(out_path)], out_path
        )
        evals = run_per_dispatch_level(
            ["crypto", "eval", "--alpha", "0.6585008175680938", "--tau", "0.41020349295003805",
             "--json"]
        )
        assert scans[None][0] == evals[None][0] == 0
        assert hashlib.sha256(scans[None][2]).hexdigest()[:16] == "fab93f0f11974075"
        for target in scans:
            assert scans[target] == scans[None], f"NPY_DISABLE_CPU_FEATURES={target}"
            assert evals[target] == evals[None], f"NPY_DISABLE_CPU_FEATURES={target}"

    def test_scan_ignores_thread_variable(self, capsys, tmp_path, monkeypatch):
        unset_path = tmp_path / "unset.csv"
        monkeypatch.delenv("NONLOCALITY_LAB_THREADS", raising=False)
        assert main(["crypto", "scan", "--grid", "4x4", "--out", str(unset_path)]) == 0
        set_path = tmp_path / "set.csv"
        monkeypatch.setenv("NONLOCALITY_LAB_THREADS", "abc")
        assert main(["crypto", "scan", "--grid", "4x4", "--out", str(set_path)]) == 0
        assert set_path.read_bytes() == unset_path.read_bytes()

    def test_scan_names_empty_classes(self, capsys, tmp_path):
        code = main(["crypto", "scan", "--grid", "2x2", "--out", str(tmp_path / "s.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines()[1:4] == [
            "  local: 0",
            "  quantum_nonlocal: 4",
            "  superquantum: 0",
        ]
        assert captured.err == "nonlocality-lab: scan has no local or superquantum cells\n"

    def test_scan_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.csv"
        code = main(["crypto", "scan", "--grid", "4x4", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"nonlocality-lab: error: cannot write {out_path}: ")

    def test_scan_grid_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["crypto", "scan", "--grid", "banana"])
        assert excinfo.value.code == 2

    @settings(max_examples=200)
    @given(
        st.one_of(st.text(), st.text(alphabet=NEAR_GRID, max_size=8)).filter(
            lambda grid: GRID.fullmatch(grid.lower()) is None
        )
    )
    def test_scan_grid_outside_pattern_is_usage_error(self, grid):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as excinfo:
            main(["crypto", "scan", f"--grid={grid}"])
        assert excinfo.value.code == 2
        if grid != "--":  # argparse itself rejects "--" before Python 3.12
            assert stderr.getvalue().endswith("error: --grid must look like 200x200\n")

    @pytest.mark.parametrize("grid", ["2_0x3", " 3x 3", "+3x3", "3x3 ", "\u0663x3", "\uff13x3"])
    def test_scan_grid_int_literals_are_usage_errors(self, capsys, grid):
        with pytest.raises(SystemExit) as excinfo:
            main(["crypto", "scan", f"--grid={grid}"])
        assert excinfo.value.code == 2
        assert "--grid must look like 200x200" in capsys.readouterr().err

    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2), st.sampled_from("xX"))
    def test_scan_grid_in_pattern_runs(self, capsys, tmp_path, n_alpha, n_tau, zeros, sep):
        grid = f"{'0' * zeros}{n_alpha}{sep}{n_tau}"
        out_path = tmp_path / "grid.csv"
        main(["crypto", "scan", "--grid", grid, "--out", str(out_path)])
        assert capsys.readouterr().out.startswith(f"wrote {n_alpha * n_tau} cells to ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["crypto", "scan", "--grid=--"],
            ["crypto", "eval", "--alpha=--", "--tau", "0.5"],
            ["singlet", "--n=--"],
        ],
    )
    def test_double_dash_value_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["crypto", "eval", "--alpha={}", "--tau", "0.5"], "alpha"),
            (["crypto", "eval", "--alpha", "0.5", "--tau={}"], "tau"),
            (["crypto", "tau-average", "--alpha={}"], "alpha"),
        ],
    )
    def test_non_finite_angle_is_usage_error(self, capsys, argv, name, value):
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(value) for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: --{name} must be finite\n")
        assert "must lie in" not in err

    def test_tau_average_in_old_defect_window(self, capsys):
        argv = ("crypto", "tau-average", "--alpha", "0.5248988421709102")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert float(out.splitlines()[2].split("=")[1]) <= 1e-9
        assert run_cli(capsys, *argv) == (code, out)

    def test_eval_json_singular_point_is_strict(self, capsys):
        code, out = run_cli(
            capsys, "crypto", "eval", "--alpha", repr(math.pi / 6), "--tau", repr(math.pi / 2),
            "--json",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["discrepancy"]["singular"] is True
        assert payload["closed_form"] == {"printed": None, "normalized": None}
        assert payload["discrepancy"]["printed"] is None
        assert payload["discrepancy"]["normalized"] is None

    def test_tau_average_failure_is_named_on_stderr(self, capsys, monkeypatch):
        # a gap of 2e-6 against the 1e-6 tolerance; stdout and the exit code
        # are those of the report before it named the failure
        alpha = 0.3926990817
        reference = cli.quantum_chsh_reference(alpha)
        monkeypatch.setattr(cli, "tau_average_chsh", lambda alpha: reference + 2e-6)
        code = main(["crypto", "tau-average", "--alpha", repr(alpha)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            "tau-averaged F = -2.828425\n"
            "quantum oracle = -2.828427\n"
            f"|difference| = {abs(reference + 2e-6 - reference):.3e}\n"
        )
        assert captured.err == (
            f"nonlocality-lab: tau-average: alpha = {alpha!r}: gap"
            f" {abs(reference + 2e-6 - reference):.3e} exceeds tolerance 1e-06\n"
        )

    def test_tau_average(self, capsys):
        code, out = run_cli(capsys, "crypto", "tau-average", "--alpha", "0.3926990817")
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert value == pytest.approx(-2.828427, abs=1e-5)


class TestTheorem:
    def test_small_run(self, capsys):
        code, out = run_cli(
            capsys, "theorem", "--nmin", "2", "--nmax", "3", "--trials", "5", "--seed", "1"
        )
        assert code == 0
        assert "overall: PASS" in out
        assert "N = 2" in out and "N = 3" in out
        bound_line = next(line for line in out.splitlines() if "n = 1000000" in line)
        assert float(bound_line.split("=")[-1]) < 3e-6

    def test_json_report(self, capsys):
        code, out = run_cli(
            capsys, "theorem", "--nmin", "2", "--nmax", "2", "--trials", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert "2" in payload["dimensions"]

    def test_bad_range(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["theorem", "--nmin", "7", "--nmax", "3"])
        assert excinfo.value.code == 2

    def test_range_limit_is_max_dim(self, capsys):
        top = str(MAX_DIM)
        code, _ = run_cli(capsys, "theorem", "--nmin", top, "--nmax", top, "--trials", "1")
        assert code == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["theorem", "--nmin", "2", "--nmax", str(MAX_DIM + 1)])
        assert excinfo.value.code == 2
        assert f"nmax <= {MAX_DIM}" in capsys.readouterr().err

    def test_json_spanning_several_trial_blocks_repeats(self, capsys):
        argv = ("theorem", "--nmin", "2", "--nmax", "4", "--trials", "130", "--json")
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first[0] == 0
        assert first == second

    @pytest.mark.parametrize("json_flag", ([], ["--json"]), ids=("text", "json"))
    def test_nan_residual_fails_and_is_named(self, capsys, monkeypatch, json_flag):
        monkeypatch.setattr(entangled_ops, "joint_expectation", lambda a, b: a[:, 0] * math.nan)
        code = main(["theorem", "--nmin", "2", "--nmax", "3", "--trials", "3", *json_flag])
        captured = capsys.readouterr()
        assert code == 1
        assert "N = 2: joint_vs_dot residual nan" in captured.err
        assert "N = 3: joint_vs_dot residual nan" in captured.err
        if json_flag:
            payload = strict_json(captured.out)
            assert payload["passed"] is False
            assert payload["dimensions"]["2"]["joint_vs_dot"] is None
        else:
            assert "overall: FAIL" in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["prbox", "--json"],
        ["singlet", "--n", "100", "--pairs", "2", "--json"],
        ["crypto", "eval", "--alpha", "0.5", "--tau", "0.7", "--json"],
        ["theorem", "--nmin", "2", "--nmax", "2", "--trials", "1", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_output_is_strict(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert isinstance(strict_json(out), dict)


SINGULAR = ["--alpha", repr(math.pi / 6), "--tau", repr(math.pi / 2)]



def materialized_scan(n_alpha, n_tau, out):
    """Exit code, stdout and stderr of ``crypto scan`` rebuilt from the full
    ``region_scan``, whose CSV it writes to ``out``."""
    scan = region_scan(n_alpha, n_tau)
    scan_to_csv(scan, str(out))
    counts = scan.class_counts().tolist()
    peak = scan.peak()
    lines = [f"wrote {len(scan)} cells to {out}"]
    lines += [f"  {cls.value}: {count}" for cls, count in zip(RegionScan.CLASSES, counts)]
    lines.append(f"max |f| = {abs(peak.f):.6f} at alpha = {peak.alpha:.6f}, tau = {peak.tau:.6f}")
    empty = " or ".join(cls.value for cls, count in zip(RegionScan.CLASSES, counts) if not count)
    err = f"nonlocality-lab: scan has no {empty} cells\n" if empty else ""
    return 1 if empty else 0, "\n".join(lines) + "\n", err


class TestStreamedScan:
    """``crypto scan`` streams blocks of alpha rows; it must print and write
    what the full ``region_scan`` gives, and hold one block at a time."""

    @pytest.mark.parametrize(
        "n_alpha, n_tau",
        [
            (200, 200),
            (40, 1000),
            (1000, 40),
            (20, 30),
            (2, 2),  # empty classes, exit 1
            (3, _SCAN_BLOCK_CELLS + 164),  # a row longer than one block
            (2 * (_SCAN_BLOCK_CELLS // 7) + 1, 7),  # n_tau not dividing the block
        ],
    )
    def test_streamed_equals_materialized(self, capsys, tmp_path, n_alpha, n_tau):
        want_code, want_out, want_err = materialized_scan(n_alpha, n_tau, tmp_path / "whole.csv")
        out_path = tmp_path / "stream.csv"
        code = main(["crypto", "scan", "--grid", f"{n_alpha}x{n_tau}", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == want_code
        assert captured.out == want_out.replace("whole.csv", "stream.csv")
        assert captured.err == want_err
        assert out_path.read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("grid", ["200x200", "1000x1000"])
    def test_memory_bounded_in_grid(self, capsys, tmp_path, grid):
        # the whole 1000x1000 grid held at once took about 85 MiB; the scan
        # holds one block of alpha rows and O(n_alpha + n_tau) besides
        tracemalloc.start()
        try:
            code = main(["crypto", "scan", "--grid", grid, "--out", str(tmp_path / "s.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["prbox"], "67336afde3980688"),
        (["prbox", "--json"], "af69231222bb6c36"),
        (["crypto", "eval", "--alpha", "0.5", "--tau", "0.7"], "3121a28bf94d9400"),
        (["crypto", "eval", "--alpha", "0.5", "--tau", "0.7", "--json"], "886f479b8f53f6d9"),
        (["crypto", "eval", *SINGULAR], "167eccc68594d39c"),
        (["crypto", "eval", *SINGULAR, "--json"], "c4b7849a52ae0f38"),
        (["crypto", "tau-average", "--alpha", "0.3"], "9002da8a2c207c4a"),
        (["crypto", "scan", "--grid", "20x30", "--out", "scan.csv"], "cdd8a93cdcaaed5f"),
    ],
    ids=[
        "prbox", "prbox-json", "eval", "eval-json", "eval-singular", "eval-singular-json",
        "tau-average", "scan",
    ],
)
def test_stdout_bytes_pinned(capsys, tmp_path, monkeypatch, argv, digest):
    # SHA-256 prefixes of stdout, found the same with numpy's AVX512 and
    # AVX2 dispatch turned off.  What still moves with that dispatch is the
    # |difference| line of a tau average at some alpha (not at 0.3) and
    # the last digits of the theorem residuals, which are not pinned
    monkeypatch.chdir(tmp_path)  # the scan line names its relative --out path
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv", [["theorem"], ["singlet", "--n", "20000", "--pairs", "2"]], ids=lambda argv: argv[0]
)
def test_negative_seed_runs_and_repeats(capsys, argv):
    # a seed reaches numpy only through a hashed substream, so any int works
    first = run_cli(capsys, *argv, "--seed", "-5")
    second = run_cli(capsys, *argv, "--seed", "-5")
    assert first[0] == 0
    assert first == second


def loaded_by_import(module: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` of a fresh interpreter after
    ``import nonlocality_lab.cli``."""
    code = f"import sys, nonlocality_lab.cli; print({module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip() == "True"


def test_import_does_not_load_scipy():
    assert not loaded_by_import("scipy")


def test_import_does_not_load_concurrent_futures():
    # it imports logging; the Monte Carlo segment runner imports it on first
    # use, so every command's start-up is spared the cost
    assert not loaded_by_import("concurrent.futures")


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see another's state."""

    def test_defaults_come_back_after_explicit_values(self, capsys):
        code, out = run_cli(capsys, "theorem", "--nmin", "3", "--nmax", "3", "--trials", "2", "--json")
        assert code == 0
        assert list(json.loads(out)["dimensions"]) == ["3"]
        code, out = run_cli(capsys, "theorem", "--trials", "2", "--json")
        assert code == 0
        assert list(json.loads(out)["dimensions"]) == ["2", "3", "4", "5", "6"]

    def test_scan_after_a_usage_error_matches_a_first_call(self, capsys, tmp_path):
        cli._build_parser.cache_clear()
        first = tmp_path / "first.csv"
        assert main(["crypto", "scan", "--grid", "3x5", "--out", str(first)]) == 0
        assert main(["crypto", "scan", "--grid", "4x4", "--out", str(tmp_path / "a.csv")]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["crypto", "scan", "--grid", "bad"])
        assert excinfo.value.code == 2
        again = tmp_path / "b.csv"
        assert main(["crypto", "scan", "--grid", "3x5", "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"wrote 15 cells to {first}"
        assert out[-5:] == [f"wrote 15 cells to {again}", *out[1:5]]

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["crypto", "scan", "--grid", "bad"], 2),
            (["theorem", "--nmin", "7", "--nmax", "3"], 2),
            (["frobnicate"], 2),
            (["--help"], 0),
            (["crypto", "eval", "--help"], 0),
        ],
        ids=["grid", "range", "command", "help", "eval-help"],
    )
    def test_exit_output_is_the_same_on_a_later_call(self, capsys, argv, exit_code):
        cli._build_parser.cache_clear()
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == exit_code
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err))
            assert run_cli(capsys, "prbox", "--json")[0] == 0
        assert outputs[0] == outputs[1]
        out, err = outputs[0]
        # help goes to stdout only, a usage error to stderr only
        assert (bool(out), bool(err)) == ((True, False) if exit_code == 0 else (False, True))

    def test_in_process_bytes_equal_a_fresh_process(self, capsys, tmp_path, monkeypatch):
        argvs = [
            ["prbox", "--json"],
            ["singlet", "--n", "20000", "--pairs", "2", "--json"],
            ["crypto", "eval", "--alpha", "0.5", "--tau", "0.7", "--json"],
            ["crypto", "tau-average", "--alpha", "0.3926990817"],
            ["crypto", "scan", "--grid", "4x4", "--out", "scan.csv"],
            ["theorem", "--nmax", "3", "--trials", "3", "--json"],
        ]
        csv_path = tmp_path / "scan.csv"
        fresh = []
        for argv in argvs:
            result = subprocess.run(
                [sys.executable, "-m", "nonlocality_lab.cli", *argv],
                env=child_env(), cwd=tmp_path, capture_output=True, timeout=120,
            )
            fresh.append((result.returncode, result.stdout, result.stderr))
        fresh_csv = csv_path.read_bytes()
        csv_path.unlink()
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            for argv, expected in zip(argvs, fresh):
                code = main(argv)
                captured = capsys.readouterr()
                assert (code, captured.out.encode(), captured.err.encode()) == expected, argv
            assert csv_path.read_bytes() == fresh_csv

    def test_later_calls_construct_no_parser(self, capsys, tmp_path, monkeypatch):
        constructed = []
        original = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        assert main(["prbox"]) == 0
        assert constructed  # the warm-up built the parser tree
        constructed.clear()
        assert main(["prbox", "--json"]) == 0
        assert main(["crypto", "eval", "--alpha", "0.5", "--tau", "0.7"]) == 0
        assert main(["crypto", "tau-average", "--alpha", "0.3"]) == 0
        assert main(["crypto", "scan", "--grid", "4x4", "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["theorem", "--nmax", "2", "--trials", "1"]) == 0
        assert constructed == []
