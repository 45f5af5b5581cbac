"""Benchmark of the nonlocality-lab CLI.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is imported from ``src/``.
Workloads: singlet-mc, crypto-scan, point-queries, theorem (see NOTES.md).

With ``--trace 0`` the run times set-up (several fresh interpreters that
import the CLI), then one fresh worker runs the workload's op list pass
after pass for S seconds, and the harness checks every op's output against
an independent reference.  The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics.  With
``--trace 1`` the worker alternates untraced and traced passes and the
metrics are the per-layer ones plus the tracing overhead and the share of
the defect probe's tau-average calls that miss the oracle.  Scratch files,
the op records and the span dump go to ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_run"
WORKER = BENCH_DIR / "worker.py"

SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 30.0
# One BLAS thread: the program's matrices are small, and on a two-core box
# a second OpenBLAS thread roughly doubles the N = 16 theorem time.  One lab
# thread: crypto scans stay serial, in this process, where the tracer and
# ru_maxrss see them.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NONLOCALITY_LAB_THREADS": "1",
}

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import layers  # noqa: E402
from workloads import KNOWN_DEFECT_ALPHA, WORKLOADS  # noqa: E402


class HarnessError(RuntimeError):
    pass


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; returns (process, seconds)."""
    env = {**os.environ, **WORKER_ENV}
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise HarnessError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise HarnessError(f"worker ran over {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with code {proc.returncode}")


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc, ready = _spawn(["probe", str(ROOT)])
        _finish(proc, PROBE_TIMEOUT_S)
        samples.append(ready)
    return samples


def run_worker(job: dict) -> tuple[dict, list[dict]]:
    """The worker's result and its passes, read from the files it wrote."""
    proc, _ = _spawn(["run", json.dumps(job)])
    _finish(proc, job["seconds"] + 120.0)
    with open(job["result"]) as handle:
        result = json.load(handle)
    with open(job["ops"]) as handle:
        passes = [json.loads(line) for line in handle]
    return result, passes


def check_outputs(passes: list[dict]) -> list[tuple[dict, str | None]]:
    """Every op with its failure reason (None when correct); scan files go."""
    verdicts = []
    for p in passes:
        for op in p["ops"]:
            verdicts.append((op, checks.check_op(op, op["rc"], op["error"], op["stdout"])))
            if op.get("out") and os.path.exists(op["out"]):
                os.remove(op["out"])
    return verdicts


def end_to_end(passes: list[dict], peak_rss_mb: float, setup: list[float]) -> dict[str, float]:
    makespans = [p["ops"][-1]["end"] - p["ops"][0]["start"] for p in passes]
    latencies = [op["end"] - op["start"] for p in passes for op in p["ops"]]
    return {
        "wall_s": statistics.median(makespans),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def evaluate(verdicts: list[tuple[dict, str | None]]) -> dict:
    """Op counts and fail_frac; ``correct`` when no op failed."""
    failures = [(op, reason) for op, reason in verdicts if reason is not None]
    return {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "fail_frac": len(failures) / len(verdicts),
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op sizes, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nonlocality_lab" / "cli.py").is_file():
        print(f"run.py: no nonlocality_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {
        "root": str(ROOT), "run_dir": str(RUN_DIR), "result": str(RUN_DIR / f"{stem}.result.json"),
        "ops": str(RUN_DIR / f"{stem}.ops.jsonl"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke,
    }
    try:
        setup = [] if args.trace else measure_setup()
        result, passes = run_worker(job)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    os.remove(job["result"])
    os.remove(job["ops"])

    verdicts = check_outputs([p for p in passes if not p["probe"]])
    probe = [r for _, r in check_outputs([p for p in passes if p["probe"]])]
    summary = evaluate(verdicts)
    env = {
        **result["env"], "commit": git_commit(), "src_lines": src_lines(),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
    }
    if args.trace:
        values = dict(result["layers"])
        values[layers.TAU_AVERAGE_FAIL_FRAC[0]] = sum(r is not None for r in probe) / len(probe)
        unit_of = layers.units()
        metrics = {k: {"value": v, "unit": unit_of[k]} for k, v in values.items()}
        absent = result["absent"]
    else:
        untraced = [p for p in passes if not p["traced"]]
        values = end_to_end(untraced, result["peak_rss_mb"], setup)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        absent = []

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops {summary['attempted']}  failed {summary['failed']}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {summary['fail_frac']:<14.6g} ratio")
    for name in absent:
        print(f"  {name:<44} absent (function gone from the program)")
    if probe:
        print(f"  defect probe: {sum(r is not None for r in probe)} of {len(probe)} tau-average "
              f"calls in alpha {list(KNOWN_DEFECT_ALPHA)} miss the oracle (not ops)")
    for op, reason in summary["failures"][:10]:
        print(f"  FAILED {' '.join(op['argv'])}: {reason}")

    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
