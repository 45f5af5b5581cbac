"""Benchmark worker: one fresh interpreter that imports the CLI and runs ops.

    python worker.py probe ROOT      import the CLI from ROOT/src, print "ready", exit
    python worker.py run JOB_JSON    the same, then run the job's passes

Both forms print "ready" on stdout as soon as the CLI is imported, which is
what the harness times as set-up.  ``run`` then executes the workload's op
list pass after pass, one op at a time through ``nonlocality_lab.cli.main``
with stdout captured, until the next pass would end after the job's
``seconds``; at least one pass always runs, and a smoke job runs one.  With ``trace`` set, each step
is a pair: the op list untraced, then the same list with the tracer
installed.  A traced run ends with one untraced run of the defect probe
(``workloads.defect_probe_ops``), saved with ``probe`` set; those calls are
not ops of the workload.  Each pass's op records (exit code, stdout, times)
are appended to the job's ``ops`` file, one JSON line per pass, as the pass
ends, so the worker's own memory does not grow with the number of ops run.
The rest of the result goes to the job's ``result`` file; the harness checks
the outputs.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def _import_cli(root: Path):
    """Import the CLI from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import nonlocality_lab.cli as cli

    origin = Path(cli.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"nonlocality_lab was imported from {origin}, not from {src}")
    return cli


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "lab_threads": os.environ.get("NONLOCALITY_LAB_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _run_pass(main, ops: list[dict], first_id: int, tracer) -> list[dict]:
    records = []
    for k, op in enumerate(ops):
        op_id = first_id + k
        out = io.StringIO()
        rc, error = None, None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                if tracer is None:
                    rc = main(op["argv"])
                else:
                    rc = tracer.call(op_id, layers.OP_SPAN, main, op["argv"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            error = traceback.format_exception_only(exc)[-1].strip()
        end = perf_counter()
        records.append(
            {**op, "id": op_id, "traced": tracer is not None, "start": start, "end": end,
             "rc": rc, "error": error, "stdout": out.getvalue()}
        )
    return records


def _traced_pass(main, ops, first_id, tracer, archive, pass_no):
    tracer.reset()
    tracer.install(layers.SPANNED, layers.COUNTED)
    try:
        records = _run_pass(main, ops, first_id, tracer)
    finally:
        tracer.uninstall()
    trace = layers.PassTrace(
        list(tracer.spans),
        dict(tracer.counts),
        {r["id"]: r["tag"] for r in records},
        sum(len(r["stdout"].encode()) for r in records),
    )
    archive.extend((pass_no, *span[:6]) for span in tracer.spans)
    return records, layers.pass_metrics(trace, tracer.missing)


def _makespan(records: list[dict]) -> float:
    return records[-1]["end"] - records[0]["start"]


def run(job: dict, main) -> dict:
    run_dir = Path(job["run_dir"])
    layer_values, overheads, archive, absent = [], [], [], []
    tracer = Tracer(layers.PACKAGE) if job["trace"] else None
    step_seconds: list[float] = []
    started = perf_counter()
    pass_no = next_id = 0

    def ops_for(list_index: int) -> list[dict]:
        prefix = str(run_dir / f"scan-{pass_no}")
        return pass_ops(job["workload"], job["seed"], list_index, prefix, job["smoke"])

    def save(records: list[dict], probe: bool = False) -> None:
        line = {"pass": pass_no, "traced": records[0]["traced"], "probe": probe, "ops": records}
        ops_file.write(json.dumps(line) + "\n")
        ops_file.flush()

    with open(job["ops"], "w") as ops_file:
        while True:
            step_start = perf_counter()
            # Traced runs repeat list 0, so every traced pass does the same
            # work and its counts repeat exactly.
            ops = ops_for(0 if tracer else pass_no)
            records = _run_pass(main, ops, next_id, None)
            save(records)
            pass_no, next_id = pass_no + 1, next_id + len(ops)
            if tracer:
                ops = ops_for(0)
                traced, (values, absent) = _traced_pass(
                    main, ops, next_id, tracer, archive, pass_no
                )
                save(traced)
                pass_no, next_id = pass_no + 1, next_id + len(ops)
                layer_values.append(values)
                overheads.append(_makespan(traced) - _makespan(records))
            step_seconds.append(perf_counter() - step_start)
            elapsed = perf_counter() - started
            if job["smoke"] or elapsed + statistics.median(step_seconds) > job["seconds"]:
                break
        if tracer:
            save(_run_pass(main, defect_probe_ops(job["smoke"]), next_id, None), probe=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"env": _environment(), "peak_rss_mb": peak_rss_mb}
    if tracer:
        result["layers"] = {
            name: statistics.median(v[name] for v in layer_values) for name in layer_values[0]
        }
        result["layers"][layers.TRACING_OVERHEAD[0]] = statistics.median(overheads)
        result["absent"] = absent
        spans_path = run_dir / f"{job['workload']}-seed{job['seed']}.spans.jsonl"
        with open(spans_path, "w") as handle:
            for row in archive:
                handle.write(json.dumps(row) + "\n")
        result["spans_file"] = str(spans_path)
    return result


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    job = json.loads(arg) if mode == "run" else None
    cli = _import_cli(Path(job["root"] if job else arg))
    print("ready", flush=True)
    if mode == "run":
        # Harness modules load after "ready", so set-up time is the CLI's alone.
        import layers
        from tracer import Tracer
        from workloads import defect_probe_ops, pass_ops

        result = run(job, cli.main)
        with open(job["result"], "w") as handle:
            json.dump(result, handle)
