"""Command-line front end.

One executable, four subcommands:

    nonlocality-lab prbox                     # PR box table, CHSH, checkers
    nonlocality-lab singlet --n 1000000       # PR-box singlet Monte Carlo
    nonlocality-lab crypto eval|scan|tau-average
    nonlocality-lab theorem --nmin 2 --nmax 6 # operator-algebra residuals

Exit codes: 0 success, 1 verification failure, 2 usage error.  ``crypto
scan`` streams its grid in blocks of whole alpha rows: each block is
written to the CSV and added to the class counts and the peak before the
next is computed, so the scan holds one block (``_SCAN_BLOCK_CELLS``
cells, or one longer row) and O(n_alpha + n_tau) besides, for any
``--grid``.  A ``crypto scan --out`` path that cannot be written is a
usage error, found before the first block is computed: one line
``nonlocality-lab: error: cannot write <path>: <reason>`` goes to stderr.
Every verification failure exits 1 and is named on stderr: a ``singlet``
pair with its index, gap and threshold, a ``crypto tau-average`` with its
alpha, gap and tolerance, a scan's empty class, and a ``theorem`` identity
with its N and residual.
Each command prints its text report unless ``--json`` is given; then
``main`` writes the command's payload as strict JSON: a value with no
finite result (the closed forms at their singular points, a non-finite
theorem residual) is written as ``null``, never as ``NaN`` or
``Infinity``.  All randomness derives from --seed through named
substreams, so identical invocations produce byte-identical output on any
CPU, with two exceptions: numpy picks its ufunc kernels by CPU feature at
run time, and the ``|difference|`` line of ``crypto tau-average`` and the
last digits of the ``theorem`` residuals move with that choice.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import lru_cache

from ._rng import derive_seed, substream
from .correlations import (
    check_no_signaling,
    check_outcome_independence,
    check_parameter_independence,
)
from .crypto_bell import (
    RegionScan,
    _region_blocks,
    _ScanTally,
    closed_form_chsh,
    quantum_chsh_reference,
    scan_to_csv,
    singlet_reference,
    tau_average_chsh,
)
from .entangled_ops import MAX_DIM, theorem_bound, verification_report
from .pr_box import pr_chsh, pr_ideal_table, pr_table_from_hidden
from .singlet_sim import SphereSampler, estimate_singlet_correlation

__all__ = ["main"]


def _strict(value):
    """``value`` with every non-finite float in it, at any depth, as ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# prbox
# ---------------------------------------------------------------------------


def _cmd_prbox(args: argparse.Namespace) -> tuple[dict, int]:
    table = pr_ideal_table()
    report = pr_chsh()
    no_sig = check_no_signaling(table)  # the parameter-independence scan
    oi_res = check_outcome_independence(table)
    hidden_ok = pr_table_from_hidden((0.5, 0.5)) == table
    slices_ok = True
    for prior in ((1.0, 0.0), (0.0, 1.0)):
        slice_table = pr_table_from_hidden(prior)
        slices_ok &= check_outcome_independence(slice_table).ok
        slices_ok &= not check_parameter_independence(slice_table).ok
    ok = (
        report.f == 4.0
        and report.nonlocality.value == "superquantum"
        and no_sig.ok
        and no_sig.max_deviation == 0.0
        and not oi_res.ok
        and hidden_ok
        and slices_ok
    )
    payload = {
        "table": json.loads(table.to_json()),
        "f": report.f,
        "class": report.nonlocality.value,
        "no_signaling": {"ok": no_sig.ok, "max_deviation": no_sig.max_deviation},
        "parameter_independence": no_sig.ok,
        "outcome_independence": oi_res.ok,
        "hidden_model_reproduces_table": hidden_ok,
        "deterministic_slices_oi_not_pi": slices_ok,
        "ok": ok,
    }
    if not args.json:
        print("ideal PR box P(a,b|x,y), rows in (a,b) = 00,01,10,11 order:")
        for x in (0, 1):
            for y in (0, 1):
                row = " ".join(f"{table.prob(x, y, a, b):g}" for a in (0, 1) for b in (0, 1))
                print(f"  x={x} y={y} : {row}")
        print(f"F = {report.f:.6f}, class = {report.nonlocality.value}")
        print(f"no-signaling: {'PASS' if no_sig.ok else 'FAIL'} (max deviation {no_sig.max_deviation:g})")
        print(f"parameter independence: {'PASS' if no_sig.ok else 'FAIL'}")
        w = oi_res.witness
        print(
            f"outcome independence: {'FAIL (expected)' if not oi_res.ok else 'PASS (unexpected)'}"
            + (
                f" witness: P({w.party}={w.outcome}|x={w.x},y={w.y},other={w.given})"
                f" = {w.conditional:g} vs marginal {w.marginal:g}"
                if w
                else ""
            )
        )
        print(f"hidden-bit model with prior (1/2,1/2) reproduces table: {'PASS' if hidden_ok else 'FAIL'}")
        print(f"deterministic slices satisfy OI, violate PI: {'PASS' if slices_ok else 'FAIL'}")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    return payload, 0 if ok else 1


# ---------------------------------------------------------------------------
# singlet
# ---------------------------------------------------------------------------


def _cmd_singlet(args: argparse.Namespace) -> tuple[dict, int]:
    directions = SphereSampler(substream(args.seed, "singlet-directions"))
    records = []
    all_ok = True
    for k in range(args.pairs):
        a, b = directions.sample(2)
        pair_seed = derive_seed(args.seed, f"singlet-pair-{k}")
        estimate = estimate_singlet_correlation(a, b, args.n, pair_seed)
        reference = singlet_reference(a, b)
        threshold = max(0.01, 4.0 * estimate.stderr)
        gap = abs(estimate.e_hat - reference)
        ok = gap < threshold  # False for NaN
        all_ok &= ok
        if not ok:
            print(
                f"nonlocality-lab: singlet: pair {k}: gap {gap:.3e} is not below"
                f" threshold {threshold:.3e}",
                file=sys.stderr,
            )
        records.append(
            {
                "a": [float(v) for v in a],
                "b": [float(v) for v in b],
                "n": args.n,
                "seed": pair_seed,
                "e_hat": estimate.e_hat,
                "stderr": estimate.stderr,
                "quantum_reference": reference,
                "pass": ok,
            }
        )
    if not args.json:
        print(f"{'a.b':>10} {'e_hat':>10} {'-a.b':>10} {'stderr':>10}  verdict (4 sigma, 0.01 floor)")
        for rec in records:
            dot = -rec["quantum_reference"]
            print(
                f"{dot:>+10.5f} {rec['e_hat']:>+10.5f} {rec['quantum_reference']:>+10.5f} "
                f"{rec['stderr']:>10.5f}  {'PASS' if rec['pass'] else 'FAIL'}"
            )
        print(f"all pairs {'PASS' if all_ok else 'FAIL'}")
    return {"pairs": records, "ok": all_ok}, 0 if all_ok else 1


# ---------------------------------------------------------------------------
# crypto
# ---------------------------------------------------------------------------


def _cmd_crypto_eval(args: argparse.Namespace) -> tuple[dict, int]:
    comparison = closed_form_chsh(args.alpha, args.tau)
    exact = comparison.exact
    payload = {
        "alpha": exact.alpha,
        "tau": exact.tau,
        "correlations": {
            "e_ab": exact.e_ab,
            "e_ab_prime": exact.e_ab_prime,
            "e_a_prime_b": exact.e_a_prime_b,
            "e_a_prime_b_prime": exact.e_a_prime_b_prime,
        },
        "f": exact.f,
        "class": exact.nonlocality.value,
        "closed_form": {"printed": comparison.printed_f, "normalized": comparison.normalized_f},
        "discrepancy": {
            "printed": comparison.printed_max_dev,
            "normalized": comparison.normalized_max_dev,
            "matching_variant": comparison.matching_variant,
            "singular": comparison.singular,
        },
    }
    if not args.json:
        print(f"alpha = {exact.alpha!r}, tau = {exact.tau!r}")
        print(
            f"E(a,b) = {exact.e_ab:+.9f}  E(a,b') = {exact.e_ab_prime:+.9f}  "
            f"E(a',b) = {exact.e_a_prime_b:+.9f}  E(a',b') = {exact.e_a_prime_b_prime:+.9f}"
        )
        print(f"F = {exact.f:.6f}, class = {exact.nonlocality.value}")
        if comparison.singular:
            print("closed forms: singular point (NaN components)")
        else:
            print(
                f"closed form printed:    F = {comparison.printed_f:+.9f}, "
                f"max correlation deviation {comparison.printed_max_dev:.3e}"
            )
            print(
                f"closed form normalized: F = {comparison.normalized_f:+.9f}, "
                f"max correlation deviation {comparison.normalized_max_dev:.3e}"
            )
            print(f"matching variant: {comparison.matching_variant}")
    return payload, 0


def _cmd_crypto_scan(args: argparse.Namespace) -> tuple[None, int]:
    tally = _ScanTally()
    try:
        scan_to_csv(map(tally.add, _region_blocks(args.n_alpha, args.n_tau)), args.out)
    except OSError as exc:
        print(f"nonlocality-lab: error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return None, 2
    counts = tally.counts.tolist()
    peak = tally.peak()
    print(f"wrote {tally.cells} cells to {args.out}")
    for cls, count in zip(RegionScan.CLASSES, counts):
        print(f"  {cls.value}: {count}")
    print(f"max |f| = {abs(peak.f):.6f} at alpha = {peak.alpha:.6f}, tau = {peak.tau:.6f}")
    empty = " or ".join(cls.value for cls, count in zip(RegionScan.CLASSES, counts) if not count)
    if empty:
        print(f"nonlocality-lab: scan has no {empty} cells", file=sys.stderr)
    return None, 1 if empty else 0


def _cmd_crypto_tau_average(args: argparse.Namespace) -> tuple[None, int]:
    average = tau_average_chsh(args.alpha)
    reference = quantum_chsh_reference(args.alpha)
    gap = abs(average - reference)
    print(f"tau-averaged F = {average:.6f}")
    print(f"quantum oracle = {reference:.6f}")
    print(f"|difference| = {gap:.3e}")
    ok = gap <= 1e-6  # False for NaN
    if not ok:
        print(
            f"nonlocality-lab: tau-average: alpha = {args.alpha!r}: gap {gap:.3e}"
            " exceeds tolerance 1e-06",
            file=sys.stderr,
        )
    return None, 0 if ok else 1


# ---------------------------------------------------------------------------
# theorem
# ---------------------------------------------------------------------------


def _cmd_theorem(args: argparse.Namespace) -> tuple[dict, int]:
    report = verification_report(args.nmin, args.nmax, trials=args.trials, seed=args.seed)
    dims = {str(n): res for n, res in report["dimensions"].items()}
    bounds = {str(n): theorem_bound(n) for n in (1, 10, 100, 10_000, 1_000_000)}
    tolerances, passed = report["tolerances"], report["passed"]
    for n, residuals in dims.items():
        if not args.json:
            print(f"N = {n}")
        for key, value in residuals.items():
            tol = tolerances[key]
            ok = value <= tol  # False for NaN
            if not args.json:
                print(f"  {key:<32} {value:.3e}  (tol {tol:.0e})  {'PASS' if ok else 'FAIL'}")
            if not ok:
                print(
                    f"nonlocality-lab: theorem: N = {n}: {key} residual {value:.3e}"
                    f" exceeds tolerance {tol:.0e}",
                    file=sys.stderr,
                )
    if not args.json:
        print("partition bound (2n/N) sin^2(pi/2n) at ||a||^2 = 1, N = 2:")
        for n, b in bounds.items():
            print(f"  n = {n:<9} bound = {b:.6e}")
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    payload = {"dimensions": dims, "tolerances": tolerances, "partition_bound": bounds, "passed": passed}
    return payload, 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocality-lab",
        description="Local, quantum and superquantum two-party correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prbox = sub.add_parser("prbox", help="PR box table, CHSH value and checkers")
    p_prbox.add_argument("--json", action="store_true")
    p_prbox.set_defaults(func=_cmd_prbox)

    p_singlet = sub.add_parser("singlet", help="PR-box singlet Monte Carlo")
    p_singlet.add_argument("--n", type=int, default=1_000_000, help="rounds per pair")
    p_singlet.add_argument("--seed", type=int, default=1)
    p_singlet.add_argument("--pairs", type=int, default=5, help="random direction pairs")
    p_singlet.add_argument("--json", action="store_true")
    p_singlet.set_defaults(func=_cmd_singlet)

    p_crypto = sub.add_parser("crypto", help="crypto-nonlocal model")
    crypto_sub = p_crypto.add_subparsers(dest="crypto_command", required=True)

    p_eval = crypto_sub.add_parser("eval", help="conditional CHSH at one point")
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--tau", type=float, required=True)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=_cmd_crypto_eval)

    p_scan = crypto_sub.add_parser("scan", help="grid scan to CSV")
    p_scan.add_argument("--grid", default="200x200", help="AxB cell counts")
    p_scan.add_argument("--out", default="region_scan.csv")
    p_scan.set_defaults(func=_cmd_crypto_scan)

    p_avg = crypto_sub.add_parser("tau-average", help="tau-averaged CHSH vs quantum oracle")
    p_avg.add_argument("--alpha", type=float, required=True)
    p_avg.set_defaults(func=_cmd_crypto_tau_average)

    p_theorem = sub.add_parser("theorem", help="operator-algebra identity residuals")
    p_theorem.add_argument("--nmin", type=int, default=2)
    p_theorem.add_argument("--nmax", type=int, default=6)
    p_theorem.add_argument("--trials", type=int, default=50)
    p_theorem.add_argument("--seed", type=int, default=1)
    p_theorem.add_argument("--json", action="store_true")
    p_theorem.set_defaults(func=_cmd_theorem)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    # argparse before Python 3.12 turns "--opt=--" into an empty list; no
    # option here takes a list.
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    if args.command == "singlet":
        if args.n < 1:
            parser.error("--n must be >= 1")
        if args.pairs < 1:
            parser.error("--pairs must be >= 1")
    elif args.command == "crypto":
        if args.crypto_command in ("eval", "tau-average"):
            if not math.isfinite(args.alpha):
                parser.error("--alpha must be finite")
            if not 0.0 <= args.alpha <= math.pi / 4.0:
                parser.error("--alpha must lie in [0, pi/4]")
        if args.crypto_command == "eval":
            if not math.isfinite(args.tau):
                parser.error("--tau must be finite")
            if not 0.0 <= args.tau < math.pi:
                parser.error("--tau must lie in [0, pi)")
        elif args.crypto_command == "scan":
            match = re.fullmatch(r"([0-9]+)x([0-9]+)", args.grid.lower())
            if match is None:
                parser.error("--grid must look like 200x200")
            n_alpha, n_tau = (int(group) for group in match.groups())
            if n_alpha < 2 or n_tau < 2:
                parser.error("grid dimensions must be >= 2")
            args.n_alpha, args.n_tau = n_alpha, n_tau
    elif args.command == "theorem":
        if not 2 <= args.nmin <= args.nmax <= MAX_DIM:
            parser.error(f"need 2 <= nmin <= nmax <= {MAX_DIM}")
        if args.trials < 1:
            parser.error("--trials must be >= 1")


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns its exit code.

    Each ``_cmd_*`` returns ``(payload, exit_code)``; the payload is
    ``None`` for the commands without ``--json``.

    The parser is built on the first call and reused by every later call in
    the process, so the saving is per call, not per fresh process.  Reuse is
    safe: ``parse_args`` fills a new namespace each call, ``_validate``
    writes only to that namespace, and argparse reads ``sys.stderr`` and the
    terminal width when it prints.  The ``_cmd_*`` functions are bound into
    the parser at the first build, so rebinding one of those names later
    does not reach ``main``; the library names they call are looked up at
    call time.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    payload, code = args.func(args)
    if payload is not None and args.json:
        print(json.dumps(_strict(payload), indent=2, allow_nan=False))
    return code


if __name__ == "__main__":
    sys.exit(main())
