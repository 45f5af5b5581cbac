"""Op lists of the four benchmark workloads.

An op is one CLI invocation, described by a dict:

    kind     singlet | scan | tau_average | eval | prbox | theorem
    argv     the argument list handed to ``nonlocality_lab.cli.main``
    tag      label that per-layer metrics group by (scan shape, theorem size)
    ...      the parameters the output checks need (alpha, tau, n, grid, ...)

A pass is the fixed list of ops that one workload runs back to back.  The
list depends only on (workload, seed, list index), drawn with Python's own
``random`` so the program's RNG code never shapes the inputs.  ``smoke``
shrinks every op to a tiny size with the same kinds and tags, for the
self-tests.  ``defect_probe_ops`` is the fixed list of tau-average calls
that measures the known quadrature defect; it is not part of any pass.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("singlet-mc", "crypto-scan", "point-queries", "theorem")

# Scan shapes: equal cell counts, different tau-vector lengths per alpha row.
SCAN_SHAPES = ("200x200", "40x1000", "1000x40")
SMOKE_SCAN_SHAPES = {"200x200": "20x20", "40x1000": "8x50", "1000x40": "50x8"}

SINGLET_OPS_PER_PASS = 10
SINGLET_ROUNDS = 1_000_000
POINT_QUERIES_PER_KIND = 60  # tau-average and eval ops each; prbox gets half

# ``crypto tau-average`` misses the oracle by more than its 1e-6 tolerance
# (and exits 1) for alpha in about [0.5222, 0.5250], at isolated alphas just
# outside that, near pi/6, and on rare spikes about 7e-7 wide elsewhere
# (DEFECT_SPIKES, found by a sweep of [0, pi/4] in steps of 1e-5).  Workload
# ops must not fail, so tau-average ops draw alpha from a fixed grid of cell
# centres of [0, pi/4], without those in the window; every grid alpha passes
# (see test_benchmark.py).  The defect probe covers the window and the
# spikes instead, so the defect stays measured.
KNOWN_DEFECT_ALPHA = (0.5180, 0.5295)
DEFECT_SPIKES = (0.4755896, 0.5622192)
DEFECT_PROBE_POINTS = 48
TAU_AVERAGE_GRID_CELLS = 1024
THEOREM_SMALL_OPS_PER_PASS = 8


def _seed_of(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _singlet(rng: random.Random, smoke: bool) -> list[dict]:
    n = 2_000 if smoke else SINGLET_ROUNDS
    count = 2 if smoke else SINGLET_OPS_PER_PASS
    ops = []
    for _ in range(count):
        seed = _seed_of(rng)
        ops.append(
            {
                "kind": "singlet",
                "argv": ["singlet", "--pairs", "1", "--n", str(n), "--seed", str(seed), "--json"],
                "tag": None,
                "n": n,
                "pairs": 1,
            }
        )
    return ops


def _scan(rng: random.Random, smoke: bool, out_prefix: str) -> list[dict]:
    first = rng.randrange(len(SCAN_SHAPES))
    ops = []
    for k in range(len(SCAN_SHAPES)):
        tag = SCAN_SHAPES[(first + k) % len(SCAN_SHAPES)]
        grid = SMOKE_SCAN_SHAPES[tag] if smoke else tag
        n_alpha, n_tau = (int(v) for v in grid.split("x"))
        out = f"{out_prefix}-{k}.csv"
        ops.append(
            {
                "kind": "scan",
                "argv": ["crypto", "scan", "--grid", grid, "--out", out],
                "tag": tag,
                "grid": [n_alpha, n_tau],
                "out": out,
            }
        )
    return ops


def _stratified(rng: random.Random, count: int, width: float) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [0, width).

    Each value is still uniform over the whole range, but a pass gets the
    same spread of alphas every time; tau-average cost varies about tenfold
    with alpha, so plain uniform draws would make pass times noisy.
    """
    values = [(k + rng.random()) * width / count for k in range(count)]
    rng.shuffle(values)
    return values


def tau_average_grid() -> list[float]:
    """The alphas tau-average ops draw from: cell centres outside the window."""
    lo, hi = KNOWN_DEFECT_ALPHA
    cells = TAU_AVERAGE_GRID_CELLS
    grid = [(k + 0.5) * (math.pi / 4.0) / cells for k in range(cells)]
    return [alpha for alpha in grid if not lo <= alpha <= hi]


def _tau_average_op(alpha: float) -> dict:
    return {
        "kind": "tau_average",
        "argv": ["crypto", "tau-average", "--alpha", repr(alpha)],
        "tag": None,
        "alpha": alpha,
    }


def defect_probe_ops(smoke: bool = False) -> list[dict]:
    """tau-average ops at the DEFECT_SPIKES and at evenly spaced cell
    centres of KNOWN_DEFECT_ALPHA."""
    lo, hi = KNOWN_DEFECT_ALPHA
    count = 4 if smoke else DEFECT_PROBE_POINTS
    window = [lo + (k + 0.5) * (hi - lo) / count for k in range(count)]
    return [_tau_average_op(alpha) for alpha in (*DEFECT_SPIKES, *window)]


def _point_queries(rng: random.Random, smoke: bool) -> list[dict]:
    per_kind = 3 if smoke else POINT_QUERIES_PER_KIND
    grid = tau_average_grid()
    ops = [_tau_average_op(grid[int(u)]) for u in _stratified(rng, per_kind, len(grid))]
    for alpha in _stratified(rng, per_kind, math.pi / 4.0):
        tau = rng.random() * math.pi
        ops.append(
            {
                "kind": "eval",
                "argv": ["crypto", "eval", "--alpha", repr(alpha), "--tau", repr(tau), "--json"],
                "tag": None,
                "alpha": alpha,
                "tau": tau,
            }
        )
    for _ in range(max(1, per_kind // 2)):
        ops.append({"kind": "prbox", "argv": ["prbox", "--json"], "tag": None})
    rng.shuffle(ops)
    return ops


def _theorem_op(nmin: int, nmax: int, trials: int, seed: int, tag: str) -> dict:
    return {
        "kind": "theorem",
        "argv": [
            "theorem", "--nmin", str(nmin), "--nmax", str(nmax),
            "--trials", str(trials), "--seed", str(seed), "--json",
        ],
        "tag": tag,
        "nmin": nmin,
        "nmax": nmax,
    }


def _theorem(rng: random.Random, smoke: bool) -> list[dict]:
    if smoke:
        small = [_theorem_op(2, 3, 2, _seed_of(rng), "n2_6") for _ in range(2)]
        large = _theorem_op(4, 4, 1, _seed_of(rng), "n16")
    else:
        small = [
            _theorem_op(2, 6, 50, _seed_of(rng), "n2_6")
            for _ in range(THEOREM_SMALL_OPS_PER_PASS)
        ]
        large = _theorem_op(16, 16, 5, _seed_of(rng), "n16")
    ops = small + [large]
    rng.shuffle(ops)
    return ops


def pass_ops(
    workload: str, seed: int, list_index: int, out_prefix: str, smoke: bool = False
) -> list[dict]:
    """The op list number ``list_index`` of ``workload`` under ``seed``.

    ``out_prefix`` names the files that scan ops write (one per op).
    """
    rng = random.Random(f"{workload}:{seed}:{list_index}")
    if workload == "singlet-mc":
        return _singlet(rng, smoke)
    if workload == "crypto-scan":
        return _scan(rng, smoke, out_prefix)
    if workload == "point-queries":
        return _point_queries(rng, smoke)
    if workload == "theorem":
        return _theorem(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}")
