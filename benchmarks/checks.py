"""Output checks against references that share no code with the program.

Every check takes an op (see ``workloads.py``), the exit code, the exception
text if the call raised, and the captured stdout, and returns ``None`` when
the output is right or a one-line reason when it is not.  The references
are written out here from the formulas: the singlet correlation -a.b, the
normalized closed form of the conditional CHSH landscape, the quantum CHSH
value -3 cos(2 alpha) + cos(6 alpha), the PR-box table and the partition
bound.  None of them calls into ``nonlocality_lab``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)

# Closed forms are 0/0 at these (alpha, tau) points; cells closer than
# SINGULAR_MARGIN to either get only a range check.
SINGULAR_MARGIN = 0.02
CLOSED_FORM_TOL = 1e-9
TAU_AVERAGE_TOL = 1e-6
# tau-average prints six decimals, so a printed value carries up to 5e-7.
PRINT_ROUNDING = 5e-7

# Per-identity tolerances of the theorem report.  Kept here rather than read
# from the output so that a loosened tolerance in the program shows up.
THEOREM_TOLERANCES = {
    "transpose_identity": 1e-12,
    "basis_orthonormality": 1e-12,
    "joint_vs_dot": 1e-12,
    "square_vs_norm": 1e-12,
    "decomposition_reconstruction": 1e-10,
    "decomposition_commutation": 1e-12,
    "decomposition_spectrum": 1e-10,
    "decomposition_alpha0": 1e-12,
    "pauli_vector_norm": 1e-12,
    "curve_endpoint": 1e-10,
    "curve_norm": 1e-10,
    "curve_planarity": 1e-10,
    "curve_spacing": 1e-10,
}
PARTITION_BOUND_NS = (1, 10, 100, 10_000, 1_000_000)


def _critical_alpha() -> float:
    """Root of 4 alpha + pi sin^2(alpha) = pi (increasing in alpha)."""
    lo, hi = 0.0, math.pi / 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 4.0 * mid + math.pi * math.sin(mid) ** 2 < math.pi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


CRITICAL_ALPHA = _critical_alpha()
SINGULAR_POINTS = ((math.pi / 6.0, math.pi / 2.0), (CRITICAL_ALPHA, math.pi / 2.0))


def closed_form(alpha, tau) -> tuple[np.ndarray, ...]:
    """Normalized closed-form correlations (e_ab, e_ab', e_a'b, e_a'b') and F.

    chi_j = cos(tau) / sqrt(cos^2(tau) + cot^2(gamma_j / 2)), with chi_j = 0
    at gamma_j = 0; the cross pairs switch branch at the critical alpha.
    Broadcasts over numpy arrays.
    """
    alpha = np.asarray(alpha, dtype=float)
    tau = np.asarray(tau, dtype=float)
    s2 = math.pi * np.sin(alpha) ** 2
    gammas = (s2, math.pi * np.sin(3.0 * alpha) ** 2, 4.0 * alpha + s2, 4.0 * alpha - s2)
    cos_tau = np.cos(tau)
    chis = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for gamma in gammas:
            cot_half = np.cos(gamma / 2.0) / np.sin(gamma / 2.0)
            chi = cos_tau / np.sqrt(cos_tau**2 + cot_half**2)
            chis.append(np.where(gamma <= 0.0, 0.0, chi))
    x1, x2, x3, x4 = chis
    e_ab = 2.0 * np.abs(x1) - 1.0
    e_apbp = 2.0 * np.abs(x2) - 1.0
    cross = np.where(alpha <= CRITICAL_ALPHA, np.abs(x3 - x4) - 1.0, 1.0 - np.abs(x3 + x4))
    return e_ab, cross, cross, e_apbp, e_ab + 2.0 * cross - e_apbp


def far_from_singular(alpha, tau) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    tau = np.asarray(tau, dtype=float)
    far = np.ones(np.broadcast(alpha, tau).shape, dtype=bool)
    for a0, t0 in SINGULAR_POINTS:
        far &= np.hypot(alpha - a0, tau - t0) >= SINGULAR_MARGIN
    return far


def chsh_class(f: float) -> str | None:
    """Class name of a CHSH value, or None within 1e-9 of a class boundary."""
    magnitude = abs(f)
    if min(abs(magnitude - 2.0), abs(magnitude - TSIRELSON)) <= 1e-9:
        return None
    if magnitude <= 2.0:
        return "local"
    if magnitude <= TSIRELSON:
        return "quantum_nonlocal"
    return "superquantum"


def quantum_chsh(alpha: float) -> float:
    return -3.0 * math.cos(2.0 * alpha) + math.cos(6.0 * alpha)


def _loads(text: str):
    # ``crypto eval --json`` prints bare NaN/Infinity at the singular points.
    return json.loads(text, parse_constant=float)


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def _check_singlet(op: dict, out: str) -> str | None:
    payload = _loads(out)
    if payload.get("ok") is not True:
        return "singlet reports ok != true"
    pairs = payload["pairs"]
    if len(pairs) != op["pairs"]:
        return f"expected {op['pairs']} pairs, got {len(pairs)}"
    for rec in pairs:
        a = np.asarray(rec["a"], dtype=float)
        b = np.asarray(rec["b"], dtype=float)
        if abs(a @ a - 1.0) > 1e-9 or abs(b @ b - 1.0) > 1e-9:
            return "measurement direction is not a unit vector"
        if rec["n"] != op["n"]:
            return f"n = {rec['n']}, asked for {op['n']}"
        dot = float(a @ b)
        sigma = math.sqrt(max(0.0, 1.0 - dot * dot) / op["n"])
        gap = abs(rec["e_hat"] + dot)
        if not gap <= max(0.01, 4.0 * sigma):
            return f"e_hat {rec['e_hat']} is {gap:.3g} from -a.b = {-dot}"
    return None


def _check_scan(op: dict, out: str) -> str | None:
    n_alpha, n_tau = op["grid"]
    with open(op["out"], newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["alpha", "tau", "f", "class"]:
        return f"bad CSV header {rows[0]!r}"
    body = rows[1:]
    if len(body) != n_alpha * n_tau:
        return f"CSV has {len(body)} rows, expected {n_alpha * n_tau}"
    values = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in body])
    alpha, tau, f = values.T
    want_alpha = np.repeat((np.arange(n_alpha) + 0.5) * (math.pi / 4.0) / n_alpha, n_tau)
    want_tau = np.tile((np.arange(n_tau) + 0.5) * math.pi / n_tau, n_alpha)
    if np.max(np.abs(alpha - want_alpha)) > 1e-12 or np.max(np.abs(tau - want_tau)) > 1e-12:
        return "cells are not the row-major cell centres"
    gap = np.abs(f - closed_form(alpha, tau)[4])
    bad = far_from_singular(alpha, tau) & ~(gap <= CLOSED_FORM_TOL)
    if bad.any():
        row = int(np.argmax(bad))
        return f"F off the closed form by {gap[row]:.3g} at row {row}"
    if not np.all(np.abs(f) <= 4.0 + 1e-12):
        return "|F| exceeds 4"
    counts: dict[str, int] = {}
    for row, value in zip(body, f):
        want = chsh_class(value)
        if want is not None and row[3] != want:
            return f"class {row[3]!r} for F = {value}"
        counts[row[3]] = counts.get(row[3], 0) + 1
    lines = out.splitlines()
    if lines[0] != f"wrote {len(body)} cells to {op['out']}":
        return f"unexpected summary line {lines[0]!r}"
    for name in ("local", "quantum_nonlocal", "superquantum"):
        if f"  {name}: {counts.get(name, 0)}" not in lines:
            return f"printed {name} count does not match the CSV"
    printed_max = float(lines[4].split("=")[1].split()[0])
    if abs(printed_max - float(np.max(np.abs(f)))) > PRINT_ROUNDING:
        return "printed max |f| does not match the CSV"
    return None


def _check_eval(op: dict, out: str) -> str | None:
    payload = _loads(out)
    if payload["alpha"] != op["alpha"] or payload["tau"] != op["tau"]:
        return "alpha/tau not echoed"
    c = payload["correlations"]
    got = (c["e_ab"], c["e_ab_prime"], c["e_a_prime_b"], c["e_a_prime_b_prime"], payload["f"])
    if not all(math.isfinite(v) for v in got) or any(abs(v) > 1.0 + 1e-12 for v in got[:4]):
        return f"correlations out of range: {got!r}"
    if far_from_singular(op["alpha"], op["tau"]):
        want = [float(v) for v in closed_form(op["alpha"], op["tau"])]
        worst = max(abs(u - v) for u, v in zip(got, want))
        if worst > CLOSED_FORM_TOL:
            return f"off the closed form by {worst:.3g}"
    want_class = chsh_class(payload["f"])
    if want_class is not None and payload["class"] != want_class:
        return f"class {payload['class']!r} for F = {payload['f']}"
    return None


def _check_tau_average(op: dict, out: str) -> str | None:
    lines = dict(line.split(" = ", 1) for line in out.splitlines())
    average = float(lines["tau-averaged F"])
    oracle = float(lines["quantum oracle"])
    reference = quantum_chsh(op["alpha"])
    if abs(oracle - reference) > PRINT_ROUNDING:
        return f"printed oracle {oracle} is not {reference}"
    if abs(average - reference) > TAU_AVERAGE_TOL + PRINT_ROUNDING:
        return f"tau average {average} is {abs(average - reference):.3g} from {reference}"
    return None


def _check_prbox(op: dict, out: str) -> str | None:
    payload = _loads(out)
    for x in (0, 1):
        for y in (0, 1):
            want = [0.5 if (a ^ b) == (x & y) else 0.0 for a in (0, 1) for b in (0, 1)]
            if payload["table"][f"{x},{y}"] != want:
                return f"table row {x},{y} is {payload['table'][f'{x},{y}']!r}"
    if payload["f"] != 4.0 or payload["class"] != "superquantum":
        return f"F = {payload['f']}, class {payload['class']!r}"
    expected = {
        "no_signaling": {"ok": True, "max_deviation": 0.0},
        "parameter_independence": True,
        "outcome_independence": False,
        "hidden_model_reproduces_table": True,
        "deterministic_slices_oi_not_pi": True,
        "ok": True,
    }
    for key, value in expected.items():
        if payload[key] != value:
            return f"{key} = {payload[key]!r}"
    return None


def _check_theorem(op: dict, out: str) -> str | None:
    payload = _loads(out)
    if payload["passed"] is not True:
        return "theorem reports passed != true"
    dims = payload["dimensions"]
    want_dims = [str(n) for n in range(op["nmin"], op["nmax"] + 1)]
    if sorted(dims, key=int) != want_dims:
        return f"dimensions {sorted(dims)!r}, expected {want_dims!r}"
    for n, residuals in dims.items():
        if set(residuals) != set(THEOREM_TOLERANCES):
            return f"N = {n}: identities {sorted(residuals)!r}"
        for key, tol in THEOREM_TOLERANCES.items():
            if not residuals[key] <= tol:
                return f"N = {n}: {key} residual {residuals[key]:.3g} > {tol:g}"
    for n in PARTITION_BOUND_NS:
        want = n * math.sin(math.pi / (2.0 * n)) ** 2
        got = payload["partition_bound"][str(n)]
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            return f"partition bound at n = {n} is {got}, expected {want}"
    return None


_CHECKS = {
    "singlet": _check_singlet,
    "scan": _check_scan,
    "eval": _check_eval,
    "tau_average": _check_tau_average,
    "prbox": _check_prbox,
    "theorem": _check_theorem,
}


def check_op(op: dict, rc, error: str | None, out: str) -> str | None:
    """None when the op succeeded with a correct output, else the reason."""
    if error is not None:
        return f"raised {error}"
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[op["kind"]](op, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
