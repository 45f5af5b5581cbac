"""A crypto-nonlocal hidden-variable model with conditional CHSH landscape.

The model describes a qubit pair in the singlet state with a hidden unit
vector lam.  lam is uniform on the sphere and carries a two-level polar
chart (mu, tau) with mu in [0, 2*pi) and tau in [0, pi): tau selects a great
circle through the poles, mu runs around it,

    lam(mu, tau) = (sin mu cos tau, sin mu sin tau, cos mu),

and the surface element is |sin mu| dmu dtau.  Outcomes are

    A = sgn(a_hat . lam),      B = -sgn(b_hat . lam),

with sgn(0) = +1, where a_hat, b_hat are the measurement directions a, b
rotated in their common plane, symmetrically about the bisector, so that
their angle becomes omega_hat = pi * sin^2(omega / 2).  Averaged over the
full sphere this reproduces the singlet correlation -a.b; averaged over mu
alone (at fixed tau) the single-party outcomes vanish identically, which is
the crypto-nonlocality property, while the pair correlation

    E_tau(a, b) = (1/4) * int_0^{2pi} A B |sin mu| dmu

can exceed the Tsirelson bound and approaches the algebraic maximum
|F| -> 4 near (alpha, tau) = (pi/6, pi/2) on the tilted four-direction
family used throughout this module.

The mu-integral is evaluated EXACTLY: on a great circle one sign averages
to 0, and a product of two signs differs from its value at the pole mu = 0
only on two antipodal arcs, whose |sin mu| weight is a difference of two
sines.  One numpy kernel evaluates this for a whole array of tau values and
a stack of one- or two-vector sets at once; every fixed-tau correlation,
CHSH value and region scan in this module goes through it.  A setting pair
has one layout throughout, the (..., 2, 3) stack of (Alice, Bob) that the
kernels take: ``four_directions`` gives the family's four pairs as
(..., 4, 2, 3) over an array of alpha, and ``rotated_settings`` rotates
(..., 3) stacks row by row with no angle computed, so its bits do not
depend on the CPU's SIMD dispatch level.  The scan rotates its whole family in one call
and stacks whole alpha rows into blocks of about 1.5k cells, one kernel
call each, as arrays (``RegionScan``).  ``crypto scan`` streams them:
``scan_to_csv`` writes each block row by row while a ``_ScanTally`` adds up
its classes and peak candidates, and the block is dropped before the next
is computed, so the scan holds the n_alpha rotated pairs, the n_tau centers
and one block, whatever the grid.  ``region_scan`` joins the same blocks
into one ``RegionScan`` of the whole grid, and ``conditional_chsh`` is one
1 x 1 block.  ``RegionScan.cell`` builds every ``ConditionalChsh``, so a
point equals its scan cell bit for bit.

The tau averages are EXACT as well: a pair averages to s_1 s_2
(1 - |t_1 - t_2|) on the circle tau, where each root offset t has the closed
antiderivative s atan2(v_x sin tau - v_y cos tau, |(v_z, q)|), so the
integral over tau is a sum of increments between the few breakpoints where
t_1 - t_2 may change sign (``_tau_integral``; its atan2 lets the last bits
move with the CPU's dispatch level).  A dense Riemann sum is kept in the
test suite as an independent cross-check.  The closed forms are array
expressions over alpha and tau broadcast together:
``closed_form_correlations`` returns the printed and the normalized variant
(chi/2) stacked on a leading axis from one ``chi_functions`` call, and
``closed_form_chsh`` checks both against the exact integrator, never the
other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import _whole_number
from .correlations import NonlocalityClass, _numeric_array, _one_number, chsh_class_codes, chsh_sum
from .singlet_sim import SingletEstimate, _chunked_estimate, _frame, _FrameSampler, as_unit_vector

__all__ = [
    "rotated_settings",
    "conditional_correlation",
    "crypto_local_average",
    "mc_joint_correlation",
    "four_directions",
    "gamma_functions",
    "critical_alpha",
    "chi_functions",
    "ConditionalChsh",
    "conditional_chsh",
    "closed_form_correlations",
    "ClosedFormComparison",
    "closed_form_chsh",
    "singlet_reference",
    "quantum_chsh_reference",
    "tau_average_correlation",
    "tau_average_chsh",
    "RegionScan",
    "region_scan",
    "scan_to_csv",
]

# ---------------------------------------------------------------------------
# Rotated settings
# ---------------------------------------------------------------------------


def rotated_settings(a, b) -> np.ndarray:
    """The (..., 2, 3) stack (a_hat, b_hat): (a, b) rotated about their
    bisector, within their plane, to the angle pi * sin^2(omega / 2).

    ``a`` and ``b`` are unit 3-vectors or (..., 3) stacks, broadcast row
    against row; each row is computed alone, so a row of a stacked call is
    bit-identical to the call on that row.  No angle is computed: for unit
    vectors sin^2(omega / 2) = d^2 / (d^2 + m^2), d = |a - b|, m = |a + b|.
    The degenerate rows are exact: omega = 0 gives (a, a), and omega = pi,
    whose bisector is ambiguous, gives (a, -a), as every in-plane choice does.
    """
    a, b = as_unit_vector(a), as_unit_vector(b)
    mid, diff = a + b, a - b
    norm_mid = np.linalg.norm(mid, axis=-1, keepdims=True)
    norm_diff = np.linalg.norm(diff, axis=-1, keepdims=True)
    half = (math.pi / 2.0) * norm_diff**2 / (norm_diff**2 + norm_mid**2)  # omega_hat / 2
    antiparallel = norm_mid <= 1e-12  # omega = pi
    parallel = norm_diff < 1e-12  # omega = 0
    bisector = mid / np.where(antiparallel, 1.0, norm_mid)
    side = diff / np.where(parallel, 1.0, norm_diff)
    c, s = np.cos(half), np.sin(half)
    a_hat = np.where(antiparallel | parallel, a, c * bisector + s * side)
    b_hat = np.where(antiparallel, -a, np.where(parallel, a, c * bisector - s * side))
    return np.stack([a_hat, b_hat], axis=-2)


def _outcome_bits(a_lam, b_lam) -> tuple[np.ndarray, np.ndarray]:
    """Outcome bits (A, B), as boolean arrays, of the rotated pair (a_hat,
    b_hat) at hidden vectors with projections a_lam = a_hat . lam and b_lam =
    b_hat . lam: A = sgn(a_hat . lam) and B = -sgn(b_hat . lam), bit 1 for
    sign -1, so the product is -1 where A != B.  B depends on a through
    b_hat: the model is manifestly nonlocal at this level.  Only the signs
    are read, so ``mc_joint_correlation`` passes its frame coordinate z for
    a_lam.
    """
    return a_lam < 0.0, b_lam >= 0.0


# ---------------------------------------------------------------------------
# Exact arc integration on a great circle
# ---------------------------------------------------------------------------


def _arc_average(vectors, taus) -> np.ndarray:
    """(1/4) * int_0^{2pi} prod_v sgn(v . lam(mu, tau)) |sin mu| dmu, exact.

    ``vectors`` has shape (..., k, 3) with k = 1 or 2, and ``taus`` shape
    (T,); the result has shape (..., T).  On the circle tau a projection
    v . lam = p cos(mu) + q sin(mu) has the sign s = sgn(p) at the pole
    mu = 0 and antipodal roots at phi +- pi/2, sin(phi) = t = s q / |(p, q)|,
    so one sign averages to exactly 0.  Two signs differ from their pole
    value s_1 s_2 only between their roots in [0, pi] and between the
    antipodes, two arcs of |sin|-weight |t_1 - t_2|, so they average to
    s_1 s_2 (1 - |t_1 - t_2|).  Identically vanishing projections have the
    sign sgn(0) = +1: a set of them averages to 1, one in a mixed pair to 0.
    A non-finite tau raises ``ValueError``.
    """
    taus = _numeric_array(taus)
    if not np.all(np.isfinite(taus)):
        raise ValueError(f"tau must be finite, got {taus}")
    v = np.asarray(vectors, dtype=float)[..., None, :, :]
    taus = taus[:, None]
    q = v[..., 0] * np.cos(taus) + v[..., 1] * np.sin(taus)  # (..., T, k)
    p = np.broadcast_to(v[..., 2], q.shape)
    r = np.hypot(p, q)
    vanish = r < 1e-15
    if v.shape[-2] == 1:
        return np.where(vanish[..., 0], 1.0, 0.0)
    pole = np.where(p >= 0.0, 1.0, -1.0)
    t_1, t_2 = np.moveaxis(pole * q / np.where(vanish, 1.0, r), -1, 0)
    pair = pole[..., 0] * pole[..., 1] * (1.0 - np.abs(t_1 - t_2))
    return np.where(vanish.any(axis=-1), vanish.all(axis=-1) * 1.0, pair)


def conditional_correlation(a, b, tau: float) -> float:
    """Pair correlation at fixed tau: (1/4) int A B |sin mu| dmu, exact."""
    return -float(_arc_average(rotated_settings(a, b), [_one_number("tau", tau)])[0])


def crypto_local_average(a, tau: float) -> float:
    """Single-party average at fixed tau: (1/4) int A |sin mu| dmu.

    The average is exactly 0 unless the projection of ``a`` onto the circle
    tau vanishes identically — opposite hemispheres of a great circle carry
    opposite signs and equal weight — which is the crypto-nonlocality
    property; it holds for the model's rotated a_hat as for any vector.  A
    vector orthogonal to the whole circle has the constant sign sgn(0) = +1
    and averages to 1.
    """
    return float(_arc_average([as_unit_vector(a)], [_one_number("tau", tau)])[0])


def mc_joint_correlation(a, b, n: int, seed: int) -> SingletEstimate:
    """Full-sphere Monte Carlo of A*B; returns its ``SingletEstimate``.

    Cross-check for the exact route: the mean must agree with -a.b.  lam is
    sampled in the frame of the rotated pair (a_hat, b_hat), as the singlet
    estimator samples in the frame of (a, b), and the rounds go through its
    chunked counter, in bounded memory.
    """
    frame = _frame(*rotated_settings(a, b))

    def open_rounds(start: int, chunk: int):
        lam = _FrameSampler(seed, "crypto-mc-lam", start, frame, chunk)

        def disagree(m: int) -> np.ndarray:
            A, B = _outcome_bits(*lam.project(m))
            return A != B

        return disagree

    return _chunked_estimate(n, open_rounds)


# ---------------------------------------------------------------------------
# The tilted four-direction family and its closed forms
# ---------------------------------------------------------------------------


def four_directions(alpha) -> np.ndarray:
    """The CHSH pairs (a, b), (a, b'), (a', b), (a', b') tilted by alpha in
    [0, pi/4], stacked (..., 4, 2, 3) for alpha (...) with rows equal to the
    calls at each alpha; the table gives their polar angles in the xz-plane."""
    angles = _numeric_array(alpha)
    if not np.all((angles >= 0.0) & (angles <= math.pi / 4.0 + 1e-12)):  # NaN fails
        raise ValueError(f"alpha must lie in [0, pi/4], got {alpha}")
    theta = np.multiply.outer(angles, [[1.0, -1.0], [1.0, 3.0], [-3.0, -1.0], [-3.0, 3.0]])
    return np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)


def gamma_functions(alpha) -> np.ndarray:
    """Auxiliary angles of the closed forms, shape (..., 4) for alpha of shape (...).

    gamma_1 and gamma_2 are the rotated angles of the (a, b) and (a', b')
    pairs; gamma_3/2 and gamma_4/2 are the in-plane polar positions of the
    rotated vectors of the cross pairs.
    """
    alpha = _numeric_array(alpha)[..., None]
    # (0, 0, 4a, 4a) + pi sin^2(a, 3a, a, a) * (1, 1, 1, -1), term by term
    sines = np.sin(alpha * [1.0, 3.0, 1.0, 1.0])
    return 4.0 * alpha * [0.0, 0.0, 1.0, 1.0] + np.pi * sines**2 * [1.0, 1.0, 1.0, -1.0]


@lru_cache(maxsize=1)
def critical_alpha() -> float:
    """The alpha (~0.562) where the cross-pair closed form changes branch.

    Root of 4*alpha + pi*sin^2(alpha) = pi; the left side is strictly
    increasing (derivative 4 + pi*sin(2*alpha) > 0), so the root is unique.
    Located by bisection to 1e-12.
    """
    lo, hi = 0.0, math.pi / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 4.0 * mid + math.pi * math.sin(mid) ** 2 < math.pi:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def chi_functions(alpha, tau) -> np.ndarray:
    """Closed-form kernels chi_j = 2 cos(tau) / sqrt(cos^2 tau + cot^2(gamma_j/2)),
    shape (..., 4) for alpha and tau broadcast to shape (...).

    gamma_j <= 0 is taken as the chi_j -> 0 limit; gamma_j = pi makes cot
    vanish so chi_j = +-2.  When cos(tau) and cot(gamma_j/2) vanish together
    (within 1e-12: floating-point pi/2 never gives an exact zero) the
    expression is 0/0 and NaN marks the singular component.  These are the
    kernels as printed; halved, they match the exact arc integration.
    """
    gamma = gamma_functions(alpha)
    cos_tau = np.cos(_numeric_array(tau))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cot_half = np.cos(gamma / 2.0) / np.sin(gamma / 2.0)
        chi = 2.0 * cos_tau / np.sqrt(cos_tau**2 + cot_half**2)
    singular = (np.abs(cos_tau) < 1e-12) & (np.abs(cot_half) < 1e-12)
    return np.where(gamma <= 0.0, 0.0, np.where(singular, np.nan, chi))


@dataclass(frozen=True)
class ConditionalChsh:
    """The four fixed-tau correlations of the family and their CHSH value."""

    alpha: float
    tau: float
    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float
    f: float
    nonlocality: NonlocalityClass


def _rotated_family(alpha) -> np.ndarray:
    """The family's rotated pairs (a_hat, b_hat) in CHSH order, shape
    (..., 4, 2, 3) for alpha of shape (...), in one ``rotated_settings`` call."""
    return rotated_settings(*np.moveaxis(four_directions(alpha), -2, 0))


def _family_chsh(pairs: np.ndarray, taus) -> tuple[np.ndarray, np.ndarray]:
    """Exact-arc correlations, shape (..., 4, T), and CHSH values, shape
    (..., T), of rotated pairs stacked as by ``_rotated_family``, shape
    (..., 4, 2, 3), in one kernel call."""
    e = -_arc_average(pairs, taus)
    return e, chsh_sum(np.moveaxis(e, -2, 0))


def conditional_chsh(alpha: float, tau: float) -> ConditionalChsh:
    """Exact-arc conditional correlations and CHSH value at (alpha, tau):
    the cell of a 1 x 1 block, from the kernel calls of ``_region_blocks``,
    which also check alpha and tau."""
    alpha, tau = _one_number("alpha", alpha), _one_number("tau", tau)
    e, f = _family_chsh(_rotated_family([alpha]), [tau])
    block = RegionScan(np.array([alpha], float), np.array([tau], float), e, f, chsh_class_codes(f))
    return block.cell(0, 0)


def closed_form_correlations(alpha, tau) -> np.ndarray:
    """Closed-form conditional correlations (e_ab, e_ab', e_a'b, e_a'b'),
    shape (2, ..., 4) for alpha and tau broadcast to shape (...): index 0 of
    the variant axis is the printed form, index 1 the normalized one (chi/2).

    e_ab = 2|chi_1| - 1, e_a'b' = 2|chi_2| - 1, and the cross pairs share
    |chi_3 - chi_4| - 1 below ``critical_alpha`` and 1 - |chi_3 + chi_4|
    above it.  NaN components propagate from singular chi values.
    """
    chi = np.multiply.outer([1.0, 0.5], chi_functions(alpha, tau))
    x1, x2, x3, x4 = np.moveaxis(chi, -1, 0)
    cross = np.where(
        np.asarray(alpha) <= critical_alpha(), np.abs(x3 - x4) - 1.0, 1.0 - np.abs(x3 + x4)
    )
    return np.stack([2.0 * np.abs(x1) - 1.0, cross, cross, 2.0 * np.abs(x2) - 1.0], -1)


@dataclass(frozen=True)
class ClosedFormComparison:
    """Printed and normalized closed forms against the exact-arc values."""

    exact: ConditionalChsh
    printed: tuple[float, float, float, float]
    normalized: tuple[float, float, float, float]
    printed_f: float
    normalized_f: float
    printed_max_dev: float
    normalized_max_dev: float
    singular: bool

    #: The matching variant for each (printed matches, normalized matches).
    _VARIANTS = {(True, False): "printed", (False, True): "normalized", (True, True): "both"}

    @property
    def matching_variant(self) -> str | None:
        """Which variant reproduces the exact values (1e-9 per correlation)."""
        return self._VARIANTS.get((self.printed_max_dev <= 1e-9, self.normalized_max_dev <= 1e-9))


def closed_form_chsh(alpha: float, tau: float) -> ClosedFormComparison:
    """Evaluate both closed-form variants and compare with the exact arcs."""
    exact = conditional_chsh(alpha, tau)
    forms = closed_form_correlations(alpha, tau)
    exact_e = (exact.e_ab, exact.e_ab_prime, exact.e_a_prime_b, exact.e_a_prime_b_prime)
    singular = bool(np.isnan(forms).any())
    devs = [math.inf] * 2 if singular else np.abs(forms - exact_e).max(axis=-1).tolist()
    printed, normalized = map(tuple, forms.tolist())
    return ClosedFormComparison(
        exact=exact,
        printed=printed,
        normalized=normalized,
        printed_f=chsh_sum(printed),
        normalized_f=chsh_sum(normalized),
        printed_max_dev=devs[0],
        normalized_max_dev=devs[1],
        singular=singular,
    )


# ---------------------------------------------------------------------------
# tau averages and the region scan
# ---------------------------------------------------------------------------


def singlet_reference(a, b) -> float:
    """Quantum singlet correlation -a.b; the oracle the model must meet."""
    return -float(as_unit_vector(a) @ as_unit_vector(b))


def quantum_chsh_reference(alpha: float) -> float:
    """Singlet CHSH value on the tilted family, straight from dot products
    (works out to -3 cos(2 alpha) + cos(6 alpha))."""
    return chsh_sum([singlet_reference(*uv) for uv in four_directions(_one_number("alpha", alpha))])


def _tau_integral(pairs) -> np.ndarray:
    """int_0^pi g(tau) dtau, exact, g the ``_arc_average`` of each pair of the
    stack ``pairs`` (..., 2, 3); the result has shape (...).

    g = s_1 s_2 (1 - |t_1 - t_2|), where s = sgn(v_z) does not depend on tau
    and t = s q / |(v_z, q)|, q = v_x cos(tau) + v_y sin(tau), has the
    antiderivative T = s atan2(v_x sin(tau) - v_y cos(tau), |(v_z, q)|); the
    atan2 keeps full precision as v_z -> 0, where t turns into a step.
    t_1 - t_2 keeps one sign between the breakpoints 0, pi, tau_v =
    azimuth(v) + pi/2 for each v (the step of t when v_z = 0) and
    azimuth(u x v), where the roots cross (all mod pi), so its integral is
    the sum of |T_1 - T_2| increments between them.
    """
    v = np.asarray(pairs, dtype=float)
    x, y, z = np.moveaxis(v, -1, 0)  # (..., 2)
    cross = np.cross(v[..., 0, :], v[..., 1, :])[..., None, :]
    azimuths = np.concatenate(
        [np.arctan2(x, -y), np.arctan2(cross[..., 1], cross[..., 0])], axis=-1
    )
    ends = np.broadcast_to([0.0, math.pi], azimuths.shape[:-1] + (2,))
    taus = np.sort(np.concatenate([ends, azimuths % math.pi], axis=-1), axis=-1)[..., None, :]
    x, y, z = x[..., None], y[..., None], z[..., None]  # (..., 2, 1) against taus (..., 1, 5)
    q = x * np.cos(taus) + y * np.sin(taus)
    w = x * np.sin(taus) - y * np.cos(taus)
    pole = np.where(z >= 0.0, 1.0, -1.0)
    primitive = pole * np.arctan2(w, np.hypot(z, q))  # T at each breakpoint, (..., 2, 5)
    drift = np.abs(np.diff(primitive[..., 0, :] - primitive[..., 1, :], axis=-1)).sum(axis=-1)
    return pole[..., 0, 0] * pole[..., 1, 0] * (math.pi - drift)


def tau_average_correlation(a, b) -> float:
    """(1/pi) * int_0^pi E_tau(a, b) dtau, exact (``_tau_integral``).

    tau is uniform on [0, pi) with density 1/pi (the |sin mu| factor of the
    chart carries the whole surface weight); the average must reproduce the
    quantum value -a.b.
    """
    return -float(_tau_integral(rotated_settings(a, b))) / math.pi


def tau_average_chsh(alpha: float) -> float:
    """(1/pi) * int_0^pi F_tau(alpha) dtau, exact (``_tau_integral``); must
    reproduce the quantum value -3 cos(2 alpha) + cos(6 alpha)."""
    return float(chsh_sum(-_tau_integral(_rotated_family(_one_number("alpha", alpha))))) / math.pi


#: Cells per ``_arc_average`` call of the scan: whole alpha rows are stacked
#: up to this many cells, and a longer row is one call by itself.  A block is
#: also all of the grid that ``crypto scan`` holds at once: its e, f and
#: class codes, the kernel's temporaries over it and its rows as text.
_SCAN_BLOCK_CELLS = 1536


@dataclass(frozen=True, eq=False)
class RegionScan:
    """Columnar values of the scan on a block of whole alpha rows: the full
    n_alpha x n_tau grid from ``region_scan``, or one block of it.

    ``alphas`` (n_alpha,) and ``taus`` (n_tau,) are the cell centers, ``e``
    (n_alpha, 4, n_tau) the four correlations in CHSH order, ``f`` and
    ``codes`` (n_alpha, n_tau) the CHSH values and their classes as indices
    into ``CLASSES``.  ``len()`` is the cell count.  ``cell(i, j)`` is the one
    place a ``ConditionalChsh`` is built: iterating yields one per cell in
    row-major order, the streamed peak and ``conditional_chsh`` (a 1 x 1
    block) take theirs from it.
    """

    CLASSES = tuple(NonlocalityClass)

    alphas: np.ndarray
    taus: np.ndarray
    e: np.ndarray
    f: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return self.f.size

    def __iter__(self):
        return (self.cell(i, j) for i, j in np.ndindex(self.f.shape))

    def cell(self, i: int, j: int) -> ConditionalChsh:
        """The cell at alpha row i and tau column j, as Python floats."""
        return ConditionalChsh(
            float(self.alphas[i]),
            float(self.taus[j]),
            *self.e[i, :, j].tolist(),
            float(self.f[i, j]),
            self.CLASSES[self.codes[i, j]],
        )

    def class_counts(self) -> np.ndarray:
        """Cells per class, in ``CLASSES`` order."""
        return np.bincount(self.codes.ravel(), minlength=len(self.CLASSES))

    def peak(self) -> ConditionalChsh:
        """The first cell, in row-major order, within 1e-12 of the largest |f|:
        rounding must not choose between cells that tie exactly, such as tau
        mirrors.  The same fold as a streamed scan (``_ScanTally``)."""
        tally = _ScanTally()
        tally.add(self)
        return tally.peak()


class _ScanTally:
    """The cell count, the cells per class and the peak of a scan, folded
    over its blocks in row-major order, so a scan is summed without being held.

    The peak rule is that of ``RegionScan.peak``.  The fold keeps each
    record, a cell larger in |f| than every cell before it, while it is
    within 1e-12 of the running maximum.  The peak is a record, since an
    earlier cell at least as large would qualify too, and the running
    maximum never exceeds the final one, so the peak is never dropped: it is
    the first cell kept.  Records strictly increase, so at most one per
    double of a 1e-12 window is held.
    """

    def __init__(self):
        self.cells = 0
        self.counts = np.zeros(len(RegionScan.CLASSES), dtype=int)
        self._top = -math.inf
        self._kept: list[tuple[float, ConditionalChsh]] = []

    def add(self, block: RegionScan) -> RegionScan:
        """Fold ``block``, the next alpha rows of the scan; returns it."""
        self.cells += len(block)
        self.counts += block.class_counts()
        abs_f = np.abs(block.f).ravel()
        block_top = float(abs_f.max())
        if block_top > self._top:  # else the block holds no record
            floor = block_top - 1e-12
            self._kept = [kept for kept in self._kept if kept[0] >= floor]
            # cells below the floor are below every hit, so a hit is a
            # record when it beats the earlier blocks and the earlier hits
            record = self._top
            for k in np.flatnonzero(abs_f >= floor).tolist():
                if abs_f[k] > record:
                    record = float(abs_f[k])
                    self._kept.append((record, block.cell(*divmod(k, block.f.shape[1]))))
            self._top = block_top
        return block

    def peak(self) -> ConditionalChsh:
        """The first cell, in row-major order, within 1e-12 of the largest |f|."""
        return self._kept[0][1]


def _region_blocks(n_alpha: int, n_tau: int):
    """The scan of ``region_scan`` as an iterator of ``RegionScan`` blocks in
    row-major order: whole alpha rows, at most ``_SCAN_BLOCK_CELLS`` cells
    (or one longer row), from one kernel call each.

    The grid is checked, and the whole family rotated in one call, before
    the first block, so past that only the n_alpha rotated pairs and the
    current block are held.
    """
    n_alpha, n_tau = (_whole_number("grid dimensions", n, 2) for n in (n_alpha, n_tau))
    alphas = (np.arange(n_alpha) + 0.5) * (math.pi / 4.0) / n_alpha
    taus = (np.arange(n_tau) + 0.5) * math.pi / n_tau
    pairs = _rotated_family(alphas)
    rows = max(1, _SCAN_BLOCK_CELLS // n_tau)

    def blocks():
        for start in range(0, n_alpha, rows):
            e, f = _family_chsh(pairs[start : start + rows], taus)
            yield RegionScan(alphas[start : start + rows], taus, e, f, chsh_class_codes(f))

    return blocks()


def region_scan(n_alpha: int = 200, n_tau: int = 200) -> RegionScan:
    """Scan the (alpha, tau) rectangle [0, pi/4] x [0, pi) on cell centers.

    Cell centers keep the scan off the two isolated singular points of the
    closed forms.  Cell (i, j) has alpha = (i + 1/2) (pi/4) / n_alpha and
    tau = (j + 1/2) pi / n_tau.  The grid is computed in the blocks of whole
    alpha rows that ``crypto scan`` streams, one kernel call of at most
    ``_SCAN_BLOCK_CELLS`` cells each (a longer row is one call), and joined
    into one columnar ``RegionScan``, which holds the whole grid.  The
    kernel works cell by cell, so every value is bit-identical to one call
    per row, and the CSV bytes ``scan_to_csv`` writes equal the streamed ones.
    """
    blocks = list(_region_blocks(n_alpha, n_tau))
    alphas, e, f, codes = (
        np.concatenate(column)
        for column in zip(*((block.alphas, block.e, block.f, block.codes) for block in blocks))
    )
    return RegionScan(alphas, blocks[0].taus, e, f, codes)


def scan_to_csv(scan, path: str) -> None:
    """Write a scan as CSV with header alpha,tau,f,class, one line per cell
    in row-major order.

    ``scan`` is a ``RegionScan`` or an iterable of the blocks of one scan in
    order, as ``crypto scan`` passes them.  The file is opened before the
    first block is drawn, and each block is written row by row before the
    next, so a stream is never held whole.  Floats use round-trip decimal
    formatting (``repr``), '.' separator, and lines end in '\\r\\n', as
    ``csv.writer`` writes them with the default dialect.  Each alpha row is
    one write.
    """
    blocks = [scan] if isinstance(scan, RegionScan) else scan
    ends = [f",{cls.value}\r\n" for cls in RegionScan.CLASSES]
    parts = None
    with open(path, "w", newline="") as handle:
        handle.write("alpha,tau,f,class\r\n")
        for block in blocks:
            if parts is None:
                # a line is alpha, ",tau,", f and ",class\r\n"; the blocks of
                # a scan share its tau centers, so each row refills three slots
                parts = [""] * (4 * block.taus.size)
                parts[1::4] = [f",{tau!r}," for tau in block.taus.tolist()]
            rows = zip(block.alphas.tolist(), block.f.tolist(), block.codes.tolist())
            for alpha, f_row, code_row in rows:
                parts[0::4] = [repr(alpha)] * len(f_row)
                parts[2::4] = map(repr, f_row)
                parts[3::4] = map(ends.__getitem__, code_row)
                handle.write("".join(parts))
