"""Tests for the crypto-nonlocal model: chart weight, rotations, outcomes,
exact arcs, closed forms, tau averages and the region scan."""

import csv
import math
from dataclasses import astuple, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nonlocality_lab import crypto_bell
from nonlocality_lab.correlations import chsh_class_codes, classify_chsh
from nonlocality_lab.crypto_bell import (
    _SCAN_BLOCK_CELLS,
    ConditionalChsh,
    RegionScan,
    _arc_average,
    _family_chsh,
    _outcome_bits,
    _region_blocks,
    _rotated_family,
    _ScanTally,
    _tau_integral,
    chi_functions,
    closed_form_chsh,
    closed_form_correlations,
    conditional_chsh,
    conditional_correlation,
    critical_alpha,
    crypto_local_average,
    four_directions,
    gamma_functions,
    mc_joint_correlation,
    quantum_chsh_reference,
    region_scan,
    rotated_settings,
    scan_to_csv,
    singlet_reference,
    tau_average_chsh,
    tau_average_correlation,
)

PI = math.pi
TWO_PI = 2.0 * PI


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def angle(u, v) -> float:
    """The angle between u and v, from atan2, so it is accurate near 0 and pi."""
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def rotated_angle(a, b) -> float:
    """The angle the model rotates (a, b) to, pi sin^2(omega / 2), from the
    angle omega between them."""
    return math.pi * math.sin(angle(a, b) / 2.0) ** 2


def oracle_rotated_settings(a, b) -> np.ndarray:
    """Oracle for ``rotated_settings``: the one-pair body in scalar math,
    with omega from atan2; returns the (2, 3) pair (a_hat, b_hat)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    omega_hat = rotated_angle(a, b)
    mid = a + b
    norm_mid = float(np.linalg.norm(mid))
    if norm_mid <= 1e-12:  # omega = pi
        return np.stack([a, -a])
    bisector = mid / norm_mid
    diff = a - b
    norm_diff = float(np.linalg.norm(diff))
    if norm_diff < 1e-12:  # omega = 0
        return np.stack([a, a])
    side = diff / norm_diff
    c, s = math.cos(omega_hat / 2.0), math.sin(omega_hat / 2.0)
    return np.stack([c * bisector + s * side, c * bisector - s * side])


def mixed_pair_stack(rng, n=400):
    """(n, 3) stacks (a, b): random rows with b = a, b = -a and nearly
    antiparallel rows (b = -a tilted by 1e-14 to 1e-4) mixed in; returns
    a, b and the mask of the exactly degenerate rows."""
    a = rng.normal(size=(n, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.normal(size=(n, 3))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    kind = rng.integers(0, 4, size=n)  # 0 random, 1 equal, 2 antiparallel, 3 nearly antiparallel
    b[kind == 1] = a[kind == 1]
    b[kind == 2] = -a[kind == 2]
    near = np.flatnonzero(kind == 3)
    tilt = 10.0 ** rng.uniform(-14.0, -4.0, size=near.size)[:, None]
    nudged = -a[near] + tilt * np.cross(a[near], rng.normal(size=(near.size, 3)))
    b[near] = nudged / np.linalg.norm(nudged, axis=1, keepdims=True)
    return a, b, (kind == 1) | (kind == 2)


def great_circle_point(mu: float, tau: float) -> np.ndarray:
    """Cartesian point of the chart; at fixed tau, mu traces a great circle
    through the poles: (sin mu cos tau, sin mu sin tau, cos mu)."""
    return np.array(
        [
            math.sin(mu) * math.cos(tau),
            math.sin(mu) * math.sin(tau),
            math.cos(mu),
        ]
    )


def model_outcomes(a, b, mu: float, tau: float) -> tuple[int, int]:
    """Oracle for ``_outcome_bits``: the possessed outcome signs (A, B) at
    hidden variable (mu, tau), one point in scalar sign arithmetic.

    B is evaluated on b_hat, which depends on a as well — the model is
    manifestly nonlocal at this level.
    """

    def sgn(r: float) -> int:  # sgn(0) = +1 by convention
        return 1 if r >= 0.0 else -1

    a_hat, b_hat = rotated_settings(a, b)
    lam = great_circle_point(mu, tau)
    return sgn(float(a_hat @ lam)), -sgn(float(b_hat @ lam))


def riemann_correlation(a, b, tau, nodes=100_000):
    """Independent dense midpoint sum of the conditional correlation."""
    a_hat, b_hat = rotated_settings(a, b)
    mu = (np.arange(nodes) + 0.5) * (2.0 * PI / nodes)
    lam = np.stack(
        [np.sin(mu) * math.cos(tau), np.sin(mu) * math.sin(tau), np.cos(mu)], axis=1
    )
    a_signs = np.where(lam @ a_hat >= 0.0, 1.0, -1.0)
    b_signs = np.where(lam @ b_hat >= 0.0, -1.0, 1.0)
    weights = np.abs(np.sin(mu)) * (2.0 * PI / nodes)
    return float((a_signs * b_signs * weights).sum() / 4.0)


def abs_sin_integral(lo, hi):
    """Exact integral of |sin t| over [lo, hi], 0 <= lo <= hi; elementwise
    on arrays."""

    def antiderivative(t):
        k = np.floor(t / math.pi)
        return 2.0 * k + 1.0 - np.cos(t - k * math.pi)

    return antiderivative(hi) - antiderivative(lo)


def generic_arc_average(vectors, taus) -> np.ndarray:
    """Oracle for ``_arc_average``: the generic k-vector kernel that sorts
    the 2k roots and evaluates the sign product at each arc's midpoint.

    (1/4) * int_0^{2pi} prod_v sgn(v . lam(mu, tau)) |sin mu| dmu, exact.

    ``vectors`` has shape (..., k, 3), one set of k vectors per leading
    index, and ``taus`` shape (T,); the result has shape (..., T).  On the
    circle tau each projection v . lam = p cos(mu) + q sin(mu) flips sign at
    exactly two angles, so the product is piecewise constant on at most 2k
    arcs; |sin| integrates in closed form on each.  A projection that
    vanishes identically (the circle lies in the plane orthogonal to v) has
    the constant sign sgn(0) = +1 and adds no break.
    """
    v = np.asarray(vectors, dtype=float)[..., None, :, :]
    taus = np.asarray(taus, dtype=float)[:, None]
    q = v[..., 0] * np.cos(taus) + v[..., 1] * np.sin(taus)  # (..., T, k)
    p = np.broadcast_to(v[..., 2], q.shape)
    vanish = np.hypot(p, q) < 1e-15
    m = np.arctan2(q, p)
    roots = np.concatenate([m - math.pi / 2.0, m + math.pi / 2.0], axis=-1) % TWO_PI
    no_root = np.concatenate([vanish, vanish], axis=-1)
    # A vanishing projection's two slots copy the first real break; the
    # zero-length arcs this makes drop out below, so the sum is unchanged.
    first = np.where(no_root, np.inf, roots).min(axis=-1, keepdims=True)
    first = np.where(np.isinf(first), 0.0, first)
    lo = np.sort(np.where(no_root, first, roots), axis=-1)  # (..., T, 2k)
    hi = np.concatenate([lo[..., 1:], lo[..., :1] + TWO_PI], axis=-1)
    mid = (0.5 * (lo + hi))[..., None]
    projections = p[..., None, :] * np.cos(mid) + q[..., None, :] * np.sin(mid)
    signs = np.where((projections >= 0.0) | vanish[..., None, :], 1.0, -1.0).prod(axis=-1)
    arcs = np.where(hi - lo < 1e-15, 0.0, signs * abs_sin_integral(lo, hi))
    return arcs.sum(axis=-1) / 4.0


#: The oracle tau rule: cells that halve TAU_LEVELS times toward both ends of
#: each interval between breakpoints, with TAU_ORDER Gauss-Legendre nodes per cell.
TAU_LEVELS = 26
TAU_ORDER = 12
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(TAU_ORDER)


def oracle_tau_rule(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``_tau_integral``: nodes and weights of a graded composite
    Gauss-Legendre rule for int_0^pi g(tau) dtau, g the ``_arc_average`` of
    the vector stack ``vectors`` (..., k, 3).

    g is smooth between the breakpoints 0, pi, tau_v = azimuth(v) + pi/2 for
    each v, and azimuth(u x v) for each pair u, v of a set, where their roots
    cross (all mod pi).  Near tau_v the root of v swings by pi within a layer
    |tau - tau_v| ~ |v_z| / |v_xy| of any width, hence the geometric mesh
    (Davis & Rabinowitz 1984; Schwab 1998).
    """
    v = np.asarray(vectors, dtype=float)
    i, j = np.triu_indices(v.shape[-2], 1)
    crosses = np.cross(v[..., i, :], v[..., j, :])
    orthogonal = np.arctan2(v[..., 1], v[..., 0]).ravel() + PI / 2.0
    crossing = np.arctan2(crosses[..., 1], crosses[..., 0]).ravel()
    breaks = np.unique(np.concatenate([[0.0, PI], orthogonal % PI, crossing % PI]))
    half = np.concatenate([[0.0], 0.5 ** np.arange(TAU_LEVELS, 0, -1)])  # 0, 2**-L, ..., 1/2
    unit = np.concatenate([half, 1.0 - half[-2::-1]])  # cell edges on [0, 1]
    edges = breaks[:-1, None] + np.diff(breaks)[:, None] * unit  # (intervals, cells + 1)
    lo, width = edges[:, :-1, None], np.diff(edges)[..., None]
    nodes = lo + width * (GAUSS_NODES + 1.0) / 2.0
    return nodes.ravel(), (width * GAUSS_WEIGHTS / 2.0).ravel()


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------


class TestPolarChart:
    def test_weight_normalization(self):
        # the |sin mu| weight integrates to 4 over one revolution (exactly),
        # so the chart covers the full sphere area 4*pi with d(tau) = pi
        assert abs_sin_integral(0.0, 2.0 * PI) == 4.0
        assert abs_sin_integral(0.0, PI) == 2.0
        assert abs_sin_integral(PI / 2, 3 * PI / 2) == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# rotated settings
# ---------------------------------------------------------------------------


class TestRotatedSettings:
    def test_fixed_point_right_angle(self):
        a = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        b = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2)
        a_hat, b_hat = rotated_settings(a, b)
        assert angle(a, b) == pytest.approx(PI / 2)
        assert angle(a_hat, b_hat) == pytest.approx(PI / 2)
        np.testing.assert_allclose(a_hat, a, atol=1e-12)
        np.testing.assert_allclose(b_hat, b, atol=1e-12)

    def test_collapse_at_zero(self):
        a = np.array([0.0, 0.6, 0.8])
        a_hat, b_hat = rotated_settings(a, a)
        assert angle(a_hat, b_hat) == 0.0
        np.testing.assert_allclose(a_hat, a)
        np.testing.assert_allclose(b_hat, a)

    def test_pi_sin_squared_relation(self):
        # omega = pi/3 rotates to pi * sin^2(pi/6) = pi/4
        a = np.array([math.sin(PI / 6), 0.0, math.cos(PI / 6)])
        b = np.array([-math.sin(PI / 6), 0.0, math.cos(PI / 6)])
        a_hat, b_hat = rotated_settings(a, b)
        assert angle(a, b) == pytest.approx(PI / 3, abs=1e-12)
        assert angle(a_hat, b_hat) == pytest.approx(PI / 4, abs=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_unit(rng), random_unit(rng)
            a_hat, b_hat = rotated_settings(a, b)
            # rotated angle matches pi sin^2(omega/2)
            cos_hat = float(np.clip(a_hat @ b_hat, -1, 1))
            assert math.acos(cos_hat) == pytest.approx(rotated_angle(a, b), abs=1e-9)
            # coplanar with (a, b): triple products vanish
            normal = np.cross(a, b)
            assert abs(normal @ a_hat) < 1e-9
            assert abs(normal @ b_hat) < 1e-9
            # symmetric about the bisector
            bisector = a + b
            assert a_hat @ bisector == pytest.approx(b_hat @ bisector, abs=1e-9)
            # unit norms
            assert np.linalg.norm(a_hat) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(b_hat) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_with_fixed_points(self):
        omegas = np.linspace(0.0, PI, 101)
        hats = PI * np.sin(omegas / 2.0) ** 2
        assert hats[0] == 0.0
        assert hats[50] == pytest.approx(PI / 2)
        assert hats[-1] == pytest.approx(PI)
        assert np.all(np.diff(hats) > 0)
        # below pi/2 the angle shrinks, above it grows
        mid = 50
        assert np.all(hats[1:mid] < omegas[1:mid])
        assert np.all(hats[mid + 1 : -1] > omegas[mid + 1 : -1])

    def test_antiparallel_gives_opposite_rotated(self):
        a = np.array([0.0, 0.6, 0.8])
        a_hat, b_hat = rotated_settings(a, -a)
        assert angle(a, -a) == pytest.approx(PI)
        assert angle(a_hat, b_hat) == pytest.approx(PI)
        np.testing.assert_array_equal(a_hat, a)
        np.testing.assert_array_equal(b_hat, -a)


class TestStackedRotation:
    def test_matches_scalar_oracle(self):
        a, b, degenerate = mixed_pair_stack(np.random.default_rng(11))
        pairs = rotated_settings(a, b)
        assert pairs.shape == (len(a), 2, 3)
        for i in range(len(a)):
            want = oracle_rotated_settings(a[i], b[i])
            if degenerate[i]:
                np.testing.assert_array_equal(pairs[i], want)
            else:
                np.testing.assert_allclose(pairs[i], want, rtol=0.0, atol=1e-15)
            assert angle(*pairs[i]) == pytest.approx(rotated_angle(a[i], b[i]), abs=2e-15)

    def test_rows_equal_single_calls_bitwise(self):
        a, b, _ = mixed_pair_stack(np.random.default_rng(12), n=200)
        stacked = rotated_settings(a.reshape(10, 20, 3), b.reshape(10, 20, 3))
        for i, j in np.ndindex(10, 20):
            single = rotated_settings(a[20 * i + j], b[20 * i + j])
            assert single.shape == (2, 3)
            assert single.tobytes() == stacked[i, j].tobytes()

    def test_broadcasts_one_vector_against_a_stack(self):
        a, b, _ = mixed_pair_stack(np.random.default_rng(13), n=20)
        pairs = rotated_settings(a[0], b)
        for j in range(len(b)):
            assert pairs[j].tobytes() == rotated_settings(a[0], b[j]).tobytes()

    def test_family_stack_equals_per_alpha_calls(self):
        alphas = (np.arange(1000) + 0.5) * (PI / 4.0) / 1000
        stacked = _rotated_family(alphas)
        assert stacked.shape == (1000, 4, 2, 3)
        for i, alpha in enumerate(alphas.tolist()):
            assert stacked[i].tobytes() == _rotated_family(alpha).tobytes()

    def test_region_scan_rotates_once(self, monkeypatch):
        calls = []

        def spy(a, b):
            calls.append(np.shape(a))
            return rotated_settings(a, b)

        monkeypatch.setattr(crypto_bell, "rotated_settings", spy)
        region_scan(1000, 40)
        assert calls == [(1000, 4, 3)]


# ---------------------------------------------------------------------------
# outcomes and exact arcs
# ---------------------------------------------------------------------------


@st.composite
def outcome_cases(draw):
    """(a, b, mu, tau) for the outcome oracle.  Half the cases are exact ties
    a_hat . lam = b_hat . lam = 0: horizontal a and b rotate to horizontal
    a_hat and b_hat, and mu = 0 is the pole lam = (0, 0, 1)."""
    tie = draw(st.booleans())

    def unit():
        v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        if tie:
            v[2] = 0.0
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 0.1 else np.array([1.0, 0.0, 0.0])

    a, b = unit(), unit()
    mu = 0.0 if tie else draw(st.floats(0.0, 2.0 * PI, exclude_max=True))
    return a, b, mu, draw(st.floats(0.0, PI, exclude_max=True))


class TestModelOutcomes:
    @given(outcome_cases())
    @example((np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 0.0, 0.0))
    @example((np.array([0.6, 0.8, 0.0]), np.array([-0.6, -0.8, 0.0]), 0.0, 1.0))
    @example((np.array([0.6, 0.8, 0.0]), np.array([0.0, 1.0, 0.0]), 0.0, 2.0))
    def test_kernel_matches_scalar_oracle(self, case):
        a, b, mu, tau = case
        a_hat, b_hat = rotated_settings(a, b)
        lam = great_circle_point(mu, tau)
        if a[2] == b[2] == mu == 0.0:  # the tie cases really tie
            assert a_hat @ lam == 0.0 and b_hat @ lam == 0.0
        A, B = _outcome_bits(lam[None] @ a_hat, lam[None] @ b_hat)
        assert A.shape == B.shape == (1,)
        assert (1 - 2 * int(A[0]), 1 - 2 * int(B[0])) == model_outcomes(a, b, mu, tau)

    def test_equal_settings_anticorrelate(self):
        rng = np.random.default_rng(4)
        points = rng.uniform([0.0, 0.0], [2.0 * PI, PI], size=(50, 2))
        lam = np.array([great_circle_point(mu, tau) for mu, tau in points])
        for _ in range(50):
            a = random_unit(rng)
            a_hat, b_hat = rotated_settings(a, a)
            A, B = _outcome_bits(lam @ a_hat, lam @ b_hat)
            assert A.dtype == B.dtype == bool
            np.testing.assert_array_equal(A, ~B)

    def test_constant_product_on_special_circle(self):
        # x-z plane settings at alpha = pi/4 against the tau = pi/2 circle:
        # both rotated projections are proportional to cos(mu)
        a, b = four_directions(PI / 4)[0]
        a_hat, b_hat = rotated_settings(a, b)
        lam = np.array([great_circle_point(mu, PI / 2) for mu in np.linspace(0.0, 2.0 * PI, 37)])
        A, B = _outcome_bits(lam @ a_hat, lam @ b_hat)
        assert (A != B).all()

    def test_mc_stream_is_pinned(self):
        # pinned bit for bit: a change to the crypto-mc-lam stream, the
        # outcome rule or the counting shows here
        a_dir, b_dir = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.8, -0.6])
        z, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        assert mc_joint_correlation(a_dir, b_dir, 100_003, 17) == (
            0.47981560553183406,
            0.002774457765864044,
        )
        assert mc_joint_correlation(z, x, 5_000, 3) == (-0.0196, 0.014140833095405887)

    def test_full_sphere_average_is_singlet(self):
        rng = np.random.default_rng(5)
        for k in range(5):
            a, b = random_unit(rng), random_unit(rng)
            mean, stderr = mc_joint_correlation(a, b, 200_000, seed=100 + k)
            assert abs(mean - singlet_reference(a, b)) < 5.0 * stderr + 0.005


class TestConditionalCorrelation:
    def test_frozen_value_quarter_alpha(self):
        a, b = four_directions(PI / 4)[0]
        value = conditional_correlation(a, b, 0.0)
        assert value == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_special_circle_value(self):
        a, b = four_directions(PI / 4)[0]
        assert conditional_correlation(a, b, PI / 2) == pytest.approx(
            -1.0, abs=1e-15
        )

    def test_equal_settings_any_tau(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_unit(rng)
            tau = rng.uniform(0.0, PI)
            assert conditional_correlation(a, a, tau) == pytest.approx(-1.0, abs=1e-15)

    def test_antiparallel_settings_any_tau(self):
        # b = -a makes the rotated pair exactly antiparallel: perfect
        # correlation, exactly, for any tau
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a = random_unit(rng)
            tau = rng.uniform(0.0, PI)
            assert conditional_correlation(a, -a, tau) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, bad):
        a, b = four_directions(0.3)[0]
        for call in (
            lambda: conditional_correlation(a, b, bad),
            lambda: crypto_local_average(np.array([0.0, 0.0, 1.0]), bad),
            lambda: conditional_chsh(0.3, bad),
            lambda: closed_form_chsh(0.3, bad),
        ):
            with pytest.raises(ValueError, match="tau must be finite"):
                call()

    def test_matches_dense_riemann(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = random_unit(rng), random_unit(rng)
            tau = rng.uniform(0.0, PI)
            exact = conditional_correlation(a, b, tau)
            dense = riemann_correlation(a, b, tau)
            assert abs(exact - dense) < 1e-4
            assert -1.0 <= exact <= 1.0


class TestVanishingProjection:
    # u is orthogonal to the whole circle tau, so u . lam(mu) vanishes
    # identically and carries the constant sign sgn(0) = +1
    CASES = ((np.array([1.0, 0.0, 0.0]), PI / 2), (np.array([0.0, 1.0, 0.0]), 0.0))

    def test_factor_drops_out(self):
        rng = np.random.default_rng(15)
        for u, tau in self.CASES:
            taus = np.array([tau, tau])
            for _ in range(20):
                w = random_unit(rng)
                np.testing.assert_array_equal(
                    _arc_average([u, w], taus), _arc_average([w], taus)
                )

    def test_alone_averages_to_one(self):
        for u, tau in self.CASES:
            assert _arc_average([u], [tau])[0] == 1.0
            assert crypto_local_average(u, tau) == 1.0

    def test_family_at_critical_alpha(self):
        # at the critical alpha one rotated vector of each cross pair sits at
        # polar angle gamma_3/2 = pi/2, on the x axis, orthogonal to the
        # tau = pi/2 circle up to rounding; what is left is a one-vector
        # average, which vanishes
        result = conditional_chsh(critical_alpha(), PI / 2)
        assert result.e_ab_prime == pytest.approx(0.0, abs=1e-12)
        assert result.e_a_prime_b == pytest.approx(0.0, abs=1e-12)


class TestArcKernelShapes:
    def test_batched_matches_single_calls(self):
        rng = np.random.default_rng(16)
        vectors = np.array([[random_unit(rng) for _ in range(2)] for _ in range(3)])
        taus = rng.uniform(0.0, PI, size=7)
        batched = _arc_average(vectors, taus)
        assert batched.shape == (3, 7)
        for s, pair in enumerate(vectors):
            for t, tau in enumerate(taus):
                assert batched[s, t] == pytest.approx(_arc_average(pair, [tau])[0], abs=1e-15)


def unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def near_horizontal(rng, size):
    """Unit vectors with |v_z| from 1e-9 to 1e-2 and random azimuths."""
    z = np.logspace(-9, -2, size) * rng.choice([-1.0, 1.0], size)
    phi = rng.uniform(0.0, TWO_PI, size)
    return unit_rows(np.stack([np.cos(phi), np.sin(phi), z], axis=-1))


def circle_normals(taus):
    """(-sin tau, cos tau, 0): orthogonal to the whole circle tau."""
    taus = np.asarray(taus)
    return np.stack([-np.sin(taus), np.cos(taus), np.zeros_like(taus)], axis=-1)


def oracle_pairs(size=400, seed=17):
    """Named (size, 2, 3) stacks of unit pairs for the oracle comparison."""
    rng = np.random.default_rng(seed)
    u, w = unit_rows(rng.normal(size=(2, size, 3)))
    flat, other_flat = near_horizontal(rng, size), near_horizontal(rng, size)
    return {
        "generic": np.stack([u, w], axis=1),
        "near-horizontal first": np.stack([flat, w], axis=1),
        "near-horizontal second": np.stack([u, flat], axis=1),
        "near-horizontal both": np.stack([flat, other_flat], axis=1),
        "equal": np.stack([u, u], axis=1),
        "antiparallel": np.stack([u, -u], axis=1),
        "equal near-horizontal": np.stack([flat, flat], axis=1),
        "antiparallel near-horizontal": np.stack([flat, -flat], axis=1),
    }


class TestArcKernelOracle:
    # the two-sign closed form against the generic sort kernel
    # ``generic_arc_average``, at 1e-14

    @pytest.mark.parametrize("case", list(oracle_pairs()))
    def test_pairs_match_generic_kernel(self, case):
        pairs = oracle_pairs()[case]
        rng = np.random.default_rng(18)
        # random circles, plus the circles that meet the first vectors in a
        # layer of width ~|v_z| (near-horizontal cases)
        layer = (np.arctan2(pairs[:16, 0, 1], pairs[:16, 0, 0]) + PI / 2.0) % PI
        taus = np.concatenate([rng.uniform(0.0, PI, size=24), layer, layer + 1e-7])
        np.testing.assert_allclose(
            _arc_average(pairs, taus), generic_arc_average(pairs, taus), rtol=0.0, atol=1e-14
        )

    def test_single_vector_is_exactly_zero(self):
        rng = np.random.default_rng(19)
        vectors = np.concatenate([unit_rows(rng.normal(size=(300, 3))), near_horizontal(rng, 300)])
        taus = rng.uniform(0.0, PI, size=30)
        got = _arc_average(vectors[:, None, :], taus)
        assert np.all(got == 0.0)
        np.testing.assert_allclose(
            got, generic_arc_average(vectors[:, None, :], taus), rtol=0.0, atol=1e-14
        )

    @pytest.mark.parametrize("k, slots", [(1, (0,)), (2, (0,)), (2, (1,)), (2, (0, 1))])
    def test_circle_normal_slots(self, k, slots):
        # row j of the stack holds the normal of circle taus[j] in ``slots``
        rng = np.random.default_rng(20)
        taus = rng.uniform(0.0, PI, size=12)
        stack = unit_rows(rng.normal(size=(len(taus), 50, k, 3)))
        for slot in slots:
            stack[:, :, slot] = circle_normals(taus)[:, None, :]
        got = _arc_average(stack, taus)  # (T, 50, T)
        np.testing.assert_allclose(got, generic_arc_average(stack, taus), rtol=0.0, atol=1e-14)
        diagonal = np.arange(len(taus))
        on_own_circle = got[diagonal, :, diagonal]
        assert np.all(on_own_circle == (1.0 if len(slots) == k else 0.0))
        if k == 1:
            off_circle = ~np.eye(len(taus), dtype=bool)[:, None, :].repeat(50, axis=1)
            assert np.all(got[off_circle] == 0.0)

    def test_equal_and_antiparallel_are_exact(self):
        pairs = oracle_pairs()
        taus = np.random.default_rng(21).uniform(0.0, PI, size=24)
        for case in ("equal", "equal near-horizontal"):
            assert np.all(_arc_average(pairs[case], taus) == 1.0)
        for case in ("antiparallel", "antiparallel near-horizontal"):
            assert np.all(_arc_average(pairs[case], taus) == -1.0)

    def test_more_than_two_vectors_rejected(self):
        with pytest.raises(ValueError):
            _arc_average(np.eye(3), [0.5])


class TestLocalAverage:
    def test_pole_direction(self):
        assert crypto_local_average(np.array([0.0, 0.0, 1.0]), 1.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_vanishes_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = random_unit(rng)
            tau = rng.uniform(0.0, PI)
            assert abs(crypto_local_average(a, tau)) <= 1e-12

    def test_vanishes_for_model_rotated_vector(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = random_unit(rng), random_unit(rng)
            tau = rng.uniform(0.0, PI)
            assert abs(crypto_local_average(rotated_settings(a, b)[0], tau)) <= 1e-12

    def test_skew_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_unit(rng)
            tau = rng.uniform(0.0, PI)
            forward = crypto_local_average(a, tau)
            backward = crypto_local_average(-a, tau)
            assert abs(forward + backward) <= 2e-12


# ---------------------------------------------------------------------------
# the tilted family and closed forms
# ---------------------------------------------------------------------------


class TestFourDirections:
    def test_collapse_at_zero(self):
        for v in four_directions(0.0).reshape(-1, 3):
            np.testing.assert_allclose(v, [0.0, 0.0, 1.0], atol=1e-15)

    def test_pi_over_six(self):
        a_prime, b_prime = four_directions(PI / 6)[3]
        np.testing.assert_allclose(a_prime, [-1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(b_prime, [1.0, 0.0, 0.0], atol=1e-12)

    def test_ab_angle_is_two_alpha(self):
        for alpha in np.linspace(0.0, PI / 4, 11):
            a, b = four_directions(alpha)[0]
            dot = float(np.clip(a @ b, -1, 1))
            assert math.acos(dot) == pytest.approx(2.0 * alpha, abs=1e-9)

    def test_pairs_hold_the_four_vectors_in_chsh_order(self):
        # a, a', b, b' at polar angles alpha, -3 alpha, -alpha, 3 alpha, each
        # computed alone, paired (a, b), (a, b'), (a', b), (a', b') bit for bit
        alphas = np.linspace(0.0, PI / 4, 37)
        theta = np.multiply.outer(alphas, [1.0, -3.0, -1.0, 3.0])
        vectors = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
        a, a_prime, b, b_prime = np.moveaxis(vectors, -2, 0)
        pairs = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
        want = np.stack([np.stack(pair, axis=-2) for pair in pairs], axis=-3)
        assert four_directions(alphas).tobytes() == want.tobytes()

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            four_directions(-0.1)
        with pytest.raises(ValueError):
            four_directions(PI / 2)

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, PI / 4 + 1e-9, math.inf])
    def test_array_with_one_bad_alpha_rejected(self, bad):
        alphas = np.linspace(0.0, PI / 4, 7)
        alphas[3] = bad
        with pytest.raises(ValueError, match="alpha"):
            four_directions(alphas)

    @pytest.mark.parametrize(
        "bad",
        ["0.3", True, np.array(0.3, dtype=object), 0.3 + 0j, ["0.1", "0.2"], [False, True]],
        ids=["str", "bool", "object", "complex", "str-array", "bool-array"],
    )
    @pytest.mark.parametrize(
        "entry",
        [
            four_directions,
            tau_average_chsh,
            quantum_chsh_reference,
            gamma_functions,
            lambda bad: chi_functions(bad, 1.0),
            lambda bad: chi_functions(0.3, bad),
        ],
        ids=[
            "four_directions", "tau_average_chsh", "quantum_chsh_reference", "gamma_functions",
            "chi_functions-alpha", "chi_functions-tau",
        ],
    )
    def test_non_numeric_alpha_rejected(self, entry, bad):
        with pytest.raises(ValueError, match="int or float"):
            entry(bad)

    @pytest.mark.parametrize(
        "entry",
        [
            tau_average_chsh,
            quantum_chsh_reference,
            lambda alpha: conditional_chsh(alpha, 1.0),
            lambda alpha: closed_form_chsh(alpha, 1.0),
        ],
        ids=["tau_average_chsh", "quantum_chsh_reference", "conditional_chsh", "closed_form_chsh"],
    )
    def test_one_alpha_entry_points_take_only_a_scalar(self, entry):
        # a stack of alphas is named as such, and a 0-d array is a scalar
        for stack in ([0.3], (0.3, 0.4), np.array([0.3]), np.full((1, 1), 0.3)):
            with pytest.raises(ValueError, match="alpha must be a scalar"):
                entry(stack)
        assert entry(np.array(0.3)) == entry(0.3)

    @pytest.mark.parametrize("alpha", [0, np.int64(0), 0.5, np.float32(0.5), np.float64(0.5)])
    def test_int_and_float_alpha_accepted(self, alpha):
        family = four_directions(alpha)
        assert family.dtype == np.float64
        assert family.tobytes() == four_directions(float(alpha)).tobytes()

    def test_array_rows_equal_scalar_calls(self):
        alphas = np.linspace(0.0, PI / 4, 37)
        stacked = four_directions(alphas)
        for i, alpha in enumerate(alphas.tolist()):
            single = four_directions(alpha)
            assert single.shape == (4, 2, 3)
            assert stacked[i].tobytes() == single.tobytes()


def oracle_gamma_functions(alpha: float) -> tuple[float, float, float, float]:
    """Oracle for ``gamma_functions``: the old scalar body.  Squares are
    products, as in the arrays: ``x ** 2`` on a Python float calls libm pow,
    which rounds about 1 square in 1 300 one ulp off."""
    s2 = math.pi * (math.sin(alpha) * math.sin(alpha))
    s6 = math.sin(3.0 * alpha)
    return (s2, math.pi * (s6 * s6), 4.0 * alpha + s2, 4.0 * alpha - s2)


def oracle_chi_functions(alpha: float, tau: float, normalized: bool = False):
    """Oracle for ``chi_functions`` and its halved variant: the old per-gamma loop."""
    out = []
    cos_tau = math.cos(tau)
    for gamma in oracle_gamma_functions(alpha):
        if gamma <= 0.0:
            out.append(0.0)
            continue
        cot_half = math.cos(gamma / 2.0) / math.sin(gamma / 2.0)
        if abs(cos_tau) < 1e-12 and abs(cot_half) < 1e-12:
            out.append(math.nan)
            continue
        value = 2.0 * cos_tau / math.sqrt(cos_tau * cos_tau + cot_half * cot_half)
        out.append(value / 2.0 if normalized else value)
    return tuple(out)


def oracle_closed_form_correlations(alpha: float, tau: float, normalized: bool):
    """Oracle for one variant of ``closed_form_correlations``: the old scalar body."""
    x1, x2, x3, x4 = oracle_chi_functions(alpha, tau, normalized=normalized)
    e_ab = 2.0 * abs(x1) - 1.0
    e_apbp = 2.0 * abs(x2) - 1.0
    if alpha <= critical_alpha():
        cross = abs(x3 - x4) - 1.0
    else:
        cross = 1.0 - abs(x3 + x4)
    return e_ab, cross, cross, e_apbp


def oracle_closed_forms(alpha: float, tau: float) -> np.ndarray:
    """Both variants from the oracle, stacked (2, 4) like ``closed_form_correlations``."""
    return np.array([oracle_closed_form_correlations(alpha, tau, n) for n in (False, True)])


def assert_within_one_ulp(got, want):
    """Equal NaN positions; elsewhere |got - want| <= one ulp of want."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = np.isnan(want) | (np.abs(got - want) <= np.spacing(np.abs(want)))
    assert ok.all(), f"{int((~ok).sum())} components off by more than 1 ulp"


class TestGammaAndChi:
    def test_gamma_values(self):
        g1, g2, g3, g4 = gamma_functions(PI / 6)
        assert g2 == pytest.approx(PI, abs=1e-15)
        assert np.array_equal(gamma_functions(0.0), np.zeros(4))
        g1, g2, g3, g4 = gamma_functions(PI / 4)
        assert g1 == pytest.approx(PI / 2, abs=1e-15)
        assert g3 == pytest.approx(3 * PI / 2, abs=1e-15)
        assert g4 == pytest.approx(PI / 2, abs=1e-15)

    def test_critical_alpha(self):
        root = critical_alpha()
        assert 0.561 <= root <= 0.563
        assert abs(4.0 * root + PI * math.sin(root) ** 2 - PI) < 1e-10
        # uniqueness: the bracket function is strictly increasing
        grid = np.linspace(0.0, PI / 2, 200)
        values = 4.0 * grid + PI * np.sin(grid) ** 2
        assert np.all(np.diff(values) > 0)

    def test_chi_vanishes_at_half_pi(self):
        # cos(pi/2) is ~6e-17 in floating point, so "vanishes" means that
        for value in chi_functions(0.3, PI / 2):
            assert abs(value) < 1e-15

    def test_chi_printed_value(self):
        x1, _, _, _ = chi_functions(PI / 4, 0.0)
        assert x1 == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_chi_singular_marker(self):
        values = chi_functions(PI / 6, PI / 2)
        assert math.isnan(values[1])
        assert abs(values[0]) < 1e-15


class TestConditionalChsh:
    def test_frozen_correlation(self):
        result = conditional_chsh(PI / 4, 0.0)
        assert result.e_ab == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_near_singular_point(self):
        for tau in (PI / 2 - 0.01, PI / 2 + 0.01):
            result = conditional_chsh(PI / 6, tau)
            assert abs(result.f) > 3.8
            assert result.nonlocality.value == "superquantum"

    def test_degenerate_alpha_zero(self):
        result = conditional_chsh(0.0, PI / 4)
        for e in (result.e_ab, result.e_ab_prime, result.e_a_prime_b,
                  result.e_a_prime_b_prime):
            assert e == pytest.approx(-1.0, abs=1e-15)
        assert result.f == pytest.approx(-2.0, abs=1e-15)

    def test_cross_pair_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            alpha = rng.uniform(0.0, PI / 4)
            tau = rng.uniform(0.0, PI)
            result = conditional_chsh(alpha, tau)
            assert result.e_ab_prime == pytest.approx(result.e_a_prime_b, abs=1e-12)
            assert abs(result.f) <= 4.0


class TestClosedForms:
    def test_regime_one_at_half_pi(self):
        # tau = pi/2 with alpha below pi/6: every chi vanishes, F = -2
        comparison = closed_form_chsh(0.3, PI / 2)
        assert comparison.printed_f == pytest.approx(-2.0, abs=1e-15)
        assert comparison.normalized_f == pytest.approx(-2.0, abs=1e-15)

    def test_normalized_matches_exact(self):
        normalized = closed_form_correlations(PI / 4, 0.0)[1]
        assert normalized[0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_printed_exceeds_unit_interval(self):
        printed = closed_form_correlations(PI / 4, 0.0)[0]
        assert printed[0] == pytest.approx(2.0 * math.sqrt(2.0) - 1.0, abs=1e-12)
        assert printed[0] > 1.0  # the discrepancy being flagged

    def test_comparison_names_normalized(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            alpha = rng.uniform(0.0, PI / 4)
            tau = rng.uniform(0.0, PI)
            if abs(tau - PI / 2) < 0.05:
                continue
            comparison = closed_form_chsh(alpha, tau)
            assert comparison.matching_variant == "normalized"
            assert comparison.normalized_max_dev <= 1e-9
            assert comparison.printed_max_dev > 1e-9

    def test_singular_point_flagged(self):
        comparison = closed_form_chsh(PI / 6, PI / 2)
        assert comparison.singular
        assert comparison.matching_variant is None

    @pytest.mark.parametrize(
        "printed_dev, normalized_dev, want",
        [
            (0.0, 1e-3, "printed"),
            (1e-3, 1e-9, "normalized"),
            (1e-9, 0.0, "both"),
            (2e-9, 1e-3, None),
            (math.inf, math.nan, None),
        ],
    )
    def test_matching_variant_for_each_outcome(self, printed_dev, normalized_dev, want):
        comparison = replace(
            closed_form_chsh(0.5, 0.7), printed_max_dev=printed_dev, normalized_max_dev=normalized_dev
        )
        assert comparison.matching_variant == want

    def test_branches_agree_at_critical_alpha(self):
        alpha = critical_alpha()
        tau = 0.7
        x1, x2, x3, x4 = chi_functions(alpha, tau) / 2.0
        regime1 = abs(x3 - x4) - 1.0
        regime2 = 1.0 - abs(x3 + x4)
        assert regime1 == pytest.approx(regime2, abs=1e-9)


def random_points(n: int, seed: int):
    """n uniform (alpha, tau) points of [0, pi/4] x [0, pi), as two arrays."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, PI / 4, n), rng.uniform(0.0, PI, n)


#: (alpha, tau) with singular components, and the components that are NaN
SINGULAR_POINTS = (
    ((PI / 6, PI / 2), [3]),  # gamma_2 = pi: e_a'b'
    ((critical_alpha(), PI / 2), [1, 2]),  # gamma_3 = pi: both cross pairs
)


class TestClosedFormArrays:
    """The array contract of gamma, chi and both closed-form variants."""

    def points(self):
        alphas, taus = random_points(300, 31)
        extra = [point for point, _ in SINGULAR_POINTS] + [(0.0, 0.7), (PI / 4, 0.0)]
        return np.append(alphas, [a for a, _ in extra]), np.append(taus, [t for _, t in extra])

    def test_shapes_and_variant_axis(self):
        alphas, taus = random_points(6, 32)
        assert gamma_functions(alphas).shape == (6, 4)
        assert chi_functions(alphas, taus).shape == (6, 4)
        assert chi_functions(alphas[:, None], taus).shape == (6, 6, 4)
        assert closed_form_correlations(alphas[:, None], taus).shape == (2, 6, 6, 4)
        assert closed_form_correlations(0.3, 1.0).shape == (2, 4)
        printed, normalized = closed_form_correlations(0.3, 1.0)
        assert np.array_equal(normalized[[0, 3]], np.abs(chi_functions(0.3, 1.0)[:2]) - 1.0)
        assert np.array_equal(printed[[0, 3]], 2.0 * np.abs(chi_functions(0.3, 1.0)[:2]) - 1.0)

    def test_rows_equal_length_one_calls(self):
        alphas, taus = self.points()
        grid = closed_form_correlations(alphas[:, None], taus[:40])
        rows = (gamma_functions(alphas), chi_functions(alphas, taus),
                closed_form_correlations(alphas, taus))
        for i, (alpha, tau) in enumerate(zip(alphas.tolist(), taus.tolist())):
            singles = (gamma_functions(alpha), chi_functions(alpha, tau),
                       closed_form_correlations(alpha, tau))
            ones = (gamma_functions(alphas[i : i + 1])[0],
                    chi_functions(alphas[i : i + 1], taus[i : i + 1])[0],
                    closed_form_correlations(alphas[i : i + 1], taus[i : i + 1])[:, 0])
            for row, single, one in zip((rows[0][i], rows[1][i], rows[2][:, i]), singles, ones):
                assert single.tobytes() == row.tobytes() == one.tobytes()
            assert grid[:, i].tobytes() == closed_form_correlations(alpha, taus[:40]).tobytes()

    def test_matches_scalar_oracles(self):
        alphas, taus = self.points()
        gammas = gamma_functions(alphas)
        chis = chi_functions(alphas, taus)
        forms = closed_form_correlations(alphas, taus)
        for i, (alpha, tau) in enumerate(zip(alphas.tolist(), taus.tolist())):
            assert_within_one_ulp(gammas[i], oracle_gamma_functions(alpha))
            assert_within_one_ulp(chis[i], oracle_chi_functions(alpha, tau))
            assert_within_one_ulp(forms[:, i], oracle_closed_forms(alpha, tau))

    @pytest.mark.parametrize("point, nan_components", SINGULAR_POINTS)
    def test_nan_components_are_the_oracles(self, point, nan_components):
        forms = closed_form_correlations(*point)
        want = oracle_closed_forms(*point)
        assert np.flatnonzero(np.isnan(forms[0])).tolist() == nan_components
        assert np.array_equal(np.isnan(forms), np.isnan(want))
        assert np.array_equal(forms, want, equal_nan=True)

    def test_alpha_zero_is_the_gamma_zero_limit(self):
        taus = np.linspace(0.0, PI, 9)
        assert np.array_equal(gamma_functions(np.zeros(5)), np.zeros((5, 4)))
        assert np.array_equal(chi_functions(0.0, taus), np.zeros((9, 4)))
        assert np.array_equal(closed_form_correlations(0.0, taus), np.full((2, 9, 4), -1.0))


@pytest.mark.parametrize("n_alpha, n_tau", [(200, 200), (40, 1000), (1000, 40)])
def test_normalized_closed_form_matches_the_whole_scan(n_alpha, n_tau):
    """Every cell of the scan: the normalized closed form equals the exact
    arcs within 1e-13, and the printed one misses the grid by more than 1.
    Near tau = pi/2 every chi is about 0, so single cells cannot tell the
    printed form apart; the grid maximum does."""
    scan = region_scan(n_alpha, n_tau)
    printed, normalized = closed_form_correlations(scan.alphas[:, None], scan.taus)
    exact = np.moveaxis(scan.e, 1, -1)
    assert not np.isnan(printed).any() and not np.isnan(normalized).any()
    assert np.abs(normalized - exact).max() <= 1e-13
    assert np.abs(printed - exact).max() > 1.0


# ---------------------------------------------------------------------------
# tau averages
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def chsh_sweep_gaps():
    """|tau_average_chsh - quantum| on 2 106 alphas.  Around pi/6 a' and b'
    turn horizontal, so the layer at tau = pi/2 narrows to zero width; the
    two spikes are alphas that trip an adaptive rule there."""
    alphas = [
        *np.linspace(0.5180, 0.5295, 2001),
        0.4755896,
        0.5622192,
        PI / 6,
        critical_alpha(),
        *np.linspace(0.0, PI / 4, 101),
    ]
    gaps = [
        abs(tau_average_chsh(a) - (-3.0 * math.cos(2 * a) + math.cos(6 * a)))
        for a in alphas
    ]
    return alphas, gaps


def tau_integral_pairs(size=60, seed=23):
    """Named (size, 2, 3) unit pair stacks for ``_tau_integral``: those of
    ``oracle_pairs``, plus exactly horizontal settings (v_z = 0) and +-z."""
    rng = np.random.default_rng(seed)
    pairs = oracle_pairs(size, seed)
    u = unit_rows(rng.normal(size=(size, 3)))
    flat = unit_rows(rng.normal(size=(2, size, 3)) * [1.0, 1.0, 0.0])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]).repeat(size // 2, axis=0)
    pairs.update(
        {
            "horizontal first": np.stack([flat[0], u], axis=1),
            "horizontal both": np.stack([flat[0], flat[1]], axis=1),
            "equal horizontal": np.stack([flat[0], flat[0]], axis=1),
            "antiparallel horizontal": np.stack([flat[0], -flat[0]], axis=1),
            "pole first": np.stack([poles, u], axis=1),
            "pole second": np.stack([u, poles], axis=1),
            "pole and horizontal": np.stack([poles, flat[0]], axis=1),
            "poles": np.stack([poles, poles[::-1]], axis=1),
        }
    )
    return pairs


class TestTauIntegral:
    # the exact antiderivative against the graded rule ``oracle_tau_rule``

    @pytest.mark.parametrize("case", list(tau_integral_pairs()))
    def test_matches_graded_rule(self, case):
        pairs = tau_integral_pairs()[case]
        want = []
        for pair in pairs:
            taus, weights = oracle_tau_rule(pair)
            want.append(_arc_average(pair, taus) @ weights)
        np.testing.assert_allclose(_tau_integral(pairs), want, rtol=0.0, atol=1e-9)

    def test_shapes(self):
        pairs = tau_integral_pairs()["generic"]
        assert _tau_integral(pairs[0]).shape == ()
        assert _tau_integral(pairs).shape == (len(pairs),)
        grid = pairs.reshape(6, 10, 2, 3)
        got = _tau_integral(grid)
        assert got.shape == (6, 10)
        singles = [[float(_tau_integral(pair)) for pair in row] for row in grid]
        np.testing.assert_allclose(got, singles, rtol=0.0, atol=1e-14)

    def test_family_stack(self):
        alphas = np.linspace(0.0, PI / 4, 7)
        got = _tau_integral(_rotated_family(alphas))
        assert got.shape == (7, 4)
        for alpha, row in zip(alphas, got):
            np.testing.assert_allclose(
                row, _tau_integral(_rotated_family(alpha)), rtol=0.0, atol=1e-14
            )

    def test_equal_and_antiparallel_are_plus_minus_pi(self):
        pairs = tau_integral_pairs()
        for case in ("equal", "equal near-horizontal", "equal horizontal"):
            np.testing.assert_allclose(_tau_integral(pairs[case]), PI, rtol=0.0, atol=1e-14)
        for case in ("antiparallel", "antiparallel near-horizontal", "antiparallel horizontal"):
            np.testing.assert_allclose(_tau_integral(pairs[case]), -PI, rtol=0.0, atol=1e-14)


class TestTauAverages:
    def test_chsh_at_zero(self):
        assert tau_average_chsh(0.0) == pytest.approx(-2.0, abs=1e-9)

    def test_chsh_tsirelson_saturation(self):
        assert tau_average_chsh(PI / 8) == pytest.approx(
            -2.0 * math.sqrt(2.0), abs=1e-6
        )

    def test_chsh_pi_over_six(self):
        assert tau_average_chsh(PI / 6) == pytest.approx(-2.5, abs=1e-6)

    def test_quantum_reference_formula(self):
        for alpha in np.linspace(0.0, PI / 4, 9):
            expected = -3.0 * math.cos(2 * alpha) + math.cos(6 * alpha)
            assert quantum_chsh_reference(alpha) == pytest.approx(expected, abs=1e-12)

    def test_pair_average_matches_quantum(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a, b = random_unit(rng), random_unit(rng)
            average = tau_average_correlation(a, b)
            assert average == pytest.approx(singlet_reference(a, b), abs=1e-6)

    def test_chsh_sweep_matches_quantum(self):
        alphas, gaps = chsh_sweep_gaps()
        worst = int(np.argmax(gaps))
        assert gaps[worst] <= 1e-9, f"alpha = {alphas[worst]!r}"

    def test_chsh_sweep_is_exact(self):
        # a graded quadrature reached 3.9e-11 on this sweep
        alphas, gaps = chsh_sweep_gaps()
        worst = int(np.argmax(gaps))
        assert gaps[worst] <= 1e-13, f"alpha = {alphas[worst]!r}"

    def test_pair_average_near_horizontal(self):
        # a setting with |v_z| << |v_xy| puts a layer of width ~|v_z| at tau_v
        rng = np.random.default_rng(15)

        def near_horizontal(z):
            phi = rng.uniform(0.0, 2.0 * PI)
            v = np.array([math.cos(phi), math.sin(phi), z * rng.choice([-1.0, 1.0])])
            return v / np.linalg.norm(v)

        worst = 0.0
        for z in np.logspace(-9, -2, 8):
            for a, b in (
                (near_horizontal(z), near_horizontal(z)),
                (near_horizontal(z), random_unit(rng)),
                (random_unit(rng), near_horizontal(z)),
            ):
                worst = max(worst, abs(tau_average_correlation(a, b) - singlet_reference(a, b)))
        assert worst <= 1e-9

    def test_pair_average_near_horizontal_is_exact(self):
        # |v_z| from 1e-16 to 1e-1, and 0; a graded quadrature reached 2.8e-11
        rng = np.random.default_rng(16)

        def flat(z):
            phi = rng.uniform(0.0, TWO_PI)
            return unit_rows(np.array([math.cos(phi), math.sin(phi), z * rng.choice([-1.0, 1.0])]))

        worst = 0.0
        for z in (0.0, *np.logspace(-16, -1, 16)):
            for a, b in (
                (flat(z), flat(z)),
                (flat(z), random_unit(rng)),
                (random_unit(rng), flat(z)),
            ):
                worst = max(worst, abs(tau_average_correlation(a, b) - singlet_reference(a, b)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.0, 3.0, PI - 1e-3, PI - 1e-6])
    def test_coplanar_oracle(self, gamma):
        # int_0^pi |cos t| / sqrt(cos^2 t + cot^2(gamma/2)) dt = gamma, so the
        # tau average of 2|chi| - 1 for a pair at rotated angle gamma is
        # 2 gamma / pi - 1, without reference to a.b
        want = 2.0 * gamma / PI - 1.0
        half = gamma / 2.0
        rotated = [[math.sin(half), 0.0, math.cos(half)], [-math.sin(half), 0.0, math.cos(half)]]
        taus, weights = oracle_tau_rule(rotated)
        cot = math.cos(half) / math.sin(half)
        chi = np.cos(taus) / np.sqrt(np.cos(taus) ** 2 + cot**2)
        assert float((2.0 * np.abs(chi) - 1.0) @ weights) / PI == pytest.approx(want, abs=1e-9)
        # the same pair from unrotated settings, tilted toward the horizontal
        omega = 2.0 * math.asin(math.sqrt(gamma / PI))
        for tilt in (0.0, PI / 2 - 1e-3, PI / 2 - 1e-7):
            c, s = math.cos(tilt), math.sin(tilt)
            a = [math.sin(omega / 2), s * math.cos(omega / 2), c * math.cos(omega / 2)]
            b = [-math.sin(omega / 2), s * math.cos(omega / 2), c * math.cos(omega / 2)]
            assert angle(*rotated_settings(a, b)) == pytest.approx(gamma, abs=1e-12)
            assert tau_average_correlation(a, b) == pytest.approx(want, abs=1e-9)

    def test_rule_weights_cover_zero_to_pi(self):
        taus, weights = oracle_tau_rule(_rotated_family(0.3))
        assert len(taus) == 2 * 2 * TAU_LEVELS * TAU_ORDER
        assert np.all((taus > 0.0) & (taus < PI)) and np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(PI, abs=1e-14)

    def test_non_finite_setting_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            tau_average_correlation([math.nan, 0.0, 0.0], [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# region scan
# ---------------------------------------------------------------------------


def oracle_scan_csv(n_alpha, n_tau, path):
    """The scan and CSV on the per-row route: one ``_family_chsh`` call per
    alpha row, one ``ConditionalChsh`` per cell and ``csv.writer`` with
    ``repr``.  Returns the cells."""
    taus = [(j + 0.5) * PI / n_tau for j in range(n_tau)]
    cells = []
    for i in range(n_alpha):
        alpha = (i + 0.5) * (PI / 4.0) / n_alpha
        e, f = _family_chsh(_rotated_family(alpha), taus)
        for tau, e_tau, f_tau in zip(taus, e.T.tolist(), f.tolist()):
            cells.append(ConditionalChsh(alpha, tau, *e_tau, f_tau, classify_chsh(f_tau)))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha", "tau", "f", "class"])
        for cell in cells:
            writer.writerow([repr(cell.alpha), repr(cell.tau), repr(cell.f), cell.nonlocality.value])
    return cells


BLOCK_SHAPES = [
    (2, 5),  # fewest rows
    (3, _SCAN_BLOCK_CELLS + 164),  # a row longer than one block
    (2 * (_SCAN_BLOCK_CELLS // 7) + 1, 7),  # n_tau not dividing the block; one row past two blocks
    (_SCAN_BLOCK_CELLS // 32 + 1, 32),  # n_tau dividing the block; one row past one block
]


class TestRegionScan:
    def test_small_grid_has_three_classes(self):
        scan = region_scan(40, 40)
        assert isinstance(scan, RegionScan)
        assert len(scan) == 1600
        assert scan.class_counts().tolist() == [
            sum(cell.nonlocality is cls for cell in scan) for cls in RegionScan.CLASSES
        ]
        assert all(scan.class_counts() > 0)
        assert np.all(np.abs(scan.f) <= 4.0)
        # cell centers never sit on the singular line tau = pi/2
        assert np.all(np.abs(scan.taus - PI / 2) > 1e-9)

    def test_row_major_order(self):
        n_alpha, n_tau = 3, 4
        scan = region_scan(n_alpha, n_tau)
        cells = list(scan)
        assert len(cells) == len(scan) == n_alpha * n_tau
        assert scan.e.shape == (n_alpha, 4, n_tau)
        assert scan.f.shape == scan.codes.shape == (n_alpha, n_tau)
        for i in range(n_alpha):
            for j in range(n_tau):
                cell = cells[i * n_tau + j]
                assert cell.alpha == scan.alphas[i] == (i + 0.5) * (PI / 4.0) / n_alpha
                assert cell.tau == scan.taus[j] == (j + 0.5) * PI / n_tau
                assert cell.f == scan.f[i, j]
                assert astuple(cell)[2:6] == tuple(scan.e[i, :, j])

    def test_cells_match_pointwise_chsh(self):
        # one kernel call per block of rows must give the single-point values
        for cell in region_scan(4, 5):
            point = conditional_chsh(cell.alpha, cell.tau)
            for got, want in zip(astuple(cell)[2:7], astuple(point)[2:7]):
                assert got == pytest.approx(want, abs=1e-14)
            assert cell.nonlocality == point.nonlocality

    @pytest.mark.parametrize("n_alpha, n_tau", [(200, 200), (40, 1000), (439, 7)])
    def test_point_is_its_scan_cell(self, n_alpha, n_tau):
        # conditional_chsh runs the scan's kernel calls on a 1 x 1 block
        scan = region_scan(n_alpha, n_tau)
        rng = np.random.default_rng(n_alpha * n_tau)
        rows = rng.integers(n_alpha, size=40).tolist() + [0, n_alpha - 1]
        columns = rng.integers(n_tau, size=40).tolist() + [0, n_tau - 1]
        for i, j in zip(rows, columns):
            cell = scan.cell(i, j)
            assert conditional_chsh(scan.alphas[i], scan.taus[j]) == cell
            assert all(type(value) is float for value in astuple(cell)[:7])

    def test_peak_is_first_largest_cell(self):
        scan = region_scan(30, 30)
        want = max(scan, key=lambda cell: abs(cell.f))
        assert scan.peak() == want

    def test_peak_ignores_last_bits_of_mirror_cells(self):
        # at 200x200 the mirror cells (131, 99) and (131, 100) tie within
        # 1e-12, and the later one is larger in floating point
        scan = region_scan(200, 200)
        f = np.abs(scan.f)
        assert f[131, 100] > f[131, 99] > f.max() - 1e-12
        peak = scan.peak()
        assert (peak.alpha, peak.tau) == (scan.alphas[131], scan.taus[99])
        assert abs(peak.f) == f[131, 99]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            region_scan(1, 10)

    def test_csv_format(self, tmp_path):
        scan = region_scan(4, 4)
        path = tmp_path / "scan.csv"
        scan_to_csv(scan, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["alpha", "tau", "f", "class"]
        assert len(rows) == 17
        # round-trip decimal formatting
        first = rows[1]
        assert float(first[0]) == scan.alphas[0]
        assert float(first[2]) == scan.f[0, 0]
        assert first[3] == RegionScan.CLASSES[scan.codes[0, 0]].value

    def test_deterministic_bytes(self, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        scan_to_csv(region_scan(5, 5), str(path_a))
        scan_to_csv(region_scan(5, 5), str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize("n_alpha, n_tau", BLOCK_SHAPES)
    def test_blocked_scan_matches_per_row_oracle_bytes(self, tmp_path, n_alpha, n_tau):
        want_path, got_path = tmp_path / "oracle.csv", tmp_path / "scan.csv"
        cells = oracle_scan_csv(n_alpha, n_tau, want_path)
        scan = region_scan(n_alpha, n_tau)
        scan_to_csv(scan, str(got_path))
        assert got_path.read_bytes() == want_path.read_bytes()
        assert len(scan) == n_alpha * n_tau
        assert list(scan) == cells
        codes = scan.codes.ravel().tolist()
        assert [RegionScan.CLASSES[code] for code in codes] == [
            classify_chsh(f) for f in scan.f.ravel().tolist()
        ]


def peak_oracle(scan):
    """The peak rule on the whole grid at once: the (i, j) of the first cell,
    in row-major order, within 1e-12 of the largest |f|."""
    abs_f = np.abs(scan.f)
    flat = int(np.argmax(abs_f >= abs_f.max() - 1e-12))
    return np.unravel_index(flat, abs_f.shape)


def tally_of(blocks):
    tally = _ScanTally()
    for block in blocks:
        assert tally.add(block) is block
    return tally


def planted_scan():
    """A 6 x 5 grid whose near-ties straddle rows: the running maximum rises
    by less than 1e-12 twice after the cell the rule picks, (2, 0)."""
    f = np.random.default_rng(7).uniform(-3.5, 3.5, size=(6, 5))
    top = 3.9
    f[1, 3] = top - 0.9e-12  # within 1e-12 of the running maximum, not of the final one
    f[2, 0] = -(top - 0.2e-12)  # the peak: |f| counts
    f[2, 4] = top - 0.2e-12  # ties the peak later in its row
    f[3, 4] = top
    f[4, 1] = top + 0.5e-12  # the largest |f|
    f[5, 2] = -(top + 0.5e-12)  # ties the largest later
    alphas, taus = np.arange(6.0), np.arange(5.0)
    e = np.zeros((6, 4, 5))
    return RegionScan(alphas, taus, e, f, chsh_class_codes(f))


class TestScanStream:
    @pytest.mark.parametrize("n_alpha, n_tau", [(200, 200), (40, 1000), (1000, 40), *BLOCK_SHAPES])
    def test_blocks_are_whole_rows_of_bounded_size(self, n_alpha, n_tau):
        blocks = list(_region_blocks(n_alpha, n_tau))
        rows = [block.alphas.size for block in blocks]
        assert sum(rows) == n_alpha
        assert all(size == max(1, _SCAN_BLOCK_CELLS // n_tau) for size in rows[:-1])
        assert all(len(block) <= max(_SCAN_BLOCK_CELLS, n_tau) for block in blocks)
        assert all(block.taus is blocks[0].taus for block in blocks)

    def test_grid_checked_before_the_first_block(self):
        with pytest.raises(ValueError):
            _region_blocks(1, 10)

    def test_planted_grid_peak(self):
        scan = planted_scan()
        assert peak_oracle(scan) == (2, 0)
        peak = scan.peak()
        assert (peak.alpha, peak.tau, peak.f) == (2.0, 0.0, scan.f[2, 0])

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 6])
    def test_fold_across_blocks_keeps_the_peak_rule(self, rows):
        scan = planted_scan()
        blocks = [
            RegionScan(scan.alphas[i : i + rows], scan.taus, scan.e[i : i + rows],
                       scan.f[i : i + rows], scan.codes[i : i + rows])
            for i in range(0, 6, rows)
        ]
        tally = tally_of(blocks)
        assert tally.peak() == scan.peak()
        assert (tally.peak().alpha, tally.peak().tau) == (2.0, 0.0)
        assert tally.cells == len(scan)
        assert tally.counts.tolist() == scan.class_counts().tolist()

    @pytest.mark.parametrize("block_cells", [1, 200, 450])
    @pytest.mark.parametrize("n_alpha, n_tau", [(200, 200), (30, 30), (41, 7)])
    def test_streamed_peak_equals_whole_grid_peak(self, monkeypatch, block_cells, n_alpha, n_tau):
        # small blocks put the rise of the running maximum, and at 200x200
        # the tau-mirror tie of row 131, in blocks of one or a few rows
        scan = region_scan(n_alpha, n_tau)
        monkeypatch.setattr(crypto_bell, "_SCAN_BLOCK_CELLS", block_cells)
        tally = tally_of(_region_blocks(n_alpha, n_tau))
        i, j = peak_oracle(scan)
        assert tally.peak() == scan.peak()
        assert (tally.peak().alpha, tally.peak().tau) == (scan.alphas[i], scan.taus[j])
        assert tally.cells == len(scan)
        assert tally.counts.tolist() == scan.class_counts().tolist()
