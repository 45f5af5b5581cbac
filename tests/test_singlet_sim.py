"""Tests for the PR-box singlet simulation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality_lab._rng import substream
from nonlocality_lab.singlet_sim import (
    SphereSampler,
    _sign_products,
    as_unit_vector,
    estimate_singlet_correlation,
    sgn,
    singlet_round,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


class TestSgn:
    def test_declared_values(self):
        assert sgn(0.3) == 1
        assert sgn(-2.0) == -1
        assert sgn(0.0) == 1  # tie convention

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_range(self, r):
        assert sgn(r) ** 2 == 1

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_odd_away_from_zero(self, r):
        assert sgn(-r) == -sgn(r)


class TestSphereSampler:
    def test_determinism_and_counter(self):
        s1, s2 = SphereSampler(123), SphereSampler(123)
        a = s1.sample(100)
        b = s2.sample(100)
        np.testing.assert_array_equal(a, b)
        assert s1.counter == 100
        assert s1.sample(5).shape == (5, 3)
        assert s1.counter == 105

    def test_unit_norm(self):
        points = SphereSampler(5).sample(1000)
        np.testing.assert_allclose((points**2).sum(axis=1), 1.0, atol=1e-12)

    def test_uniformity(self):
        n = 200_000
        points = SphereSampler(11).sample(n)
        # each Cartesian component has mean 0, variance 1/3
        four_sigma = 4.0 * math.sqrt(1.0 / 3.0 / n)
        assert np.all(np.abs(points.mean(axis=0)) < four_sigma)
        # z must be uniform on [-1, 1]: check halves balance
        assert abs((points[:, 2] > 0).mean() - 0.5) < 4.0 * math.sqrt(0.25 / n)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            SphereSampler(0).sample(0)


class TestSingletRound:
    def test_hand_trace(self):
        # lam1 = lam2 = a = b = z with box bit 0: inputs (0, 0), outputs
        # (0, 0), final outcomes A = 1, B = 0 (sign-anticorrelated)
        assert singlet_round(Z, Z, Z, Z, 0) == (1, 0)

    def test_outputs_are_bits(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam1 = rng.normal(size=3)
            lam2 = rng.normal(size=3)
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            A, B = singlet_round(a, b, lam1, lam2, int(rng.integers(0, 2)))
            assert A in (0, 1) and B in (0, 1)

    @pytest.mark.parametrize("s1", [1, -1])
    @pytest.mark.parametrize("s2", [1, -1])
    def test_box_input_from_sign_pattern(self, s1, s2):
        # lam_i = s_i * z realize every sign pattern for a = z; the box
        # input x must be 0 for equal signs, 1 otherwise, and the outcome
        # is a bit in all four cases
        A, B = singlet_round(Z, Z, s1 * Z, s2 * Z, 0)
        assert A in (0, 1) and B in (0, 1)

    def test_antipodal_b_flips_correction(self):
        # flipping b flips sgn(b.lam+) and sgn(b.lam-) together: the box
        # input y is unchanged, so B moves by exactly the correction bit
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam1 = rng.normal(size=3)
            lam2 = rng.normal(size=3)
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            bit = int(rng.integers(0, 2))
            A1, B1 = singlet_round(a, b, lam1, lam2, bit)
            A2, B2 = singlet_round(a, -b, lam1, lam2, bit)
            assert A1 == A2
            assert B2 == (B1 + 1) % 2

    def test_perfect_anticorrelation(self):
        # a = b gives sign product -1 in every round, whatever the hidden state
        rng = np.random.default_rng(4)
        for _ in range(50):
            lam1 = rng.normal(size=3)
            lam2 = rng.normal(size=3)
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            A, B = singlet_round(a, a, lam1, lam2, int(rng.integers(0, 2)))
            assert (1 - 2 * A) * (1 - 2 * B) == -1


class TestEstimator:
    def test_invalid_n(self):
        with pytest.raises(ValueError):
            estimate_singlet_correlation(Z, X, 0, 1)

    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            estimate_singlet_correlation([0, 0, 2], X, 10, 1)

    @pytest.mark.parametrize(
        "bad", [[math.nan, 0, 0], [0, math.inf, 0], [math.nan, math.nan, math.nan]]
    )
    def test_unit_vector_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_unit_vector(bad)

    def test_determinism(self):
        e1 = estimate_singlet_correlation(Z, X, 5000, 42)
        e2 = estimate_singlet_correlation(Z, X, 5000, 42)
        assert e1 == e2

    def test_matches_scalar_rounds(self):
        # replicate the estimator's draws, then walk them through the
        # scalar reference round by round
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.0, 0.8, -0.6])
        n, seed = 2000, 9
        sampler = SphereSampler(seed)
        lam1 = sampler.sample(n)
        lam2 = sampler.sample(n)
        bits = substream(seed, "pr-box-bit").integers(0, 2, size=n)
        products = [
            math.prod(
                1 - 2 * o
                for o in singlet_round(a, b, lam1[i], lam2[i], int(bits[i]))
            )
            for i in range(n)
        ]
        estimate = estimate_singlet_correlation(a, b, n, seed)
        assert estimate.e_hat == pytest.approx(np.mean(products), abs=1e-15)

    def test_marginals_are_unbiased(self):
        # no-signaling at the simulation level: each outcome bit is a fair coin
        n, seed = 200_000, 13
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.0, 0.8, -0.6])
        sampler = SphereSampler(seed)
        lam1 = sampler.sample(n)
        lam2 = sampler.sample(n)
        bits = substream(seed, "pr-box-bit").integers(0, 2, size=n)
        products = _sign_products(a, b, lam1, lam2, bits)
        # recover A marginal: product with B and symmetry are not enough,
        # so recompute the bits directly with the same formulas
        s1 = np.where(lam1 @ a >= 0.0, 1, -1)
        s2 = np.where(lam2 @ a >= 0.0, 1, -1)
        sp = np.where((lam1 + lam2) @ b >= 0.0, 1, -1)
        sm = np.where((lam1 - lam2) @ b >= 0.0, 1, -1)
        x = ((s1 + s2) // 2 + 1) % 2
        y = ((sp + sm) // 2 + 1) % 2
        A = ((x + bits) % 2 + (s1 + 1) // 2) % 2
        B = ((x + bits - x * y) % 2 + (sp - 1) // 2) % 2
        four_sigma = 4.0 * math.sqrt(0.25 / n)
        assert abs(A.mean() - 0.5) < four_sigma
        assert abs(B.mean() - 0.5) < four_sigma
        assert products.shape == (n,)

    @pytest.mark.parametrize(
        "pair",
        [
            (Z, Z),  # aligned: E = -1
            (Z, X),  # orthogonal: E = 0
            (Z, np.array([math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)])),
        ],
    )
    def test_reproduces_singlet_smoke(self, pair):
        a, b = pair
        estimate = estimate_singlet_correlation(a, b, 200_000, 21)
        target = -float(np.dot(a, b))
        assert abs(estimate.e_hat - target) < max(0.02, 5.0 * estimate.stderr)

    def test_stderr_scale(self):
        estimate = estimate_singlet_correlation(Z, X, 100_000, 3)
        # sign products have unit variance at E = 0
        assert estimate.stderr == pytest.approx(1.0 / math.sqrt(100_000), rel=0.05)
