"""Tests for the PR-box singlet simulation."""

import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality_lab import crypto_bell, singlet_sim
from nonlocality_lab._rng import derive_seed, substream
from nonlocality_lab.crypto_bell import (
    _outcome_bits,
    mc_joint_correlation,
    rotated_settings,
)
from nonlocality_lab.pr_box import pr_hidden_outputs
from nonlocality_lab.singlet_sim import (
    CHUNK_ROUNDS,
    MAX_SEGMENTS,
    SingletEstimate,
    SphereSampler,
    _chunked_estimate,
    _frame,
    _FrameSampler,
    _sign_products,
    _stream_at,
    as_unit_vector,
    estimate_singlet_correlation,
    singlet_round,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
A_DIR = np.array([0.6, 0.0, 0.8])
B_DIR = np.array([0.0, 0.8, -0.6])


def sgn(r: float) -> int:
    """Sign with range {-1, +1}; sgn(0) = +1 by convention."""
    return 1 if r >= 0.0 else -1


def scalar_round(a, b, lam1, lam2, box_bit):
    """Test oracle: one protocol round in integer sign arithmetic, as the
    protocol is written, with the box called through its checked scalar
    entry point."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    lam1 = np.asarray(lam1, dtype=float).reshape(3)
    lam2 = np.asarray(lam2, dtype=float).reshape(3)
    s1 = sgn(float(a @ lam1))
    s2 = sgn(float(a @ lam2))
    sp = sgn(float(b @ (lam1 + lam2)))
    sm = sgn(float(b @ (lam1 - lam2)))
    x = ((s1 + s2) // 2 + 1) % 2
    y = ((sp + sm) // 2 + 1) % 2
    o_a, o_b = pr_hidden_outputs(x, y, box_bit)
    A = (o_a + (s1 + 1) // 2) % 2
    B = (o_b + (sp - 1) // 2) % 2
    return A, B


def sampler(seed):
    return SphereSampler(substream(seed, "test-sphere"))


def projections(a, b, lam1, lam2):
    """The projections ``_sign_products`` takes, by world-frame dot products."""
    return lam1 @ a, lam2 @ a, lam1 @ b, lam2 @ b


def frame_basis(a, b):
    """Test oracle: the rows e1, e2, e3 of the right-handed orthonormal frame
    with e3 along a and b in the half-plane of e3 and +e1, built without
    ``_frame``; b must not be parallel to a."""
    e3 = a / np.linalg.norm(a)
    e1 = b - (b @ e3) * e3
    e1 /= np.linalg.norm(e1)
    return np.array([e1, np.cross(e3, e1), e3])


def singlet_draws(a, b, seed, n):
    """Test oracle: the hidden vectors and box bits that
    ``estimate_singlet_correlation(a, b, n, seed)`` draws, as world vectors:
    each stream's points, read as frame coordinates and rotated into the
    world by ``frame_basis``."""
    basis = frame_basis(a, b)
    lam1 = SphereSampler(substream(seed, "singlet-lam1")).sample(n) @ basis
    lam2 = SphereSampler(substream(seed, "singlet-lam2")).sample(n) @ basis
    bits = substream(seed, "pr-box-bit").random(n) < 0.5
    return lam1, lam2, bits


def frame_rounds(a, b, seed, n):
    """The ``_sign_products`` arguments of the first n rounds that
    ``estimate_singlet_correlation(a, b, n, seed)`` draws."""
    frame = _frame(a, b)
    (a1, b1), (a2, b2) = (
        _FrameSampler(seed, label, 0, frame, n).project(n)
        for label in ("singlet-lam1", "singlet-lam2")
    )
    return a1, a2, b1, b2, substream(seed, "pr-box-bit").random(n) < 0.5


def serial_chunked_estimate(n, disagree):
    """Test oracle: the counter before its rounds were split into segments.
    ``disagree(m)`` draws the next m rounds of one stream set, in order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    chunk = singlet_sim.CHUNK_ROUNDS
    chunks = (min(chunk, n - start) for start in range(0, n, chunk))
    k = sum(int(np.count_nonzero(disagree(m))) for m in chunks)
    e_hat = (n - 2 * k) / n
    stderr = math.sqrt((1.0 - e_hat * e_hat) / (n - 1)) if n > 1 else 0.0
    return SingletEstimate(e_hat=e_hat, stderr=stderr)


def serial_singlet(a, b, n, seed):
    """Test oracle: ``estimate_singlet_correlation`` on one serial pass
    through its three streams, in the frame of (a, b)."""
    frame, chunk = _frame(a, b), singlet_sim.CHUNK_ROUNDS
    lam1 = _FrameSampler(seed, "singlet-lam1", 0, frame, chunk)
    lam2 = _FrameSampler(seed, "singlet-lam2", 0, frame, chunk)
    box = substream(seed, "pr-box-bit")

    def disagree(m):
        (a1, b1), (a2, b2) = lam1.project(m), lam2.project(m)
        A, B = _sign_products(a1, a2, b1, b2, box.random(m) < 0.5)
        return A != B

    return serial_chunked_estimate(n, disagree)


def serial_full_sphere(a, b, n, seed):
    """Test oracle: ``mc_joint_correlation`` on one serial pass through its
    stream, in the frame of the rotated pair."""
    frame = _frame(*rotated_settings(a, b))
    lam = _FrameSampler(seed, "crypto-mc-lam", 0, frame, singlet_sim.CHUNK_ROUNDS)

    def disagree(m):
        A, B = _outcome_bits(*lam.project(m))
        return A != B

    return serial_chunked_estimate(n, disagree)


def world_singlet(a, b, n, seed):
    """Test oracle: ``estimate_singlet_correlation`` sampled in world
    coordinates, serially, with (n, 3) points and dot products."""
    lam1 = SphereSampler(substream(seed, "singlet-lam1"))
    lam2 = SphereSampler(substream(seed, "singlet-lam2"))
    box = substream(seed, "pr-box-bit")

    def disagree(m):
        lams = projections(a, b, lam1.sample(m), lam2.sample(m))
        A, B = _sign_products(*lams, box.random(m) < 0.5)
        return A != B

    return serial_chunked_estimate(n, disagree)


def world_full_sphere(a_hat, b_hat, n, seed):
    """Test oracle: ``mc_joint_correlation`` at the rotated pair (a_hat,
    b_hat), sampled in world coordinates, serially."""
    lam = SphereSampler(substream(seed, "crypto-mc-lam"))

    def disagree(m):
        points = lam.sample(m)
        A, B = _outcome_bits(points @ a_hat, points @ b_hat)
        return A != B

    return serial_chunked_estimate(n, disagree)


def unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_pairs(rng, k):
    """k pairs of independent random unit vectors."""
    return unit_rows(rng.normal(size=(k, 2, 3)))


def random_rounds(rng, n):
    """Unit settings and hidden vectors, with every fourth round a tie
    lam2 = +-lam1."""
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    lam1 = unit_rows(rng.normal(size=(n, 3)))
    lam2 = unit_rows(rng.normal(size=(n, 3)))
    lam2[::4] = lam1[::4]
    lam2[2::4] = -lam1[2::4]
    bits = rng.random(n) < 0.5
    return a / np.linalg.norm(a), b / np.linalg.norm(b), lam1, lam2, bits


def zero_projection_rounds(rng, n):
    """Settings a = x, b = z and unit hidden vectors whose projections
    vanish exactly: b.lam+ in every round (lam+ != 0), a.lam1 or a.lam2 in
    two rounds out of three."""
    lam1 = rng.normal(size=(n, 3))
    lam1[::3, 0] = 0.0
    lam1 = unit_rows(lam1)
    lam2 = rng.normal(size=(n, 3))
    lam2[1::3, 0] = 0.0
    lam2[:, 2] = 0.0
    lam2 = unit_rows(lam2) * np.sqrt(1.0 - lam1[:, 2:] ** 2)
    lam2[:, 2] = -lam1[:, 2]
    return X, Z, lam1, lam2, rng.random(n) < 0.5


class TestSgn:
    """The oracle's sign convention."""

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
        s1, s2 = sampler(123), sampler(123)
        a = s1.sample(100)
        b = s2.sample(100)
        np.testing.assert_array_equal(a, b)
        # the stream itself counts the draws: the next points are 100..104
        nxt = s1.sample(5)
        assert nxt.shape == (5, 3)
        np.testing.assert_array_equal(nxt, sampler(123).sample(105)[100:])

    def test_pieces_equal_one_draw(self):
        whole = sampler(8).sample(1001)
        parts = sampler(8)
        np.testing.assert_array_equal(
            np.concatenate([parts.sample(m) for m in (1, 500, 3, 497)]), whole
        )

    def test_unit_norm(self):
        points = sampler(5).sample(1000)
        np.testing.assert_allclose((points**2).sum(axis=1), 1.0, atol=1e-12)

    def test_uniformity(self):
        n = 200_000
        points = sampler(11).sample(n)
        # each Cartesian component has mean 0, variance 1/3
        four_sigma = 4.0 * math.sqrt(1.0 / 3.0 / n)
        assert np.all(np.abs(points.mean(axis=0)) < four_sigma)
        # z must be uniform on [-1, 1]: check halves balance
        assert abs((points[:, 2] > 0).mean() - 0.5) < 4.0 * math.sqrt(0.25 / n)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sampler(0).sample(0)

    @pytest.mark.parametrize("n", [1, 2, 7, 1001])
    def test_matches_trig_formula(self, n):
        # z and azimuth / pi as one (n, 2) block on [-1, 1), returned as the
        # transpose of the stacked (x, y, z) rows
        u = 2.0 * substream(3, "test-sphere").random((n, 2)) - 1.0
        z, phi = u[:, 0], math.pi * u[:, 1]
        r = np.sqrt(1.0 - z * z)
        want = np.array([r * np.cos(phi), r * np.sin(phi), z]).T
        got = sampler(3).sample(n)
        assert got.tobytes() == want.tobytes()
        assert (got.shape, got.strides) == (want.shape, want.strides)


class TestFrame:
    """``_frame``: the settings pair as (cos theta, sin theta)."""

    def test_random_pairs(self):
        for a, b in random_pairs(np.random.default_rng(7), 200):
            cos_t, sin_t = _frame(a, b)
            assert cos_t == pytest.approx(float(a @ b), abs=1e-15)
            assert sin_t >= 0.0
            assert cos_t**2 + sin_t**2 == pytest.approx(1.0, abs=1e-15)
            # b = cos theta e3 + sin theta e1 in the oracle's frame
            basis = frame_basis(a, b)
            np.testing.assert_allclose(basis @ b, [sin_t, 0.0, cos_t], atol=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_parallel_settings_have_exact_zero_sine(self, sign):
        rng = np.random.default_rng(8)
        for a in [*np.eye(3), *-np.eye(3), *unit_rows(rng.normal(size=(60, 3)))]:
            cos_t, sin_t = _frame(a, sign * a)
            assert sin_t == 0.0
            assert math.copysign(1.0, cos_t) == sign

    @pytest.mark.parametrize("scale", [1.0 + 4.99e-10, 1.0 - 4.99e-10])
    def test_near_unit_settings_stay_finite(self, scale):
        # at scale > 1, |a.b| > 1 for b = +-a: sqrt(1 - cos^2 theta) would be NaN
        a = scale * Z
        as_unit_vector(a)  # inside the norm tolerance
        for b in (a, -a, scale * unit_rows(np.array([1e-9, 0.0, 1.0]))):
            cos_t, sin_t = _frame(a, b)
            assert math.isfinite(cos_t) and math.isfinite(sin_t)
            assert abs(cos_t) == pytest.approx(1.0, abs=1e-8)
            assert 0.0 <= sin_t < 1e-8


class TestFrameSampler:
    """The estimators' sampler: sphere points in the frame of their settings."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1001])
    def test_matches_trig_formula(self, n):
        # the (z, phi) doubles of SphereSampler; b.lam = z cos + x sin with
        # x = r cos(phi), rounded in that order
        cos_t, sin_t = _frame(A_DIR, B_DIR)
        u = 2.0 * substream(3, "test-sphere").random((n, 2)) - 1.0
        z, phi = u[:, 0], math.pi * u[:, 1]
        x = np.cos(phi) * np.sqrt(1.0 - z * z)
        got_z, got_b = _FrameSampler(3, "test-sphere", 0, (cos_t, sin_t), n).project(n)
        assert got_z.tobytes() == z.tobytes()
        assert got_b.tobytes() == (z * cos_t + x * sin_t).tobytes()

    @pytest.mark.parametrize("m", [1, 7, CHUNK_ROUNDS - 1, CHUNK_ROUNDS])
    def test_pieces_equal_one_draw(self, m):
        # a short draw after a longer one on the same scratch
        frame, n = _frame(A_DIR, B_DIR), CHUNK_ROUNDS + m
        lam = _FrameSampler(5, "test-sphere", 0, frame, CHUNK_ROUNDS)
        first = [v.copy() for v in lam.project(CHUNK_ROUNDS)]
        second = lam.project(m)
        whole = _FrameSampler(5, "test-sphere", 0, frame, n).project(n)
        for i in range(2):
            assert np.concatenate([first[i], second[i]]).tobytes() == whole[i].tobytes()

    def test_opened_at_start_is_its_tail(self):
        frame, n, start = _frame(A_DIR, B_DIR), 3 * CHUNK_ROUNDS + 5, 2 * CHUNK_ROUNDS
        full = _FrameSampler(41, "singlet-lam1", 0, frame, n).project(n)
        tail = _FrameSampler(41, "singlet-lam1", start, frame, n - start).project(n - start)
        for i in range(2):
            assert tail[i].tobytes() == full[i][start:].tobytes()

    def test_is_the_sample_seen_in_the_frame(self):
        # rotating the world-frame sample into the oracle's frame gives the
        # same projections up to rounding
        n = 5000
        for k, (a, b) in enumerate(random_pairs(np.random.default_rng(9), 20)):
            lam = SphereSampler(substream(k, "test-sphere")).sample(n) @ frame_basis(a, b)
            z, b_lam = _FrameSampler(k, "test-sphere", 0, _frame(a, b), n).project(n)
            np.testing.assert_allclose(lam @ a, z, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(lam @ b, b_lam, rtol=0.0, atol=1e-15)


class TestSingletRound:
    def test_hand_trace(self):
        # lam1 = lam2 = a = b = z with box bit 0: inputs (0, 0), outputs
        # (0, 0), final outcomes A = 1, B = 0 (sign-anticorrelated)
        assert singlet_round(Z, Z, Z, Z, 0) == (1, 0)

    @pytest.mark.parametrize("rounds", [random_rounds, zero_projection_rounds])
    def test_kernel_matches_scalar_oracle(self, rounds):
        # round by round, including the ties and both box bits
        a, b, lam1, lam2, bits = rounds(np.random.default_rng(1), 2000)
        A, B = _sign_products(*projections(a, b, lam1, lam2), bits)
        for i in range(len(bits)):
            want = scalar_round(a, b, lam1[i], lam2[i], int(bits[i]))
            assert (int(A[i]), int(B[i])) == want
            assert singlet_round(a, b, lam1[i], lam2[i], int(bits[i])) == want

    def test_box_bit_cancels_from_products(self):
        # o_a xor o_b = x*y for either box bit: each outcome flips with the
        # bit, their product does not
        a, b, lam1, lam2, bits = random_rounds(np.random.default_rng(5), 10_000)
        A, B = _sign_products(*projections(a, b, lam1, lam2), bits)
        A_flip, B_flip = _sign_products(*projections(a, b, lam1, lam2), ~bits)
        np.testing.assert_array_equal(A_flip, ~A)
        np.testing.assert_array_equal(B_flip, ~B)
        np.testing.assert_array_equal(A_flip != B_flip, A != B)

    def test_invalid_box_bit(self):
        with pytest.raises(ValueError):
            singlet_round(Z, Z, Z, Z, 2)

    @pytest.mark.parametrize(
        "lam1, lam2",
        [
            (["1", "0", "0"], [True, False, False]),
            (Z, [True, False, False]),
            (["1", "0", "0"], Z),
            ([5, 0, 0], [0, 0, -7]),
            (Z, [0, 0, -7]),
        ],
        ids=["str-and-bool", "bool", "str", "non-unit", "one-non-unit"],
    )
    def test_rejects_malformed_hidden_vectors(self, lam1, lam2):
        with pytest.raises(ValueError):
            singlet_round(Z, Z, lam1, lam2, 0)

    def test_outputs_are_bits(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam1 = unit_rows(rng.normal(size=3))
            lam2 = unit_rows(rng.normal(size=3))
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
            lam1 = unit_rows(rng.normal(size=3))
            lam2 = unit_rows(rng.normal(size=3))
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
            lam1 = unit_rows(rng.normal(size=3))
            lam2 = unit_rows(rng.normal(size=3))
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            A, B = singlet_round(a, a, lam1, lam2, int(rng.integers(0, 2)))
            assert (1 - 2 * A) * (1 - 2 * B) == -1


class TestEstimator:
    def test_invalid_n(self):
        with pytest.raises(ValueError):
            estimate_singlet_correlation(Z, X, 0, 1)

    @pytest.mark.parametrize("bad", [True, False, np.True_, 2.0, np.float64(5.0), "5", None, 0, -3])
    @pytest.mark.parametrize("estimator", [estimate_singlet_correlation, mc_joint_correlation])
    def test_malformed_round_count(self, estimator, bad):
        with pytest.raises(ValueError, match=r"n must be (a whole number )?>= 1"):
            estimator(A_DIR, B_DIR, bad, 1)

    @pytest.mark.parametrize("n", [np.int64(5000), np.int32(5000), np.uint16(5000)])
    @pytest.mark.parametrize("estimator", [estimate_singlet_correlation, mc_joint_correlation])
    def test_numpy_integer_round_count(self, estimator, n):
        got = estimator(A_DIR, B_DIR, n, 1)
        assert got == estimator(A_DIR, B_DIR, 5000, 1)
        assert all(type(value) is float for value in got)

    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            estimate_singlet_correlation([0, 0, 2], X, 10, 1)

    @pytest.mark.parametrize(
        "bad", [[math.nan, 0, 0], [0, math.inf, 0], [math.nan, math.nan, math.nan]]
    )
    def test_unit_vector_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_unit_vector(bad)

    def test_unit_vector_stack_passes_through(self):
        stack = np.array([[Z, X], [A_DIR, B_DIR]])
        assert as_unit_vector(stack).tobytes() == stack.tobytes()

    @pytest.mark.parametrize("bad", [[math.nan, 0, 0], [0, -math.inf, 0], [0, 0, 1.1], [0, 0, 0]])
    def test_unit_vector_rejects_one_bad_row(self, bad):
        stack = np.array([[Z, X, A_DIR], [B_DIR, bad, Z]])
        with pytest.raises(ValueError, match="finite unit vectors"):
            as_unit_vector(stack)

    @pytest.mark.parametrize(
        "bad",
        [
            ["1", "0", "0"],
            [True, False, False],
            np.array([1, 0, 0], dtype=object),
            [1 + 0j, 0, 0],
        ],
        ids=["str", "bool", "object", "complex"],
    )
    def test_unit_vector_rejects_non_numeric(self, bad):
        with pytest.raises(ValueError, match="int or float"):
            as_unit_vector(bad)

    @pytest.mark.parametrize(
        "good",
        [
            [1, 0, 0],
            [1.0, 0.0, 0.0],
            np.array([1, 0, 0], np.int8),
            np.array([1, 0, 0], np.uint64),
            np.array([1, 0, 0], np.float32),
        ],
        ids=["int", "float", "int8", "uint64", "float32"],
    )
    def test_unit_vector_accepts_ints_and_floats(self, good):
        got = as_unit_vector(good)
        assert got.dtype == np.float64
        assert got.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("shape", [(3, 1), (2, 2), (4,), (), (5, 0)])
    def test_unit_vector_rejects_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            as_unit_vector(np.ones(shape) / math.sqrt(3.0))

    def test_determinism(self):
        e1 = estimate_singlet_correlation(Z, X, 5000, 42)
        e2 = estimate_singlet_correlation(Z, X, 5000, 42)
        assert e1 == e2

    def test_matches_scalar_rounds(self):
        # replicate the estimator's draws as world vectors, then walk them
        # through the scalar oracle round by round
        n, seed = 2000, 9
        lam1, lam2, bits = singlet_draws(A_DIR, B_DIR, seed, n)
        products = [
            math.prod(
                1 - 2 * o
                for o in scalar_round(A_DIR, B_DIR, lam1[i], lam2[i], int(bits[i]))
            )
            for i in range(n)
        ]
        estimate = estimate_singlet_correlation(A_DIR, B_DIR, n, seed)
        assert estimate.e_hat == pytest.approx(np.mean(products), abs=1e-15)

    def test_marginals_are_unbiased(self):
        # no-signaling at the simulation level: each outcome bit is a fair coin
        n, seed = 200_000, 13
        A, B = _sign_products(*frame_rounds(A_DIR, B_DIR, seed, n))
        four_sigma = 4.0 * math.sqrt(0.25 / n)
        assert abs(A.mean() - 0.5) < four_sigma
        assert abs(B.mean() - 0.5) < four_sigma
        assert A.shape == B.shape == (n,)

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


class TestChunkedCounter:
    @pytest.mark.parametrize("chunk", [1000, 4099])
    def test_chunk_size_never_shows(self, monkeypatch, chunk):
        n, seed = 100_003, 17
        want = estimate_singlet_correlation(A_DIR, B_DIR, n, seed), mc_joint_correlation(
            A_DIR, B_DIR, n, seed
        )
        monkeypatch.setattr(singlet_sim, "CHUNK_ROUNDS", chunk)
        got = estimate_singlet_correlation(A_DIR, B_DIR, n, seed), mc_joint_correlation(
            A_DIR, B_DIR, n, seed
        )
        assert got == want

    def test_singlet_stderr_is_sample_std(self):
        n, seed = 50_001, 19
        A, B = _sign_products(*frame_rounds(A_DIR, B_DIR, seed, n))
        products = np.where(A != B, -1.0, 1.0)
        estimate = estimate_singlet_correlation(A_DIR, B_DIR, n, seed)
        assert estimate.e_hat == products.mean()
        want = products.std(ddof=1) / math.sqrt(n)
        assert estimate.stderr == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_full_sphere_stderr_is_sample_std(self):
        n, seed = 50_001, 23
        lam = _FrameSampler(seed, "crypto-mc-lam", 0, _frame(*rotated_settings(A_DIR, B_DIR)), n)
        z, b_lam = lam.project(n)
        products = np.where(z >= 0.0, 1.0, -1.0) * np.where(b_lam >= 0.0, -1.0, 1.0)
        mean, stderr = mc_joint_correlation(A_DIR, B_DIR, n, seed)
        assert mean == products.mean()
        want = products.std(ddof=1) / math.sqrt(n)
        assert stderr == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_single_round_has_zero_stderr(self):
        assert estimate_singlet_correlation(A_DIR, B_DIR, 1, 3).stderr == 0.0
        assert mc_joint_correlation(A_DIR, B_DIR, 1, 3)[1] == 0.0

    @pytest.mark.parametrize("cpus", [1, 2, 8, 64])
    def test_memory_bounded_in_rounds(self, monkeypatch, cpus):
        # 1e7 rounds held at once would take over 1 GB; each segment holds
        # one chunk's scratch and at most MAX_SEGMENTS run, so the bound
        # holds for any core count
        monkeypatch.setattr(singlet_sim, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            estimate_singlet_correlation(A_DIR, B_DIR, 10_000_000, 29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSegments:
    """The rounds split across threads on chunk boundaries."""

    @pytest.mark.parametrize(
        "n", [1, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, 100_003]
    )
    @pytest.mark.parametrize("seed", [1, 7, 12345])
    def test_estimators_equal_serial_oracle(self, n, seed):
        for estimate, oracle in [
            (estimate_singlet_correlation, serial_singlet),
            (mc_joint_correlation, serial_full_sphere),
        ]:
            got = estimate(A_DIR, B_DIR, n, seed)
            assert type(got) is SingletEstimate
            assert got == oracle(A_DIR, B_DIR, n, seed)

    @pytest.mark.parametrize("theta", [0.3, 1.1, math.pi / 2, 2.9])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_world_frame_oracle_where_frames_coincide(self, monkeypatch, theta, seed):
        # a = e_z and b in the xz-plane with b_x > 0 make the settings frame
        # the world frame, so sampling there is sampling in the world; the
        # crypto pair is pinned unrotated to put it at the same frame
        n, a, b = 100_003, Z, np.array([math.sin(theta), 0.0, math.cos(theta)])
        assert _frame(a, b) == (b[2], b[0])
        assert estimate_singlet_correlation(a, b, n, seed) == world_singlet(a, b, n, seed)
        monkeypatch.setattr(crypto_bell, "rotated_settings", lambda a, b: np.stack([a, b]))
        assert mc_joint_correlation(a, b, n, seed) == world_full_sphere(a, b, n, seed)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 7, 40])
    def test_segment_count_never_shows(self, monkeypatch, cpus):
        # more segments than cores, uneven segment lengths, and a short
        # switch interval so the threads interleave as often as they can
        n, seed = 100_003, 31
        want = serial_singlet(A_DIR, B_DIR, n, seed), serial_full_sphere(A_DIR, B_DIR, n, seed)
        monkeypatch.setattr(singlet_sim, "_usable_cpus", lambda: cpus)
        baseline = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = estimate_singlet_correlation(A_DIR, B_DIR, n, seed), mc_joint_correlation(
                A_DIR, B_DIR, n, seed
            )
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus", [1, 3, MAX_SEGMENTS, MAX_SEGMENTS + 1, 64])
    def test_segment_count_is_capped(self, monkeypatch, cpus):
        starts = []

        def open_rounds(start, chunk):
            starts.append(start)
            return lambda m: np.zeros(m, bool)

        monkeypatch.setattr(singlet_sim, "_usable_cpus", lambda: cpus)
        estimate = _chunked_estimate(100 * CHUNK_ROUNDS, open_rounds)
        assert estimate.e_hat == 1.0
        assert sorted(starts) == [
            CHUNK_ROUNDS * (100 * i // len(starts)) for i in range(len(starts))
        ]
        assert len(starts) == min(cpus, MAX_SEGMENTS)

    @pytest.mark.parametrize("label", ["singlet-lam1", "singlet-lam2", "crypto-mc-lam"])
    def test_sphere_stream_opened_at_start_is_its_tail(self, label):
        # numpy draws one uint64 per double, so a point costs two draws
        n, start, seed = 3 * CHUNK_ROUNDS + 5, 2 * CHUNK_ROUNDS, 41
        full = SphereSampler(substream(seed, label)).sample(n)
        skip = SphereSampler.DRAWS_PER_POINT * start
        tail = SphereSampler(_stream_at(seed, label, skip)).sample(n - start)
        assert tail.tobytes() == full[start:].tobytes()

    def test_box_bit_stream_opened_at_start_is_its_tail(self):
        n, start, seed = 3 * CHUNK_ROUNDS + 5, 2 * CHUNK_ROUNDS, 41
        full = substream(seed, "pr-box-bit").random(n)
        tail = _stream_at(seed, "pr-box-bit", start).random(n - start)
        assert tail.tobytes() == full[start:].tobytes()

    def test_segment_error_reaches_caller(self, monkeypatch):
        # the caller's thread counts the segment that starts at round 0;
        # every other segment fails, and no thread is left behind
        baseline = threading.active_count()
        caller = threading.current_thread()

        def failing(*args):
            if threading.current_thread() is not caller:
                raise RuntimeError("segment failed")
            return _sign_products(*args)

        monkeypatch.setattr(singlet_sim, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(singlet_sim, "_sign_products", failing)
        with pytest.raises(RuntimeError, match="segment failed"):
            estimate_singlet_correlation(A_DIR, B_DIR, 8 * CHUNK_ROUNDS, 3)
        assert threading.active_count() == baseline

    def test_caller_segment_error_joins_the_others(self, monkeypatch):
        baseline = threading.active_count()
        caller = threading.current_thread()

        def failing(*args):
            if threading.current_thread() is caller:
                raise RuntimeError("first segment failed")
            return _sign_products(*args)

        monkeypatch.setattr(singlet_sim, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(singlet_sim, "_sign_products", failing)
        with pytest.raises(RuntimeError, match="first segment failed"):
            estimate_singlet_correlation(A_DIR, B_DIR, 6 * CHUNK_ROUNDS, 3)
        assert threading.active_count() == baseline


class TestPulls:
    """Both estimators against -a.b over many settings, as a sample.

    K direction pairs are drawn once from a named substream and each
    estimator runs at n rounds per pair.  The pulls (e_hat - (-a.b)) / stderr
    of an unbiased estimator with an honest stderr are close to independent
    standard normals, so their mean lies within 4 / sqrt(K) of 0 and their
    sum of squares within the two-sided 99.9 % band of chi^2(K).  A bias of
    one sigma on every pair, or a stderr off by a constant factor, fails
    here although each pair alone passes its 4 sigma check.  The seed was
    chosen once; a failure is a finding, never a reason to re-seed.
    """

    K, N, SEED = 400, 20_000, 99
    #: 0.05 % and 99.95 % quantiles of chi^2(400).
    CHI2_LOW, CHI2_HIGH = 313.427, 499.666

    def pulls(self, estimate):
        directions = SphereSampler(substream(self.SEED, "test-pull-directions")).sample(2 * self.K)
        pulls = []
        for k, (a, b) in enumerate(directions.reshape(self.K, 2, 3)):
            e_hat, stderr = estimate(a, b, self.N, derive_seed(self.SEED, f"test-pull-{k}"))
            pulls.append((e_hat + float(a @ b)) / stderr)
        return np.array(pulls)

    @pytest.mark.parametrize(
        "estimate",
        [estimate_singlet_correlation, mc_joint_correlation],
        ids=["singlet", "crypto-mc"],
    )
    def test_pulls_are_standard_normal(self, estimate):
        pulls = self.pulls(estimate)
        assert abs(pulls.mean()) < 4.0 / math.sqrt(self.K)
        assert self.CHI2_LOW < (pulls**2).sum() < self.CHI2_HIGH


class TestDegenerateSettings:
    """Settings at the edge of the frame: b = +-a, where sin theta = 0, and
    inputs whose norm is off by as much as ``as_unit_vector`` accepts."""

    N = 3 * CHUNK_ROUNDS + 7

    @staticmethod
    def settings():
        rng = np.random.default_rng(61)
        return [*np.eye(3), *-np.eye(3), *unit_rows(rng.normal(size=(60, 3)))]

    @pytest.mark.parametrize("sign, want", [(1.0, -1.0), (-1.0, 1.0)], ids=["b=a", "b=-a"])
    def test_parallel_settings_are_exact(self, sign, want):
        for k, a in enumerate(self.settings()):
            assert estimate_singlet_correlation(a, sign * a, self.N, k) == SingletEstimate(want, 0.0)
            assert mc_joint_correlation(a, sign * a, self.N, k) == SingletEstimate(want, 0.0)

    @pytest.mark.parametrize("scale", [1.0 + 4.99e-10, 1.0 - 4.99e-10])
    @pytest.mark.parametrize("estimate", [estimate_singlet_correlation, mc_joint_correlation])
    def test_near_unit_settings(self, estimate, scale):
        for k, (a, b) in enumerate(random_pairs(np.random.default_rng(62), 10)):
            a, b = scale * a, scale * b
            e_hat, stderr = estimate(a, b, self.N, k)
            assert math.isfinite(e_hat) and math.isfinite(stderr)
            assert abs(e_hat + float(a @ b)) < 4.0 * stderr
            assert estimate(a, a, self.N, k) == (-1.0, 0.0)
            assert estimate(a, -a, self.N, k) == (1.0, 0.0)
