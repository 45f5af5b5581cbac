"""Monte Carlo simulation of singlet-state correlations from one PR box.

Two hidden unit vectors lam1, lam2, uniform and independent on the sphere,
plus a single use of the PR box per round, reproduce the singlet correlation
E(a, b) = -a.b for arbitrary measurement directions a, b (Cerf, Gisin,
Massar & Popescu, PRL 94, 220403, 2005).  Per round, in boolean form with
[v] = [v >= 0] (the tie convention sgn(0) = +1) and lam+- = lam1 +- lam2:

    x = [a.lam1] xor [a.lam2]        A = o_a xor [a.lam1]
    y = [b.lam+] xor [b.lam-]        B = o_b xor not [b.lam+]

where (o_a, o_b) are the box outputs for inputs (x, y) and a fresh fair box
bit.  The round's sign product is -1 exactly where A != B.  The box bit
cancels from it, since o_a xor o_b = x*y, but stays in the loop: the protocol
uses the box once per round, and each outcome alone is a fair coin only
through it.

Estimators draw ``CHUNK_ROUNDS`` rounds at a time and keep one integer, the
count of rounds with product -1, so memory does not grow with n.  lam1, lam2
and the box bits each have a named substream, which drawn in pieces equals
itself drawn at once: no result depends on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .correlations import _check_bit
from .pr_box import _hidden_outputs

__all__ = [
    "as_unit_vector",
    "SphereSampler",
    "singlet_round",
    "estimate_singlet_correlation",
    "SingletEstimate",
]

#: Rounds per chunk; no result depends on it.  4096 keeps every per-chunk
#: array under glibc's 128 KiB mmap threshold, so chunks reuse heap memory
#: instead of faulting in fresh pages, whatever the process imported first.
CHUNK_ROUNDS = 1 << 12


def as_unit_vector(v) -> np.ndarray:
    """Validate and return a finite unit 3-vector, or a (..., 3) stack of them."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector or a (..., 3) stack, got shape {arr.shape}")
    norm_sq = (arr * arr).sum(axis=-1)
    unit = abs(norm_sq - 1.0) <= 1e-9  # False for NaN and inf rows
    if not unit.all():
        raise ValueError(f"expected finite unit vectors, got squared norm {norm_sq[~unit].flat[0]}")
    return arr


class SphereSampler:
    """Points uniform on the unit sphere, drawn from one generator.

    Sampling contract: z uniform on [-1, 1) and azimuth uniform on
    [-pi, pi), drawn as one (n, 2) block per call, so points drawn in pieces
    equal points drawn at once.  Pass a named ``substream``.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` points, returned as an (n, 3) array."""
        if n < 1:
            raise ValueError("n must be >= 1")
        u = 2.0 * self._rng.random((n, 2)) - 1.0  # rows of (z, azimuth / pi)
        z, phi = u[:, 0], math.pi * u[:, 1]
        r = np.sqrt(1.0 - z * z)
        return np.array([r * np.cos(phi), r * np.sin(phi), z]).T


def singlet_round(a, b, lam1, lam2, box_bit: int) -> tuple[int, int]:
    """One protocol round; returns the outcome bits (A, B).

    ``box_bit`` is the PR box's internal hidden bit for this round.  This is
    the batch kernel called on one round.
    """
    _check_bit("box_bit", box_bit)
    lams = np.asarray([lam1, lam2], dtype=float).reshape(2, 1, 3)
    A, B = _sign_products(as_unit_vector(a), as_unit_vector(b), *lams, np.array([box_bit], bool))
    return int(A[0]), int(B[0])


@dataclass(frozen=True)
class SingletEstimate:
    e_hat: float
    stderr: float


def _sign_products(a, b, lam1: np.ndarray, lam2: np.ndarray, bits: np.ndarray):
    """Outcome bits (A, B), as boolean arrays, of the rounds with hidden
    vectors lam1[i], lam2[i] and box bit bits[i]; product -1 where A != B."""
    s1 = lam1 @ a >= 0.0
    s2 = lam2 @ a >= 0.0
    sp = (lam1 + lam2) @ b >= 0.0
    sm = (lam1 - lam2) @ b >= 0.0
    o_a, o_b = _hidden_outputs(s1 != s2, sp != sm, bits)
    return o_a ^ s1, o_b ^ ~sp


def _chunked_estimate(n: int, disagree) -> SingletEstimate:
    """Mean and standard error of n rounds of +-1 products, by counting.

    ``disagree(m)`` draws the next m <= ``CHUNK_ROUNDS`` rounds and returns
    the boolean mask of those with product -1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chunks = (min(CHUNK_ROUNDS, n - start) for start in range(0, n, CHUNK_ROUNDS))
    k = sum(int(np.count_nonzero(disagree(m))) for m in chunks)
    e_hat = (n - 2 * k) / n
    stderr = math.sqrt((1.0 - e_hat * e_hat) / (n - 1)) if n > 1 else 0.0
    return SingletEstimate(e_hat=e_hat, stderr=stderr)


def estimate_singlet_correlation(a, b, n: int, seed: int) -> SingletEstimate:
    """Estimate E(a, b) over ``n`` independent rounds.

    Fresh lam1, lam2 and a fresh fair box bit are drawn each round.  Returns
    the sample mean of the sign products and its standard error (sample
    standard deviation / sqrt(n); 0.0 for the degenerate n = 1).  The result
    is bit-identical for identical (a, b, n, seed).
    """
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    lam1 = SphereSampler(substream(seed, "singlet-lam1"))
    lam2 = SphereSampler(substream(seed, "singlet-lam2"))
    box = substream(seed, "pr-box-bit")

    def disagree(m: int) -> np.ndarray:
        A, B = _sign_products(a, b, lam1.sample(m), lam2.sample(m), box.random(m) < 0.5)
        return A != B

    return _chunked_estimate(n, disagree)
