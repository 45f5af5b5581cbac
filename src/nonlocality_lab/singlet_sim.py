"""Monte Carlo simulation of singlet-state correlations from one PR box.

Two hidden unit vectors lam1, lam2, uniform and independent on the sphere,
plus a single use of the PR box per round, reproduce the singlet correlation
E(a, b) = -a.b for arbitrary measurement directions a, b.  Per round, with
sgn taking values in {-1, +1}:

    x = (sgn(a.lam1) + sgn(a.lam2))/2 + 1   (mod 2)
    y = (sgn(b.lam+) + sgn(b.lam-))/2 + 1   (mod 2)      lam+- = lam1 +- lam2
    A = o_a + (sgn(a.lam1) + 1)/2           (mod 2)
    B = o_b + (sgn(b.lam+) - 1)/2           (mod 2)

where (o_a, o_b) are the box outputs for inputs (x, y).  The box's internal
randomness is a fresh fair bit each round.  lam+- enter unnormalized; the
tie convention sgn(0) = +1 covers the measure-zero case lam1 = lam2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .pr_box import pr_hidden_outputs

__all__ = [
    "sgn",
    "as_unit_vector",
    "SphereSampler",
    "singlet_round",
    "estimate_singlet_correlation",
    "SingletEstimate",
]


def sgn(r: float) -> int:
    """Sign with range {-1, +1}; sgn(0) = +1 by convention."""
    return 1 if r >= 0.0 else -1


def as_unit_vector(v, atol: float = 1e-9) -> np.ndarray:
    """Validate and return a finite 3-vector of unit length."""
    arr = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(arr)) or abs(arr @ arr - 1.0) > atol:
        raise ValueError(f"expected a finite unit vector, got squared norm {arr @ arr}")
    return arr


class SphereSampler:
    """Deterministic stream of points uniform on the unit sphere.

    Sampling contract: z uniform on [-1, 1], azimuth uniform on [0, 2*pi).
    Identical seeds give identical streams; ``counter`` tracks how many
    points have been drawn.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.counter = 0
        self._rng = np.random.default_rng(self.seed)

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` points, returned as an (n, 3) array."""
        if n < 1:
            raise ValueError("n must be >= 1")
        z = self._rng.uniform(-1.0, 1.0, size=n)
        phi = self._rng.uniform(0.0, 2.0 * math.pi, size=n)
        r = np.sqrt(1.0 - z * z)
        self.counter += n
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def singlet_round(a, b, lam1, lam2, box_bit: int) -> tuple[int, int]:
    """One protocol round; returns the outcome bits (A, B).

    ``box_bit`` is the PR box's internal hidden bit for this round.  The
    round is fully deterministic given its arguments, which makes the
    formula traceable; batch estimation uses an equivalent vectorized path.
    """
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


@dataclass(frozen=True)
class SingletEstimate:
    e_hat: float
    stderr: float


def _sign_products(a, b, lam1: np.ndarray, lam2: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Vectorized sign products of a batch of rounds (same formulas as
    ``singlet_round``, broadcast over the leading axis)."""
    s1 = np.where(lam1 @ a >= 0.0, 1, -1)
    s2 = np.where(lam2 @ a >= 0.0, 1, -1)
    sp = np.where((lam1 + lam2) @ b >= 0.0, 1, -1)
    sm = np.where((lam1 - lam2) @ b >= 0.0, 1, -1)
    x = ((s1 + s2) // 2 + 1) % 2
    y = ((sp + sm) // 2 + 1) % 2
    o_a = (x + bits) % 2
    o_b = (x + bits - x * y) % 2
    A = (o_a + (s1 + 1) // 2) % 2
    B = (o_b + (sp - 1) // 2) % 2
    return (1 - 2 * A) * (1 - 2 * B)


def estimate_singlet_correlation(a, b, n: int, seed: int) -> SingletEstimate:
    """Estimate E(a, b) over ``n`` independent rounds.

    Fresh lam1, lam2 and a fresh fair box bit are drawn each round.  Returns
    the sample mean of the sign products and its standard error (sample
    standard deviation / sqrt(n); 0.0 for the degenerate n = 1).  The result
    is bit-identical for identical (a, b, n, seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    sampler = SphereSampler(seed)
    lam1 = sampler.sample(n)
    lam2 = sampler.sample(n)
    bits = substream(seed, "pr-box-bit").integers(0, 2, size=n)
    products = _sign_products(a, b, lam1, lam2, bits)
    e_hat = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SingletEstimate(e_hat=e_hat, stderr=stderr)
