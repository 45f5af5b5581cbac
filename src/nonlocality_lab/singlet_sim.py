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

A round reads only signs of projections onto a and b, so the estimators
draw each hidden vector in the orthonormal frame fixed by the settings:
e3 = a and b = cos theta e3 + sin theta e1.  The uniform measure on the
sphere is rotation-invariant, so this is the same distribution.  With the
point at (x, y, z) in that frame, [a.lam] = [z] and b.lam = z cos theta +
x sin theta, where x = sqrt(1 - z^2) cos phi: a round computes no sin phi,
no y and no (n, 3) array.  The crypto model's full-sphere Monte Carlo
samples the same way in the frame of its rotated pair.

Estimators draw ``CHUNK_ROUNDS`` rounds at a time and keep one integer, the
count of rounds with product -1, so memory does not grow with n.  The n
rounds are split into contiguous segments on chunk boundaries, one per usable
CPU up to ``MAX_SEGMENTS``: the caller's thread counts the first, a thread
pool the others, and the counts are summed.  lam1, lam2 and the box bits
each have a named substream, which drawn in pieces equals itself drawn at
once, and a segment opens each stream at its first round by advancing the
generator past the draws of the rounds before it.  Each segment also owns
its scratch: the frame samplers' buffers and the box-bit arrays are
allocated once when it opens its rounds, every chunk is drawn into them,
and no thread touches another's.  The count is an exact integer sum, so no
result depends on the chunk size or the core count.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from ._rng import _whole_number, substream
from .correlations import _check_bit, _numeric_array
from .pr_box import _hidden_outputs

__all__ = [
    "as_unit_vector",
    "SphereSampler",
    "singlet_round",
    "estimate_singlet_correlation",
    "SingletEstimate",
]

#: Rounds per chunk; no result depends on it.  A segment allocates scratch
#: for one chunk when it opens (for the singlet 9 doubles a round, about
#: 0.6 MB at 8192), so a larger chunk buys fewer Python steps and GIL
#: handoffs per round with memory per segment.  On two cores a 1e6-round
#: estimate took 27.3 ms at 4096, 23.1 ms at 8192 and 21.7 ms at 16384:
#: 6 % more speed for twice the scratch.
CHUNK_ROUNDS = 1 << 13

#: Most segments one estimate runs in.  Each segment holds its own scratch,
#: so the cap bounds an estimate's memory on any host: a 1e7-round estimate
#: peaks at about 5.1 MB of traced memory on 8 segments.
MAX_SEGMENTS = 8


def as_unit_vector(v) -> np.ndarray:
    """Validate and return a finite unit 3-vector, or a (..., 3) stack of them."""
    arr = _numeric_array(v)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector or a (..., 3) stack, got shape {arr.shape}")
    norm_sq = (arr * arr).sum(axis=-1)
    unit = abs(norm_sq - 1.0) <= 1e-9  # False for NaN and inf rows
    if not unit.all():
        raise ValueError(f"expected finite unit vectors, got squared norm {norm_sq[~unit].flat[0]}")
    return arr


class SphereSampler:
    """Points uniform on the unit sphere, drawn from one generator.

    Sampling contract: z uniform on [-1, 1) and azimuth phi uniform on
    [-pi, pi), drawn as one (n, 2) block of doubles per call, so points
    drawn in pieces equal points drawn at once.  Each double takes one
    64-bit draw from the generator, so a point takes ``DRAWS_PER_POINT``
    draws.  Pass a named ``substream``.  ``sample`` returns the points in
    world coordinates, (r cos phi, r sin phi, z) with r = sqrt(1 - z^2);
    the estimators read the same (z, phi) doubles through ``_FrameSampler``,
    in the frame of their settings.
    """

    DRAWS_PER_POINT = 2

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def _draw(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fill the (n, 2) block ``u`` with the next n points' (z, phi / pi)
        and return its two columns."""
        self._rng.random(out=u)
        u *= 2.0
        u -= 1.0
        return u[:, 0], u[:, 1]

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` points, returned as an (n, 3) array."""
        if n < 1:
            raise ValueError("n must be >= 1")
        z, phi = self._draw(np.empty((n, 2)))
        phi = phi * math.pi
        r = np.sqrt(1.0 - z * z)
        return np.array([r * np.cos(phi), r * np.sin(phi), z]).T


def _frame(a, b) -> tuple[float, float]:
    """(cos theta, sin theta) of ``b`` in the orthonormal frame where e3 =
    a / |a| and b = cos theta e3 + sin theta e1 with sin theta >= 0.

    cos theta = (a.b) / |a| and sin theta = |a x b| / |a|.  Neither goes
    through sqrt(1 - cos^2 theta), which is NaN once |a.b| exceeds 1 within
    the norm tolerance of ``as_unit_vector``, and the cross product is
    exactly 0 at b = +-a, where e1 is arbitrary and drops out.
    """
    norm = math.sqrt(float(a @ a))
    return float(a @ b) / norm, float(np.linalg.norm(np.cross(a, b))) / norm


class _FrameSampler:
    """The ``SphereSampler`` points of one named substream, from point
    ``start`` on, read as coordinates (x, y, z) in the frame of ``frame`` =
    ``_frame(a, b)``: a.lam = |a| z and b.lam = z cos theta + x sin theta.
    The scratch for ``chunk`` points is allocated here, so each estimator
    segment owns its samplers and no thread shares one.
    """

    def __init__(self, seed: int, label: str, start: int, frame: tuple[float, float], chunk: int):
        rng = _stream_at(seed, label, SphereSampler.DRAWS_PER_POINT * start)
        self._sphere = SphereSampler(rng)
        self._cos, self._sin = frame
        self._u, self._x, self._b = np.empty((chunk, 2)), np.empty(chunk), np.empty(chunk)

    def project(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(z, b.lam) of the next m <= chunk points, views of the scratch
        that hold until the next call."""
        z, phi = self._sphere._draw(self._u[:m])
        x, b_lam = self._x[:m], self._b[:m]
        np.multiply(phi, math.pi, out=x)
        np.cos(x, out=x)
        np.multiply(z, z, out=b_lam)
        np.subtract(1.0, b_lam, out=b_lam)
        np.sqrt(b_lam, out=b_lam)
        x *= b_lam  # r cos(phi)
        x *= self._sin
        np.multiply(z, self._cos, out=b_lam)
        b_lam += x
        return z, b_lam


def singlet_round(a, b, lam1, lam2, box_bit: int) -> tuple[int, int]:
    """One protocol round; returns the outcome bits (A, B).

    ``box_bit`` is the PR box's internal hidden bit for this round, and
    ``lam1``, ``lam2`` are the hidden unit vectors.  This is the batch
    kernel called on one round, with its projections taken by dot products.
    """
    _check_bit("box_bit", box_bit)
    settings = np.stack([as_unit_vector(a), as_unit_vector(b)])
    lams = np.stack([as_unit_vector(lam1), as_unit_vector(lam2)])
    (a1, a2), (b1, b2) = (settings @ lams.T)[..., None]
    A, B = _sign_products(a1, a2, b1, b2, np.array([box_bit], bool))
    return int(A[0]), int(B[0])


class SingletEstimate(NamedTuple):
    """The named (e_hat, stderr) pair that both Monte Carlo estimators return."""

    e_hat: float
    stderr: float


def _sign_products(a1, a2, b1, b2, bits: np.ndarray):
    """Outcome bits (A, B), as boolean arrays, of the rounds with projections
    a.lam1 = a1[i], a.lam2 = a2[i], b.lam1 = b1[i], b.lam2 = b2[i] and box bit
    bits[i]; product -1 where A != B.  b.lam+- is b1 +- b2.  Only the signs
    of a1 and a2 are read, so the estimators pass the frame coordinate z for
    them, and ``singlet_round`` passes dot products."""
    s1 = a1 >= 0.0
    s2 = a2 >= 0.0
    sp = b1 + b2 >= 0.0
    sm = b1 - b2 >= 0.0
    o_a, o_b = _hidden_outputs(s1 != s2, sp != sm, bits)
    return o_a ^ s1, o_b ^ ~sp


def _stream_at(seed: int, label: str, draws: int) -> np.random.Generator:
    """The named substream of ``seed`` with its first ``draws`` 64-bit
    draws skipped, as if they had been drawn."""
    rng = substream(seed, label)
    rng.bit_generator.advance(draws)
    return rng


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunked_estimate(n: int, open_rounds) -> SingletEstimate:
    """Mean and standard error of n rounds of +-1 products, by counting.

    ``open_rounds(start, chunk)`` allocates the segment's scratch and
    returns a ``disagree(m)`` that draws the next m <= ``chunk`` rounds, the
    first of them round ``start``, into that scratch, and returns the boolean
    mask of those with product -1.  Each segment opens its own rounds; an
    error in any is raised here, the first in segment order, once the pool
    that counts all but segment 0 has joined its threads.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging, so not at import time
    n = _whole_number("n", n, 1)
    chunks = -(-n // CHUNK_ROUNDS)
    segments = min(_usable_cpus(), MAX_SEGMENTS, chunks)
    bounds = [CHUNK_ROUNDS * (chunks * i // segments) for i in range(segments)] + [n]

    def count(start: int, stop: int) -> int:
        disagree = open_rounds(start, min(CHUNK_ROUNDS, stop - start))
        return sum(
            int(np.count_nonzero(disagree(min(CHUNK_ROUNDS, stop - first))))
            for first in range(start, stop, CHUNK_ROUNDS)
        )

    with ThreadPoolExecutor(max(1, segments - 1)) as pool:
        others = pool.map(count, bounds[1:-1], bounds[2:])
        k = count(bounds[0], bounds[1]) + sum(others)
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
    frame = _frame(as_unit_vector(a), as_unit_vector(b))

    def open_rounds(start: int, chunk: int):
        lam1 = _FrameSampler(seed, "singlet-lam1", start, frame, chunk)
        lam2 = _FrameSampler(seed, "singlet-lam2", start, frame, chunk)
        box = _stream_at(seed, "pr-box-bit", start)  # one draw per box bit
        draws, bits = np.empty(chunk), np.empty(chunk, bool)

        def disagree(m: int) -> np.ndarray:
            a1, b1 = lam1.project(m)
            a2, b2 = lam2.project(m)
            bits_m = np.less(box.random(out=draws[:m]), 0.5, out=bits[:m])
            A, B = _sign_products(a1, a2, b1, b2, bits_m)
            return A != B

        return disagree

    return _chunked_estimate(n, open_rounds)
