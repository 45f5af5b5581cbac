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
count of rounds with product -1, so memory does not grow with n.  The n
rounds are split into contiguous segments on chunk boundaries, one per usable
CPU up to ``MAX_SEGMENTS``: the caller's thread counts the first, one thread
each the others, and the counts are summed.  lam1, lam2 and the box bits
each have a named substream, which drawn in pieces equals itself drawn at
once, and a segment opens each stream at its first round by advancing the
generator past the draws of the rounds before it.  Each segment also owns its scratch: the
sampling buffers and box-bit arrays are allocated once when it opens its
rounds, every chunk is drawn into them, and no thread touches another's.
The count is an exact integer sum, so no result depends on the chunk size
or the core count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

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
#: for one chunk when it opens (about 0.7 MB for the singlet at 8192), so a
#: larger chunk buys fewer Python steps and GIL handoffs per round with
#: memory per segment.  On two cores 8192 ran 19 % faster than 4096, while
#: 16384 gained 4 % more for 8 % more peak RSS.
CHUNK_ROUNDS = 1 << 13

#: Most segments one estimate runs in.  Each segment holds its own scratch,
#: so the cap bounds an estimate's memory on any host: uncapped, a 1e7-round
#: estimate peaked at about 7.5 MB of traced memory on 8 segments and 49.5 MB
#: on 64.
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

    Sampling contract: z uniform on [-1, 1) and azimuth uniform on
    [-pi, pi), drawn as one (n, 2) block of doubles per call, so points
    drawn in pieces equal points drawn at once.  Each double takes one
    64-bit draw from the generator, so a point takes ``DRAWS_PER_POINT``
    draws.  Pass a named ``substream``.
    """

    DRAWS_PER_POINT = 2
    #: Doubles of scratch that ``sample`` uses per point.
    SCRATCH_PER_POINT = 5

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def sample(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw ``n`` points, returned as an (n, 3) array.

        The points are the rows of ``flat[:3 * n].reshape(3, n).T``, an
        F-ordered view of the scratch ``flat``: ``out`` when given, else a
        fresh array.  ``out`` is a contiguous 1-D float64 array of at least
        ``SCRATCH_PER_POINT * n`` doubles, and the call overwrites that many,
        so the view it returns holds only until the next call with the same
        ``out``.  Each estimator segment owns one buffer per sampler; a
        buffer is never shared between threads.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        flat = np.empty(self.SCRATCH_PER_POINT * n) if out is None else out
        points = flat[: 3 * n].reshape(3, n)
        x, y, z = points
        u = self._rng.random(out=flat[3 * n : 5 * n].reshape(n, 2))  # rows of (z, azimuth / pi)
        u *= 2.0
        u -= 1.0
        np.multiply(u[:, 1], math.pi, out=y)  # the azimuth phi
        np.cos(y, out=x)
        np.sin(y, out=y)
        z[:] = u[:, 0]
        r = flat[3 * n : 4 * n]  # over u, which is spent
        np.multiply(z, z, out=r)
        np.subtract(1.0, r, out=r)
        np.sqrt(r, out=r)
        x *= r
        y *= r
        return points.T


def singlet_round(a, b, lam1, lam2, box_bit: int) -> tuple[int, int]:
    """One protocol round; returns the outcome bits (A, B).

    ``box_bit`` is the PR box's internal hidden bit for this round, and
    ``lam1``, ``lam2`` are the hidden unit vectors.  This is the batch
    kernel called on one round.
    """
    _check_bit("box_bit", box_bit)
    lams = np.stack([as_unit_vector(lam1), as_unit_vector(lam2)]).reshape(2, 1, 3)
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
    error in any segment is raised here once every thread has ended.
    """
    n = _whole_number("n", n, 1)
    chunks = -(-n // CHUNK_ROUNDS)
    segments = min(_usable_cpus(), MAX_SEGMENTS, chunks)
    bounds = [CHUNK_ROUNDS * (chunks * i // segments) for i in range(segments)] + [n]
    counts = [0] * segments
    errors: list[BaseException | None] = [None] * segments

    def count(i: int) -> None:
        try:
            start, stop = bounds[i], bounds[i + 1]
            disagree = open_rounds(start, min(CHUNK_ROUNDS, stop - start))
            counts[i] = sum(
                int(np.count_nonzero(disagree(min(CHUNK_ROUNDS, stop - first))))
                for first in range(start, stop, CHUNK_ROUNDS)
            )
        except BaseException as exc:  # re-raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=count, args=(i,)) for i in range(1, segments)]
    for thread in threads:
        thread.start()
    try:
        count(0)
    finally:
        for thread in threads:
            thread.join()
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error
    k = sum(counts)
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

    def open_rounds(start: int, chunk: int):
        skip = SphereSampler.DRAWS_PER_POINT * start
        lam1 = SphereSampler(_stream_at(seed, "singlet-lam1", skip))
        lam2 = SphereSampler(_stream_at(seed, "singlet-lam2", skip))
        box = _stream_at(seed, "pr-box-bit", start)  # one draw per box bit
        scratch1, scratch2 = np.empty((2, SphereSampler.SCRATCH_PER_POINT * chunk))
        draws, bits = np.empty(chunk), np.empty(chunk, bool)

        def disagree(m: int) -> np.ndarray:
            lam1_m = lam1.sample(m, out=scratch1)
            lam2_m = lam2.sample(m, out=scratch2)
            bits_m = np.less(box.random(out=draws[:m]), 0.5, out=bits[:m])
            A, B = _sign_products(a, b, lam1_m, lam2_m, bits_m)
            return A != B

        return disagree

    return _chunked_estimate(n, open_rounds)
