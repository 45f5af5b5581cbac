"""Deterministic named RNG substreams.

All randomness in the toolkit flows from a single user-facing seed.  Distinct
consumers (Monte Carlo batches, direction pickers, the PR-box internal bit,
...) derive independent generators by hashing (seed, label), so adding a new
consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "substream"]


def _whole_number(name: str, value: int, minimum: int | None) -> int:
    """``int(value)`` if it is a Python or numpy integer, not a bool, and at
    least ``minimum`` (any sign for None); floats such as 2.0 and strings are
    rejected, not truncated.  The one whole-number rule of the package."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be a whole number{bound}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def derive_seed(seed: int, label: str) -> int:
    """64-bit seed from SHA-256 of ``(seed, label)``; platform independent.
    ``seed`` is a whole number of any sign, never truncated from a float."""
    seed = _whole_number("seed", seed, None)
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, label: str) -> np.random.Generator:
    """Generator for the named substream of ``seed``."""
    return np.random.default_rng(derive_seed(seed, label))
