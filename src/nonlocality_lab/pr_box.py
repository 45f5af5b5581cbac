"""The Popescu-Rohrlich box and its deterministic hidden-variable model.

The PR box is the extremal no-signaling device: binary inputs x, y and
binary outputs a, b constrained by a + b = x*y (mod 2), with uniformly
random outputs.  It saturates the algebraic CHSH maximum F = 4.  A single
hidden bit reproduces the box deterministically:

    a = x xor lam,    b = x xor lam xor x*y.

The output b depends on the remote input x, which is where the nonlocality
of the realization sits.
"""

from __future__ import annotations

import numpy as np

from .correlations import (
    ATOL,
    BoxTable,
    ChshReport,
    CorrelationSet,
    _check_bit,
    _numeric_array,
    chsh_value,
    correlation_from_table,
)

__all__ = [
    "pr_relation_holds",
    "pr_hidden_outputs",
    "pr_ideal_table",
    "pr_table_from_hidden",
    "pr_chsh",
]


def pr_relation_holds(x, y, a, b):
    """The defining constraint a + b = x*y (mod 2), on bits or on integer
    arrays alike."""
    return (a + b) % 2 == (x * y) % 2


def _hidden_outputs(x, y, lam):
    """The box formula, unchecked, on bits or on integer or boolean arrays alike."""
    a = x ^ lam
    return a, a ^ (x & y)


def pr_hidden_outputs(x: int, y: int, lam: int) -> tuple[int, int]:
    """Deterministic outputs of the one-bit hidden-variable model."""
    _check_bit("x", x)
    _check_bit("y", y)
    _check_bit("lam", lam)
    return _hidden_outputs(x, y, lam)


def pr_ideal_table() -> BoxTable:
    """The ideal PR box: the two pairs allowed by the constraint get 1/2 each."""
    return BoxTable(0.5 * pr_relation_holds(*np.indices((2, 2, 2, 2))))


def pr_table_from_hidden(prior: tuple[float, float] = (0.5, 0.5)) -> BoxTable:
    """Box table obtained by averaging the deterministic model over lam.

    ``prior`` is exactly two int or float weights (P(lam=0), P(lam=1));
    str and bool weights are rejected, not converted.  With the fair prior
    this reproduces ``pr_ideal_table`` exactly.  Degenerate priors give
    deterministic tables that still satisfy the PR constraint but leak the
    remote input into the marginals (parameter independence fails).
    """
    try:
        p0, p1 = _numeric_array(prior).tolist()
        valid = p0 >= 0.0 and p1 >= 0.0 and abs(p0 + p1 - 1.0) <= ATOL  # False for NaN
    except (TypeError, ValueError):  # not two numbers
        valid = False
    if not valid:
        raise ValueError(
            f"prior must be two finite non-negative weights summing to 1, got {prior!r}"
        )
    x, y, lam = np.indices((2, 2, 2))
    probs = np.zeros((2, 2, 2, 2))
    a, b = _hidden_outputs(x, y, lam)
    # the two lam values of a setting pair land on different (a, b) cells
    probs[x, y, a, b] += np.array([p0, p1])[lam]
    return BoxTable(probs)


def pr_chsh() -> ChshReport:
    """CHSH report of the ideal box: f = 4 exactly, superquantum."""
    table = pr_ideal_table()
    corr = CorrelationSet(
        e_ab=correlation_from_table(table, 0, 0),
        e_ab_prime=correlation_from_table(table, 0, 1),
        e_a_prime_b=correlation_from_table(table, 1, 0),
        e_a_prime_b_prime=correlation_from_table(table, 1, 1),
    )
    return chsh_value(corr)
