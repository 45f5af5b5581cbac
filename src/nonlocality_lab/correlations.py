"""Phenomenological layer for binary-input/binary-output boxes.

A two-party box is described by its conditional outcome distribution
P(a, b | x, y) with settings x, y and outcomes a, b all in {0, 1}.  This
module provides the probability-table container, the correlation functional,
the CHSH combination with its three-way classification (local / quantum
nonlocal / superquantum), and formal checkers for no-signaling, outcome
independence (OI), parameter independence (PI) and full locality.

Sign convention, used everywhere in the toolkit: bit 0 maps to +1 and bit 1
maps to -1, i.e. sign = 1 - 2*bit.  A correlation is then
E(x, y) = P(equal signs | x, y) - P(unequal signs | x, y).

All values are immutable after construction and safe to share between
threads or processes.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOL",
    "TSIRELSON_BOUND",
    "NonlocalityClass",
    "BoxTable",
    "CorrelationSet",
    "ChshReport",
    "OutcomeWitness",
    "ParameterWitness",
    "IndependenceResult",
    "correlation_from_table",
    "chsh_class_codes",
    "classify_chsh",
    "chsh_sum",
    "chsh_value",
    "check_no_signaling",
    "check_outcome_independence",
    "check_parameter_independence",
    "locality_check",
]

#: Absolute tolerance of every table-level equality check.
ATOL = 1e-12

#: Quantum-mechanical maximum of |F|.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

BITS = (0, 1)

#: Setting-pair keys of the JSON wire format, in (x, y) row-major order.
_JSON_KEYS = ["0,0", "0,1", "1,0", "1,1"]

#: Sign products s_a s_b, indexed [a, b], with sign = 1 - 2*bit.
_SIGN_PRODUCTS = np.array([[1.0, -1.0], [-1.0, 1.0]])


class NonlocalityClass(enum.Enum):
    """Classification of a CHSH value |f|: local (<= 2), quantum nonlocal
    (<= 2*sqrt(2)) or superquantum (anything beyond, up to the algebraic 4).

    Boundary values fall in the weaker class: both bounds are non-strict.
    """

    LOCAL = "local"
    QUANTUM_NONLOCAL = "quantum_nonlocal"
    SUPERQUANTUM = "superquantum"

    def __str__(self) -> str:  # CSV / CLI friendly
        return self.value


def _check_bit(name: str, value: int) -> int:
    """``int(value)`` if it is an integer or bool equal to 0 or 1; floats such
    as 1.0 and strings are rejected, not coerced."""
    if not isinstance(value, (int, np.integer, np.bool_)) or value not in BITS:
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _holds_bool(value) -> bool:
    """Whether list or tuple input holds a bool, numpy bool or bool array at any depth."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool) or getattr(value, "dtype", None) == bool


def _numeric_array(value, dtype: type = float) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or complex.  str, bool and
    object input, a bool among the numbers of list or tuple input, and
    complex input for a float array raise ``ValueError`` instead of being
    converted.  Only list and tuple input is searched for bools."""
    arr = np.asarray(value)
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        problem = f"dtype {arr.dtype}"
    elif isinstance(value, (list, tuple)) and _holds_bool(value):
        problem = "a bool element"
    else:
        return arr.astype(dtype, copy=False)
    kinds = "int, float or complex" if dtype is complex else "int or float"
    raise ValueError(f"expected {kinds} values, got {problem}")


def _one_number(name: str, value) -> float:
    """One int or float ``value`` (a 0-d array is one) as a float; a list, an
    array with axes or input ``_numeric_array`` rejects raises ``ValueError``."""
    arr = _numeric_array(value)
    if arr.ndim:
        raise ValueError(f"{name} must be a scalar, got {value!r}")
    return arr.item()


class BoxTable:
    """Conditional outcome distribution P(a, b | x, y), all indices binary.

    The table is stored as a read-only array of shape (2, 2, 2, 2) indexed
    [x, y, a, b].  Construction validates that every entry is finite and lies
    in [0, 1] and that each setting row sums to 1 within ``ATOL``.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: np.ndarray):
        arr = _numeric_array(probs)
        if arr.shape != (2, 2, 2, 2):
            raise ValueError(f"expected shape (2, 2, 2, 2), got {arr.shape}")
        if not np.all((arr >= -ATOL) & (arr <= 1.0 + ATOL)):
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        row_sums = arr.sum(axis=(2, 3))
        if np.any(np.abs(row_sums - 1.0) > ATOL):
            raise ValueError(f"setting rows must sum to 1, got {row_sums!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        self._probs = arr

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def prob(self, x: int, y: int, a: int, b: int) -> float:
        return float(self._probs[tuple(map(_check_bit, "xyab", (x, y, a, b)))])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxTable):
            return NotImplemented
        return bool(np.array_equal(self._probs, other._probs))

    def __hash__(self) -> int:
        return hash(tuple(self._probs.ravel().tolist()))  # hash(-0.0) == hash(0.0), as for ==

    def __repr__(self) -> str:
        return f"BoxTable({self._probs.tolist()!r})"

    # -- JSON wire format: {"x,y": [P(0,0), P(0,1), P(1,0), P(1,1)], ...} --

    def to_json(self) -> str:
        return json.dumps(dict(zip(_JSON_KEYS, self._probs.reshape(4, 4).tolist())))

    @classmethod
    def from_json(cls, text: str) -> "BoxTable":
        """Parse ``to_json`` output; raise ValueError on any malformed input."""
        obj = json.loads(text, parse_int=float)  # a huge int parses to inf
        if not isinstance(obj, dict) or sorted(obj) != _JSON_KEYS:
            raise ValueError(f"expected a JSON object with exactly the keys {_JSON_KEYS}")
        for key in _JSON_KEYS:
            if not isinstance(obj[key], list) or [type(p) for p in obj[key]] != [float] * 4:
                raise ValueError(f"row {key} must be a list of 4 numbers")
        return cls(np.array([obj[key] for key in _JSON_KEYS]).reshape(2, 2, 2, 2))


@dataclass(frozen=True)
class CorrelationSet:
    """The four correlations entering the CHSH combination."""

    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not -1.0 - 1e-9 <= _one_number(name, value) <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {value} outside [-1, 1]")


@dataclass(frozen=True)
class ChshReport:
    f: float
    nonlocality: NonlocalityClass


@dataclass(frozen=True)
class OutcomeWitness:
    """First tuple violating outcome independence.

    ``party`` is the side whose conditional changed ("a" or "b"), ``given``
    the conditioning outcome on the other side.
    """

    party: str
    x: int
    y: int
    given: int
    outcome: int
    conditional: float
    marginal: float


@dataclass(frozen=True)
class ParameterWitness:
    """First marginal found to depend on the remote setting."""

    party: str
    setting: int
    outcome: int
    prob_remote0: float
    prob_remote1: float


@dataclass(frozen=True)
class IndependenceResult:
    ok: bool
    max_deviation: float
    witness: OutcomeWitness | ParameterWitness | None


def correlation_from_table(table: BoxTable, x: int, y: int) -> float:
    """Correlation E(x, y) of sign-mapped outcomes for one setting pair.

    Returns P(equal signs | x, y) - P(unequal signs | x, y), in [-1, 1].
    """
    row = table.probs[_check_bit("x", x), _check_bit("y", y)]
    return float((row * _SIGN_PRODUCTS).sum())


def chsh_class_codes(f) -> np.ndarray:
    """Elementwise class of CHSH values as an index into ``NonlocalityClass``:
    0 local (|f| <= 2), 1 quantum nonlocal (|f| <= 2*sqrt(2)), else 2 (NaN too)."""
    abs_f = np.abs(f)
    return 2 - (abs_f <= 2.0) - (abs_f <= TSIRELSON_BOUND)


def classify_chsh(f: float) -> NonlocalityClass:
    return tuple(NonlocalityClass)[int(chsh_class_codes(f))]


def chsh_sum(e):
    """CHSH combination e[0] + e[1] + e[2] - e[3] over a leading axis of
    length 4 in the order (a,b), (a,b'), (a',b), (a',b'); elementwise below it."""
    return e[0] + e[1] + e[2] - e[3]


def chsh_value(corr: CorrelationSet) -> ChshReport:
    """CHSH combination f = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    f = chsh_sum((corr.e_ab, corr.e_ab_prime, corr.e_a_prime_b, corr.e_a_prime_b_prime))
    return ChshReport(f=f, nonlocality=classify_chsh(f))


def check_no_signaling(table: BoxTable) -> IndependenceResult:
    """No marginal may depend on the remote setting: the PI scan, witness included."""
    return check_parameter_independence(table)


def _first_violation(gap: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first entry of ``gap`` above ``ATOL`` in C order, or None."""
    violated = gap > ATOL
    if not violated.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(violated), gap.shape))


def check_outcome_independence(table: BoxTable) -> IndependenceResult:
    """P(a | x, y, b) = P(a | x, y) and symmetrically, wherever defined.

    Conditionals on outcomes of probability at most ``ATOL`` are skipped, not
    treated as violations.  The witness reports the first violating tuple in
    scan order (x, y, party, given, outcome), party "a" before "b".
    """
    probs = table.probs
    pa, pb = probs.sum(axis=3), probs.sum(axis=2)  # P(a | x, y), P(b | x, y)
    # axes [x, y, party, given, outcome]; party "a" is conditioned on b
    joint = np.stack([probs.swapaxes(2, 3), probs], axis=2)
    denom = np.stack([pb, pa], axis=2)[..., None]
    marginal = np.stack([pa, pb], axis=2)[:, :, :, None, :]
    defined = denom > ATOL
    conditional = joint / np.where(defined, denom, 1.0)
    gap = np.where(defined, np.abs(conditional - marginal), 0.0)
    at = _first_violation(gap)
    witness = None
    if at is not None:
        x, y, party, given, outcome = at
        witness = OutcomeWitness(
            "ab"[party], x, y, given, outcome,
            float(conditional[at]), float(marginal[x, y, party, 0, outcome]),
        )
    return IndependenceResult(ok=at is None, max_deviation=float(gap.max()), witness=witness)


def check_parameter_independence(table: BoxTable) -> IndependenceResult:
    """P(a | x, y) = P(a | x) and symmetrically.

    At the table level this coincides with marginal invariance under the
    remote setting (the no-signaling condition), but it additionally reports
    a witness for the first violating marginal, scanned in the order
    (party, own setting, outcome).
    """
    probs = table.probs
    # axes [party, own setting, remote setting, own outcome]
    marginals = np.stack([probs.sum(axis=3), probs.sum(axis=2).transpose(1, 0, 2)])
    gap = np.abs(marginals[:, :, 0] - marginals[:, :, 1])
    at = _first_violation(gap)
    witness = None
    if at is not None:
        party, setting, outcome = at
        p0, p1 = (float(p) for p in marginals[party, setting, :, outcome])
        witness = ParameterWitness("ab"[party], setting, outcome, p0, p1)
    return IndependenceResult(ok=at is None, max_deviation=float(gap.max()), witness=witness)


def locality_check(table: BoxTable) -> bool:
    """True iff P(a, b | x, y) factorizes as P(a | x) P(b | y).

    Candidate marginals are read off the table itself (at remote setting 0);
    if the table factorizes at all, these are the factors.  Equivalent to
    the conjunction of outcome and parameter independence.
    """
    probs = table.probs
    pa = probs[:, 0].sum(axis=2)  # P(a | x), indexed [x, a]
    pb = probs[0].sum(axis=1)  # P(b | y), indexed [y, b]
    product = pa[:, None, :, None] * pb[None, :, None, :]
    return bool(np.all(np.abs(probs - product) <= ATOL))
