"""Tests for the box-table layer: correlations, CHSH, formal checkers."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocality_lab.correlations import (
    ATOL,
    TSIRELSON_BOUND,
    BoxTable,
    CorrelationSet,
    IndependenceResult,
    NonlocalityClass,
    OutcomeWitness,
    ParameterWitness,
    _check_bit,
    check_no_signaling,
    check_outcome_independence,
    check_parameter_independence,
    chsh_class_codes,
    chsh_sum,
    chsh_value,
    classify_chsh,
    correlation_from_table,
    locality_check,
)
from nonlocality_lab.pr_box import pr_hidden_outputs, pr_ideal_table, pr_table_from_hidden
from nonlocality_lab.singlet_sim import singlet_round

BITS = (0, 1)
JSON_KEYS = ["0,0", "0,1", "1,0", "1,1"]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def spin_op(direction):
    return sum(direction[i] * PAULI[k] for i, k in enumerate("xyz"))


def singlet_correlation_dense(u, v):
    """<phi-| (u.sigma) x (v.sigma) |phi-> by explicit matrices."""
    op = np.kron(spin_op(u), spin_op(v))
    return float(np.real(SINGLET.conj() @ (op @ SINGLET)))


def sign_of_bit(bit):
    """Map an outcome bit to its sign: 0 -> +1, 1 -> -1."""
    return 1 - 2 * _check_bit("outcome bit", bit)


def singlet_table_dense(a0, a1, b0, b1):
    """Quantum box table from projector expectations on the singlet."""
    eye = np.eye(2)
    probs = np.empty((2, 2, 2, 2))
    for x, u in enumerate((a0, a1)):
        for y, v in enumerate((b0, b1)):
            for a in BITS:
                for b in BITS:
                    proj_a = (eye + sign_of_bit(a) * spin_op(u)) / 2.0
                    proj_b = (eye + sign_of_bit(b) * spin_op(v)) / 2.0
                    op = np.kron(proj_a, proj_b)
                    probs[x, y, a, b] = float(np.real(SINGLET.conj() @ (op @ SINGLET)))
    return BoxTable(probs)


def uniform_table():
    return BoxTable(np.full((2, 2, 2, 2), 0.25))


def product_table(pa, pb):
    """P(a,b|x,y) = pa[x][a] * pb[y][b]."""
    probs = np.empty((2, 2, 2, 2))
    for x in BITS:
        for y in BITS:
            for a in BITS:
                for b in BITS:
                    probs[x, y, a, b] = pa[x][a] * pb[y][b]
    return BoxTable(probs)


def plane_direction(beta):
    return np.array([math.sin(beta), 0.0, math.cos(beta)])


def outcome_independence_loops(table):
    """The checker as a scan over bits in the documented order
    (x, y, party, given, outcome)."""
    probs = table.probs
    witness = None
    deviation = 0.0
    for x in BITS:
        for y in BITS:
            for party in ("a", "b"):
                for given in BITS:
                    if party == "a":
                        denom = float(probs[x, y, :, given].sum())
                    else:
                        denom = float(probs[x, y, given, :].sum())
                    if denom <= ATOL:
                        continue
                    for outcome in BITS:
                        if party == "a":
                            joint = float(probs[x, y, outcome, given])
                            marginal = float(probs[x, y, outcome, :].sum())
                        else:
                            joint = float(probs[x, y, given, outcome])
                            marginal = float(probs[x, y, :, outcome].sum())
                        conditional = joint / denom
                        gap = abs(conditional - marginal)
                        deviation = max(deviation, gap)
                        if gap > ATOL and witness is None:
                            witness = OutcomeWitness(
                                party, x, y, given, outcome, conditional, marginal
                            )
    return IndependenceResult(ok=witness is None, max_deviation=deviation, witness=witness)


def parameter_independence_loops(table):
    """The checker as a scan over (party, own setting, outcome)."""
    # marginals indexed [own setting, remote setting, own outcome]
    marginals = {
        "a": table.probs.sum(axis=3),
        "b": table.probs.sum(axis=2).transpose(1, 0, 2),
    }
    witness = None
    deviation = 0.0
    for party, marginal in marginals.items():
        for setting in BITS:
            for outcome in BITS:
                p0, p1 = (float(p) for p in marginal[setting, :, outcome])
                gap = abs(p0 - p1)
                deviation = max(deviation, gap)
                if gap > ATOL and witness is None:
                    witness = ParameterWitness(party, setting, outcome, p0, p1)
    return IndependenceResult(ok=witness is None, max_deviation=deviation, witness=witness)


# random-table strategy: eight positive weights, two normalized rows each
row_strategy = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=4, max_size=4
)


# sparse rows: exact zeros, and a deterministic row whenever one weight is left
sparse_row_strategy = st.lists(
    st.just(0.0) | st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=4,
    max_size=4,
).filter(any)


@st.composite
def box_tables(draw, rows=row_strategy):
    probs = np.empty((2, 2, 2, 2))
    for x in BITS:
        for y in BITS:
            row = np.asarray(draw(rows))
            probs[x, y] = (row / row.sum()).reshape(2, 2)
    return BoxTable(probs)


def sparse_box_tables():
    return box_tables(sparse_row_strategy)


def corner_table(p):
    """Uniform rows, except (x, y) = (0, 0), which is [[p, 0], [0, 1 - p]]."""
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[p, 0.0], [0.0, 1.0 - p]]
    return BoxTable(probs)


@st.composite
def product_tables(draw):
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    pa = [[p, 1.0 - p] for p in (draw(unit), draw(unit))]
    pb = [[p, 1.0 - p] for p in (draw(unit), draw(unit))]
    return product_table(pa, pb)


# ---------------------------------------------------------------------------
# BoxTable container
# ---------------------------------------------------------------------------


class TestBoxTable:
    def test_validation_shape(self):
        with pytest.raises(ValueError, match="shape"):
            BoxTable(np.zeros((2, 2, 2)))

    def test_validation_range(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0] = [[1.5, -0.5], [0.0, 0.0]]
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BoxTable(probs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_validation_non_finite(self, bad):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            BoxTable(probs)

    @pytest.mark.parametrize(
        "probs",
        [np.full((2, 2, 2, 2), "0.25"), np.full((2, 2, 2, 2), 0.25).astype(object)],
        ids=["str", "object"],
    )
    def test_validation_non_numeric(self, probs):
        with pytest.raises(ValueError, match="int or float"):
            BoxTable(probs)

    def test_validation_bool(self):
        # a bool table whose rows sum to 1 as integers must still be refused
        probs = np.zeros((2, 2, 2, 2), dtype=bool)
        probs[..., 0, 0] = True
        with pytest.raises(ValueError, match="int or float"):
            BoxTable(probs)
        assert BoxTable(probs.astype(int)).prob(0, 0, 0, 0) == 1.0

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_from_json_rejects_non_finite(self, bad):
        obj = json.loads(uniform_table().to_json())
        text = json.dumps(obj).replace("0.25", bad, 1)
        assert bad in text
        with pytest.raises(ValueError, match="finite"):
            BoxTable.from_json(text)

    @settings(max_examples=50)
    @given(st.sets(st.sampled_from(JSON_KEYS), min_size=1))
    def test_from_json_rejects_missing_key(self, missing):
        obj = json.loads(uniform_table().to_json())
        for key in missing:
            del obj[key]
        with pytest.raises(ValueError, match="keys"):
            BoxTable.from_json(json.dumps(obj))

    @settings(max_examples=50)
    @given(st.text().filter(lambda key: key not in JSON_KEYS), JSON_VALUES)
    def test_from_json_rejects_extra_key(self, key, value):
        obj = json.loads(uniform_table().to_json())
        obj[key] = value
        with pytest.raises(ValueError, match="keys"):
            BoxTable.from_json(json.dumps(obj))

    @settings(max_examples=50)
    @given(JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
    def test_from_json_rejects_non_object(self, value):
        with pytest.raises(ValueError, match="JSON object"):
            BoxTable.from_json(json.dumps(value))

    @settings(max_examples=50)
    @given(
        st.sampled_from(JSON_KEYS),
        st.one_of(
            JSON_VALUES.filter(lambda value: not isinstance(value, list)),
            st.lists(JSON_VALUES).filter(
                lambda row: len(row) != 4 or any(type(p) not in (int, float) for p in row)
            ),
        ),
    )
    def test_from_json_rejects_bad_row(self, key, row):
        obj = json.loads(uniform_table().to_json())
        obj[key] = row
        with pytest.raises(ValueError, match=f"row {key} must be a list of 4 numbers"):
            BoxTable.from_json(json.dumps(obj))

    def test_from_json_accepts_integer_entries(self):
        obj = json.loads(pr_ideal_table().to_json())
        obj["0,0"] = [1, 0, 0, 0]
        obj["0,1"] = [0, 0, 0, 1]
        assert BoxTable.from_json(json.dumps(obj)).prob(0, 0, 0, 0) == 1.0

    def test_validation_normalization(self):
        probs = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValueError, match="sum to 1"):
            BoxTable(probs)

    def test_immutable(self):
        table = uniform_table()
        with pytest.raises(ValueError):
            table.probs[0, 0, 0, 0] = 1.0

    def test_signed_zero_hashes_like_zero(self):
        table = pr_ideal_table()
        probs = table.probs.copy()
        probs[probs == 0.0] = -0.0
        text = table.to_json().replace("0.0", "-0.0")
        for twin in (BoxTable(probs), BoxTable.from_json(text)):
            assert np.signbit(twin.probs).any()
            assert twin == table and hash(twin) == hash(table)
            assert len({twin, table}) == 1
        assert BoxTable(probs).to_json() == text

    def test_json_roundtrip(self):
        table = pr_ideal_table()
        text = table.to_json()
        assert BoxTable.from_json(text) == table
        # wire format: keys "x,y", rows in (a,b) = 00,01,10,11 order
        obj = json.loads(text)
        assert set(obj) == {"0,0", "0,1", "1,0", "1,1"}
        assert obj["1,1"] == [0.0, 0.5, 0.5, 0.0]


# ---------------------------------------------------------------------------
# Bit validation, shared by every scalar entry point that takes a bit
# ---------------------------------------------------------------------------

Z = np.array([0.0, 0.0, 1.0])
BIT_ENTRY_POINTS = {
    "sign_of_bit": sign_of_bit,
    "correlation_from_table-x": lambda bit: correlation_from_table(uniform_table(), bit, 0),
    "correlation_from_table-y": lambda bit: correlation_from_table(uniform_table(), 0, bit),
    "BoxTable.prob-x": lambda bit: uniform_table().prob(bit, 0, 0, 0),
    "BoxTable.prob-b": lambda bit: uniform_table().prob(0, 0, 0, bit),
    "pr_hidden_outputs-x": lambda bit: pr_hidden_outputs(bit, 0, 0),
    "pr_hidden_outputs-lam": lambda bit: pr_hidden_outputs(0, 0, bit),
    "singlet_round": lambda bit: singlet_round(Z, Z, Z, Z, bit),
}


class TestBitCheck:
    @pytest.mark.parametrize("entry", BIT_ENTRY_POINTS.values(), ids=BIT_ENTRY_POINTS.keys())
    @pytest.mark.parametrize("value", [1.0, np.float64(1.0), 2, -1, "1", None], ids=repr)
    def test_rejects_anything_but_integer_bits(self, entry, value):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            entry(value)

    @pytest.mark.parametrize("entry", BIT_ENTRY_POINTS.values(), ids=BIT_ENTRY_POINTS.keys())
    @pytest.mark.parametrize("value", [True, np.int64(0), np.bool_(True)], ids=repr)
    def test_accepts_integer_and_bool_bits(self, entry, value):
        entry(value)


# ---------------------------------------------------------------------------
# Correlations and CHSH
# ---------------------------------------------------------------------------


class TestCorrelation:
    def test_sign_convention(self):
        assert sign_of_bit(0) == 1
        assert sign_of_bit(1) == -1
        with pytest.raises(ValueError):
            sign_of_bit(2)

    @pytest.mark.parametrize("bit, sign", [(True, -1), (False, 1), (np.int64(1), -1)])
    def test_sign_of_integer_bits(self, bit, sign):
        assert sign_of_bit(bit) == sign

    def test_pr_table_correlations(self):
        table = pr_ideal_table()
        assert correlation_from_table(table, 0, 0) == 1.0
        assert correlation_from_table(table, 1, 1) == -1.0

    def test_uniform_zero(self):
        table = uniform_table()
        for x in BITS:
            for y in BITS:
                assert correlation_from_table(table, x, y) == 0.0

    @given(box_tables())
    @settings(max_examples=50)
    def test_in_range(self, table):
        for x in BITS:
            for y in BITS:
                assert -1.0 <= correlation_from_table(table, x, y) <= 1.0


class TestChsh:
    def test_pr_saturation(self):
        report = chsh_value(CorrelationSet(1.0, 1.0, 1.0, -1.0))
        assert report.f == 4.0
        assert report.nonlocality is NonlocalityClass.SUPERQUANTUM

    def test_all_zero(self):
        report = chsh_value(CorrelationSet(0.0, 0.0, 0.0, 0.0))
        assert report.f == 0.0
        assert report.nonlocality is NonlocalityClass.LOCAL

    def test_singlet_boundary(self):
        # tilted plane directions at alpha = pi/8 push the singlet exactly
        # onto the Tsirelson boundary; oracle: dense Pauli computation
        alpha = math.pi / 8.0
        a, ap = plane_direction(alpha), plane_direction(-3 * alpha)
        b, bp = plane_direction(-alpha), plane_direction(3 * alpha)
        corr = CorrelationSet(
            singlet_correlation_dense(a, b),
            singlet_correlation_dense(a, bp),
            singlet_correlation_dense(ap, b),
            singlet_correlation_dense(ap, bp),
        )
        report = chsh_value(corr)
        assert report.f == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)
        assert report.nonlocality is NonlocalityClass.QUANTUM_NONLOCAL

    def test_boundaries_closed(self):
        assert classify_chsh(2.0) is NonlocalityClass.LOCAL
        assert classify_chsh(-2.0) is NonlocalityClass.LOCAL
        assert classify_chsh(np.nextafter(2.0, 3.0)) is NonlocalityClass.QUANTUM_NONLOCAL
        assert classify_chsh(TSIRELSON_BOUND) is NonlocalityClass.QUANTUM_NONLOCAL
        assert classify_chsh(-TSIRELSON_BOUND) is NonlocalityClass.QUANTUM_NONLOCAL
        assert (
            classify_chsh(np.nextafter(TSIRELSON_BOUND, 4.0))
            is NonlocalityClass.SUPERQUANTUM
        )

    def test_class_codes_match_classify(self):
        values = np.array(
            [0.0, 2.0, -2.0, np.nextafter(2.0, 3.0), TSIRELSON_BOUND, -TSIRELSON_BOUND,
             np.nextafter(TSIRELSON_BOUND, 4.0), 4.0, -math.inf, math.nan]
        )
        codes = chsh_class_codes(values.reshape(2, 5))
        assert codes.shape == (2, 5)
        assert codes.ravel().tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
        for value, code in zip(values.tolist(), codes.ravel().tolist()):
            assert classify_chsh(value) is tuple(NonlocalityClass)[code]
        assert classify_chsh(math.nan) is NonlocalityClass.SUPERQUANTUM

    def test_sum_over_leading_axis(self):
        e = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 3, 2))
        f = chsh_sum(e)
        assert f.shape == (3, 2)
        for i, j in np.ndindex(3, 2):
            corr = CorrelationSet(*e[:, i, j].tolist())
            assert f[i, j] == chsh_value(corr).f

    unit_interval = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

    @given(unit_interval, unit_interval, unit_interval, unit_interval)
    def test_algebraic_bound(self, e1, e2, e3, e4):
        assert abs(chsh_value(CorrelationSet(e1, e2, e3, e4)).f) <= 4.0

    @given(unit_interval, unit_interval, unit_interval,
           st.floats(min_value=-0.5, max_value=0.5, allow_nan=False))
    def test_affine_in_components(self, e1, e2, e3, delta):
        base = chsh_value(CorrelationSet(e1, e2, e3, 0.0)).f
        shifted = chsh_value(CorrelationSet(e1, e2, e3, delta)).f
        assert shifted == pytest.approx(base - delta, abs=1e-12)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            CorrelationSet(1.5, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


class TestNoSignaling:
    def test_pr_table(self):
        result = check_no_signaling(pr_ideal_table())
        assert result.ok
        assert result.max_deviation == 0.0

    def test_constructed_violation(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0] = [[0.5, 0.5], [0.0, 0.0]]  # P(a=0|x=0,y=0) = 1
        result = check_no_signaling(BoxTable(probs))
        assert not result.ok
        assert result.max_deviation == pytest.approx(0.5)
        assert result == check_parameter_independence(BoxTable(probs))
        assert result.witness == ParameterWitness("a", 0, 0, 1.0, 0.5)

    @given(product_tables())
    @settings(max_examples=50)
    def test_product_tables(self, table):
        assert check_no_signaling(table).ok


class TestOutcomeIndependence:
    def test_pr_table_witness(self):
        result = check_outcome_independence(pr_ideal_table())
        assert not result.ok
        expected = OutcomeWitness(
            party="a", x=0, y=0, given=0, outcome=0, conditional=1.0, marginal=0.5
        )
        assert result.witness == expected

    @given(product_tables())
    @settings(max_examples=50)
    def test_product_tables(self, table):
        assert check_outcome_independence(table).ok

    def test_deterministic_table(self):
        probs = np.zeros((2, 2, 2, 2))
        probs[:, :, 1, 0] = 1.0  # always (a, b) = (1, 0)
        assert check_outcome_independence(BoxTable(probs)).ok

    def test_denominator_at_atol_is_skipped(self):
        result = check_outcome_independence(corner_table(1e-12))
        assert result.ok
        assert result.max_deviation == 1e-12

    def test_denominator_above_atol_is_checked(self):
        result = check_outcome_independence(corner_table(2e-12))
        assert not result.ok
        assert result.witness == OutcomeWitness("a", 0, 0, 0, 0, 1.0, 2e-12)


class TestCheckersMatchLoops:
    """Each checker equals its scan over bits, witness fields and types included."""

    @staticmethod
    def assert_same(result, expected):
        assert astuple(result) == astuple(expected)
        assert [type(v) for v in astuple(result)] == [type(v) for v in astuple(expected)]

    @given(box_tables() | sparse_box_tables())
    @settings(max_examples=200)
    def test_outcome_independence(self, table):
        self.assert_same(check_outcome_independence(table), outcome_independence_loops(table))

    @given(box_tables() | sparse_box_tables())
    @settings(max_examples=200)
    def test_parameter_independence(self, table):
        self.assert_same(
            check_parameter_independence(table), parameter_independence_loops(table)
        )


class TestParameterIndependence:
    def test_pr_table(self):
        assert check_parameter_independence(pr_ideal_table()).ok

    def test_lambda_slice(self):
        # deterministic slice of the hidden-bit model: b follows x at y = 1
        result = check_parameter_independence(pr_table_from_hidden((1.0, 0.0)))
        assert not result.ok
        assert isinstance(result.witness, ParameterWitness)
        assert result.witness.party == "b"
        assert result.max_deviation == 1.0

    @given(product_tables())
    @settings(max_examples=50)
    def test_product_tables(self, table):
        assert check_parameter_independence(table).ok


class TestLocality:
    def test_product_true(self):
        table = product_table([[0.3, 0.7], [0.9, 0.1]], [[0.5, 0.5], [0.2, 0.8]])
        assert locality_check(table)

    def test_pr_false(self):
        assert not locality_check(pr_ideal_table())

    def test_quantum_table_false(self):
        # singlet probabilities at non-aligned directions are nonlocal
        table = singlet_table_dense(
            plane_direction(0.0),
            plane_direction(math.pi / 4),
            plane_direction(math.pi / 3),
            plane_direction(-math.pi / 3),
        )
        assert not locality_check(table)

    def test_quantum_table_no_signaling(self):
        table = singlet_table_dense(
            plane_direction(0.2),
            plane_direction(1.0),
            plane_direction(0.7),
            plane_direction(-0.4),
        )
        assert check_no_signaling(table).ok

    @given(box_tables() | sparse_box_tables())
    @settings(max_examples=100)
    def test_equals_oi_and_pi(self, table):
        conjunction = (
            check_outcome_independence(table).ok
            and check_parameter_independence(table).ok
        )
        assert locality_check(table) == conjunction

    @pytest.mark.parametrize(
        "table_factory",
        [
            pr_ideal_table,
            lambda: pr_table_from_hidden((1.0, 0.0)),
            lambda: pr_table_from_hidden((0.25, 0.75)),
            uniform_table,
            lambda: product_table([[0.3, 0.7], [0.9, 0.1]], [[0.5, 0.5], [0.2, 0.8]]),
            lambda: singlet_table_dense(
                plane_direction(0.0),
                plane_direction(0.5),
                plane_direction(1.0),
                plane_direction(-0.5),
            ),
        ],
    )
    def test_equals_oi_and_pi_structured(self, table_factory):
        table = table_factory()
        conjunction = (
            check_outcome_independence(table).ok
            and check_parameter_independence(table).ok
        )
        assert locality_check(table) == conjunction
