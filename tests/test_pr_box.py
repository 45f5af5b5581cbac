"""Tests for the PR box and its one-bit hidden-variable model."""

import itertools
import re

import numpy as np
import pytest

from nonlocality_lab.correlations import (
    CorrelationSet,
    NonlocalityClass,
    check_no_signaling,
    check_outcome_independence,
    check_parameter_independence,
    chsh_value,
    correlation_from_table,
)
from nonlocality_lab.pr_box import (
    pr_chsh,
    pr_hidden_outputs,
    pr_ideal_table,
    pr_relation_holds,
    pr_table_from_hidden,
)

BITS = (0, 1)

# outputs of the hidden-bit model for every (x, y, lam)
HIDDEN_MODEL_TABLE = {
    (0, 0, 0): (0, 0),
    (0, 0, 1): (1, 1),
    (1, 0, 0): (1, 1),
    (1, 0, 1): (0, 0),
    (0, 1, 0): (0, 0),
    (0, 1, 1): (1, 1),
    (1, 1, 0): (1, 0),
    (1, 1, 1): (0, 1),
}


class TestHiddenOutputs:
    def test_exhaustive_table(self):
        for (x, y, lam), expected in HIDDEN_MODEL_TABLE.items():
            assert pr_hidden_outputs(x, y, lam) == expected

    def test_relation_holds_everywhere(self):
        for x, y, lam in itertools.product(BITS, repeat=3):
            a, b = pr_hidden_outputs(x, y, lam)
            assert pr_relation_holds(x, y, a, b)

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            pr_hidden_outputs(2, 0, 0)
        with pytest.raises(ValueError):
            pr_hidden_outputs(0, 0, -1)


class TestIdealTable:
    def test_rows(self):
        table = pr_ideal_table()
        assert table.prob(0, 0, 0, 0) == 0.5
        assert table.prob(0, 0, 1, 1) == 0.5
        assert table.prob(0, 0, 0, 1) == 0.0
        assert table.prob(1, 1, 0, 1) == 0.5
        assert table.prob(1, 1, 1, 0) == 0.5
        assert table.prob(1, 1, 0, 0) == 0.0

    def test_marginals_uniform(self):
        probs = pr_ideal_table().probs
        assert np.all(probs.sum(axis=3) == 0.5)  # P(a | x, y)
        assert np.all(probs.sum(axis=2) == 0.5)  # P(b | x, y)

    def test_no_signaling_exact(self):
        result = check_no_signaling(pr_ideal_table())
        assert result.ok and result.max_deviation == 0.0

    def test_oi_fails_pi_holds(self):
        table = pr_ideal_table()
        assert not check_outcome_independence(table).ok
        assert check_parameter_independence(table).ok


class TestHiddenTable:
    def test_fair_prior_reproduces_ideal(self):
        assert pr_table_from_hidden((0.5, 0.5)) == pr_ideal_table()

    @pytest.mark.parametrize("prior", [(1.0, 0.0), (0.0, 1.0)])
    def test_deterministic_slice(self, prior):
        table = pr_table_from_hidden(prior)
        # deterministic: a single outcome pair per setting, PR relation holds
        for x in BITS:
            for y in BITS:
                row = [
                    (a, b) for a in BITS for b in BITS if table.prob(x, y, a, b) == 1.0
                ]
                assert len(row) == 1
                assert pr_relation_holds(x, y, *row[0])
        # OI holds, PI fails: b leaks the remote input x
        assert check_outcome_independence(table).ok
        result = check_parameter_independence(table)
        assert not result.ok
        assert result.witness.party == "b"

    @pytest.mark.parametrize("p0", [0.25, 0.5, 0.75])
    def test_mixed_prior_violates_oi(self, p0):
        table = pr_table_from_hidden((p0, 1.0 - p0))
        assert not check_outcome_independence(table).ok

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            pr_table_from_hidden((0.7, 0.7))
        with pytest.raises(ValueError):
            pr_table_from_hidden((-0.2, 1.2))

    @pytest.mark.parametrize(
        "prior", [(float("nan"), 0.5), (0.5,), (0.5, 0.5, 0.7)], ids=["nan", "one", "three"]
    )
    def test_prior_is_exactly_two_weights(self, prior):
        with pytest.raises(ValueError, match="prior"):
            pr_table_from_hidden(prior)

    @pytest.mark.parametrize(
        "prior",
        [("0.5", "0.5"), (True, False), (np.True_, np.False_)],
        ids=["str", "bool", "numpy-bool"],
    )
    def test_prior_weights_are_numbers(self, prior):
        # the numeric-input rule: str and bool weights are not converted
        message = f"prior must be two finite non-negative weights summing to 1, got {prior!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            pr_table_from_hidden(prior)

    def test_integer_and_numpy_weights(self):
        assert pr_table_from_hidden((1, 0)) == pr_table_from_hidden((1.0, 0.0))
        assert pr_table_from_hidden(np.array([0.5, 0.5])) == pr_ideal_table()


class TestChsh:
    def test_exact_saturation(self):
        report = pr_chsh()
        assert report.f == 4.0
        assert report.nonlocality is NonlocalityClass.SUPERQUANTUM

    def test_pipe_through_hidden_model(self):
        table = pr_table_from_hidden((0.5, 0.5))
        corr = CorrelationSet(
            correlation_from_table(table, 0, 0),
            correlation_from_table(table, 0, 1),
            correlation_from_table(table, 1, 0),
            correlation_from_table(table, 1, 1),
        )
        assert chsh_value(corr).f == 4.0

    def test_matches_direct_combination(self):
        assert pr_chsh().f == chsh_value(CorrelationSet(1, 1, 1, -1)).f
