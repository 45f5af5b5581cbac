"""The package's input rules: a count, size or seed is a whole number
(``_rng._whole_number``), list or tuple input holding a bool is not
numeric (``correlations._numeric_array``), and a real scalar is one int or
float (``correlations._one_number``)."""

import numpy as np
import pytest

from nonlocality_lab import correlations
from nonlocality_lab._rng import _whole_number, derive_seed, substream
from nonlocality_lab.correlations import CorrelationSet
from nonlocality_lab.crypto_bell import (
    _region_blocks,
    closed_form_chsh,
    conditional_chsh,
    conditional_correlation,
    crypto_local_average,
    region_scan,
)
from nonlocality_lab.entangled_ops import (
    coords_from_observable,
    curve_point,
    theorem_bound,
    verification_report,
)
from nonlocality_lab.pr_box import pr_table_from_hidden
from nonlocality_lab.singlet_sim import as_unit_vector, estimate_singlet_correlation

Z, X = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]


class TestWholeNumber:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint16(3)], ids=repr)
    def test_integers_pass_as_int(self, value):
        got = _whole_number("k", value, 1)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, 2.5, "3", None], ids=repr)
    def test_non_integers_fail(self, value):
        with pytest.raises(ValueError, match="k must be a whole number >= 1, got"):
            _whole_number("k", value, 1)

    def test_below_minimum_fails(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            _whole_number("k", 0, 1)

    def test_no_minimum_takes_any_sign(self):
        assert _whole_number("k", -7, None) == -7
        with pytest.raises(ValueError, match="k must be a whole number, got 1.5"):
            _whole_number("k", 1.5, None)


class TestWholeNumberCallers:
    def test_theorem_bound_dim(self):
        # 2.5 once returned 0.47
        with pytest.raises(ValueError, match="dim must be a whole number >= 1"):
            theorem_bound(4, 1.0, 2.5)

    def test_report_trials(self):
        with pytest.raises(ValueError, match="trials must be a whole number >= 1"):
            verification_report(2, 2, trials=2.5)

    @pytest.mark.parametrize(
        "n_min, n_max, name", [(2.5, 3, "n_min"), (2, 3.0, "n_max"), (True, 3, "n_min")]
    )
    def test_report_dimensions(self, n_min, n_max, name):
        # 2.5 once raised TypeError from range()
        with pytest.raises(ValueError, match=f"{name} must be a whole number >= 2"):
            verification_report(n_min, n_max, trials=1)

    @pytest.mark.parametrize("grid", [(2.5, 3), (3, True), (4.0, 4)])
    def test_scan_grid(self, grid):
        with pytest.raises(ValueError, match="grid dimensions must be a whole number >= 2"):
            _region_blocks(*grid)

    def test_scan_grid_keeps_its_range_text(self):
        with pytest.raises(ValueError, match="grid dimensions must be >= 2"):
            region_scan(1, 10)

    @pytest.mark.parametrize("seed", [1.7, True, "7", 7.0], ids=repr)
    def test_seed_is_never_truncated(self, seed):
        # 1.7 and True once read as seed 1, and "7" as seed 7
        with pytest.raises(ValueError, match="seed must be a whole number, got"):
            derive_seed(seed, "label")
        with pytest.raises(ValueError, match="seed must be a whole number"):
            substream(seed, "label")

    def test_seed_takes_any_sign_and_numpy_integers(self):
        assert derive_seed(np.int64(-5), "label") == derive_seed(-5, "label")
        assert derive_seed(-5, "label") != derive_seed(5, "label")

    def test_estimate_rejects_a_float_seed(self):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            estimate_singlet_correlation(Z, X, 10_000, 1.7)


#: The N = 2 operator diag(1, -1), a point of its unitary curve.
SIGMA_Z = coords_from_observable(np.diag([1.0, -1.0]))


class TestOneNumber:
    @pytest.mark.parametrize(
        "name, entry",
        [
            ("tau", lambda tau: conditional_correlation(Z, X, tau)),
            ("tau", lambda tau: crypto_local_average(Z, tau)),
            ("tau", lambda tau: conditional_chsh(0.3, tau)),
            ("tau", lambda tau: closed_form_chsh(0.3, tau)),
            ("theta", lambda theta: curve_point(SIGMA_Z, theta)),
            ("a_norm_sq", lambda a_norm_sq: theorem_bound(4, a_norm_sq)),
            ("e_ab", lambda e_ab: CorrelationSet(e_ab, 0.0, 0.0, 0.0)),
        ],
        ids=[
            "conditional_correlation",
            "crypto_local_average",
            "conditional_chsh",
            "closed_form_chsh",
            "curve_point",
            "theorem_bound",
            "CorrelationSet",
        ],
    )
    def test_real_scalar_entry_points(self, name, entry):
        # a list once gave TypeError, a 2-array numpy's truth-value error,
        # and True was read as 1
        for stack in ([0.3], (0.3, 0.4), np.array([0.3, 0.4]), np.full((1, 1), 0.3)):
            with pytest.raises(ValueError, match=f"{name} must be a scalar"):
                entry(stack)
        for other in (True, np.True_, "0.3", 0.3 + 0j):
            with pytest.raises(ValueError, match="expected int or float values, got dtype"):
                entry(other)
        assert np.array_equal(entry(np.array(0.3)), entry(0.3))
        assert np.array_equal(entry(np.float32(0.5)), entry(float(np.float32(0.5))))


class TestBoolElements:
    @pytest.mark.parametrize(
        "vector",
        [
            [True, 0, 0],
            (np.True_, 0.0, 0.0),
            [Z, [True, 0, 0]],  # nested
            [np.array([True, False, False]), X],  # a bool array inside a list
        ],
        ids=["bool", "numpy-bool", "nested", "bool-array"],
    )
    def test_unit_vector(self, vector):
        with pytest.raises(ValueError, match="int or float values, got a bool element"):
            as_unit_vector(vector)

    def test_prior(self):
        with pytest.raises(ValueError, match="prior must be"):
            pr_table_from_hidden((True, 0.0))
        assert pr_table_from_hidden((1, 0.0)) == pr_table_from_hidden((1.0, 0.0))

    def test_tau(self):
        # True is a bool, not the number 1, for tau as for a vector's elements
        with pytest.raises(ValueError, match="got dtype bool"):
            conditional_chsh(0.5, True)
        with pytest.raises(ValueError, match="got dtype bool"):
            crypto_local_average(Z, np.True_)

    def test_array_input_is_not_searched(self, monkeypatch):
        def searched(value):
            raise AssertionError("array input was searched for bools")

        monkeypatch.setattr(correlations, "_holds_bool", searched)
        assert as_unit_vector(np.array(Z)).tolist() == Z
        with pytest.raises(AssertionError):
            as_unit_vector(Z)
