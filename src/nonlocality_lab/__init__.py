"""Simulation and verification toolkit for two-party correlation models.

Covers the three regimes of bipartite correlations — local, quantum and
superquantum — through concrete, testable constructions: probability-box
checkers and the CHSH classifier, the Popescu-Rohrlich box with its one-bit
hidden-variable realization, a PR-box Monte Carlo that reproduces singlet
correlations, a crypto-nonlocal hidden-variable model whose conditional
correlations sweep all three regimes, and the operator algebra of maximally
entangled N-level pairs underpinning the vanishing of conditional local
averages.
"""

from .correlations import (
    ATOL,
    TSIRELSON_BOUND,
    BoxTable,
    ChshReport,
    CorrelationSet,
    IndependenceResult,
    NonlocalityClass,
    OutcomeWitness,
    ParameterWitness,
    check_no_signaling,
    check_outcome_independence,
    check_parameter_independence,
    chsh_value,
    classify_chsh,
    correlation_from_table,
    locality_check,
    sign_of_bit,
)
from .crypto_bell import (
    ClosedFormComparison,
    ConditionalChsh,
    FourDirectionFamily,
    RegionScan,
    RotatedPair,
    abs_sin_integral,
    chi_functions,
    closed_form_chsh,
    closed_form_correlations,
    conditional_chsh,
    conditional_correlation,
    critical_alpha,
    crypto_local_average,
    four_directions,
    gamma_functions,
    great_circle_point,
    mc_joint_correlation,
    model_outcomes,
    polar_from_standard,
    quantum_chsh_reference,
    region_scan,
    rotated_settings,
    scan_to_csv,
    standard_from_polar,
    tau_average_chsh,
    tau_average_correlation,
)
from .entangled_ops import (
    CurvePartition,
    DecomposedObservable,
    KernelSplit,
    SchmidtState,
    coords_from_observable,
    curve_partition,
    curve_point,
    decompose_observable,
    joint_expectation,
    kernel_split,
    make_schmidt_state,
    malus_law,
    observable_from_coords,
    operator_basis,
    single_expectation,
    square_expectation,
    theorem_bound,
    transpose_partner,
    verification_report,
)
from .pr_box import (
    pr_chsh,
    pr_hidden_outputs,
    pr_ideal_table,
    pr_relation_holds,
    pr_table_from_hidden,
)
from .singlet_sim import (
    SingletEstimate,
    SphereSampler,
    estimate_singlet_correlation,
    sgn,
    singlet_round,
)

__version__ = "0.1.0"
