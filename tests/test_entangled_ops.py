"""Tests for the maximally-entangled operator algebra."""

import math
import tracemalloc

import numpy as np
import pytest

from nonlocality_lab import entangled_ops
from nonlocality_lab.entangled_ops import (
    _basis_stacks,
    coords_from_observable,
    curve_partition,
    curve_point,
    decompose_observable,
    joint_expectation,
    kernel_split,
    make_schmidt_state,
    malus_law,
    observable_from_coords,
    single_expectation,
    square_expectation,
    theorem_bound,
    transpose_partner,
    verification_report,
)

OMEGA = (-1.0, 0.0, 1.0)
PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def random_hermitian(n, rng):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (raw + raw.conj().T) / 2.0


def random_omega_observable(n, rng):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(raw)
    diag = np.zeros(n)
    diag[0], diag[1] = 1.0, -1.0
    return (q * diag) @ q.conj().T


# ---------------------------------------------------------------------------
# Per-matrix oracles: the loop bodies the stacked functions replaced
# ---------------------------------------------------------------------------


def oracle_coords_from_observable(matrix):
    n = matrix.shape[0]
    basis, _ = _basis_stacks(n)
    return np.array([np.trace(f @ matrix).real / n for f in basis])


def oracle_joint_expectation(a_coords, b_coords):
    n = math.isqrt(a_coords.size)
    basis, partners = _basis_stacks(n)
    a_op = sum(c * f for c, f in zip(a_coords, basis))
    b_op = sum(c * g for c, g in zip(b_coords, partners))
    psi = make_schmidt_state(n).reshape(n, n)
    return float(np.vdot(psi, a_op @ psi @ b_op.T).real)


def oracle_decompose(matrix):
    n = matrix.shape[0]
    eigenvalues, vectors = np.linalg.eigh(matrix)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    alpha0 = float(np.trace(matrix).real / n)
    operators = []
    for j in range(n - 1):
        proj_j = np.outer(vectors[:, j], vectors[:, j].conj())
        proj_next = np.outer(vectors[:, j + 1], vectors[:, j + 1].conj())
        operators.append(proj_j - proj_next)
    coefficients = np.zeros(n - 1)
    previous = 0.0
    for j in range(n - 1):
        coefficients[j] = eigenvalues[j] - alpha0 + previous
        previous = coefficients[j]
    return alpha0, coefficients, operators


def oracle_kernel_split(matrix, atol=1e-8):
    """(kernel_projector, support_projector, support_basis, pauli_vector)."""
    n = matrix.shape[0]
    eigenvalues, vectors = np.linalg.eigh(matrix)
    plus = [i for i, v in enumerate(eigenvalues) if abs(v - 1.0) <= atol]
    minus = [i for i, v in enumerate(eigenvalues) if abs(v + 1.0) <= atol]
    zero = [i for i, v in enumerate(eigenvalues) if abs(v) <= atol]
    assert len(plus) == 1 and len(minus) == 1 and len(zero) == n - 2
    plane = vectors[:, [plus[0], minus[0]]]
    support_projector = plane @ plane.conj().T
    frame = []
    for k in range(n):
        candidate = support_projector[:, k].copy()
        for f in frame:
            candidate -= (f.conj() @ candidate) * f
        norm = float(np.linalg.norm(candidate))
        if norm > 1e-6:
            frame.append(candidate / norm)
        if len(frame) == 2:
            break
    basis = np.stack(frame, axis=1)
    restricted = basis.conj().T @ matrix @ basis
    pauli_vector = np.array([float(np.trace(restricted @ s).real) / 2.0 for s in PAULIS])
    return np.eye(n) - support_projector, support_projector, basis, pauli_vector


def oracle_curve_point(a_coords, theta):
    operator = observable_from_coords(a_coords)
    kernel, _, basis, pauli_vector = oracle_kernel_split(operator)
    for axis in np.eye(3):
        candidate = axis - (axis @ pauli_vector) * pauli_vector
        if np.linalg.norm(candidate) > 1e-6:
            generator = candidate / np.linalg.norm(candidate)
            break
    sigma_dot = sum(g * s for g, s in zip(generator, PAULIS))
    unitary_2 = math.cos(theta / 2.0) * np.eye(2) + 1.0j * math.sin(theta / 2.0) * sigma_dot
    unitary = kernel + basis @ unitary_2 @ basis.conj().T
    return oracle_coords_from_observable(unitary @ operator @ unitary.conj().T)


def partial_trace_right(rho, n):
    """Brute-force partial trace over the second factor."""
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += rho[i * n + k, j * n + k]
    return out


class TestSchmidtState:
    def test_qubit_amplitudes(self):
        np.testing.assert_allclose(
            make_schmidt_state(2), np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
        )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_normalized(self, n):
        amp = make_schmidt_state(n)
        assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_maximally_mixed_reduction(self, n):
        amp = make_schmidt_state(n)
        rho = np.outer(amp, amp.conj())
        reduced = partial_trace_right(rho, n)
        np.testing.assert_allclose(reduced, np.eye(n) / n, atol=1e-12)

    def test_dimension_validation(self):
        for n in (1, 17, 2.0, True):
            with pytest.raises(ValueError, match="dimension"):
                make_schmidt_state(n)

    def test_fresh_writable_vector(self):
        first, second = make_schmidt_state(3), make_schmidt_state(3)
        assert first.shape == (9,) and first.flags.writeable
        assert first is not second and not np.shares_memory(first, second)
        first[0] = 7.0  # a caller's edit reaches neither later states nor the kernels
        assert make_schmidt_state(3)[0] == second[0] == 1.0 / math.sqrt(3)
        assert joint_expectation(np.eye(9)[0], np.eye(9)[0]) == pytest.approx(1.0, abs=1e-12)


class TestTransposePartner:
    def test_identity(self):
        np.testing.assert_array_equal(transpose_partner(np.eye(3)), np.eye(3))

    def test_matrix_unit_swaps_indices(self):
        unit = np.zeros((3, 3), dtype=complex)
        unit[0, 1] = 1.0
        swapped = transpose_partner(unit)
        assert swapped[1, 0] == 1.0
        assert swapped.sum() == 1.0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_on_state(self, n):
        rng = np.random.default_rng(n)
        psi = make_schmidt_state(n)
        for _ in range(10):
            x = random_hermitian(n, rng)
            lhs = np.kron(x, np.eye(n)) @ psi
            rhs = np.kron(np.eye(n), transpose_partner(x)) @ psi
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestOperatorBasis:
    def test_count_and_first_member(self):
        basis, partners = _basis_stacks(2)
        assert len(basis) == 4 and len(partners) == 4
        np.testing.assert_allclose(
            basis[0], math.sqrt(2) * np.diag([1.0, 0.0]), atol=1e-15
        )

    @pytest.mark.parametrize("n", range(2, 6))
    def test_all_hermitian(self, n):
        basis, partners = _basis_stacks(n)
        for op in np.concatenate([basis, partners]):
            assert np.max(np.abs(op - op.conj().T)) < 1e-15

    @pytest.mark.parametrize("n", range(2, 6))
    def test_orthonormal_on_state(self, n):
        basis, partners = _basis_stacks(n)
        psi = make_schmidt_state(n)
        for r in range(n * n):
            for s in range(n * n):
                value = np.real(psi.conj() @ (np.kron(basis[r], partners[s]) @ psi))
                assert value == pytest.approx(1.0 if r == s else 0.0, abs=1e-12)

    def test_not_the_pauli_expansion(self):
        # in a Pauli-type basis the identity is itself a member; here its
        # coordinates spread over both diagonal projectors
        coords = coords_from_observable(np.eye(2))
        nonzero = np.abs(coords) > 1e-12
        assert nonzero.sum() == 2
        np.testing.assert_allclose(
            coords, [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0, 0.0], atol=1e-12
        )

    def test_coords_roundtrip(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5):
            h = random_hermitian(n, rng)
            coords = coords_from_observable(h)
            np.testing.assert_allclose(observable_from_coords(coords), h, atol=1e-12)


class TestExpectations:
    def test_basis_vector(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert joint_expectation(e1, e1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dot_product(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            assert joint_expectation(a, b) == pytest.approx(float(a @ b), abs=1e-12)

    def test_square_matches_norm(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=16)
        assert square_expectation(a) == pytest.approx(float(a @ a), abs=1e-11)

    def test_single_is_normalized_trace(self):
        rng = np.random.default_rng(20)
        h = random_hermitian(3, rng)
        coords = coords_from_observable(h)
        assert single_expectation(coords) == pytest.approx(
            float(np.trace(h).real) / 3.0, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            joint_expectation(np.zeros(4), np.zeros(9))

    def test_non_square_length(self):
        with pytest.raises(ValueError):
            observable_from_coords(np.zeros(5))


def dense_expectation(op, n):
    """<psi| op |psi> with the full N^2 x N^2 operator (test oracle)."""
    psi = make_schmidt_state(n)
    return float(np.real(psi.conj() @ (op @ psi)))


class TestDenseKronOracle:
    """The reshape-identity expectations against dense np.kron products."""

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_joint(self, n):
        rng = np.random.default_rng(50 + n)
        basis, partners = _basis_stacks(n)
        for _ in range(5):
            a = rng.normal(size=n * n)
            b = rng.normal(size=n * n)
            a_op = sum(c * op for c, op in zip(a, basis))
            b_op = sum(c * op for c, op in zip(b, partners))
            dense = dense_expectation(np.kron(a_op, b_op), n)
            assert abs(joint_expectation(a, b) - dense) < 1e-12

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_single_and_square(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            a = rng.normal(size=n * n)
            a_op = observable_from_coords(a)
            single = dense_expectation(np.kron(a_op, np.eye(n)), n)
            square = dense_expectation(np.kron(a_op @ a_op, np.eye(n)), n)
            assert abs(single_expectation(a) - single) < 1e-12
            assert abs(square_expectation(a) - square) < 1e-12


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_matrix(self, bad):
        for matrix in (np.diag([bad, 1.0, -1.0]), np.array([[0.0, bad], [bad, 0.0]])):
            for fn in (coords_from_observable, decompose_observable, kernel_split):
                with pytest.raises(ValueError, match="non-finite"):
                    fn(matrix)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_coordinates(self, bad):
        coords = np.zeros(9)
        coords[4] = bad
        for fn in (observable_from_coords, single_expectation, square_expectation):
            with pytest.raises(ValueError, match="non-finite"):
                fn(coords)
        with pytest.raises(ValueError, match="non-finite"):
            joint_expectation(coords, np.zeros(9))
        with pytest.raises(ValueError, match="non-finite"):
            joint_expectation(np.zeros(9), coords)
        with pytest.raises(ValueError, match="non-finite"):
            curve_point(coords, 0.5)

    @pytest.mark.parametrize(
        "bad", [np.array(["1", "0", "0", "1"]), np.array([True, False, False, True])],
        ids=["str", "bool"],
    )
    def test_non_numeric_coordinates(self, bad):
        for fn in (observable_from_coords, single_expectation, square_expectation):
            with pytest.raises(ValueError, match="int or float"):
                fn(bad)
        with pytest.raises(ValueError, match="int or float"):
            joint_expectation(bad, np.zeros(4))
        with pytest.raises(ValueError, match="int or float"):
            curve_point(bad, 0.5)

    @pytest.mark.parametrize(
        "bad", [np.array([["1", "0"], ["0", "1"]]), np.eye(2, dtype=bool)], ids=["str", "bool"]
    )
    def test_non_numeric_matrix(self, bad):
        for fn in (transpose_partner, coords_from_observable, decompose_observable, kernel_split):
            with pytest.raises(ValueError, match="int, float or complex"):
                fn(bad)

    def test_complex_and_int_matrices_accepted(self):
        assert transpose_partner(np.array([[0, 1j], [2, 0]])).tolist() == [[0, 2], [1j, 0]]
        assert decompose_observable(np.eye(3, dtype=int)).alpha0 == 1.0

    def test_coordinates_must_be_a_vector(self):
        with pytest.raises(ValueError, match="coordinate vector"):
            observable_from_coords(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="coordinate vector"):
            joint_expectation(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError, match="dimension"):
            observable_from_coords(np.zeros(17 * 17))
        with pytest.raises(ValueError, match="dimension"):
            joint_expectation(np.zeros(1), np.zeros(1))


class TestDecomposition:
    def test_identity(self):
        decomp = decompose_observable(np.eye(3))
        assert decomp.alpha0 == pytest.approx(1.0)
        np.testing.assert_allclose(decomp.coefficients, 0.0, atol=1e-12)
        assert len(decomp.operators) == 2

    def test_already_in_form(self):
        decomp = decompose_observable(np.diag([1.0, -1.0]))
        assert decomp.alpha0 == pytest.approx(0.0, abs=1e-15)
        assert decomp.coefficients == pytest.approx([1.0])
        np.testing.assert_allclose(decomp.operators[0], np.diag([1.0, -1.0]), atol=1e-12)

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_random_hermitian(self, n):
        rng = np.random.default_rng(21 + n)
        for _ in range(5):
            h = random_hermitian(n, rng)
            decomp = decompose_observable(h)
            # reconstruction
            rebuilt = decomp.alpha0 * np.eye(n) + sum(
                c * op for c, op in zip(decomp.coefficients, decomp.operators)
            )
            assert np.max(np.abs(rebuilt - h)) < 1e-10
            # commuting family with spectrum in {-1, 0, 1}, traceless
            for i, op in enumerate(decomp.operators):
                assert abs(np.trace(op)) < 1e-12
                for ev in np.linalg.eigvalsh(op):
                    assert min(abs(ev - w) for w in OMEGA) < 1e-10
                for other in decomp.operators[i + 1 :]:
                    assert np.max(np.abs(op @ other - other @ op)) < 1e-12
            # alpha0 is the single-party expectation
            assert decomp.alpha0 == pytest.approx(
                single_expectation(coords_from_observable(h)), abs=1e-12
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            decompose_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestKernelSplit:
    def test_qubit_observable(self):
        split = kernel_split(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(split.kernel_projector, 0.0, atol=1e-12)
        np.testing.assert_allclose(split.pauli_vector, [0.0, 0.0, 1.0], atol=1e-12)

    def test_kernel_location(self):
        split = kernel_split(np.diag([1.0, -1.0, 0.0]))
        np.testing.assert_allclose(split.kernel_projector, np.diag([0, 0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(split.support_projector, np.diag([1.0, 1.0, 0]), atol=1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 6))
    def test_unit_pauli_vector(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(10):
            split = kernel_split(random_omega_observable(n, rng))
            assert np.linalg.norm(split.pauli_vector) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_spectrum(self):
        with pytest.raises(ValueError):
            kernel_split(np.diag([1.0, -1.0, 0.5]))

    def test_rejects_degenerate_extremes(self):
        with pytest.raises(ValueError):
            kernel_split(np.diag([1.0, 1.0, -1.0, 0.0]))


class TestCurve:
    def test_endpoints(self):
        rng = np.random.default_rng(40)
        coords = coords_from_observable(random_omega_observable(3, rng))
        np.testing.assert_allclose(curve_point(coords, 0.0), coords, atol=1e-12)
        np.testing.assert_allclose(curve_point(coords, math.pi), -coords, atol=1e-10)

    def test_preserves_norm_and_spectrum(self):
        rng = np.random.default_rng(41)
        coords = coords_from_observable(random_omega_observable(4, rng))
        norm = float(coords @ coords)
        for theta in np.linspace(0.0, math.pi, 7):
            point = curve_point(coords, theta)
            assert float(point @ point) == pytest.approx(norm, abs=1e-10)
            eigenvalues = np.linalg.eigvalsh(observable_from_coords(point))
            for ev in eigenvalues:
                assert min(abs(ev - w) for w in OMEGA) < 1e-10

    def test_planarity(self):
        rng = np.random.default_rng(42)
        coords = coords_from_observable(random_omega_observable(3, rng))
        nodes = np.stack(
            [curve_point(coords, theta) for theta in np.linspace(0.0, math.pi, 9)]
        )
        singular = np.linalg.svd(nodes, compute_uv=False)
        assert singular[2] < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        coords = coords_from_observable(random_omega_observable(3, rng))
        np.testing.assert_array_equal(
            curve_point(coords, 0.7), curve_point(coords, 0.7)
        )

    def test_domain_validation(self):
        rng = np.random.default_rng(44)
        coords = coords_from_observable(random_omega_observable(3, rng))
        with pytest.raises(ValueError):
            curve_point(coords, -0.1)
        with pytest.raises(ValueError):
            curve_point(coords, 3.3)

    def test_rejects_generic_observable(self):
        rng = np.random.default_rng(45)
        coords = coords_from_observable(random_hermitian(3, rng))
        with pytest.raises(ValueError):
            curve_point(coords, 0.5)


class TestCurvePartition:
    def test_single_step(self):
        rng = np.random.default_rng(46)
        coords = coords_from_observable(random_omega_observable(2, rng))
        nodes = curve_partition(coords, 1)
        assert nodes.shape == (2, 4)
        np.testing.assert_allclose(nodes[0], coords, atol=1e-12)
        np.testing.assert_allclose(nodes[1], -coords, atol=1e-10)
        dot = float(nodes[0] @ nodes[1])
        assert dot == pytest.approx(-float(coords @ coords), abs=1e-10)

    def test_spacing_identity(self):
        rng = np.random.default_rng(47)
        coords = coords_from_observable(random_omega_observable(3, rng))
        nodes = curve_partition(coords, 8)
        assert nodes.shape == (9, 9)  # (n + 1, N^2)
        norm = float(coords @ coords)
        assert norm == pytest.approx(2.0 / 3.0, abs=1e-12)  # = 2/N
        expected = norm * math.cos(math.pi / 8)
        for j in range(8):
            dot = float(nodes[j] @ nodes[j + 1])
            assert dot == pytest.approx(expected, abs=1e-10)

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            curve_partition(np.zeros(4), 0)

    @pytest.mark.parametrize("n", [2.5, True, 2.0, "2"])
    def test_count_is_a_whole_number(self, n):
        # 2.5 once gave 4 nodes, the last 0.43 away from -a
        coords = coords_from_observable(random_omega_observable(2, np.random.default_rng(46)))
        with pytest.raises(ValueError, match="n must be a whole number >= 1"):
            curve_partition(coords, n)


STACK_DIMS = (2, 3, 6, 16)


class TestStackedMatchesOracle:
    """Each stacked function against its per-matrix oracle, trial by trial."""

    @pytest.mark.parametrize("n", STACK_DIMS)
    def test_decompose(self, n):
        rng = np.random.default_rng(70 + n)
        stack = np.stack([random_hermitian(n, rng) for _ in range(6)])
        decomp = decompose_observable(stack)
        for t, h in enumerate(stack):
            alpha0, coefficients, operators = oracle_decompose(h)
            single = decompose_observable(h)
            for got_alpha0, got_coefficients, got_operators in (
                (decomp.alpha0[t], decomp.coefficients[t], decomp.operators[t]),
                (single.alpha0, single.coefficients, single.operators),
            ):
                assert abs(got_alpha0 - alpha0) < 1e-12
                np.testing.assert_allclose(got_coefficients, coefficients, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got_operators, operators, rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    np.linalg.eigvalsh(got_operators),
                    np.linalg.eigvalsh(np.array(operators)), rtol=0, atol=1e-12,
                )

    @pytest.mark.parametrize("n", STACK_DIMS)
    def test_kernel_split(self, n):
        rng = np.random.default_rng(80 + n)
        stack = np.stack([random_omega_observable(n, rng) for _ in range(6)])
        split = kernel_split(stack)
        fields = ("kernel_projector", "support_projector", "support_basis", "pauli_vector")
        for t, omega_op in enumerate(stack):
            single = kernel_split(omega_op)
            for name, want in zip(fields, oracle_kernel_split(omega_op)):
                for got in (getattr(split, name)[t], getattr(single, name)):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", STACK_DIMS)
    def test_coords_and_joint(self, n):
        rng = np.random.default_rng(90 + n)
        stack = np.stack([random_hermitian(n, rng) for _ in range(6)])
        coords = coords_from_observable(stack)
        a, b = rng.normal(size=(2, 6, n * n))
        joint = joint_expectation(a, b)
        assert coords.shape == (6, n * n) and joint.shape == (6,)
        for t in range(6):
            np.testing.assert_allclose(
                coords[t], oracle_coords_from_observable(stack[t]), rtol=0, atol=1e-12
            )
            want = oracle_joint_expectation(a[t], b[t])
            assert abs(joint[t] - want) < 1e-12
            assert abs(joint_expectation(a[t], b[t]) - want) < 1e-12

    def test_stack_with_one_bad_matrix_is_rejected(self):
        rng = np.random.default_rng(99)
        stack = np.stack([random_omega_observable(3, rng) for _ in range(4)])
        stack[2] = np.diag([1.0, -1.0, 0.5])
        with pytest.raises(ValueError, match="eigenvalues"):
            kernel_split(stack)
        stack[2, 0, 1] += 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose_observable(stack)

    def test_empty_stack(self):
        empty = np.zeros((0, 3, 3))
        assert decompose_observable(empty).operators.shape == (0, 2, 3, 3)
        assert kernel_split(empty).pauli_vector.shape == (0, 3)
        assert coords_from_observable(empty).shape == (0, 9)

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_curve_partition_matches_per_node_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        coords = coords_from_observable(random_omega_observable(n, rng))
        for j, node in enumerate(curve_partition(coords, 8)):
            want = oracle_curve_point(coords, j * math.pi / 8)
            np.testing.assert_allclose(node, want, rtol=0, atol=1e-12)
            point = curve_point(coords, j * math.pi / 8)
            np.testing.assert_allclose(point, want, rtol=0, atol=1e-12)


class TestTheoremBound:
    def test_single_partition(self):
        assert theorem_bound(1, 1.0, 2) == pytest.approx(1.0, abs=1e-15)

    def test_large_n_small_angle(self):
        value = theorem_bound(1_000_000, 1.0, 2)
        assert value == pytest.approx(math.pi**2 / 4e6, rel=1e-9)
        assert value < 3e-6

    def test_strictly_decreasing(self):
        values = [theorem_bound(n) for n in range(2, 1025)]
        assert all(u > v for u, v in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_bound(0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.True_, "2", None, np.float64(3.0)])
    def test_n_is_a_whole_number(self, n):
        with pytest.raises(ValueError, match="n must be a whole number >= 1"):
            theorem_bound(n)

    @pytest.mark.parametrize("n", [np.int64(4), np.int32(4), np.uint16(4)])
    def test_numpy_integer_n(self, n):
        assert theorem_bound(n) == theorem_bound(4)

    @pytest.mark.parametrize("a_norm_sq", (math.nan, math.inf, -math.inf, -1e-3))
    def test_rejects_bad_norm(self, a_norm_sq):
        with pytest.raises(ValueError, match="a_norm_sq"):
            theorem_bound(4, a_norm_sq)

    @pytest.mark.parametrize("dim", (0, -2))
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(ValueError, match="dim"):
            theorem_bound(4, 1.0, dim)


class TestMalusLaw:
    def test_aligned(self):
        assert malus_law([0, 0, 1], [0, 0, 1]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert malus_law([0, 0, 1], [1, 0, 0]) == pytest.approx(-1.0)

    def test_diagonal(self):
        u = [math.sqrt(0.5), 0.0, math.sqrt(0.5)]
        assert malus_law([0, 0, 1], u) == pytest.approx(0.0, abs=1e-12)

    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            malus_law([0, 0, 2], [0, 0, 1])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_directions(self, bad):
        with pytest.raises(ValueError, match="finite"):
            malus_law([bad, 0, 0], [0, 0, 1])
        with pytest.raises(ValueError, match="finite"):
            malus_law([0, 0, 1], [0, bad, 1])


class TestVerificationReport:
    def test_small_report_passes(self):
        report = verification_report(2, 4, trials=5, seed=3)
        assert report["passed"]
        assert set(report["dimensions"]) == {2, 3, 4}
        for residuals in report["dimensions"].values():
            assert set(residuals) == set(report["tolerances"])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verification_report(3, 2)
        with pytest.raises(ValueError):
            verification_report(2, 40)

    @pytest.mark.parametrize("trials", (0, -1))
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            verification_report(2, 3, trials=trials)

    def test_largest_dimension_passes(self):
        report = verification_report(16, 16, trials=2)
        assert report["passed"]
        assert set(report["dimensions"]) == {16}
        for key, tol in report["tolerances"].items():
            assert report["dimensions"][16][key] <= tol

    @pytest.mark.parametrize("block", (1, 7))
    def test_independent_of_trial_block(self, monkeypatch, block):
        want = verification_report(2, 4, trials=20, seed=5)
        monkeypatch.setattr(entangled_ops, "TRIAL_BLOCK", block)
        assert verification_report(2, 4, trials=20, seed=5) == want

    def test_memory_is_bounded_per_block(self):
        trials = 3 * entangled_ops.TRIAL_BLOCK
        tracemalloc.start()
        try:
            report = verification_report(16, 16, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["passed"]
        assert peak < 32 * 2**20

    def test_linear_algebra_calls_do_not_grow_with_trials(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        counts = []
        for trials in (5, 50):
            calls.clear()
            verification_report(2, 6, trials=trials)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_nan_residual_fails(self, monkeypatch):
        monkeypatch.setattr(entangled_ops, "joint_expectation", lambda a, b: a[:, 0] * math.nan)
        report = verification_report(2, 3, trials=3)
        assert math.isnan(report["dimensions"][2]["joint_vs_dot"])
        assert report["passed"] is False

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_curve_fails(self, monkeypatch, bad):
        # svd raises LinAlgError on a NaN node
        partition = entangled_ops.curve_partition

        def broken(coords, n):
            nodes = partition(coords, n)
            nodes[3, 0] = bad
            return nodes

        monkeypatch.setattr(entangled_ops, "curve_partition", broken)
        report = verification_report(2, 3, trials=3)
        residuals = report["dimensions"][2]
        assert math.isnan(residuals["curve_planarity"])
        assert not residuals["curve_norm"] <= report["tolerances"]["curve_norm"]
        assert report["passed"] is False
