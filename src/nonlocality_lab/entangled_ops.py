"""Operator algebra of maximally entangled pairs of N-level systems.

Everything here works in the Schmidt bases of the state: operators are
plain complex matrices whose rows/columns refer to the bases {|v_j>} (left
party) and {|w_j>} (right party), so the canonical amplitudes of the state
are (1/sqrt(N)) * sum_j e_j (x) e_j and the transpose partner of a left
operator is its literal matrix transpose.

The module provides the state itself, the transpose-partner identity, a
state-adapted orthonormal operator basis in which joint expectations reduce
to Euclidean dot products of coordinate vectors, the decomposition of an
arbitrary observable into commuting spectrum-{-1,0,1} pieces, the planar
unitary curve joining an observable to its negative, and the partition
bound that forces conditional single-party averages of any quantum
equivalent crypto-nonlocal model to vanish.  Dense linear algebra only;
intended for small dimensions (tested to N = 16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._rng import substream

__all__ = [
    "SchmidtState",
    "make_schmidt_state",
    "transpose_partner",
    "operator_basis",
    "observable_from_coords",
    "coords_from_observable",
    "joint_expectation",
    "single_expectation",
    "square_expectation",
    "DecomposedObservable",
    "decompose_observable",
    "KernelSplit",
    "kernel_split",
    "curve_point",
    "CurvePartition",
    "curve_partition",
    "theorem_bound",
    "malus_law",
    "verification_report",
    "REPORT_TOLERANCES",
]

MAX_DIM = 16

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check_dim(n: int) -> int:
    if not 2 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {n}")
    return n


def _check_hermitian(matrix: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(arr - arr.conj().T)) > atol:
        raise ValueError("matrix is not Hermitian")
    return arr


def _check_coords(coords: np.ndarray) -> tuple[np.ndarray, int]:
    """A finite length-N^2 coordinate vector and its dimension N."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a coordinate vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinate vector has non-finite entries")
    n = math.isqrt(arr.size)
    if n * n != arr.size:
        raise ValueError(f"coordinate vector length {arr.size} is not a square")
    return arr, _check_dim(n)


@dataclass(frozen=True)
class SchmidtState:
    """Maximally entangled state of two N-level systems.

    ``amplitudes`` is the length-N^2 vector over the product basis
    |v_j> (x) |w_k> in row-major order; all Schmidt coefficients equal
    1/sqrt(N).
    """

    n: int
    amplitudes: np.ndarray = field(repr=False)


def make_schmidt_state(n: int) -> SchmidtState:
    """The canonical maximally entangled state (1/sqrt(N)) sum_j |v_j w_j>."""
    _check_dim(n)
    amp = np.zeros(n * n, dtype=complex)
    amp[:: n + 1] = 1.0 / math.sqrt(n)
    return SchmidtState(n=n, amplitudes=amp)


def transpose_partner(matrix: np.ndarray) -> np.ndarray:
    """The right-party operator simulating a left-party action.

    (X (x) I) |psi> = (I (x) X^T) |psi> on the maximally entangled state;
    in Schmidt-basis coordinates the partner is the plain transpose.
    """
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr.T.copy()


@lru_cache(maxsize=MAX_DIM)
def _basis_stacks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N^2, N, N) stacks of the F basis and its partners G."""
    f = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    f[diag, diag, diag] = math.sqrt(n)
    i, j = np.triu_indices(n, k=1)
    sym = n + 2 * np.arange(i.size)
    scale = math.sqrt(n / 2.0)
    f[sym, i, j] = f[sym, j, i] = scale
    f[sym + 1, i, j] = 1.0j * scale
    f[sym + 1, j, i] = -1.0j * scale
    g = f.transpose(0, 2, 1).copy()
    f.flags.writeable = g.flags.writeable = False
    return f, g


def _combine(coords: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_r coords_r stack_r for an (N^2, N, N) stack."""
    n = stack.shape[1]
    return (coords @ stack.reshape(n * n, n * n)).reshape(n, n)


def operator_basis(n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """State-adapted orthonormal bases (F, G) of Hermitian operator space.

    F holds sqrt(N) |v_i><v_i| for each i plus sqrt(N/2) symmetric and
    antisymmetric combinations of |v_i><v_j| for i < j (the antisymmetric
    one carries a factor i to stay Hermitian).  G pairs each F entry with
    its transpose partner.  Orthonormality means
    <psi| F_r (x) G_s |psi> = delta_rs, which makes joint expectations of
    coordinate vectors Euclidean dot products.  For N = 2 this is not the
    Pauli expansion: the diagonal members are projectors, not I and sigma_z.

    The returned arrays are read-only views into one cached stack per N.
    """
    basis, partners = _basis_stacks(_check_dim(n))
    return list(basis), list(partners)


def observable_from_coords(coords: np.ndarray) -> np.ndarray:
    """Hermitian operator A = sum_r coords_r F_r from an N^2 coordinate vector."""
    coords, n = _check_coords(coords)
    return _combine(coords, _basis_stacks(n)[0])


def coords_from_observable(matrix: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian operator over the F basis: Tr(F_r A) / N."""
    arr = _check_hermitian(matrix)
    n = _check_dim(arr.shape[0])
    basis, _ = _basis_stacks(n)
    return (basis.reshape(n * n, n * n) @ arr.T.ravel()).real / n


@lru_cache(maxsize=MAX_DIM)
def _state_vector(n: int) -> np.ndarray:
    amp = make_schmidt_state(n).amplitudes
    amp.flags.writeable = False
    return amp


def _state_matrix(n: int) -> np.ndarray:
    """The amplitudes as the N x N matrix Psi, with psi = vec(Psi) row-major.

    Then (A (x) B) psi = vec(A Psi B^T), so <psi| A (x) B |psi> is the
    Frobenius product of Psi with A Psi B^T: O(N^3), no N^2 x N^2 matrix.
    """
    return _state_vector(n).reshape(n, n)


def joint_expectation(a_coords: np.ndarray, b_coords: np.ndarray) -> float:
    """<psi| A(a) (x) B(b) |psi>; equals a . b.

    Computed from the state with the reshape identity
    (A (x) B) vec(Psi) = vec(A Psi B^T): the sum of conj(Psi) * (A Psi B^T).
    """
    a_coords, n = _check_coords(a_coords)
    b_coords, _ = _check_coords(b_coords)
    if a_coords.shape != b_coords.shape:
        raise ValueError("coordinate vectors must have matching length")
    basis, partners = _basis_stacks(n)
    a_op = _combine(a_coords, basis)
    b_op = _combine(b_coords, partners)
    psi = _state_matrix(n)
    return float(np.vdot(psi, a_op @ psi @ b_op.T).real)


def single_expectation(a_coords: np.ndarray) -> float:
    """<psi| A(a) (x) I |psi> = Tr A / N."""
    a_op = observable_from_coords(a_coords)
    psi = _state_matrix(a_op.shape[0])
    return float(np.vdot(psi, a_op @ psi).real)


def square_expectation(a_coords: np.ndarray) -> float:
    """<psi| A(a)^2 (x) I |psi>; equals ||a||^2."""
    a_op = observable_from_coords(a_coords)
    psi = _state_matrix(a_op.shape[0])
    return float(np.vdot(psi, a_op @ (a_op @ psi)).real)


@dataclass(frozen=True)
class DecomposedObservable:
    """A = alpha0 * I + sum_j alpha_j * D_j with commuting, traceless D_j.

    Each D_j has spectrum within {-1, 0, +1} ({-1, +1} for N = 2), with +-1
    nondegenerate and the zero eigenspace of dimension N - 2.
    """

    alpha0: float
    coefficients: np.ndarray
    operators: list[np.ndarray]


def decompose_observable(matrix: np.ndarray) -> DecomposedObservable:
    """Split a Hermitian observable into commuting spectrum-{-1,0,1} pieces.

    Construction: eigendecompose A with eigenvalues descending, take
    projector differences D_j = P_j - P_{j+1}, and solve the resulting
    bidiagonal system for the coefficients.  alpha0 = Tr A / N, which is
    also the single-party expectation of A on the state.
    """
    arr = _check_hermitian(matrix)
    n = arr.shape[0]
    _check_dim(n)
    eigenvalues, vectors = np.linalg.eigh(arr)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    alpha0 = float(np.trace(arr).real / n)
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
    return DecomposedObservable(alpha0=alpha0, coefficients=coefficients, operators=operators)


@dataclass(frozen=True)
class KernelSplit:
    """Kernel/support split of a spectrum-{-1,0,1} observable.

    ``support_basis`` is an N x 2 matrix whose columns span the +-1
    eigenplane in a deterministic frame; ``pauli_vector`` expresses the
    restriction of A to that plane as a unit combination of Pauli matrices.
    """

    kernel_projector: np.ndarray
    support_projector: np.ndarray
    support_basis: np.ndarray
    pauli_vector: np.ndarray


def _omega_eigensystem(matrix: np.ndarray, atol: float = 1e-8):
    """Eigensystem of an operator required to have spectrum {-1, 0, +1}
    with nondegenerate +-1 ({-1, +1} for N = 2)."""
    arr = _check_hermitian(matrix, atol=atol)
    n = arr.shape[0]
    eigenvalues, vectors = np.linalg.eigh(arr)
    plus = [i for i, v in enumerate(eigenvalues) if abs(v - 1.0) <= atol]
    minus = [i for i, v in enumerate(eigenvalues) if abs(v + 1.0) <= atol]
    zero = [i for i, v in enumerate(eigenvalues) if abs(v) <= atol]
    if len(plus) != 1 or len(minus) != 1 or len(zero) != n - 2:
        raise ValueError(
            f"operator must have nondegenerate eigenvalues +-1 and an "
            f"(N-2)-dimensional kernel; got eigenvalues {eigenvalues!r}"
        )
    return eigenvalues, vectors, plus[0], minus[0], zero


def kernel_split(matrix: np.ndarray, atol: float = 1e-8) -> KernelSplit:
    """Split the space into the kernel and the 2-dimensional support of A.

    The support frame is built by Gram-Schmidt of the projected canonical
    basis vectors (deterministic, independent of eigenvector phases), so the
    restriction A|_support is a generic traceless Hermitian 2x2 and its
    Pauli vector has unit length precisely because the eigenvalues are +-1.
    """
    arr = _check_hermitian(matrix, atol=atol)
    n = arr.shape[0]
    _, vectors, iplus, iminus, _ = _omega_eigensystem(arr, atol=atol)
    plane = vectors[:, [iplus, iminus]]
    support_projector = plane @ plane.conj().T
    frame: list[np.ndarray] = []
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
    restricted = basis.conj().T @ arr @ basis
    pauli_vector = np.array(
        [float(np.trace(restricted @ s).real) / 2.0 for s in (PAULI_X, PAULI_Y, PAULI_Z)]
    )
    return KernelSplit(
        kernel_projector=np.eye(n) - support_projector,
        support_projector=support_projector,
        support_basis=basis,
        pauli_vector=pauli_vector,
    )


def _rotation_generator(pauli_vector: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to the Pauli vector: first
    canonical axis surviving Gram-Schmidt, in coordinate order."""
    for axis in np.eye(3):
        candidate = axis - (axis @ pauli_vector) * pauli_vector
        norm = float(np.linalg.norm(candidate))
        if norm > 1e-6:
            return candidate / norm
    raise AssertionError("unreachable: pauli_vector cannot shadow all three axes")


def curve_point(a_coords: np.ndarray, theta: float) -> np.ndarray:
    """Point a(theta) of the planar unitary curve joining a to -a.

    The input coordinates must represent an operator with spectrum
    {-1, 0, +1} (+-1 nondegenerate).  A rotation by theta about a fixed
    axis orthogonal to the support Pauli vector is applied inside the
    support plane and extended by the identity on the kernel; theta = 0
    returns a, theta = pi returns -a, norms and spectra are preserved.
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    a_coords = np.asarray(a_coords, dtype=float)
    operator = observable_from_coords(a_coords)
    split = kernel_split(operator)
    generator = _rotation_generator(split.pauli_vector)
    sigma_dot = generator[0] * PAULI_X + generator[1] * PAULI_Y + generator[2] * PAULI_Z
    unitary_2 = math.cos(theta / 2.0) * np.eye(2) + 1.0j * math.sin(theta / 2.0) * sigma_dot
    basis = split.support_basis
    unitary = split.kernel_projector + basis @ unitary_2 @ basis.conj().T
    rotated = unitary @ operator @ unitary.conj().T
    return coords_from_observable(rotated)


@dataclass(frozen=True)
class CurvePartition:
    """Nodes a_j = a(j*pi/n) of the curve, j = 0..n.

    Consecutive nodes satisfy a_{j+1} . a_j = ||a||^2 cos(pi/n); the first
    node is a, the last -a.
    """

    base: np.ndarray
    n: int
    dim: int
    nodes: np.ndarray


def curve_partition(a_coords: np.ndarray, n: int) -> CurvePartition:
    """Uniform n-step partition of the curve from a to -a."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a_coords = np.asarray(a_coords, dtype=float)
    dim = math.isqrt(a_coords.size)
    nodes = np.stack([curve_point(a_coords, j * math.pi / n) for j in range(n + 1)])
    return CurvePartition(base=a_coords.copy(), n=n, dim=dim, nodes=nodes)


def theorem_bound(n: int, a_norm_sq: float = 1.0, dim: int = 2) -> float:
    """Partition bound (2 n ||a||^2 / N) sin^2(pi / (2n)).

    Bounds the tau-integrated |conditional single-party average| of any
    quantum-equivalent crypto-nonlocal model; it decreases strictly for
    n >= 2 and vanishes as n -> infinity, forcing the average to zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2.0 * n * a_norm_sq / dim) * math.sin(math.pi / (2.0 * n)) ** 2


def malus_law(a, u) -> float:
    """Malus-law local average 2 (u . a)^2 - 1 for polarization directions.

    The historical candidate for a nonvanishing conditional single-party
    average; any nonzero choice is ruled out for quantum-equivalent models
    by the partition bound above.
    """
    a = np.asarray(a, dtype=float).reshape(3)
    u = np.asarray(u, dtype=float).reshape(3)
    for v in (a, u):
        if abs(v @ v - 1.0) > 1e-9:
            raise ValueError("directions must be unit vectors")
    return 2.0 * float(u @ a) ** 2 - 1.0


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------

REPORT_TOLERANCES = {
    "transpose_identity": 1e-12,
    "basis_orthonormality": 1e-12,
    "joint_vs_dot": 1e-12,
    "square_vs_norm": 1e-12,
    "decomposition_reconstruction": 1e-10,
    "decomposition_commutation": 1e-12,
    "decomposition_spectrum": 1e-10,
    "decomposition_alpha0": 1e-12,
    "pauli_vector_norm": 1e-12,
    "curve_endpoint": 1e-10,
    "curve_norm": 1e-10,
    "curve_planarity": 1e-10,
    "curve_spacing": 1e-10,
}


def _random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1.0j * rng.normal(size=(n, n))
    return (raw + raw.conj().T) / 2.0


def _random_omega_observable(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1.0j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(raw)
    diag = np.zeros(n)
    diag[0], diag[1] = 1.0, -1.0
    return (q * diag) @ q.conj().T


def verification_report(
    n_min: int = 2, n_max: int = 6, trials: int = 50, seed: int = 1
) -> dict:
    """Max residuals of every algebraic identity, per dimension.

    Returns {"dimensions": {N: {identity: residual}}, "passed": bool,
    "tolerances": {...}}; an identity passes when its residual stays below
    the declared tolerance for every random trial.
    """
    if not 2 <= n_min <= n_max <= MAX_DIM:
        raise ValueError(f"need 2 <= n_min <= n_max <= {MAX_DIM}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = substream(seed, "theorem")
    dims: dict[int, dict[str, float]] = {}
    for n in range(n_min, n_max + 1):
        res = {key: 0.0 for key in REPORT_TOLERANCES}
        psi = _state_matrix(n)
        basis, partners = _basis_stacks(n)

        # <psi| F_r (x) G_s |psi> = sum (F_r Psi) * (conj(Psi) G_s), one row r
        # at a time so no N^2 x N^2 complex matrix is ever held
        right = (psi.conj() @ partners).reshape(n * n, n * n)
        gram = np.empty((n * n, n * n))
        for r in range(n * n):
            gram[r] = (right @ (basis[r] @ psi).ravel()).real
        res["basis_orthonormality"] = float(np.max(np.abs(gram - np.eye(n * n))))

        identity = np.eye(n)
        for _ in range(trials):
            x = _random_hermitian(n, rng)
            # (X (x) I) psi = vec(X Psi) and (I (x) X^T) psi = vec(Psi X)
            lhs = x @ psi
            rhs = psi @ transpose_partner(x).T
            res["transpose_identity"] = max(
                res["transpose_identity"], float(np.max(np.abs(lhs - rhs)))
            )

            a = rng.normal(size=n * n)
            b = rng.normal(size=n * n)
            res["joint_vs_dot"] = max(
                res["joint_vs_dot"], abs(joint_expectation(a, b) - float(a @ b))
            )
            res["square_vs_norm"] = max(
                res["square_vs_norm"], abs(square_expectation(a) - float(a @ a))
            )

            h = _random_hermitian(n, rng)
            decomp = decompose_observable(h)
            rec = decomp.alpha0 * identity + sum(
                c * op for c, op in zip(decomp.coefficients, decomp.operators)
            )
            res["decomposition_reconstruction"] = max(
                res["decomposition_reconstruction"], float(np.max(np.abs(rec - h)))
            )
            res["decomposition_alpha0"] = max(
                res["decomposition_alpha0"],
                abs(decomp.alpha0 - single_expectation(coords_from_observable(h))),
            )
            for i, op_i in enumerate(decomp.operators):
                ev = np.linalg.eigvalsh(op_i)
                # distance of each eigenvalue from the set {-1, 0, 1}
                dist = np.min(np.abs(ev[:, None] - np.array([-1.0, 0.0, 1.0])), axis=1)
                res["decomposition_spectrum"] = max(
                    res["decomposition_spectrum"], float(np.max(dist))
                )
                for op_j in decomp.operators[i + 1 :]:
                    res["decomposition_commutation"] = max(
                        res["decomposition_commutation"],
                        float(np.max(np.abs(op_i @ op_j - op_j @ op_i))),
                    )

            omega_op = _random_omega_observable(n, rng)
            res["pauli_vector_norm"] = max(
                res["pauli_vector_norm"],
                abs(float(np.linalg.norm(kernel_split(omega_op).pauli_vector)) - 1.0),
            )

        # one partitioned curve per dimension (each node costs an eigh)
        omega_op = _random_omega_observable(n, rng)
        coords = coords_from_observable(omega_op)
        part = curve_partition(coords, n=8)
        res["curve_endpoint"] = float(np.max(np.abs(part.nodes[-1] + coords)))
        norm_sq = float(coords @ coords)
        res["curve_norm"] = float(
            np.max(np.abs((part.nodes**2).sum(axis=1) - norm_sq))
        )
        spacing = norm_sq * math.cos(math.pi / part.n)
        res["curve_spacing"] = float(
            np.max(
                np.abs((part.nodes[:-1] * part.nodes[1:]).sum(axis=1) - spacing)
            )
        )
        singular = np.linalg.svd(part.nodes, compute_uv=False)
        res["curve_planarity"] = float(singular[2]) if singular.size > 2 else 0.0

        dims[n] = res

    passed = all(
        res[key] <= tol
        for res in dims.values()
        for key, tol in REPORT_TOLERANCES.items()
    )
    return {"dimensions": dims, "tolerances": dict(REPORT_TOLERANCES), "passed": passed}
