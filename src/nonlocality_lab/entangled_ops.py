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

The matrix and coordinate functions take a leading stack axis: matrices
as (..., N, N) and coordinate vectors as (..., N^2), with one stacked
LAPACK call (``eigh``, ``qr``, ``eigvalsh``) per stack.  A single matrix
or vector is the length-1 case and gives scalars where a stack gives
arrays.  ``verification_report`` draws its random trials as such stacks,
``TRIAL_BLOCK`` trials at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import _whole_number, substream
from .correlations import _numeric_array, _one_number
from .singlet_sim import as_unit_vector

__all__ = [
    "make_schmidt_state",
    "transpose_partner",
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
_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])

# Norm below which a projected canonical vector is too short to start or
# extend the support frame.
_FRAME_CUTOFF = 1e-6

# Tolerance of ``kernel_split`` on hermiticity and on the eigenvalues -1, 0, +1.
_SPECTRUM_ATOL = 1e-8


def _check_dim(n: int) -> int:
    if not 2 <= _whole_number("dimension", n, None) <= MAX_DIM:
        raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {n}")
    return n


def _dagger(arr: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return arr.conj().swapaxes(-1, -2)


def _check_square(matrix: np.ndarray) -> np.ndarray:
    arr = _numeric_array(matrix, complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    return arr


def _check_hermitian(matrix: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """A finite Hermitian matrix or (..., N, N) stack, checked in one pass."""
    arr = _check_square(matrix)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(arr - _dagger(arr)), initial=0.0) > atol:
        raise ValueError("matrix is not Hermitian")
    return arr


def _check_coords(coords: np.ndarray) -> tuple[np.ndarray, int]:
    """A finite length-N^2 coordinate vector or (..., N^2) stack, and N."""
    arr = _numeric_array(coords)
    if arr.ndim < 1:
        raise ValueError(f"expected a coordinate vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinate vector has non-finite entries")
    n = math.isqrt(arr.shape[-1])
    if n * n != arr.shape[-1]:
        raise ValueError(f"coordinate vector length {arr.shape[-1]} is not a square")
    return arr, _check_dim(n)


def make_schmidt_state(n: int) -> np.ndarray:
    """The canonical maximally entangled state (1/sqrt(N)) sum_j |v_j w_j> of
    two N-level systems, as a fresh length-N^2 complex amplitude vector over
    the product basis |v_j> (x) |w_k> in row-major order.  ``n`` is a whole
    number in [2, ``MAX_DIM``]."""
    n = _check_dim(n)
    amp = np.zeros(n * n, dtype=complex)
    amp[:: n + 1] = 1.0 / math.sqrt(n)
    return amp


def transpose_partner(matrix: np.ndarray) -> np.ndarray:
    """The right-party operator simulating a left-party action.

    (X (x) I) |psi> = (I (x) X^T) |psi> on the maximally entangled state;
    in Schmidt-basis coordinates the partner is the plain transpose (of
    each matrix of a stack).
    """
    return _check_square(matrix).swapaxes(-1, -2).copy()


@lru_cache(maxsize=MAX_DIM)
def _basis_stacks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """State-adapted orthonormal bases (F, G) of Hermitian operator space, as
    read-only (N^2, N, N) stacks, cached per N.

    F holds sqrt(N) |v_i><v_i| for each i plus sqrt(N/2) symmetric and
    antisymmetric combinations of |v_i><v_j| for i < j (the antisymmetric
    one carries a factor i to stay Hermitian).  G pairs each F entry with
    its transpose partner.  Orthonormality means
    <psi| F_r (x) G_s |psi> = delta_rs, which makes joint expectations of
    coordinate vectors Euclidean dot products.  For N = 2 this is not the
    Pauli expansion: the diagonal members are projectors, not I and sigma_z.
    """
    f = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    f[diag, diag, diag] = math.sqrt(n)
    i, j = np.triu_indices(n, k=1)
    sym = n + 2 * np.arange(i.size)
    scale = math.sqrt(n / 2.0)
    f[sym, i, j] = f[sym, j, i] = scale
    f[sym + 1, i, j] = 1.0j * scale
    f[sym + 1, j, i] = -1.0j * scale
    g = transpose_partner(f)
    f.flags.writeable = g.flags.writeable = False
    return f, g


def _combine(coords: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_r coords_r stack_r for (..., N^2) coordinates and an (N^2, N, N) stack."""
    n = stack.shape[1]
    return (coords @ stack.reshape(n * n, n * n)).reshape(*coords.shape[:-1], n, n)


def observable_from_coords(coords: np.ndarray) -> np.ndarray:
    """Hermitian operator A = sum_r coords_r F_r from (..., N^2) coordinates."""
    coords, n = _check_coords(coords)
    return _combine(coords, _basis_stacks(n)[0])


def coords_from_observable(matrix: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian operator (or stack) over the F basis: Tr(F_r A) / N."""
    arr = _check_hermitian(matrix)
    n = _check_dim(arr.shape[-1])
    basis, _ = _basis_stacks(n)
    # Tr(F_r A) = vec(F_r) . vec(A^T), one product for the whole stack
    flat_t = arr.swapaxes(-1, -2).reshape(*arr.shape[:-2], n * n)
    return (flat_t @ basis.reshape(n * n, n * n).T).real / n


@lru_cache(maxsize=MAX_DIM)
def _state_matrix(n: int) -> np.ndarray:
    """The amplitudes as the N x N matrix Psi, with psi = vec(Psi) row-major,
    read-only and cached per N.

    Then (A (x) B) psi = vec(A Psi B^T), so <psi| A (x) B |psi> is the
    Frobenius product of Psi with A Psi B^T: O(N^3), no N^2 x N^2 matrix.
    """
    psi = make_schmidt_state(n).reshape(n, n)
    psi.flags.writeable = False
    return psi


def _state_overlap(psi: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Re <psi|image> for the (..., N, N) matrix form of each image vector."""
    return (psi.conj() * image).sum(axis=(-2, -1)).real


def joint_expectation(a_coords: np.ndarray, b_coords: np.ndarray) -> float | np.ndarray:
    """<psi| A(a) (x) B(b) |psi>; equals a . b.

    Computed from the state with the reshape identity
    (A (x) B) vec(Psi) = vec(A Psi B^T): the sum of conj(Psi) * (A Psi B^T).
    Takes (..., N^2) stacks of matching shape.
    """
    a_coords, n = _check_coords(a_coords)
    b_coords, _ = _check_coords(b_coords)
    if a_coords.shape != b_coords.shape:
        raise ValueError("coordinate vectors must have matching length")
    basis, partners = _basis_stacks(n)
    a_op = _combine(a_coords, basis)
    b_op = _combine(b_coords, partners)
    psi = _state_matrix(n)
    return _state_overlap(psi, a_op @ psi @ b_op.swapaxes(-1, -2))


def single_expectation(a_coords: np.ndarray) -> float | np.ndarray:
    """<psi| A(a) (x) I |psi> = Tr A / N."""
    a_op = observable_from_coords(a_coords)
    psi = _state_matrix(a_op.shape[-1])
    return _state_overlap(psi, a_op @ psi)


def square_expectation(a_coords: np.ndarray) -> float | np.ndarray:
    """<psi| A(a)^2 (x) I |psi>; equals ||a||^2."""
    a_op = observable_from_coords(a_coords)
    psi = _state_matrix(a_op.shape[-1])
    return _state_overlap(psi, a_op @ (a_op @ psi))


@dataclass(frozen=True)
class DecomposedObservable:
    """A = alpha0 * I + sum_j alpha_j * D_j with commuting, traceless D_j.

    Each D_j has spectrum within {-1, 0, +1} ({-1, +1} for N = 2), with +-1
    nondegenerate and the zero eigenspace of dimension N - 2.  For a stack
    of observables the fields carry its leading axes: ``alpha0`` (...),
    ``coefficients`` (..., N-1) and ``operators`` (..., N-1, N, N).
    """

    alpha0: float | np.ndarray
    coefficients: np.ndarray
    operators: np.ndarray


def decompose_observable(matrix: np.ndarray) -> DecomposedObservable:
    """Split a Hermitian observable (or stack) into commuting spectrum-{-1,0,1} pieces.

    Construction: eigendecompose A with eigenvalues descending, take
    projector differences D_j = P_j - P_{j+1}, and solve the resulting
    bidiagonal system for the coefficients.  alpha0 = Tr A / N, which is
    also the single-party expectation of A on the state.
    """
    arr = _check_hermitian(matrix)
    n = _check_dim(arr.shape[-1])
    eigenvalues, vectors = np.linalg.eigh(arr)
    # eigh sorts ascending; rows[..., j, :] is the j-th eigenvector, descending
    eigenvalues = eigenvalues[..., ::-1]
    rows = vectors[..., ::-1].swapaxes(-1, -2)
    projectors = rows[..., :, :, None] * rows.conj()[..., :, None, :]
    alpha0 = np.trace(arr, axis1=-2, axis2=-1).real / n
    coefficients = np.cumsum(eigenvalues[..., :-1] - alpha0[..., None], axis=-1)
    return DecomposedObservable(
        alpha0=alpha0,
        coefficients=coefficients,
        operators=projectors[..., :-1, :, :] - projectors[..., 1:, :, :],
    )


@dataclass(frozen=True)
class KernelSplit:
    """Kernel/support split of a spectrum-{-1,0,1} observable.

    ``support_basis`` is an N x 2 matrix whose columns span the +-1
    eigenplane in a deterministic frame; ``pauli_vector`` expresses the
    restriction of A to that plane as a unit combination of Pauli matrices.
    For a stack of observables every field carries its leading axes.
    """

    kernel_projector: np.ndarray
    support_projector: np.ndarray
    support_basis: np.ndarray
    pauli_vector: np.ndarray


def _first_long_column(matrix: np.ndarray, start) -> tuple[np.ndarray, np.ndarray]:
    """The first column at index >= start (an int or one per matrix) longer
    than the frame cutoff, normalized, and its index, per matrix of a stack."""
    norms = np.linalg.norm(matrix, axis=-2)
    allowed = np.arange(matrix.shape[-1]) >= np.expand_dims(start, -1)
    k = np.argmax(allowed & (norms > _FRAME_CUTOFF), axis=-1)
    column = np.take_along_axis(matrix, k[..., None, None], axis=-1)[..., 0]
    return column / np.take_along_axis(norms, k[..., None], axis=-1), k


def kernel_split(matrix: np.ndarray) -> KernelSplit:
    """Split the space into the kernel and the 2-dimensional support of A.

    A (or each matrix of a stack) must have spectrum {-1, 0, +1} with
    nondegenerate +-1 ({-1, +1} for N = 2).  The support frame is built by
    Gram-Schmidt of the projected canonical basis vectors (deterministic,
    independent of eigenvector phases), so the restriction A|_support is a
    generic traceless Hermitian 2x2 and its Pauli vector has unit length
    precisely because the eigenvalues are +-1.
    """
    arr = _check_hermitian(matrix, atol=_SPECTRUM_ATOL)
    n = arr.shape[-1]
    eigenvalues, vectors = np.linalg.eigh(arr)
    wrong = (
        (np.count_nonzero(np.abs(eigenvalues - 1.0) <= _SPECTRUM_ATOL, axis=-1) != 1)
        | (np.count_nonzero(np.abs(eigenvalues + 1.0) <= _SPECTRUM_ATOL, axis=-1) != 1)
        | (np.count_nonzero(np.abs(eigenvalues) <= _SPECTRUM_ATOL, axis=-1) != n - 2)
    )
    if np.any(wrong):
        raise ValueError(
            f"operator must have nondegenerate eigenvalues +-1 and an "
            f"(N-2)-dimensional kernel; got eigenvalues {eigenvalues[wrong][0]!r}"
        )
    # eigh sorts ascending, so a valid spectrum has -1 first and +1 last
    plane = vectors[..., [-1, 0]]
    support_projector = plane @ _dagger(plane)
    first, k = _first_long_column(support_projector, 0)
    overlaps = first.conj()[..., None, :] @ support_projector
    residual = support_projector - first[..., :, None] * overlaps
    second, _ = _first_long_column(residual, k + 1)
    basis = np.stack([first, second], axis=-1)
    restricted = _dagger(basis) @ arr @ basis
    # Tr(R s) = sum_ij R_ij s_ji for each Pauli matrix s
    pauli_vector = np.einsum("...ij,sji->...s", restricted, _PAULIS).real / 2.0
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
        if norm > _FRAME_CUTOFF:
            return candidate / norm
    raise AssertionError("unreachable: pauli_vector cannot shadow all three axes")


def _curve_nodes(a_coords: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Points a(theta) for a 1-D array of angles, from one split of A."""
    a_coords = _numeric_array(a_coords)
    if a_coords.ndim != 1:
        raise ValueError(f"expected a coordinate vector, got shape {a_coords.shape}")
    operator = observable_from_coords(a_coords)
    split = kernel_split(operator)
    generator = _rotation_generator(split.pauli_vector)
    sigma_dot = np.tensordot(generator, _PAULIS, axes=1)
    half = np.asarray(thetas, dtype=float)[:, None, None] / 2.0
    unitary_2 = np.cos(half) * np.eye(2) + 1.0j * np.sin(half) * sigma_dot
    basis = split.support_basis
    unitary = split.kernel_projector + basis @ unitary_2 @ _dagger(basis)
    return coords_from_observable(unitary @ operator @ _dagger(unitary))


def curve_point(a_coords: np.ndarray, theta: float) -> np.ndarray:
    """Point a(theta) of the planar unitary curve joining a to -a.

    The input coordinates must represent an operator with spectrum
    {-1, 0, +1} (+-1 nondegenerate).  A rotation by theta about a fixed
    axis orthogonal to the support Pauli vector is applied inside the
    support plane and extended by the identity on the kernel; theta = 0
    returns a, theta = pi returns -a, norms and spectra are preserved.
    """
    if not 0.0 <= _one_number("theta", theta) <= math.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return _curve_nodes(a_coords, np.array([theta]))[0]


def curve_partition(a_coords: np.ndarray, n: int) -> np.ndarray:
    """Uniform n-step partition of the curve from a to -a: the nodes
    a_j = a(j*pi/n), j = 0..n, as the rows of an (n + 1, N^2) array.

    Consecutive nodes satisfy a_{j+1} . a_j = ||a||^2 cos(pi/n); the first
    node is a, the last -a.  ``n`` is a whole number >= 1.  One kernel split
    and one generator serve all n + 1 nodes, which are rotated as one stack.
    """
    n = _whole_number("n", n, 1)
    return _curve_nodes(a_coords, np.arange(n + 1) * math.pi / n)


def theorem_bound(n: int, a_norm_sq: float = 1.0, dim: int = 2) -> float:
    """Partition bound (2 n ||a||^2 / N) sin^2(pi / (2n)).

    Bounds the tau-integrated |conditional single-party average| of any
    quantum-equivalent crypto-nonlocal model; it decreases strictly for
    n >= 2 and vanishes as n -> infinity, forcing the average to zero.
    ``n`` and ``dim`` are whole numbers: Python or numpy integers, not bools
    or floats; ``a_norm_sq`` is one int or float.
    """
    n = _whole_number("n", n, 1)
    dim = _whole_number("dim", dim, 1)
    a_norm_sq = _one_number("a_norm_sq", a_norm_sq)
    if not (math.isfinite(a_norm_sq) and a_norm_sq >= 0.0):
        raise ValueError(f"a_norm_sq must be finite and >= 0, got {a_norm_sq}")
    return (2.0 * n * a_norm_sq / dim) * math.sin(math.pi / (2.0 * n)) ** 2


def malus_law(a, u) -> float:
    """Malus-law local average 2 (u . a)^2 - 1 for polarization directions.

    The historical candidate for a nonvanishing conditional single-party
    average; any nonzero choice is ruled out for quantum-equivalent models
    by the partition bound above.
    """
    return 2.0 * float(as_unit_vector(u) @ as_unit_vector(a)) ** 2 - 1.0


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

# Trials drawn and checked per stack; bounds the report's memory at any
# trial count (a tracemalloc peak of about 12 MB at N = 16).  Results do not
# depend on it.
TRIAL_BLOCK = 64

_OMEGA_SPECTRUM = np.array([-1.0, 0.0, 1.0])


def _complex_gaussians(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m complex Gaussian N x N matrices from one (m, 2, N, N) normal block,
    so that matrices drawn in blocks equal matrices drawn at once."""
    raw = rng.normal(size=(m, 2, n, n))
    return raw[:, 0] + 1.0j * raw[:, 1]


def _random_hermitian(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    raw = _complex_gaussians(rng, m, n)
    return (raw + _dagger(raw)) / 2.0


def _random_omega_observable(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(_complex_gaussians(rng, m, n))
    diag = np.zeros(n)
    diag[0], diag[1] = 1.0, -1.0
    return (q * diag) @ _dagger(q)


def _basis_residual(n: int) -> float:
    """Max deviation of <psi| F_r (x) G_s |psi> from delta_rs."""
    psi = _state_matrix(n)
    basis, partners = _basis_stacks(n)
    # <psi| F_r (x) G_s |psi> = sum (F_r Psi) * (conj(Psi) G_s), N Gram
    # columns r per product: one product for all N^2 would hold two more
    # N^2 x N^2 arrays, 2 MB more peak RSS for the theorem report at N = 16
    right = (psi.conj() @ partners).reshape(n * n, n * n)
    worst = 0.0
    for r in range(0, n * n, n):
        gram = (right @ (basis[r : r + n] @ psi).reshape(n, n * n).T).real
        gram[r : r + n] -= np.eye(n)
        worst = np.maximum(worst, np.max(np.abs(gram)))
    return float(worst)


def _fold(res: dict[str, float], key: str, values) -> None:
    """Raise res[key] to the maximum of values; a NaN anywhere sticks."""
    res[key] = float(np.maximum(res[key], np.max(values)))


def _trial_residuals(res: dict[str, float], n: int, m: int, streams: dict) -> None:
    """Fold the residuals of m random trials at dimension n into res."""
    psi = _state_matrix(n)

    x = _random_hermitian(streams["x"], m, n)
    # (X (x) I) psi = vec(X Psi) and (I (x) X^T) psi = vec(Psi X)
    _fold(res, "transpose_identity", np.abs(x @ psi - psi @ transpose_partner(x).swapaxes(-1, -2)))

    a, b = streams["ab"].normal(size=(m, 2, n * n)).swapaxes(0, 1)
    _fold(res, "joint_vs_dot", np.abs(joint_expectation(a, b) - (a * b).sum(axis=-1)))
    _fold(res, "square_vs_norm", np.abs(square_expectation(a) - (a * a).sum(axis=-1)))

    h = _random_hermitian(streams["h"], m, n)
    decomp = decompose_observable(h)
    ops = decomp.operators
    pieces = np.einsum("tj,tjik->tik", decomp.coefficients, ops)
    rec = decomp.alpha0[:, None, None] * np.eye(n) + pieces
    _fold(res, "decomposition_reconstruction", np.abs(rec - h))
    alpha0_single = single_expectation(coords_from_observable(h))
    _fold(res, "decomposition_alpha0", np.abs(decomp.alpha0 - alpha0_single))
    # distance of each eigenvalue of each piece from the set {-1, 0, 1}
    spectra = np.linalg.eigvalsh(ops)
    _fold(res, "decomposition_spectrum", np.abs(spectra[..., None] - _OMEGA_SPECTRUM).min(axis=-1))
    # one piece against the stack of later ones, never the full pair stack
    for i in range(n - 2):
        op_i, later = ops[:, i, None], ops[:, i + 1 :]
        _fold(res, "decomposition_commutation", np.abs(op_i @ later - later @ op_i))

    split = kernel_split(_random_omega_observable(streams["omega"], m, n))
    _fold(res, "pauli_vector_norm", np.abs(np.linalg.norm(split.pauli_vector, axis=-1) - 1.0))


def _curve_residuals(res: dict[str, float], coords: np.ndarray) -> None:
    steps = 8
    nodes = curve_partition(coords, steps)
    norm_sq = float(coords @ coords)
    res["curve_endpoint"] = float(np.max(np.abs(nodes[-1] + coords)))
    res["curve_norm"] = float(np.max(np.abs((nodes**2).sum(axis=1) - norm_sq)))
    spacing = norm_sq * math.cos(math.pi / steps)
    res["curve_spacing"] = float(np.max(np.abs((nodes[:-1] * nodes[1:]).sum(axis=1) - spacing)))
    # svd cannot take non-finite nodes; they fail the planarity check instead
    res["curve_planarity"] = (
        float(np.linalg.svd(nodes, compute_uv=False)[2])
        if np.all(np.isfinite(nodes))
        else math.nan
    )


def verification_report(
    n_min: int = 2, n_max: int = 6, trials: int = 50, seed: int = 1
) -> dict:
    """Max residuals of every algebraic identity, per dimension.

    Returns {"dimensions": {N: {identity: residual}}, "passed": bool,
    "tolerances": {...}}; an identity passes when its residual stays below
    the declared tolerance for every random trial.  A non-finite residual
    fails.

    Each dimension checks its trials as stacks of at most ``TRIAL_BLOCK``
    matrices, each stack with one call of every stacked function.  Each
    drawn quantity has its own substream of ``seed``: ``theorem-x`` (the
    transpose-identity operators), ``theorem-ab`` (coordinate pairs),
    ``theorem-h`` (observables to decompose) and ``theorem-omega`` (the
    spectrum-{-1,0,1} observables, then one per dimension for its curve).
    Every complex matrix comes from one (2, N, N) block of normals, so no
    residual depends on the block size.
    """
    n_min, n_max = _whole_number("n_min", n_min, 2), _whole_number("n_max", n_max, 2)
    if not n_min <= n_max <= MAX_DIM:
        raise ValueError(f"need 2 <= n_min <= n_max <= {MAX_DIM}")
    trials = _whole_number("trials", trials, 1)
    streams = {label: substream(seed, f"theorem-{label}") for label in ("x", "ab", "h", "omega")}
    dims: dict[int, dict[str, float]] = {}
    for n in range(n_min, n_max + 1):
        res = {key: 0.0 for key in REPORT_TOLERANCES}
        res["basis_orthonormality"] = _basis_residual(n)
        for start in range(0, trials, TRIAL_BLOCK):
            _trial_residuals(res, n, min(TRIAL_BLOCK, trials - start), streams)

        curve_op = _random_omega_observable(streams["omega"], 1, n)[0]
        _curve_residuals(res, coords_from_observable(curve_op))
        dims[n] = res

    passed = all(
        res[key] <= tol
        for res in dims.values()
        for key, tol in REPORT_TOLERANCES.items()
    )
    return {"dimensions": dims, "tolerances": dict(REPORT_TOLERANCES), "passed": passed}
