"""Demo: why conditional local averages of quantum-equivalent models vanish.

For a maximally entangled pair of N-level systems there is an operator
basis, adapted to the state, in which joint expectations are plain dot
products of real coordinate vectors.  Any observable splits into commuting
pieces with spectrum {-1, 0, 1}, each of which can be walked to its own
negative along a planar curve of observables with fixed spectrum.  Summing
a correlation inequality along an n-step partition of that curve bounds the
tau-integrated conditional local average by (2n||a||^2/N) sin^2(pi/2n),
which vanishes as the partition refines.  This script checks every one of
those ingredients numerically.

Run: python demos/entangled_identities.py
"""

import numpy as np

from nonlocality_lab import (
    curve_partition,
    decompose_observable,
    joint_expectation,
    kernel_split,
    malus_law,
    make_schmidt_state,
    coords_from_observable,
    theorem_bound,
    transpose_partner,
    verification_report,
)

rng = np.random.default_rng(11)

print("The canonical maximally entangled state at N = 3:")
psi = make_schmidt_state(3)  # the amplitude vector over |v_j> (x) |w_k>
print(f"  amplitudes: {np.round(psi.real, 4)}")

print()
print("A left-side action equals a right-side transpose on this state:")
x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
x = (x + x.conj().T) / 2
lhs = np.kron(x, np.eye(3)) @ psi
rhs = np.kron(np.eye(3), transpose_partner(x)) @ psi
print(f"  residual ||(X x I)psi - (I x X^T)psi|| = {np.max(np.abs(lhs - rhs)):.2e}")

print()
print("Joint expectations are dot products of coordinate vectors (N = 4):")
a = rng.normal(size=16)
b = rng.normal(size=16)
print(f"  <A(a) x B(b)> = {joint_expectation(a, b):+.12f}")
print(f"  a . b         = {float(a @ b):+.12f}")

print()
print("Decomposition of a random Hermitian observable at N = 4:")
h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
h = (h + h.conj().T) / 2
decomp = decompose_observable(h)
print(f"  alpha0 = {decomp.alpha0:+.6f} (= Tr A / N)")
for j, (c, op) in enumerate(zip(decomp.coefficients, decomp.operators), start=1):
    eig = np.round(np.linalg.eigvalsh(op), 10)
    print(f"  piece {j}: coefficient {c:+.4f}, spectrum {sorted(set(eig.tolist()))}")

print()
print("The curve from a to -a, at fixed spectrum, for one such piece:")
coords = coords_from_observable(decomp.operators[0])
split = kernel_split(decomp.operators[0])
print(f"  support Pauli vector: {np.round(split.pauli_vector, 6)}"
      f" (length {np.linalg.norm(split.pauli_vector):.12f})")
nodes = curve_partition(coords, 8)  # rows a_0 = a, ..., a_8 = -a
spacing = (nodes[:-1] * nodes[1:]).sum(axis=1)
print(f"  endpoint residual ||a_n + a_0|| = {np.max(np.abs(nodes[-1] + coords)):.2e}")
print(f"  consecutive dots (should all equal ||a||^2 cos(pi/8)):"
      f" spread {spacing.max() - spacing.min():.2e}")

print()
print("The partition bound squeezes the conditional local average to zero:")
for n in (1, 4, 16, 256, 10**6):
    print(f"  n = {n:<9} bound = {theorem_bound(n):.3e}")
print("  a Malus-law local average, e.g."
      f" f(a, u) = {malus_law([0, 0, 1], [0.6, 0, 0.8]):+.3f} at 37 degrees,")
print("  is therefore impossible for any model that matches quantum mechanics.")

print()
print("Full identity sweep, N = 2..5, 20 random trials each:")
report = verification_report(2, 5, trials=20, seed=1)
for n, residuals in report["dimensions"].items():
    worst = max(residuals.values())
    print(f"  N = {n}: worst residual {worst:.2e}")
print(f"  all identities inside tolerance: {report['passed']}")
