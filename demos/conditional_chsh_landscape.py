"""Demo: one hidden-variable model sweeping local, quantum and superquantum.

The crypto-nonlocal model assigns outcomes by signs of rotated measurement
directions against a hidden unit vector lam = (mu, tau).  Averaged over the
whole sphere it is exactly quantum (singlet correlations, Tsirelson bound
respected).  Conditioned on the great circle tau, the single-party averages
still vanish identically -- no signaling at the intermediate level -- but
the pair correlations roam: the CHSH value F(alpha, tau) covers all of
[-4, ...], approaching the PR-box value 4 near (alpha, tau) = (pi/6, pi/2).

Run: python demos/conditional_chsh_landscape.py
"""

import math

import numpy as np

from nonlocality_lab import (
    closed_form_chsh,
    conditional_chsh,
    crypto_local_average,
    quantum_chsh_reference,
    region_scan,
    scan_to_csv,
    tau_average_chsh,
)

PI = math.pi
rng = np.random.default_rng(7)

print("Crypto-nonlocality: conditional single-party averages vanish.")
worst = 0.0
for _ in range(1000):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    worst = max(worst, abs(crypto_local_average(v, rng.uniform(0.0, PI))))
print(f"  max |<A>_tau| over 1000 random (direction, tau): {worst:.2e}")

print()
print("Conditional CHSH at a few points (exact arc integration):")
# a point runs the scan's kernel path on one cell: at a scan cell's center it equals that cell
for alpha, tau in ((PI / 4, 0.0), (PI / 8, 1.0), (PI / 6, PI / 2 - 0.01),
                   (PI / 6, PI / 2 - 0.001)):
    cell = conditional_chsh(alpha, tau)
    print(f"  alpha = {alpha:.4f}, tau = {tau:.4f}:"
          f"  F = {cell.f:+.4f}  ->  {cell.nonlocality.value}")

print()
print("Closed forms vs the exact integrator at (pi/4, 0):")
cmp = closed_form_chsh(PI / 4, 0.0)
print(f"  exact          E(a,b) = {cmp.exact.e_ab:+.6f}")
print(f"  printed form   E(a,b) = {cmp.printed[0]:+.6f}   (outside [-1, 1]!)")
print(f"  normalized     E(a,b) = {cmp.normalized[0]:+.6f}")
print(f"  matching variant: {cmp.matching_variant}")

print()
print("Averaging over tau restores quantum mechanics exactly:")
for alpha in (0.0, PI / 8, PI / 6, PI / 4):
    average = tau_average_chsh(alpha)
    oracle = quantum_chsh_reference(alpha)
    print(f"  alpha = {alpha:.4f}:  <F> = {average:+.6f},"
          f"  quantum = {oracle:+.6f},  gap = {abs(average - oracle):.1e}")

print()
print("Scanning the (alpha, tau) rectangle on a 120x120 grid...")
scan = region_scan(120, 120)
for cls, count in zip(scan.CLASSES, scan.class_counts()):
    print(f"  {cls.value:<17} {count:>6} cells")
peak = scan.peak()
print(f"  peak |F| = {abs(peak.f):.4f} at alpha = {peak.alpha:.4f},"
      f" tau = {peak.tau:.4f}  (the PR corner)")

scan_to_csv(scan, "region_scan_demo.csv")
print("  full grid written to region_scan_demo.csv (alpha,tau,f,class)")
