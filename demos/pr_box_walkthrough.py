"""Walkthrough: the PR box, its hidden-bit model, and what each checker sees.

The PR box is a two-party device constrained by a + b = x*y (mod 2) with
uniformly random outputs.  It is the extremal no-signaling box: the CHSH
combination reaches the algebraic maximum 4, well beyond the local bound 2
and the quantum bound 2*sqrt(2).  A single fair hidden bit realizes it
deterministically, and the nonlocality then shows up in a different place:
the mixed box violates outcome independence, while each deterministic slice
violates parameter independence instead.

Run: python demos/pr_box_walkthrough.py
"""

import itertools

from nonlocality_lab import (
    check_no_signaling,
    check_outcome_independence,
    check_parameter_independence,
    correlation_from_table,
    locality_check,
    pr_chsh,
    pr_hidden_outputs,
    pr_ideal_table,
    pr_table_from_hidden,
)

print("The hidden-bit model, exhaustively:")
print("  x y lam | a b")
for x, y, lam in itertools.product((0, 1), repeat=3):
    a, b = pr_hidden_outputs(x, y, lam)
    print(f"  {x} {y}  {lam}  | {a} {b}")

print()
table = pr_ideal_table()
print("Averaging the fair bit reproduces the ideal box exactly:",
      pr_table_from_hidden((0.5, 0.5)) == table)

print()
print("Correlations of the ideal box:")
for x in (0, 1):
    for y in (0, 1):
        print(f"  E({x},{y}) = {correlation_from_table(table, x, y):+g}")
report = pr_chsh()
print(f"CHSH combination: F = {report.f:g} -> {report.nonlocality.value}")

print()
print("What the formal checkers say about the ideal (mixed) box:")
no_sig = check_no_signaling(table)
print(f"  no-signaling:            {no_sig.ok}"
      f" (max deviation {no_sig.max_deviation:g})")
print(f"  parameter independence:  {check_parameter_independence(table).ok}")
oi = check_outcome_independence(table)
print(f"  outcome independence:    {oi.ok}")
w = oi.witness
print(f"    witness: P({w.party}={w.outcome} | x={w.x}, y={w.y}, other={w.given})"
      f" = {w.conditional:g}, but the bare marginal is {w.marginal:g}")
print(f"  locality (product form): {locality_check(table)}")

print()
print("Each deterministic slice of the hidden bit flips the diagnosis:")
for prior in ((1.0, 0.0), (0.0, 1.0)):
    slice_table = pr_table_from_hidden(prior)
    oi_ok = check_outcome_independence(slice_table).ok
    pi = check_parameter_independence(slice_table)
    print(f"  prior {prior}: OI {oi_ok}, PI {pi.ok}"
          f" (witness: party '{pi.witness.party}' marginal follows the remote input)")

print()
print("Same device, two stories: the box as a whole blames the outcomes,")
print("its deterministic realizations blame the settings.")
