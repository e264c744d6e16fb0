"""Translation heights on the universal cover and the monodromy inequality.

Run as `python3 demos/cover_heights.py`.  Heights come with reported grid
errors; the chained inequality at the end is checked with those errors folded
into its tolerance.
"""

import math

from arithmeticoid import szpiro as sz

print("= heights of central elements are exact =")
for m in (-2, -1, 0, 1, 2):
    h = sz.height_q(sz.phi_infinity(m), grid=256)
    print(f"  h(phi^{m:+d}) = {h.value:+.12f}   (pi m = {math.pi * m:+.12f})")

print()
print("= a rotation lift and its height =")
th = 0.8
rot = sz.lift(((math.cos(th), -math.sin(th)), (math.sin(th), math.cos(th))))
h = sz.height_q(rot, grid=1024)
print(f"  rotation by {th}: h = {h.value:.9f} +- {h.error:.1e}"
      f"   (theta/2 = {th / 2:.9f})")

print()
print("= subadditivity with reported errors =")
a = sz.lift(((1, 3), (0, 1)))
b = sz.lift(((0, -1), (1, 0)), winding=1)
ha, hb = sz.height_q(a), sz.height_q(b)
hab = sz.height_q(sz.compose(a, b))
print(f"  h(a) = {ha.value:.6f}, h(b) = {hb.value:.6f},"
      f" h(ab) = {hab.value:.6f}")
print(f"  h(ab) <= h(a) + h(b) + errors: "
      f"{hab.value <= ha.value + hb.value + ha.error + hb.error + hab.error}")

print()
print("= the theta parameters at tau = i =")
for ell in (5, 7):
    vals = ", ".join(f"{abs(v):.6f}" for v in sz.theta_values(1j, ell))
    print(f"  ell = {ell}: |theta_j| = {vals}")

print()
print("= a random punctured-surface datum and the chained inequality =")
datum = sz.monodromy_generate(genus=1, punctures=2, seed=7)
rep = sz.corollary312_check(datum, ell=5, seed=7)
print(f"  mid = {rep.mid:.6f} >= rhs = {rep.rhs:.6f}"
      f"   (tolerance {rep.tolerance:.2e})")
print(f"  passed: {rep.passed}")
