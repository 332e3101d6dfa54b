#!/usr/bin/env python3
"""Scan the RH-criterion sequence: does |b_k| k^(3/4) behave itself?

The Riemann hypothesis is equivalent to b_k = O(k^(-3/4+eps)), i.e. the
scaled sequence |b_k| k^(3/4) should not blow up.  At the scale a desk
machine reaches, what the data actually shows is much stronger than the
criterion needs: a clean ~k^-2 power law, whose source is the pole of
1/zeta(2s+2) at s = -2 (the first trivial zero of zeta).  The k^(-3/4)
critical-line contribution is there too, but with a far smaller amplitude;
separating it out of the envelope would need k well beyond 10^3.

CLI equivalent of the table below:  maslanka bk --kmax 400 --bits 96
"""

import mpmath
from mpmath import mp

from maslanka import PrecisionContext, build_table
from maslanka.analysis import decay_fit, rh_diagnostic

K_MAX = 400

print(f"building kind=b table to k={K_MAX} (exact integer differences of a "
      f"~{96 + K_MAX + 41}-bit fixed-point row)...")
table = build_table("b", K_MAX, PrecisionContext(96))

rows = rh_diagnostic(table, 1, K_MAX)
print(f"\n{'k':>5} {'b_k':>15} {'|b_k| k^(3/4)':>15} {'with log^2 k':>15}")
for k, scaled, scaled_log2 in rows:
    if k in (1, 2, 5, 10, 25, 50, 100, 200, 400):
        print(f"{k:5d} {mpmath.nstr(table.values[k], 8):>15} "
              f"{mpmath.nstr(scaled, 8):>15} {mpmath.nstr(scaled_log2, 8):>15}")

fit = decay_fit(table, 50, K_MAX)
print(f"\nlog-log fit of |b_k| on [50,{K_MAX}]: slope {fit.slope:.4f}, "
      f"max residual {fit.max_abs_residual:.4f}")
print("criterion needs slope < -0.75; the measured ~-2 clears it with room")

# the envelope view the criterion actually cares about: window maxima of the
# scaled sequence must not grow
with mp.workprec(140):
    scaled = {k: v for k, v, _ in rows}
    print("\nwindow maxima of |b_k| k^(3/4):")
    for lo in range(50, K_MAX, 50):
        m = max(scaled[k] for k in range(lo, min(lo + 50, K_MAX) + 1))
        print(f"  k in [{lo:3d},{min(lo + 50, K_MAX):3d}]  max = {mpmath.nstr(m, 6)}")
