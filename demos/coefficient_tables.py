#!/usr/bin/env python3
"""Build the two coefficient tables, look at a few entries, save one to disk.

The A_k drive the series for (s-1)*zeta(s); the b_k are the companion
sequence built from 1/zeta(2j+2).  Both come out of alternating binomial
sums that cancel ~2^k of leading bits, so the builder takes exact integer
differences of a zeta row scaled by 2^W, W growing with k_max, and stamps
every entry k with the least e_k such that 2^e_k covers half an ulp of its
rounding to the target plus the row rounding 2^(k-W-1) (1 + 2^-30).
"""

import os
import tempfile

import mpmath

from maslanka import PrecisionContext, build_table
from maslanka.coefficients import a_k, load_table, save_table

ctx = PrecisionContext(128)

print("building kind=A and kind=b tables to k=60 at 128-bit target...")
ta = build_table("A", 60, ctx)
tb = build_table("b", 60, ctx)

print("\n  k            A_k                      b_k            |A_k error| <=")
for k in (0, 1, 2, 5, 10, 20, 40, 60):
    print(f"{k:3d}  {mpmath.nstr(ta.values[k], 20):>24}  {mpmath.nstr(tb.values[k], 20):>24}"
          f"   2^{ta.error_bound_exponents[k]}")

# the magnitudes alone show the very different decay of the two sequences
print("\nmagnitude check: A_k falls off much faster than b_k")
for k in (10, 20, 40, 60):
    print(f"  k={k:3d}  |A_k| = {mpmath.nstr(abs(ta.values[k]), 3):>10}"
          f"   |b_k| = {mpmath.nstr(abs(tb.values[k]), 3):>10}")

# a table entry is the same value a_k() returns, just rounded to the target
v = a_k(25, ctx)
print(f"\na_k(25) recomputed on demand: {mpmath.nstr(v, 25)}")
print(f"table entry (128-bit rounded): {mpmath.nstr(ta.values[25], 25)}")

# round trip through the cache format; identical argv -> identical bytes
path = os.path.join(tempfile.mkdtemp(), "a60.tbl")
save_table(ta, path)
back = load_table(path)
print(f"\nsaved to {path} and reloaded: "
      f"{'all entries bit-identical' if back.values == ta.values else 'MISMATCH'}")
