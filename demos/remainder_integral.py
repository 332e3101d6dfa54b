#!/usr/bin/env python3
"""A_k a third way: as an Euler-Maclaurin remainder integral.

Summing phi_k(x) = (1-1/x^2)^k / x over the integers gives A_k after an
alternating-zeta rearrangement.  Euler-Maclaurin turns that sum into an
integral; for 2 <= a < k every boundary term vanishes, so what is left is

    A_k = ((-1)^a / a!) * Int_1^inf Bbar_a(x) phi_k^(a+1)(x) dx

with Bbar_a the periodified Bernoulli polynomial.  The derivatives come from
an exact integer-polynomial table (p_{a,j}), the integral from Gauss-Legendre
panels up to some X and, past X, from boundary terms in closed form after
shifting the remainder to a deeper Bernoulli order.  It is a slow road to a
number the alternating sum yields in microseconds -- the point is that two
completely different mechanisms land on the same 10+ digits.
"""

import time

import mpmath
from mpmath import mpf

from maslanka import PrecisionContext
from maslanka.coefficients import a_k
from maslanka.phik import build_paj, deriv_l1_norm, em_remainder_a_k, phi_deriv

ctx = PrecisionContext(128)
paj = build_paj(6)

# the closed-form derivative at a couple of points: once x >> sqrt(k) the
# k-dependence retreats to higher order and phi'' settles toward 2/x^3
for x in (mpf(30), mpf(300)):
    d2 = phi_deriv(60, 2, x, paj, ctx)
    print(f"phi_60''({int(x)}) = {mpmath.nstr(d2, 10)}   (2/x^3 = {mpmath.nstr(2 / x ** 3, 10)})")

print("\nremainder integral vs alternating sum:")
for k, a in ((8, 2), (12, 3), (16, 4)):
    ref = a_k(k, ctx)
    t0 = time.perf_counter()
    val = em_remainder_a_k(k, a, paj, ctx, abs(ref) * mpf("1e-8"))
    dt = time.perf_counter() - t0
    rel = abs(val - ref) / abs(ref)
    print(f"  k={k:2d} a={a}:  integral {mpmath.nstr(val, 12):>16}"
          f"   sum {mpmath.nstr(ref, 12):>16}   rel diff {mpmath.nstr(rel, 2)}   [{dt:.1f}s]")

# why the integral is small in the first place: the L1 mass of the
# derivatives themselves collapses as k grows (extra smoothing near x=1)
print("\nL1 norms of phi_k^(a), the size driver of the remainder:")
print(f"{'k':>5} {'a=2':>12} {'a=3':>12}")
norms = {}
for k in (50, 100, 200, 400):
    row = [deriv_l1_norm(k, a, paj, ctx) for a in (2, 3)]
    norms[k] = row
    print(f"{k:5d} {mpmath.nstr(row[0], 4):>12} {mpmath.nstr(row[1], 4):>12}")
for a, col in ((2, 0), (3, 1)):
    r = norms[400][col] / norms[100][col]
    print(f"ratio k=400 / k=100 at a={a}: {mpmath.nstr(r, 3)}  "
          f"(k^(-a/2) predicts {mpmath.nstr(mpf(4) ** (-mpf(a) / 2), 3)})")
