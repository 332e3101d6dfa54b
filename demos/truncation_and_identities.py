#!/usr/bin/env python3
"""Exact structure behind the coefficients: three identities checked hard.

1. At s = 2n the series truncates (P_k(n) = 0 for k >= n) and the first n
   terms must reproduce (2n-1) zeta(2n) exactly.
2. A_k has a second, differently-indexed alternating sum; the two must agree.
3. The binomial transform is an involution, so transforming b_k back must
   return the 1/zeta(2j+2) it came from.
4. With Bernoulli numbers as weights and 2-s as argument, the same Pochhammer
   polynomials give (s-1) zeta(s) = 1 + (1/2)(s-1) + sum_{k>=2} B_k P_k(2-s),
   which truncates exactly at s = 1, 0, -1, ... but diverges everywhere else.

The first three hold to roughly the table's full 128-bit accuracy -- these
are identities, not approximations, and the residuals below are pure
roundoff.
"""

import math

import mpmath
from mpmath import mp, mpf

from maslanka import PrecisionContext, build_table
from maslanka.bernoulli import bernoulli_number, zeta_even
from maslanka.coefficients import a_k, a_k_alt, b_k
from maslanka.pochhammer import pochhammer_values
from maslanka.series import truncation_check

ctx = PrecisionContext(128)
table = build_table("A", 30, ctx)

print("truncated series vs (2n-1)*zeta(2n):")
print(f"{'n':>3} {'both sides':>28} {'rel diff':>10}")
with mp.workprec(200):
    for n in (1, 2, 3, 5, 8, 13, 20):
        lhs, rhs = truncation_check(n, table, ctx)
        print(f"{n:3d} {mpmath.nstr(rhs, 20):>28} {mpmath.nstr(abs(lhs - rhs) / rhs, 2):>10}")

print("\nsame A_k from two unrelated alternating sums:")
with mp.workprec(200):
    for k in (1, 2, 7, 30, 75):
        va, vb = a_k(k, ctx), a_k_alt(k, ctx)
        print(f"  k={k:3d}  rel diff {mpmath.nstr(abs(va - vb) / abs(va), 2)}")

print("\nbinomial involution: sum_k C(n,k) (-1)^k b_k == 1/zeta(2n+2):")
with mp.workprec(300):
    for n in (1, 4, 10, 20):
        acc = mp.zero
        for k in range(n + 1):
            acc += (-1) ** k * math.comb(n, k) * b_k(k, PrecisionContext(256))
        target = 1 / zeta_even(2 * n + 2, PrecisionContext(256))
        print(f"  n={n:3d}  abs diff {mpmath.nstr(abs(acc - target), 2)}")

# the involution is exactly why b_k is so much bigger than A_k: the inverse
# transform has to rebuild O(1) values out of the b_k with 2^n-scale weights
print("\n(1/zeta(2n+2) stays O(1) while C(n,k) reaches "
      f"{math.comb(20, 10)} at n=20 -- that is the cancellation at work)")


def bernoulli_form(s, K):
    """c_0 + sum_{k=1}^{K} c_k P_k(2-s), c_0 = 1, c_1 = 1/2, c_k = B_k (k >= 2).

    The k = 1 weight is +1/2, not B_1: solving the triangular system at
    s = 1, 0, -1, ... pins it.
    """
    with mp.workprec(ctx.working_bits):
        weights = [mp.one, mpf(1) / 2] + [mpf(b.numerator) / b.denominator
                                          for b in map(bernoulli_number, range(2, K + 1))]
        return mpmath.fsum(c * p for c, p in zip(weights, pochhammer_values(2 - s, K, ctx)))


print("\nBernoulli form 1 + (1/2)(s-1) + sum_{k>=2} B_k P_k(2-s), exact where it truncates:")
with mp.workprec(200):
    for s, exact in ((1, mp.one), (0, mpf(1) / 2), (-1, mpf(1) / 6), (-3, mpf(-1) / 30)):
        v = bernoulli_form(s, 1 - s)  # P_k(2-s) = 0 for k > 1-s
        same = "identical" if v == bernoulli_form(s, 30) else "DIFFERENT"
        print(f"  s={s:3d}  K={1 - s} and K=30 {same}, value {mpmath.nstr(v, 20)}  "
              f"abs diff {mpmath.nstr(abs(v - exact), 2)}")

print("\n...and divergent elsewhere: at s = 3, |S_K - S_(K-2)| = (K+1)|B_K| grows")
with mp.workprec(200):
    for K in range(8, 31, 2):
        gap = abs(bernoulli_form(3, K) - bernoulli_form(3, K - 2))
        print(f"  K={K:3d}  gap {mpmath.nstr(gap, 3)}")
