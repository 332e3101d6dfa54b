"""Exact Bernoulli machinery: numbers, even-argument zeta, Bernoulli polynomials.

This module is the "oracle layer" of the package: everything here is exact
rational arithmetic until a final rounding.  The coefficient row of
:mod:`maslanka.coefficients` takes zeta(m) from here for small m, and the
zeta row of a_k_alt for every m.  :mod:`maslanka.phik` evaluates the
periodified polynomials B_a({x}) in integers over bernoulli_poly_coeffs.

Conventions: B_1 = -1/2 (the value of the defining recurrence
sum_{j<=n} C(n+1, j) B_j = 0), and for even m >= 2

    zeta(m) = (-1)**(m/2+1) * B_m * (2 pi)**m / (2 m!)  =  q(m) * pi**m

with q(m) = |B_m| * 2**(m-1) / m! an exact positive rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .mpnum import PrecisionContext

__all__ = [
    "bernoulli_number",
    "bernoulli_poly_coeffs",
    "periodified_sup_bound",
    "zeta_even",
    "zeta_rational_part",
]


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n, efficient for large n.

    Delegates to mpmath.bernfrac (denominator by von Staudt-Clausen, numerator
    via a zeta evaluation at guaranteed precision), which stays fast well past
    n = 2000.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


_Q_CACHE: dict[int, Fraction] = {}


def zeta_rational_part(m: int) -> Fraction:
    """The exact rational q(m) with zeta(m) = q(m) * pi**m, for even m >= 2."""
    if m < 2 or m % 2:
        raise ValueError("m must be an even integer >= 2")
    q = _Q_CACHE.get(m)
    if q is None:
        b = bernoulli_number(m)
        q = Fraction(abs(b.numerator) * 2 ** (m - 1), b.denominator * math.factorial(m))
        _Q_CACHE[m] = q
    return q


def zeta_even(m: int, ctx: PrecisionContext) -> mpf:
    """zeta(m) for even m >= 2, from the exact Bernoulli formula."""
    q = zeta_rational_part(m)
    with ctx.prec():
        return +(mpf(q.numerator) * mp.pi ** m / mpf(q.denominator))


_POLY_CACHE: dict[int, tuple[Fraction, ...]] = {}


def bernoulli_poly_coeffs(a: int) -> tuple[Fraction, ...]:
    """Exact coefficients of the Bernoulli polynomial B_a(x), highest power first.

    B_a(x) = sum_{i=0}^{a} C(a, i) B_i x**(a-i).
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    coeffs = _POLY_CACHE.get(a)
    if coeffs is None:
        coeffs = tuple(math.comb(a, i) * bernoulli_number(i) for i in range(a + 1))
        _POLY_CACHE[a] = coeffs
    return coeffs


def periodified_sup_bound(a: int) -> mpf:
    """Upper bound for sup_x |B_a({x})|, at the ambient precision.

    a = 1: exactly 1/2.  Even a: the sup is |B_a| (attained at integers).
    Odd a >= 3: the Fourier bound 2 * zeta(a) * a! / (2 pi)**a.  A tiny
    relative pad keeps the result an upper bound despite rounding.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    pad = 1 + mpf(2) ** (-20)
    if a == 1:
        return mpf(1) / 2
    if a % 2 == 0:
        b = bernoulli_number(a)
        return abs(mpf(b.numerator)) / mpf(b.denominator) * pad
    return 2 * mpmath.zeta(a) * mpf(math.factorial(a)) / (2 * mp.pi) ** a * pad
