"""Exact Bernoulli machinery: numbers, even-argument zeta, Bernoulli polynomials.

This module is the "oracle layer" of the package: everything here is exact
rational arithmetic until a final rounding.  The coefficient row of
:mod:`maslanka.coefficients` takes zeta(m) from here for small m, and the
zeta row of a_k_alt for every m.  :mod:`maslanka.phik` evaluates the
periodified polynomials B_a({x}) in integers over bernoulli_poly_coeffs, and
:func:`maslanka.series.zeta_reference` takes its Euler-Maclaurin corrections
from bernoulli_number.

Every Bernoulli number is read from one module-level table of B_0, B_2, ...,
B_2n, built from the tangent numbers T_1..T_n in O(n**2) multiply-adds of
Python ints by small factors (Brent & Harvey, "Fast computation of Bernoulli,
tangent and secant numbers", 2011), with B_2k = (-1)**(k-1) 2k T_k /
(4**k (4**k - 1)).  A larger index rebuilds the table to at least twice its
size, so a run pays about one build at its largest index.

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


_EVEN: list[Fraction] = []  # B_0, B_2, ..., B_2n


def _even_bernoulli(n: int) -> list[Fraction]:
    """B_0, B_2, ..., B_2n from the tangent numbers T_1..T_n (Brent & Harvey)."""
    t = [0, 1]
    for k in range(2, n + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction(1)] + [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
                            for k in range(1, n + 1)]


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n, read from the module's table of even-index values.

    Odd n are B_1 = -1/2 and 0 beyond.  An even n past the end of the table
    rebuilds it from the tangent numbers to at least twice its size.
    """
    global _EVEN
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    if n // 2 >= len(_EVEN):
        _EVEN = _even_bernoulli(max(n // 2, 2 * len(_EVEN)))
    return _EVEN[n // 2]


def zeta_rational_part(m: int) -> Fraction:
    """The exact rational q(m) with zeta(m) = q(m) * pi**m, for even m >= 2."""
    if m < 2 or m % 2:
        raise ValueError("m must be an even integer >= 2")
    b = bernoulli_number(m)
    return Fraction(abs(b.numerator) * 2 ** (m - 1), b.denominator * math.factorial(m))


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
