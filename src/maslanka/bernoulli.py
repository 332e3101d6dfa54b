"""Exact Bernoulli machinery: numbers, even-argument zeta, Bernoulli polynomials.

This module is the "oracle layer" of the package: everything here is exact
rational arithmetic until a final rounding.  The zeta row walk of
:mod:`maslanka.coefficients` reads B_m here (the kernel row for small m,
a_k_alt's for every m).  :mod:`maslanka.phik` evaluates the periodified
polynomials B_a({x}) in integers over bernoulli_poly_coeffs, and
:func:`maslanka.series.zeta_reference` takes its Euler-Maclaurin corrections
from bernoulli_number.

Every Bernoulli number is read from one module-level table of B_0, B_2, ...,
B_2n, made from the tangent numbers T_1..T_n in O(n**2) multiply-adds of
Python ints by small factors (Brent & Harvey, "Fast computation of Bernoulli,
tangent and secant numbers", 2011), with B_2k = (-1)**(k-1) 2k T_k /
(4**k (4**k - 1)).  The table grows in place, one column of the tangent
triangle at a time, to exactly the largest index asked for; it keeps the last
column's value after each pass, which is all the next column reads.

Conventions: B_1 = -1/2 (the value of the defining recurrence
sum_{j<=n} C(n+1, j) B_j = 0), and for even m >= 2

    zeta(m) = (-1)**(m/2+1) * B_m * (2 pi)**m / (2 m!)  =  q(m) * pi**m

with q(m) = |B_m| * 2**(m-1) / m! an exact positive rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .mpnum import PrecisionContext

__all__ = [
    "bernoulli_number",
    "bernoulli_poly_coeffs",
    "periodified_sup_bound",
    "zeta_even",
    "zeta_rational_part",
]


_EVEN: list[Fraction] = [Fraction(1)]  # B_0, B_2, ..., B_2n
_EDGE: list[int] = [1]  # column n or n + 1 of the tangent triangle after each pass


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n, read from the module's table of even-index values.

    Odd n are B_1 = -1/2 and 0 beyond.  An even n past the end of the table
    extends it to exactly B_n: from the values e of column k - 1 of the
    tangent triangle, column k starts at (k - 1) e[0], pass p sets
    v = (k - p) e[p - 1] + (k - p + 2) v, and pass k doubles v to T_k.  A
    column is bound only once complete and B_2k appended after it, so an
    interrupted extension leaves the table whole.
    """
    global _EDGE
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    while n // 2 >= len(_EVEN):
        k = len(_EVEN)
        if len(_EDGE) < k:
            edge = [(k - 1) * _EDGE[0]]
            for p in range(2, k):
                edge.append((k - p) * _EDGE[p - 1] + (k - p + 2) * edge[-1])
            edge.append(2 * edge[-1])
            _EDGE = edge
        _EVEN.append(Fraction((-1) ** (k - 1) * 2 * k * _EDGE[-1], 4 ** k * (4 ** k - 1)))
    return _EVEN[n // 2]


def zeta_rational_part(m: int) -> Fraction:
    """The exact rational q(m) with zeta(m) = q(m) * pi**m, for even m >= 2."""
    if m < 2 or m % 2:
        raise ValueError("m must be an even integer >= 2")
    b = bernoulli_number(m)
    return Fraction(abs(b.numerator) * 2 ** (m - 1), b.denominator * math.factorial(m))


def zeta_even(m: int, ctx: PrecisionContext):
    """zeta(m) for even m >= 2 as an mpf, from the exact Bernoulli formula."""
    from mpmath import mp, mpf

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


def periodified_sup_bound(a: int):
    """Upper bound for sup_x |B_a({x})|, at the ambient precision.

    a = 1: exactly 1/2.  Even a: the sup is |B_a| (attained at integers).
    Odd a >= 3: the Fourier bound 2 * zeta(a) * a! / (2 pi)**a.  A tiny
    relative pad keeps the result an upper bound despite rounding.
    """
    import mpmath
    from mpmath import mp, mpf

    if a < 1:
        raise ValueError("a must be >= 1")
    pad = 1 + mpf(2) ** (-20)
    if a == 1:
        return mpf(1) / 2
    if a % 2 == 0:
        b = bernoulli_number(a)
        return abs(mpf(b.numerator)) / mpf(b.denominator) * pad
    return 2 * mpmath.zeta(a) * mpf(math.factorial(a)) / (2 * mp.pi) ** a * pad
