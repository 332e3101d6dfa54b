"""Exact Bernoulli machinery: numbers, pi^2, even-argument zeta, Bernoulli polynomials.

This module is the "oracle layer" of the package: everything here is exact
rational or integer arithmetic until a final rounding, and it is the one place
that makes pi^2 and zeta(2j) from the Bernoulli formula.  Its walk _zeta_row
gives round(zeta(2j+2) 2^w) for j < n from B_2j+2 and fixed-point powers of
one pi^2; it is all of a_k_alt's row, the kernel row of
:mod:`maslanka.coefficients` below its switch point, and zeta_even, which
rounds the walk's last entry once.  :mod:`maslanka.phik` evaluates the
periodified polynomials B_a({x}) in integers over bernoulli_poly_coeffs, and
:func:`maslanka.series.zeta_reference` takes its Euler-Maclaurin corrections
from bernoulli_number.

Every Bernoulli number is read from one module-level table of B_0, B_2, ...,
B_2n, made from the tangent numbers T_1..T_n in O(n**2) multiply-adds of
Python ints by small factors (Brent & Harvey, "Fast computation of Bernoulli,
tangent and secant numbers", 2011), with B_2k = (-1)**(k-1) 2k T_k /
(4**k (4**k - 1)).  The table grows in place, one column of the tangent
triangle at a time, to exactly the largest index asked for; it keeps the last
column's value after each pass, which is all the next column reads.  The
walk's pi^2 is one fixed-point pi by Machin's formula, squared and rounded
(Brent & Zimmermann, Modern Computer Arithmetic, 2010, section 4.9); the
same pi, less its error bound, is the lower end of pi in the exact bound
periodified_sup_bound.  One floored arctan series serves Machin's formula
and, in its hyperbolic form, the logarithms of :mod:`maslanka.analysis`.

Conventions: B_1 = -1/2 (the value of the defining recurrence
sum_{j<=n} C(n+1, j) B_j = 0), and for even m >= 2

    zeta(m) = (-1)**(m/2+1) * B_m * (2 pi)**m / (2 m!)  =  q(m) * pi**m

with q(m) = |B_m| * 2**(m-1) / m! an exact positive rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .mpnum import GUARD_BITS, PrecisionContext, _raw, _to_mp

__all__ = [
    "bernoulli_number",
    "bernoulli_poly_coeffs",
    "periodified_sup_bound",
    "zeta_even",
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


def _atan_inv(x: int, m: int, hyperbolic: bool = False) -> tuple[int, int]:
    """(S, e) from the Taylor series of atan(1/x) 2^m, or of atanh(1/x) 2^m
    when hyperbolic, for an integer x >= 3.

    Term j is floor(2^m / (x^(2j+1) (2j+1))), by nested floor divisions,
    which are one floor: each is below its true value by less than a unit.
    The series stops at the first t = floor(2^m / x^(2J+1)) = 0, after J
    terms, and the tail from there is below sum_i x^(-2i) <= 9/8 units.  So
    with e = J + 2: atan takes the terms with alternating signs and
    |S - atan(1/x) 2^m| < e; atanh adds them all and
    S <= atanh(1/x) 2^m < S + e.
    """
    t, x2 = (1 << m) // x, x * x
    total = j = 0
    while t:
        total += -(t // (2 * j + 1)) if j % 2 and not hyperbolic else t // (2 * j + 1)
        t //= x2
        j += 1
    return total, j + 2


def _machin_pi(m: int) -> tuple[int, int]:
    """(P, e) with |P - pi 2^m| < e, by Machin's pi = 16 atan(1/5) - 4 atan(1/239)
    in fixed point at m bits (_atan_inv).  The series for 1/x has
    J <= m / (2 log2 x) + 1/2 terms, so e < 16 (m/4.64 + 5/2) +
    4 (m/15.8 + 5/2) < 3.7m + 50, below 4m + 40 for m >= 34."""
    p5, e5 = _atan_inv(5, m)
    p239, e239 = _atan_inv(239, m)
    return 16 * p5 - 4 * p239, 16 * e5 + 4 * e239


def _pi_squared(s: int) -> int:
    """An integer within 0.6 of pi^2 2^s, for 2 <= s < 2^32.

    Machin's pi at m = s + 40 >= 42 bits is P = pi 2^m + d with
    |d| < 4m + 40 units (_machin_pi).  So v = P^2 / 2^(2m-s) is within
    2 pi |d| 2^-40 + d^2 2^(s-2m) < 0.1 of pi^2 2^s, and
    floor((floor(2v) + 1) / 2) = floor(v + 1/2) is within 1/2 of v.
    """
    m = s + 40
    p, _ = _machin_pi(m)
    return ((p * p >> 2 * m - s - 1) + 1) >> 1


def _zeta_row(n: int, w: int) -> list[int]:
    """z_j = round(zeta(2j+2) 2^w) for j < n, each within 1/2 + 2^-32.

    Every value is q(2j+2) times the power X_j ~ pi^(2j+2) 2^s, s = w + g, of one
    P within 0.6 of pi^2 2^s > 2^(s+3), by X_{j+1} = floor(X_j P / 2^s).  So
    |X_j / (pi^(2j+2) 2^s) - 1| < (2j+2) 2^-(s+3), and floor(q X_j) is within
    (j+1)/2 + 1 <= 2^(g-32) of zeta(2j+2) 2^s before the final rounding; it is
    read off B_m and a running m!, m = 2j+2, with no gcd.  This walk is all of
    a_k_alt's row, the kernel row below its switch point, and zeta_even.
    """
    g = GUARD_BITS + n.bit_length()
    s = w + g
    p = _pi_squared(s)
    row, x, fact = [], p, 1
    for m in range(2, 2 * n + 1, 2):
        b = bernoulli_number(m)
        fact *= (m - 1) * m
        row.append((abs(b.numerator) * x << m - 1) // (b.denominator * fact) + (1 << g - 1) >> g)
        x = x * p >> s
    return row


def zeta_even(m: int, ctx: PrecisionContext):
    """zeta(m) for even m >= 2 as an mpf: the last entry of _zeta_row at scale
    2^s, s = working_bits + GUARD_BITS, rounded once to working_bits.

    The entry is within (1/2 + 2^-32) 2^-s < 2^-(wp+33) (1 + 2^-31) zeta(m) of
    zeta(m), wp = working_bits, and the rounding adds half an ulp, at most
    2^-wp times the entry, so the result is within 2^-wp (1 + 2^-32) zeta(m).
    Since the entry is within 2^-33 ulp of zeta(m), the result is zeta(m)
    correctly rounded unless zeta(m) lies that close to a tie.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be an even integer >= 2")
    s = ctx.working_bits + GUARD_BITS
    return _to_mp(_raw(_zeta_row(m // 2, s)[-1], -s, ctx.working_bits))


def bernoulli_poly_coeffs(a: int) -> tuple[Fraction, ...]:
    """Exact coefficients of the Bernoulli polynomial B_a(x), highest power first.

    B_a(x) = sum_{i=0}^{a} C(a, i) B_i x**(a-i).
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    return tuple(math.comb(a, i) * bernoulli_number(i) for i in range(a + 1))


def periodified_sup_bound(a: int) -> Fraction:
    """An exact upper bound on sup_x |B_a({x})|.

    a = 1: exactly 1/2.  Even a: exactly |B_a|, the sup, attained at the
    integers.  Odd a >= 3: the Fourier bound 2 zeta(a) a! / (2 pi)^a, as
    2 zeta+ a! / (2 pi-)^a with both ends proven.  pi- = (P - e) / 2^64 < pi
    from Machin's P and its error bound e (_machin_pi).  zeta+ sums
    ceil(2^64 / n^a) / 2^64 >= n^-a for n < 32, and bounds the rest by
    (2/63)^(a-1) / (a-1) = Int_{63/2}^inf x^-a dx: n^-a is convex, so each
    term from n = 32 on is at most its integral over [n - 1/2, n + 1/2].
    The ceilings are what make zeta+ >= zeta(a); floors would not.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    if a == 1:
        return Fraction(1, 2)
    if a % 2 == 0:
        return abs(bernoulli_number(a))
    one = 1 << 64
    head = sum(-(-one // n ** a) for n in range(1, 32))
    zeta_hi = Fraction(head, one) + Fraction(2 ** (a - 1), 63 ** (a - 1) * (a - 1))
    p, e = _machin_pi(64)
    return 2 * math.factorial(a) * zeta_hi * Fraction(one, 2 * (p - e)) ** a
