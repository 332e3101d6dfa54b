"""The rational functions phi_k and their Euler-Maclaurin remainder machinery.

    phi_k(x) = (1 - 1/x^2)^k / x,          x >= 1,

whose significance is the identity  A_k = -sum_{n>=1} phi_k'(n):  the defining
alternating sum for A_k is, term by term, the value of -phi_k' at the positive
integers.  Euler-Maclaurin summation at depth a then turns A_k into a single
remainder integral, because every boundary term vanishes (phi_k^(a)(1) = 0 for
a <= k, and everything decays at infinity):

    A_k = ((-1)^a / a!) * Int_1^inf  Bbar_a(x) * phi_k^(a+1)(x) dx .

Derivatives of phi_k stay closed-form thanks to a double sequence of
integers p_{a,j}(k), polynomials in k:

    phi_k^(a)(x) = (1 - 1/x^2)^(k-a) * sum_{j=0}^{a} p_{a,j}(k) / x^(a+2j+1)

    p_{0,0} = 1,   p_{a,j} = -(2j+a) p_{a-1,j} + (2k+2j-a) p_{a-1,j-1}.

Every caller wants them at one k, so the recurrence runs at that k, one row
p_{a,.}(k) from the one before (_prows, _next_prow); _phi_deriv_exact
evaluates phi_k^(a) exactly from a row, and phi_deriv rounds it once.

Past an integer X the remainder integral is not integrated but shifted in
depth.  With T_a(X) = ((-1)^a / a!) Int_X^inf Bbar_a phi_k^(a+1), one
integration by parts (Bbar_{r+1}' = (r+1) Bbar_r, Bbar_{r+1}(X) = B_{r+1} at
an integer) gives T_r(X) = (-1)^(r+1) B_{r+1} / (r+1)! * phi_k^(r+1)(X) +
T_{r+1}(X), hence for a <= d:

    T_a(X) = sum_{r=a+1}^{d} (-1)^r B_r / r! * phi_k^(r)(X)  +  T_d(X)

where only even r contribute (B_r = 0 for odd r >= 3), and, for d <= k-1 so
that (1 - 1/x^2)^(k-d-1) <= 1 on [X, inf),

    |T_d(X)| <= sup|Bbar_d| / d! * sum_j |p_{d+1,j}(k)| / ((d+2j+1) X^(d+2j+1)).

The bound falls like X^-(d+1) instead of X^-(a+1), and it depends on k, d
and X alone, so em_remainder_a_k fixes X and d first.

On [1, X] nothing is integrated either: there Euler-Maclaurin is an exact
identity (Apostol, "An elementary view of Euler's summation formula", 1999),
so the remainder integral over [1, X] is a rational number.  Summed with the
boundary terms above, and with phi_k'(1) = 0,

    A_k - T_d(X) = -sum_{2<=n<X} phi_k'(n) + phi_k(X) - phi_k'(X)/2
                   + sum_{even r=2..d} B_r / r! * phi_k^(r)(X),

-phi_k'(n) = (n^2-1)^(k-1) (n^2-2k-1) / n^(2k+2).  Only T_d(X) is dropped,
below an exact Fraction bound, sup|Bbar_d| included; each term of the sum
over n is floored once at a fixed-point scale, and the rest is exact.  The
L1 norms Int_1^inf |phi_k^(a)| need no quadrature either: phi_k^(a) changes
sign exactly at its a zeros, which a Rolle walk over the exact integer rows
p_{r,j}(k) brackets, so each norm is the total variation of phi_k^(a-1)
between them (deriv_l1_norm).

So the remainder route runs on Python integers and Fractions alone, and
importing this module loads no mpmath.  Its core, _em_remainder_raw, takes
quad_tol as a raw tuple and returns one; _em_check adds a_k's exact head and
the exact pass/fail decision for ``maslanka em-check`` and ``verify --suite
em-remainder``, which therefore never import mpmath.  The functions that
hand back mpf values (em_remainder_a_k, phi_deriv, deriv_l1_norm) import it
when they run.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bernoulli import bernoulli_number, periodified_sup_bound
from .mpnum import (PrecisionContext, _check_positive, _floor_digits, _fold, _man, _quotient,
                    _ratio, _round, _to_mp, decimal_to_raw, format_nstr)

__all__ = [
    "QuadratureError",
    "build_paj",
    "deriv_l1_norm",
    "em_remainder_a_k",
    "phi_deriv",
]

# em_remainder_a_k raises QuadratureError when its cut needs X past MAX_PANELS + 1,
# that is more than MAX_PANELS unit intervals [n, n+1] of [1, X].
MAX_PANELS = 200_000


class QuadratureError(ArithmeticError):
    """The Euler-Maclaurin cut needs X past its budget, or a zero bracket kept its sign."""


def build_paj(a_max: int) -> int:
    """a_max, checked: the depth em_remainder_a_k's paj names, at least a + 1."""
    if a_max < 0:
        raise ValueError("a_max must be >= 0")
    return a_max


def phi_deriv(k: int, a: int, x, ctx: PrecisionContext):
    """The a-th derivative of phi_k at x >= 1, for 0 <= a <= k, as an mpf; a = 0
    gives phi_k itself.

    x is read at working_bits, as a dyadic m 2^-e, and the exact value there
    (_phi_deriv_exact) is rounded once to working_bits: within half an ulp.
    Its integers have about (2k + a + 1) bitlen(m) bits, so the cost grows
    with k and with the bits of x: for x = 1.1 read at 160 bits, 13-23 ms at
    k = 10^3 and 0.5-0.7 s at k = 10^4 on a 2-core Xeon; 25-30 us at k = 60,
    x = 2.75.
    """
    from mpmath import mp, mpf

    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= a <= k:
        raise ValueError("need 0 <= a <= k")
    with mp.workprec(ctx.working_bits):
        xf = mpf(x)
    _check_positive(xf._mpf_, "x")
    if xf < 1:
        raise ValueError("x must be >= 1")
    _, m, e, _ = xf._mpf_
    p, q = _phi_deriv_exact(k, a, m << max(e, 0), _prows(k, a)[a], max(-e, 0))
    return _to_mp(_quotient(p, q, ctx.working_bits))


def _scaled_poly(coeffs: list[int], m: int, bits: int) -> int:
    """2^(bits*deg) * g(m / 2^bits) for g(u) = sum_j coeffs[j] u^j, an exact integer."""
    acc, q = 0, 1
    for c in reversed(coeffs):
        acc = acc * m + c * q
        q <<= bits
    return acc


def _next_prow(row: list[int], r: int, k: int) -> list[int]:
    """p_{r,j}(k) for j = 0..r from row[j] = p_{r-1,j}(k), by the recurrence."""
    out = [-(2 * j + r) * c for j, c in enumerate(row)] + [0]
    for j in range(1, r + 1):
        out[j] += (2 * k + 2 * j - r) * row[j - 1]
    return out


def _prows(k: int, depth: int) -> list[list[int]]:
    """rows[r][j] = p_{r,j}(k) for 0 <= j <= r <= depth, by the recurrence at k."""
    rows = [[1]]
    for r in range(1, depth + 1):
        rows.append(_next_prow(rows[-1], r, k))
    return rows


def _l1_tail(pcoeffs: list[int], r: int, X: int) -> Fraction:
    """Termwise bound on Int_X^inf |phi_k^(r)| for r <= k, exactly, from pcoeffs[j] = p_{r,j}(k):

        sum_j |p_{r,j}(k)| / ((r+2j) X^(r+2j)),   using (1 - 1/x^2)^(k-r) <= 1,

    summed by Horner in X^2 over the common denominator lcm_j(r+2j) X^(r+2J).
    """
    J = len(pcoeffs) - 1
    lcm = math.lcm(*range(r, r + 2 * J + 1, 2))
    num = [abs(c) * (lcm // (r + 2 * j)) for j, c in enumerate(pcoeffs)]
    return Fraction(_scaled_poly(num[::-1], X * X, 0), lcm * X ** (r + 2 * J))


def _phi_deriv_exact(k: int, r: int, m: int, pcoeffs: list[int], e: int = 0) -> tuple[int, int]:
    """(p, q), q > 0, p / q = phi_k^(r)(x) at x = m 2^-e >= 1, e >= 0, r <= k, from
    pcoeffs[j] = p_{r,j}(k): 2^(e(r+1)) (m^2 - 4^e)^(k-r) sum_j p_{r,j}(k) m^(2(r-j))
    4^(ej) / m^(2k+r+1), unreduced, since a gcd would cost more than the rest."""
    m2 = m * m
    acc = _scaled_poly(pcoeffs[::-1], m2, 2 * e)  # 4^(er) sum_j p_{r,j}(k) x^(2(r-j))
    return (m2 - (1 << 2 * e)) ** (k - r) * acc << e * (r + 1), m ** (2 * k + r + 1)


def _em_cut(k: int, a: int, rows: list[list[int]], limit: Fraction):
    """The cut (X, d, tail) of em_remainder_a_k: tail, the bound on T_d(X),
    is below limit at the first such X, or, when no X up to MAX_PANELS + 1
    gets it there, X is MAX_PANELS + 1 and tail its bound.

    The bound at depth e is sup|Bbar_e| / e! * _l1_tail(p_{e+1}, e + 1, X),
    read from rows[r] = p_{r,j}(k), which holds r <= a + 1 on entry and is
    grown in place to r = d + 1.  At X = 4, 5, ... d rises while the bound
    shrinks.  Once d is k - 1 it rises no further and the bound falls with
    X alone, so the first X below limit is found by doubling the step from
    that X and then bisecting, up to MAX_PANELS + 1.
    """
    sups = {}  # sup|Bbar_e| / e!, once per depth

    def bound(e, X):
        if e not in sups:
            sups[e] = periodified_sup_bound(e) / math.factorial(e)
        if e + 1 == len(rows):
            rows.append(_next_prow(rows[-1], e + 1, k))
        return sups[e] * _l1_tail(rows[e + 1], e + 1, X)

    top, d = MAX_PANELS + 1, a
    X = top  # when top < 4 there is nothing to walk
    for X in range(4, top + 1):
        tail = None
        for e in range(d, k):
            b = bound(e, X)
            if tail is not None and not b < tail:
                break
            d, tail = e, b
        if tail < limit:
            return X, d, tail
        if d == k - 1:
            break
    # bound(d, lo) >= limit and d stays: double the step until a hi is below
    # limit, then bisect between lo and hi
    lo, hi, step = X, None, 1
    while hi is None or hi - lo > 1:
        mid = min(lo + step, top) if hi is None else (lo + hi) // 2
        b = bound(d, mid)
        if b < limit:
            hi, tail = mid, b
        elif mid == top:
            return top, d, b
        else:
            lo, step = mid, 2 * step
    return hi, d, tail


def _head_sum(k: int, X: int, F: int) -> int:
    """sum_{2 <= n < X} floor(2^F (-phi_k'(n))), each term floored once, with
    -phi_k'(n) = (n^2 - 1)^(k-1) (n^2 - 2k - 1) / n^(2k+2); the sum is within
    X 2^-F of 2^F sum_n -phi_k'(n)."""
    total = 0
    for n in range(2, X):
        n2 = n * n
        total += ((n2 - 1) ** (k - 1) * (n2 - 2 * k - 1) << F) // n2 ** (k + 1)
    return total


def em_remainder_a_k(k: int, a: int, paj: int, ctx: PrecisionContext, quad_tol):
    """A_k recomputed as the depth-a Euler-Maclaurin remainder integral.

        A_k = ((-1)^a / a!) * Int_1^X Bbar_a(x) phi_k^(a+1)(x) dx  +  T_a(X)

    Valid for 2 <= a < k (so every boundary derivative at 1 vanishes and the
    result is depth-independent); uses no zeta value.  The tail T_a(X) past
    an integer X is the boundary sum to depth d plus T_d(X), by the depth
    shift of the module docstring.  Two phases.

    The cut: the bound on T_d(X) depends on k, d, X and quad_tol alone, so X
    and d are fixed before any sum.  At X = 4, 5, ..., d rises while the
    bound keeps shrinking, up to k-1, starting from a at X = 4 and from the
    previous X's d after that (the best depth grows with X); the cut is the
    first X where that bound is below quad_tol/2 (_em_cut).  The bound is
    an exact Fraction: its sum is exact at the integer X (_l1_tail), and
    sup|Bbar_d| / d! is the exact bound of periodified_sup_bound, once per d.
    When d first reaches k-1 it can rise no further and the bound falls
    with X alone, so that first X is found by doubling the step and then
    bisecting, up to X = MAX_PANELS + 1.  A cut past that X raises
    QuadratureError before any sum, naming the least quad_tol the bound
    there allows, rounded up.

    The sum: the integral over [1, X] and the boundary sum to depth d are,
    together, the closed form A_k - T_d(X) of the module docstring.  Its
    X - 2 terms -phi_k'(n) are each floored once at the scale 2^F and add up
    to one integer (_head_sum); phi_k(X), phi_k'(X) and the boundary terms
    are exact (_phi_deriv_exact).

    Error: |result - A_k| <= quad_tol + half an ulp at working_bits.  The
    dropped T_d(X) is below quad_tol/2 by the exact bound, the floors below
    quad_tol/16 at the F of _em_remainder_raw, and the exact sum is rounded
    once to working_bits.

    paj is the depth build_paj returns, at least a + 1; the rows p_{r,j}(k)
    are built here at k.  quad_tol (an mpf, an int or a string) is read by
    mpmath at working_bits, and the result is an mpf.  This wrapper hands
    the raw tuples to ``_em_remainder_raw``, which imports no mpmath;
    ``maslanka em-check`` and ``verify --suite em-remainder`` call that core
    through ``_em_check``.
    """
    from mpmath import mp, mpf

    with mp.workprec(ctx.working_bits):
        tol = mpf(quad_tol)._mpf_
    if not 2 <= a < k:
        raise ValueError("need 2 <= a < k")
    if paj < a + 1:
        raise ValueError("paj must cover depth a+1")
    return _to_mp(_em_remainder_raw(k, a, ctx.working_bits, tol))


def _em_remainder_raw(k: int, a: int, wp: int, quad_tol: tuple) -> tuple:
    """The integer core of ``em_remainder_a_k`` at working_bits wp, on a raw
    quad_tol, rounded to wp bits first; returns the raw tuple of the exact
    sum rounded once to wp bits, as mpmath's from_rational rounds it, within
    quad_tol + half an ulp of A_k.

    half_tol = m 2^x is quad_tol/2 with its exponent x held to
    [-21k - bc, top], top = k bitlen(6k) + 6, which changes no decision:
    every tail bound of _em_cut exceeds 2^-21k (sup|Bbar_e| / e! > 2^(1-3e),
    and _l1_tail's j = 0 term is e! X^-(e+1), X < 2^18), so a half_tol below
    it fails the cut, held or not; at X = 4 each bound is below (6k)^k, which
    bounds sum_j |p_{e+1,j}(k)|, so a half_tol of 2^top or more ends the cut
    at X = 4 with the same d, held or not; and F reads half_tol only once the
    cut is met, through max(wp, 1 + ceil(-log2 half_tol)), which is wp for
    any half_tol >= 1.

    The scale: with ceil(-log2 half_tol) = 1 - x - bc (m has bc bits),
    F = max(wp, 2 - x - bc) + bitlen(X) + 2, so the X - 2 floors of
    _head_sum sum to less than X 2^-F < 2^-(4 - x - bc) <= half_tol/8.
    """
    tol = _round(quad_tol, wp)
    _check_positive(tol, "quad_tol")
    x = min(max(tol[2] - 1, -21 * k - tol[3]), k * (6 * k).bit_length() + 6)
    half_tol = Fraction(tol[1] << max(x, 0), 1 << max(-x, 0))
    rows = _prows(k, a + 1)
    X, d, tail = _em_cut(k, a, rows, half_tol)
    if not tail < half_tol:  # quad_tol must exceed 2 tail, shown rounded up
        v = 2 * tail
        t = max(0, 64 + v.denominator.bit_length() - v.numerator.bit_length())
        lead, e10 = _floor_digits(-(-v.numerator << t) // v.denominator, -t, 6)
        raise QuadratureError(f"tolerance {format_nstr(tol, 6)} is out of reach at k = {k}, "
                              f"a = {a}: the tail bound at X = {X} needs quad_tol above "
                              f"{format_nstr(decimal_to_raw(lead + 1, e10 - 5, 53), 6)}")
    F = max(wp, 2 - x - tol[3]) + X.bit_length() + 2
    value = Fraction(_head_sum(k, X, F), 1 << F)
    for r in (0, 1, *range(2, d + 1, 2)):  # B_0 = 1, B_1 = -1/2, then the even r <= d
        value += (bernoulli_number(r) / math.factorial(r)
                  * Fraction(*_phi_deriv_exact(k, r, X, rows[r])))
    return _quotient(value.numerator, value.denominator, wp)


def _em_check(k: int, a: int, ctx: PrecisionContext, tol: tuple, quad_tol: tuple | None):
    """(A_k, A_k as the depth-a remainder integral, rel, passed) as raw
    tuples, for ``maslanka em-check`` and ``verify --suite em-remainder``.

    A_k is a_k's exact head (coefficients._single_index).  quad_tol defaults
    to |A_k| tol / 100 from that head, rounded once to nearest at 53 bits.
    passed is |val - A_k| < tol |A_k|, decided exactly by mpnum._fold, and
    rel is |val - A_k| / |A_k| from the exact difference, rounded once to
    53 bits.
    """
    from .coefficients import _single_index

    if not 2 <= a < k:  # before any work
        raise ValueError("need 2 <= a < k")
    ref = _single_index("A", k, ctx)
    if quad_tol is None:
        quad_tol = _ratio([(ref[1] * tol[1], ref[2] + tol[2])], [(100, 0)], 53)
    val = _em_remainder_raw(k, a, ctx.working_bits, quad_tol)
    e = min(val[2], ref[2])
    gap = abs((_man(val) << val[2] - e) - (_man(ref) << ref[2] - e))
    scale = ref[1] << ref[2] - e  # |A_k| 2^-e
    passed = _fold([(gap, 0), (-tol[1] * scale, tol[2])], 0)[0] < 0
    return ref, val, _quotient(gap, scale), passed


# -- L1 norms of phi^(a) -----------------------------------------------------


def _bracket_zeros(rows: list[list[int]], bits: int) -> list[int]:
    """The zeros in (0, 1) of g_a(u) = sum_j rows[a][j] u^j, a = len(rows) - 1.

    rows[r] holds p_{r,j}(k) for r = 0..a <= k, so g_r(u) has the sign of
    phi_k^(r)(x) at u = 1/x^2.  phi_k^(r-1) vanishes at x = 1 (its factor
    (1 - 1/x^2)^(k-r+1)) and at infinity, and, by induction, at r-1 simple
    zeros in between; by Rolle phi_k^(r) has a zero in each of those r gaps:
    at least r, and, g_r having degree r, exactly r, all simple.  The walk
    r = 1..a therefore bisects g_r on each bracket between consecutive zeros
    of g_{r-1}, with u = 0 and u = 1 as the outer ends.  Every end is a dyadic
    m / 2^bits and every sign test is exact (_scaled_poly).  A bracket
    without a sign change raises QuadratureError; when all r brackets change
    sign, each holds one zero of g_r, so the count is never wrong.

    Returns the m ascending, each zero of g_a in (m, m+1] / 2^bits.
    """

    def sign(c: list[int], m: int) -> int:
        v = _scaled_poly(c, m, bits)
        return (v > 0) - (v < 0)

    zeros: list[int] = []
    for c in rows[1:]:
        ends = [0, *zeros, 1 << bits]
        zeros = []
        for lo, hi in zip(ends, ends[1:]):
            s_lo = sign(c, lo)
            if s_lo * sign(c, hi) >= 0:
                raise QuadratureError(f"g_{len(c) - 1} keeps its sign on [{lo}, {hi}] / 2^{bits}")
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if sign(c, mid) == s_lo:
                    lo = mid
                else:
                    hi = mid
            zeros.append(lo)
    return zeros


def deriv_l1_norm(k: int, a: int, ctx: PrecisionContext):
    """Int_1^inf |phi_k^(a)(x)| dx, for 1 <= a <= k, as a total variation, an mpf.

    F = phi_k^(a-1) vanishes at x = 1 and at infinity, and F' = phi_k^(a)
    changes sign exactly at its a zeros x_1 < ... < x_a (_bracket_zeros), so
    with x_0 = 1 and x_{a+1} = inf

        Int_1^inf |F'| = sum_{i=0}^{a} |F(x_{i+1}) - F(x_i)|.

    Error.  Each zero is placed within 2^-b in u = 1/x^2, b = working_bits.
    F' vanishes at the true zero, so F there moves only at second order, by
    at most 2^-(2b+1) sup|d^2F/du^2| around it.  Each F(x_i) is
    (1-u)^(k-a+1) u^(a/2) g_{a-1}(u) with u = m / 2^b exact and g_{a-1}(u)
    an exact integer over 2^(b(a-1)), so it carries a few roundings at b
    bits.  F has one zero between consecutive x_i, so the F(x_i) alternate in
    sign and the differences add without cancellation: the result is within
    a few units of 2^-b relative, GUARD_BITS below 2^-target_bits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= a <= k:
        raise ValueError("need 1 <= a <= k")
    import mpmath
    from mpmath import mp

    rows = _prows(k, a)
    b = ctx.working_bits
    with mp.workprec(b):
        vals = [mp.zero]
        for m in _bracket_zeros(rows, b):
            u = mpmath.ldexp(m, -b)
            g = mpmath.ldexp(_scaled_poly(rows[a - 1], m, b), -b * (a - 1))
            vals.append((1 - u) ** (k - a + 1) * mpmath.sqrt(u) ** a * g)
        vals.append(mp.zero)
        return mpmath.fsum(abs(q - p) for p, q in zip(vals, vals[1:]))
