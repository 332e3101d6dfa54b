"""Evaluation of (s-1) zeta(s) = sum_k A_k P_k(s/2) anywhere in the plane.

The series is summed in fixed point: every term A_k P_k(h), h = s/2, comes
from the integer Pochhammer sweep of :mod:`maslanka.pochhammer` as a Gaussian
integer at one scale 2^W, so the partial sums accumulate exactly and the
result is rounded once (see ``maslanka_eval`` for how W follows from a proven
error bound).  The truncation identities (2n-1) zeta(2n) = sum_{k<n} A_k P_k(n)
run through the same sweep, where every step is exact.

Also provides the series' independent oracle, ``zeta_reference``: Euler-Maclaurin
summation stopped by Backlund's remainder bound, with N chosen so the stop must come.
"""

from __future__ import annotations

import itertools
import math

from .bernoulli import _zeta_row, bernoulli_number
from .coefficients import CoefficientTable
from .mpnum import (GUARD_BITS, PoleError, PrecisionContext, Record, _check_positive, _fold,
                    _least_prime_factors, _man, _quotient, _ratio, _raw, _round, _sqrt,
                    _to_float, _to_mp)
from .pochhammer import _fixed_terms, _guard_bits, _to_fixed

__all__ = [
    "SeriesResult",
    "maslanka_eval",
    "truncation_check",
    "zeta_reference",
]


class SeriesResult(Record):
    """Partial Maslanka sum at s, with convergence bookkeeping.

    ``value`` approximates (s-1) zeta(s); ``zeta_value`` is the exact sum
    divided by s-1 and rounded once, or None when s = 1 (``is_pole``).
    ``converged`` is False when the table was exhausted before the tolerance
    was met, in which case ``residual_estimate`` (an |S_K - S_K/2| doubling
    difference) is the best available honesty about the gap.
    """

    __slots__ = ("s", "value", "terms_used", "residual_estimate", "zeta_value", "is_pole",
                 "converged")
    s: mpf | mpc
    value: mpf | mpc
    terms_used: int
    residual_estimate: mpf
    zeta_value: mpf | mpc | None
    is_pole: bool
    converged: bool


def _norm_limit(x: tuple, e: int) -> int:
    """ceil((x 2^e)^2) for a positive finite raw x: an integer is below (x 2^e)^2 iff below it."""
    _, man, exp, _ = x
    n, sh = man * man, 2 * (exp + e)
    return n << sh if sh >= 0 else -(-n >> -sh)


def _zeta_quotient(sr: int, si: int, zr: tuple, zi: tuple | None, W: int, wb: int):
    """(S_r + S_i i) 2^-W / (s - 1), s = zr + zi i != 1, each part rounded
    once at wb (Im None when zi is None): with a = zr - 1 and b = zi, the sums
    S_r a + S_i b and S_i a - S_r b over a^2 + b^2, of exact dyadic products,
    which ``mpnum._ratio`` divides at a width set by W and wb alone.  When the
    exponents of 1, zr and zi lie within wb of each other, a and b are the
    integers c and d at one scale 2^e, and both parts divide one exact
    integer each by the one integer c^2 + d^2."""
    im = (0, 0, 0, 0) if zi is None else zi
    e = min(zr[2], im[2], 0)
    if max(zr[2], im[2], 0) - e <= wb:
        c, d = (_man(zr) << zr[2] - e) - (1 << -e), _man(im) << im[2] - e
        D = [(c * c + d * d, 0)]
        re = _ratio([(sr * c + si * d, -W - e)], D, wb)
        return re, None if zi is None else _ratio([(si * c - sr * d, -W - e)], D, wb)
    a = [(-1, 0), (_man(zr), zr[2])]
    n, e, exact = _fold(a, wb)
    a = [(n, e)] if exact else a  # one term, unless zr is far below 1
    b = [] if zi is None else [(_man(zi), zi[2])]
    mul = lambda u, v, c=1: [(c * m * n, x + y) for m, x in u for n, y in v]
    D, S_r, S_i = mul(a, a) + mul(b, b), [(sr, -W)], [(si, -W)]
    re = _ratio(mul(S_r, a) + mul(S_i, b), D, wb)
    return re, None if zi is None else _ratio(mul(S_i, a) + mul(S_r, b, -1), D, wb)


def _eval_raw(zr: tuple, zi: tuple | None, table: CoefficientTable, tol: tuple, wb: int):
    """The integer core of ``maslanka_eval``, on raw tuples, at working_bits wb.

    s = zr + zi i, with zi None for a real s.  Returns (terms_used,
    converged, value, zeta_value, residual_estimate): value and zeta_value
    as (real, imaginary) pairs, the imaginary part None for a real s, and
    zeta_value None at the pole.  It makes every check, in the order the mpf
    code made them, and inf and nan arrive as mpmath's special tuples.  tol
    and the value are rounded once to nearest at wb, zeta_value once per
    part (_zeta_quotient), and h = s/2 once to floats for ``_guard_bits``;
    the residual's square is rounded at wb and its root correctly rounded
    (mpf_sqrt), as mpmath rounded them.  tol is weighed by its exponent
    first, so a tol of any exponent costs integers of the sum's width.
    """
    if table.kind != "A":
        raise ValueError("maslanka_eval needs a kind=A table")
    tol = _round(tol, wb)
    _check_positive(tol, "tol")
    if tol[2] + tol[3] - (tol[3] == 1) <= 8 - table.target_bits:  # tol > 2^(8 - target_bits)
        raise ValueError("tol is below what the table's target_bits can support")
    im = (0, 0, 0, 0) if zi is None else zi
    if not all(v[1] or not v[2] for v in (zr, im)):  # man 0 and exp nonzero: inf or nan
        raise ValueError("s must be a finite number")
    x, y = (_to_float(_raw(_man(v), v[2] - 1)) for v in (zr, im))  # h = s/2
    W = wb + _guard_bits(x, y, table.k_max)
    H = (_to_fixed(zr, W - 1), _to_fixed(im, W - 1))
    # the first term has parts at most 2 |Q_1| + 1, Q_1 = (2^W - H_r, -H_i), and a
    # norm below 2^(2c-1): at tol >= 2^(c-W+2) the sum stops at k = 1, as at 2^(c-W+2)
    c = max(abs((1 << W) - H[0]), abs(H[1])).bit_length() + 3
    if tol[2] + tol[3] > c - W + 2:
        tol = (0, 1, c - W + 2, 1)
    quarter, half = _norm_limit(tol, W - 2), _norm_limit(tol, W - 1)
    rs, js = [], []  # the partial sums' real and imaginary parts
    sr = si = 0
    converged = False
    K = table.k_max
    for k, (tr, ti) in enumerate(_fixed_terms(H, table.weights, W)):
        sr += tr
        si += ti
        rs.append(sr)
        js.append(si)
        if k and tr * tr + ti * ti < quarter:
            j = (k + 1) // 2
            if (sr - rs[j]) ** 2 + (si - js[j]) ** 2 < half:
                K = k
                converged = True
                break
    sr, si, mr, mi = rs[K], js[K], rs[(K + 1) // 2], js[(K + 1) // 2]
    residual = _sqrt(_raw((sr - mr) ** 2 + (si - mi) ** 2, -2 * W, wb), wb)
    value = (_raw(sr, -W, wb), None if zi is None else _raw(si, -W, wb))
    if zr == (0, 1, 0, 1) and not im[1]:  # s = 1
        return K + 1, converged, value, None, residual
    return K + 1, converged, value, _zeta_quotient(sr, si, zr, zi, W, wb), residual


def maslanka_eval(s, table: CoefficientTable, tol, ctx: PrecisionContext) -> SeriesResult:
    """Sum A_k P_k(s/2) until the tolerance's stopping rule fires.

    Stops at the smallest K >= 1 with both |A_K P_K(s/2)| < tol/4 and
    |S_K - S_ceil(K/2)| < tol/2.  The two-part rule matters because the term
    magnitudes are not monotone (P_k oscillates, A_k changes sign): a small
    single term near a sign change must not end the sum on its own.  A real s
    gives an mpf value, an mpc s an mpc value.  s and tol are read by mpmath
    at working_bits (a string is parsed there, an mpf or mpc is taken as it
    is) and tol is rounded there; ``maslanka eval`` reads its --s at
    working_bits and its --tol at 53 bits, mpmath's default precision, as it
    always has.

    Kernel.  ``_eval_raw``, which ``maslanka eval`` calls directly, sums in
    Gaussian integers at one scale 2^W: from H ~ h 2^W the sweep
    ``pochhammer._fixed_terms`` yields floor(A_k Q_k), Q_k 2^-W ~ P_k(h), from
    the table's kept ``weights`` and a step that multiplies by H's significant
    bits only, and the partial sums accumulate exactly in two integer lists.  The stopping rule compares squared
    integer norms with ceil((tol 2^W/4)^2) and ceil((tol 2^W/2)^2), so it
    takes no square root.  value and each part of zeta_value are rounded once.

    Bound.  The sweep keeps q_k = Q_k u, u = 2^-W, within 3 k X_k u of
    P_k(h), with X_k its growth factor (see ``pochhammer._fixed_terms``).
    Every |A_k| < 2, and so is every table entry: from
    A_k = sum_n n^-2 [(1-n^-2)^k - 2k n^-2 (1-n^-2)^(k-1)], |A_0| = zeta(2),
    |A_1| = |zeta(2) - 3 zeta(4)| and, for k >= 2,
    |A_k| <= (zeta(2) - 1) max(1, 2k/(e(k-1))) < 1.  With the floor of each
    term (< sqrt2 u) the error of the integer S_K is therefore below
    u (sqrt2 + sum_{k=1..K} (6 k X_k + sqrt2)) <= u E, E = 4 (K+1)^2 max_{k<=K} X_k.
    W = working_bits + _guard_bits(Re h, Im h, k_max) makes u E <= 2^-(working_bits+1)
    at K = k_max, so the integer sum is within 2^-(working_bits+1) of
    sum_{k<=K} A_k P_k(h) for the table's A_k, and the returned value,
    rounded once, within 2^-working_bits (1 + |value|).  Each part of
    zeta_value has |zeta_value - S/(s-1)| <= 1/2 ulp at working_bits, S the
    exact sum that value rounds.  W grows with log2 of the largest partial
    product, so an s far outside the table's range of convergence costs
    proportionally wider integers.
    """
    from mpmath import mp, mpc, mpf

    with mp.workprec(ctx.working_bits):
        tol, z = mpf(tol), mp.mpmathify(s)
    parts = z._mpc_ if isinstance(z, mpc) else (z._mpf_, None)
    terms, converged, value, zeta, residual = _eval_raw(*parts, table, tol._mpf_,
                                                        ctx.working_bits)
    return SeriesResult(
        s=z,
        value=_to_mp(*value),
        terms_used=terms,
        residual_estimate=_to_mp(residual),
        zeta_value=None if zeta is None else _to_mp(*zeta),
        is_pole=zeta is None,
        converged=converged,
    )


def _em_rhos(sigma: float, tau: float, N: int, wp: int):
    """Floats rho_r >= |s+2r-1|/(sigma+2r-1), inf while sigma+2r-1 may be <= 0, up to the
    first r with b_r rho_r < 2^(3-wp-ceil(wp/2)); None if b_r rises first (``zeta_reference``).
    The slack e + j u covers rounding s to wp >= 40 bits and to floats, and each float step."""
    u, c = 2.0 ** -38, 2 * math.log2(2 * math.pi * N)
    e = (abs(sigma) + tau + 1) * u
    lg = 2 + (1 - sigma) * math.log2(N) - c + math.log2(math.hypot(sigma, tau) + e)  # log2 b_1
    floor, rhos = 3 - wp - (wp + 1) // 2, []
    for j in itertools.count(1, 2):  # j = 2r-1
        x, sl = sigma + j, e + j * u
        h = math.hypot(x, tau) + sl  # >= |s+j|
        rhos.append(h / (x - sl) if x > sl else math.inf)
        if lg < floor and lg + math.log2(rhos[-1]) < floor:  # rho_r >= 1
            return rhos
        if (step := math.log2(h * (math.hypot(x + 1, tau) + sl + u)) - c) >= 0:  # log2 q_r
            return None
        lg += step


def _em_plan(sigma: float, tau: float, t: int) -> tuple[int, int, list]:
    """(N, wp, rhos) of ``zeta_reference`` at s = sigma +- tau i and target_bits t."""
    bits = lambda N: t + 24 + (math.ceil((1.0 - sigma) * math.log2(N + 1)) + 8 if sigma < 0 else 0)
    wp = t + 24
    for _ in range(3):
        N = max(16, math.ceil(0.14 * wp + 0.55 * tau + 8))
        wp = bits(N)
    while (rhos := _em_rhos(sigma, tau, N, wp)) is None:
        N += 1
        wp = bits(N)
    return N, wp, rhos


def _em_powers(z, N: int) -> list:
    """[0, 1, 2^-z, ..., N^-z] at mpmath's working precision: mpmath.power for
    each prime p <= N, and for a composite n = p m, p its least prime factor,
    n^-z = p^-z m^-z, one product (``zeta_reference`` bounds its error)."""
    import mpmath

    spf, mz = _least_prime_factors(N), -z
    pw = [0, mpmath.mp.one]
    for n in range(2, N + 1):
        p = spf[n]
        pw.append(mpmath.power(n, mz) if p == n else pw[p] * pw[n // p])
    return pw


def zeta_reference(s, ctx: PrecisionContext) -> mpf | mpc:
    """zeta(s) by Euler-Maclaurin summation, the package's independent oracle.

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2 + sum_{r<M} T_r + R_M with
    T_r = B_2r/(2r)! (s)_(2r-1) N^(1-s-2r), and |R_M| <= |T_M| |s+2M-1|/(sigma+2M-1)
    for sigma = Re s > 1-2M (Backlund 1914; Rubinstein 2005; Johansson 2015).
    The sum stops before the first T_M with |T_M| rho_M < tol = 2^(4-wp) max(|acc|,
    2^(-wp/2)), rho_M that ratio rounded up, so it is within tol of zeta(s).
    N and wp are fixed before the sum so that the stop must come (``_em_plan``):
    |T_r| <= b_r, b_1 = 4 |s| N^(1-sigma)/(2 pi N)^2,
    b_(r+1) = b_r |s+2r-1| |s+2r|/(2 pi N)^2 (|B_2r|/(2r)! = 2 zeta(2r)/(2 pi)^2r,
    zeta(2r) falls), a ratio that falls, then rises.  ``_em_rhos`` walks b_r rho_r
    while b_r falls, and N grows by one until the walk goes below
    2^(3-wp-ceil(wp/2)), half the least tol; that bit covers the rounding of the
    walk and of |T_r|.  Each B_2r/(2r)! is the exact quotient of the integers
    B_2r's numerator and its denominator times (2r)!, rounded once at wp.

    Powers.  ``_em_powers`` calls mpmath.power for the primes p <= N only,
    each within delta of p^-s relative; delta, which every n^-s had when each
    came from mpmath.power, is a few u = 2^-wp, as mpmath takes the logarithm
    and its product with s at wp + 10 bits.  A composite n = p m is one
    product p^-s m^-s, each part rounded to nearest, so within u of the
    product of its entries; by induction the entry of an n with Omega(n)
    prime factors is within beta = (1+delta)^Omega (1+u)^(Omega-1) - 1 of
    n^-s, Omega(n) - 1 roundings more than mpmath.power's one.  N^(1-s) =
    N * N^-s and N^(-s-1) = N^-s / N take one rounding each.  With
    Omega <= L = floor(log2 N), the power sum's entries are off by at most
    beta_L ~ L (delta + u) of its sum of |n^-s| = n^-sigma, and its N
    additions, each rounded within u of a partial sum, by N u of it; beta_L
    <= N u while delta <= (N/L - 1) u, at least 3u for N >= 16.  So the power
    sum is within 2 N u sum_{n<N} n^-sigma, at most twice the bound each
    mpmath.power term gave it: one bit, and no guard bit is added.  For
    sigma < 0 its terms reach N^-sigma; the extra ceil((1-sigma) log2(N+1))
    + 8 bits of wp keep that error, 2 N^(2-sigma) 2^-wp, below N 2^-(t+31).
    """
    import mpmath
    from mpmath import mp, mpf

    with mp.workprec(ctx.working_bits):
        z = mpmath.mpmathify(s)
    if not mpmath.isfinite(z):
        raise ValueError("s must be a finite number")
    if z == 1:
        raise PoleError("zeta pole at s = 1")
    N, wp, rhos = _em_plan(float(mp.re(z)), abs(float(mp.im(z))), ctx.target_bits)
    with mp.workprec(wp):
        zc = +z
        pw = _em_powers(zc, N)
        acc = sum(pw[1:N], mp.zero)
        acc += N * pw[N] / (zc - 1)
        acc += pw[N] / 2
        tol = mpf(2) ** (-wp + 4) * max(abs(acc), mpf(2) ** (-wp // 2))
        rising, npow, corr = zc, pw[N] / N, mp.zero  # (s)_(2r-1), N^(-s-2r+1)
        for r, rho in enumerate(rhos, 1):
            b = bernoulli_number(2 * r)
            coef = _to_mp(_quotient(b.numerator, b.denominator * math.factorial(2 * r), wp))
            term = coef * rising * npow
            if (at := abs(term)) < tol and at * rho < tol:  # rho >= 1
                return +(acc + corr)
            corr += term
            rising, npow = rising * (zc + 2 * r - 1) * (zc + 2 * r), npow / (N * N)
    raise ArithmeticError("Euler-Maclaurin stop missed its proven bound")


def truncation_check(n: int, table: CoefficientTable, ctx: PrecisionContext):
    """Both sides of (2n-1) zeta(2n) = sum_{k=0}^{n-1} A_k P_k(n).

    The sum truncates because P_k(n) = 0 for k >= n; only n terms exist.
    It runs through the integer Pochhammer sweep at a scale 2^W that
    makes every term exact (P_k(n) = (-1)^k C(n-1, k), and W is at least
    minus the exponent of each A_k), and is rounded once; so is the right
    side.  Returns (lhs, rhs) as mpf, from ``_truncation_raw``.
    """
    return tuple(map(_to_mp, _truncation_raw(n, table, ctx.working_bits)))


def _truncation_raw(n: int, table: CoefficientTable, wb: int) -> tuple[tuple, tuple]:
    """The integer core of ``truncation_check`` at working_bits wb: lhs the
    exact sum and rhs (2n-1) z 2^-s, z the walk's zeta(2n) at scale 2^s,
    s = wb + GUARD_BITS (bernoulli._zeta_row), each rounded once to wb bits."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if table.kind != "A":
        raise ValueError("truncation_check needs a kind=A table")
    if table.k_max < n - 1:
        raise ValueError("table too short: need k_max >= n-1")
    weights = table.weights[:n]
    W = max(0, *(t for _, t in weights))
    lhs = sum(t for t, _ in _fixed_terms((n << W, 0), weights, W))
    s = wb + GUARD_BITS
    return _raw(lhs, -W, wb), _raw((2 * n - 1) * _zeta_row(n, s)[-1], -s, wb)


def _truncation_rows(table: CoefficientTable, wb: int, nmax: int):
    """(n, passed, rel) for the identities n = 1..nmax, each checked exactly
    against the error its table entries can carry.

    Entry k is within 2^e_k of A_k (table.error_bound_exponents), and
    P_k(n) = (-1)^k C(n-1, k) scales that error, so the exact sum is within
    sum_{k<n} C(n-1, k) 2^e_k of (2n-1) zeta(2n).  On top come the roundings
    at working_bits wb, a unit of |lhs| 2^-wb and one of |rhs| 2^-wb: rhs is
    within 2^-wb (2^E + n 2^-32) of (2n-1) zeta(2n), half an ulp for 2^E <=
    |rhs| and (2n-1) times z 2^-s's error (bernoulli._zeta_row), and |rhs| >
    2^E + 0.6 (so the unit covers both for n < 2^31), as zeta(2) = 1.64...
    and for n >= 2, (2n-1) zeta(2n) lies in (2n-1, 2n - 1/2), 2n-1 odd.
    passed is |lhs - rhs| below that sum, compared in integers at one scale
    2^e; rel is |lhs - rhs| / |rhs| from the exact difference, rounded once
    to 53 bits.
    """
    for n in range(1, nmax + 1):
        lhs, rhs = _truncation_raw(n, table, wb)
        errs = table.error_bound_exponents[:n]
        e = min(lhs[2], rhs[2], wb + min(errs))
        L, R = _man(lhs) << lhs[2] - e, _man(rhs) << rhs[2] - e
        err = sum(math.comb(n - 1, k) << wb + x - e for k, x in enumerate(errs))
        yield n, abs(L - R) << wb < err + abs(L) + abs(R), _quotient(abs(L - R), abs(R))
