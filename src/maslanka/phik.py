"""The rational functions phi_k and their Euler-Maclaurin remainder machinery.

    phi_k(x) = (1 - 1/x^2)^k / x,          x >= 1,

whose significance is the identity  A_k = -sum_{n>=1} phi_k'(n):  the defining
alternating sum for A_k is, term by term, the value of -phi_k' at the positive
integers.  Euler-Maclaurin summation at depth a then turns A_k into a single
remainder integral, because every boundary term vanishes (phi_k^(a)(1) = 0 for
a <= k, and everything decays at infinity):

    A_k = ((-1)^a / a!) * Int_1^inf  Bbar_a(x) * phi_k^(a+1)(x) dx .

Derivatives of phi_k stay closed-form thanks to a double sequence of
integer-coefficient polynomials p_{a,j}(k):

    phi_k^(a)(x) = (1 - 1/x^2)^(k-a) * sum_{j=0}^{a} p_{a,j}(k) / x^(a+2j+1)

    p_{0,0} = 1,   p_{a,j} = -(2j+a) p_{a-1,j} + (2k+2j-a) p_{a-1,j-1}.

Past an integer X the remainder integral is not integrated but shifted in
depth.  With T_a(X) = ((-1)^a / a!) Int_X^inf Bbar_a phi_k^(a+1), one
integration by parts (Bbar_{r+1}' = (r+1) Bbar_r, Bbar_{r+1}(X) = B_{r+1} at
an integer) gives T_r(X) = (-1)^(r+1) B_{r+1} / (r+1)! * phi_k^(r+1)(X) +
T_{r+1}(X), hence for a <= d:

    T_a(X) = sum_{r=a+1}^{d} (-1)^r B_r / r! * phi_k^(r)(X)  +  T_d(X)

where only even r contribute (B_r = 0 for odd r >= 3), and, for d <= k-1 so
that (1 - 1/x^2)^(k-d-1) <= 1 on [X, inf),

    |T_d(X)| <= sup|Bbar_d| / d! * sum_j |p_{d+1,j}(k)| / ((d+2j+1) X^(d+2j+1)).

At an integer X every boundary term is rational, so their sum is exact; only
T_d(X) is dropped, and its bound falls like X^-(d+1) instead of X^-(a+1).
The bound depends on k, d and X alone, so em_remainder_a_k fixes X and d
before it integrates [1, X].

Quadrature serves the remainder integral alone: its integrand is smooth
between the integers (the corners of Bbar_a), so panels aligned on them keep
a fixed-order Gauss-Legendre rule spectrally accurate.  The rule's nodes
and weights are dyadic Fractions from Newton steps in integers, each panel is
one sum in Python integers at a fixed-point scale with a proven error bound,
the panels add up to one integer, and the dropped-tail bound is an exact
Fraction, sup|Bbar_d| included.  The L1 norms Int_1^inf |phi_k^(a)| need
none: phi_k^(a) changes sign exactly at its a zeros, which a Rolle walk over
the exact integer rows p_{r,j}(k) brackets, so each norm is the total
variation of phi_k^(a-1) between them (deriv_l1_norm).

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

from .bernoulli import bernoulli_number, bernoulli_poly_coeffs, periodified_sup_bound
from .mpnum import (PrecisionContext, Record, _check_positive, _floor_digits, _fold, _man,
                    _quotient, _ratio, _round, _to_mp, decimal_to_raw, format_nstr)

__all__ = [
    "PajTable",
    "QuadratureError",
    "build_paj",
    "deriv_l1_norm",
    "em_remainder_a_k",
    "paj_eval",
    "phi_deriv",
]

QUAD_ORDER = 16
# em_remainder_a_k raises QuadratureError past this many panels, sub-panels included.
MAX_PANELS = 200_000


class QuadratureError(ArithmeticError):
    """A quadrature loop missed its tolerance in budget, or a zero bracket kept its sign."""


class PajTable(Record):
    """p_{a,j}(k) for 0 <= j <= a <= a_max, as exact integer polynomials in k.

    entries[(a, j)] holds the coefficients lowest power first, so
    p_{1,1} = 2k+1 is stored as (1, 2).
    """

    __slots__ = ("a_max", "entries")
    a_max: int
    entries: dict[tuple[int, int], tuple[int, ...]]


def build_paj(a_max: int) -> PajTable:
    """All p_{a,j} up to depth a_max by the recurrence, exact integer arithmetic."""
    if a_max < 0:
        raise ValueError("a_max must be >= 0")
    entries: dict[tuple[int, int], tuple[int, ...]] = {(0, 0): (1,)}
    for a in range(1, a_max + 1):
        for j in range(a + 1):
            out = [0] * (j + 1)
            prev_same = entries.get((a - 1, j))
            if prev_same is not None:
                for i, c in enumerate(prev_same):
                    out[i] -= (2 * j + a) * c
            prev_down = entries.get((a - 1, j - 1))
            if prev_down is not None:
                # (2k + (2j - a)) * p_{a-1,j-1}
                for i, c in enumerate(prev_down):
                    out[i] += (2 * j - a) * c
                    out[i + 1] += 2 * c
            entries[(a, j)] = tuple(out)
    return PajTable(a_max=a_max, entries=entries)


def paj_eval(paj: PajTable, a: int, j: int, k: int) -> int:
    """p_{a,j}(k) as an exact integer."""
    if not (0 <= j <= a <= paj.a_max):
        raise ValueError("need 0 <= j <= a <= paj.a_max")
    return _scaled_poly(paj.entries[(a, j)], k, 0)


def _pcoeffs(paj: PajTable, a: int, k: int) -> list[int]:
    return [paj_eval(paj, a, j, k) for j in range(a + 1)]


def phi_deriv(k: int, a: int, x, paj: PajTable, ctx: PrecisionContext):
    """The a-th derivative of phi_k from the closed form, as an mpf; a = 0
    gives phi_k itself."""
    from mpmath import mp, mpf

    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= a <= min(k, paj.a_max)):
        raise ValueError("need 0 <= a <= min(k, paj.a_max)")
    with ctx.prec():
        xf = mpf(x)
        if xf < 1:
            raise ValueError("x must be >= 1")
        inv2 = 1 / (xf * xf)
        xp = xf ** (-(a + 1))
        acc = mp.zero
        for c in _pcoeffs(paj, a, k):
            acc += c * xp
            xp *= inv2
        return (1 - inv2) ** (k - a) * acc


# -- Gauss-Legendre panels ---------------------------------------------------

def _gauss_legendre(n: int, prec: int) -> tuple[tuple, tuple]:
    """Nodes and weights of the order-n Gauss-Legendre rule on [-1, 1], n even,
    as dyadic Fractions X / 2^q, q = prec + 32.

    Each root starts from the float guess cos(pi (i - 1/4) / (n + 1/2)) and
    takes Newton steps in integers at the scale 2^q (Brent & Zimmermann,
    Modern Computer Arithmetic, 2010, section 4.2): P_n by the three-term
    recurrence p_m = ((2m-1) x p_{m-1} - (m-1) p_{m-2}) / m and
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1), every product floored, until a
    step moves the node by at most one unit.  The weight is
    2 / ((1 - x^2) P_n'(x)^2), floored at the same scale.  The last units are
    not proven: the bisection estimate of em_remainder_a_k holds the rule's
    own error to each panel's share, and _phi_panel's bound is stated for the
    given nodes and weights.
    """
    q = prec + 32
    one = 1 << q
    nodes: list[Fraction] = []
    weights: list[Fraction] = []
    for i in range(1, n // 2 + 1):
        x = int(math.ldexp(math.cos(math.pi * (i - 0.25) / (n + 0.5)), 53)) << q >> 53
        dx = 2
        while abs(dx) > 1:
            p0, p1 = one, x
            for m in range(2, n + 1):
                p0, p1 = p1, (((2 * m - 1) * x * p1 >> q) - (m - 1) * p0) // m
            d = n * (((x * p1 >> q) - p0) << q) // ((x * x >> q) - one)  # P_n' 2^q
            dx = (p1 << q) // d
            x -= dx
        nodes.append(Fraction(x, one))
        weights.append(Fraction((1 << 5 * q + 1) // ((one * one - x * x) * d * d), one))
    xs = [-x for x in reversed(nodes)] + nodes
    ws = weights[::-1] + weights
    return tuple(xs), tuple(ws)


def _man_exp(x: Fraction) -> tuple[int, int]:
    """(m, e) with x = m 2^e exactly, for a dyadic Fraction x."""
    return x.numerator, 1 - x.denominator.bit_length()


def _scaled_poly(coeffs: list[int], m: int, bits: int) -> int:
    """2^(bits*deg) * g(m / 2^bits) for g(u) = sum_j coeffs[j] u^j, an exact integer."""
    acc, q = 0, 1
    for c in reversed(coeffs):
        acc = acc * m + c * q
        q <<= bits
    return acc


def _panel_bits(k: int, a: int, pcoeffs: list[int], wp: int) -> int:
    """The scale 2^F of _phi_panel: F = wp + the bit length of its bound over
    2^-F, (beta + 1)(4k + 11)(C + 1), with beta + 1 < 2 + floor(4 a! / 6^a)."""
    c = sum(abs(v) for v in pcoeffs)
    beta = 2 + 4 * math.factorial(a) // 6 ** a
    return wp + (beta * (4 * k + 11) * (c + 1)).bit_length()


def _cell_rule(a: int, lo, hi, xs, ws, F: int) -> tuple[int, list[tuple[int, int]]]:
    """The rule (xs, ws) on [lo, hi] within a unit cell, as (E, [(T_i, V_i)]).

    With h = (hi - lo)/2, T_i 2^-E is the node offset t_i = lo + h (1 + x_i)
    exactly, and V_i is w_i h Bbar_a(t_i) 2^F rounded to the nearest
    integer, Bbar_a(t_i) = B_a(t_i) in integers over the exact coefficients
    of B_a (_scaled_poly).
    """
    h = (hi - lo) / 2
    (lm, le), (hm, he) = _man_exp(lo), _man_exp(h)
    pts = [_man_exp(x) for x in xs]
    E = max(0, -le, -he, *(-he - e for _, e in pts))
    base = (lm << (le + E)) + (hm << (he + E))
    coeffs = bernoulli_poly_coeffs(a)[::-1]
    den = math.lcm(*(c.denominator for c in coeffs))
    cd = [c.numerator * (den // c.denominator) for c in coeffs]
    nodes = []
    for (xm, xe), w in zip(pts, ws):
        T = base + (hm * xm << (he + xe + E))
        b = _scaled_poly(cd, T, E)  # den 2^(E a) B_a(T 2^-E)
        wm, we = _man_exp(w)
        sh = we + he + F - E * a
        num, q = wm * hm * b << max(sh, 0), den << max(-sh, 0)
        nodes.append((T, (2 * num + q) // (2 * q)))
    return E, nodes


def _phi_panel(k: int, a: int, n: int, cell, pcoeffs: list[int], F: int) -> int:
    """sum_i V_i phi_k^(a+1)(n + t_i) at scale 2^(2F), for a cell of _cell_rule.

    pcoeffs[j] = p_{a+1,j}(k), C = sum_j |p_{a+1,j}(k)| and m = k-a-1.  At a
    node x, with s = 2^-F, v = 1/x and w = v^2: ix = floor(v/s) has
    |ix s - v| < s; i2 = floor(ix^2 s) has |i2 s - w| < 3s; with
    u = 2^F - i2, U = u^m s^(m-1) by binary powering with every product
    floored is within (m-1) s of (u s)^m, so |U s - (1-w)^m| < (4m+1) s;
    IX = floor(ix^(a+2) s^(a+1)) has
    |IX s - v^(a+2)| < (a+3) s; and the Horner sum g of
    sum_j p_{a+1,j}(k) i2^j, floored a+1 times, is within
    (a+1) s + 3 s sum_j j |p_{a+1,j}(k)| of g(w).  Every exact factor is at
    most 1 except |g(w)| <= C, so with its last floor U IX g s^2 is within
    (4k + 3)(C + 1) s of phi_k^(a+1)(x).  Each V_i is within half a unit of
    w_i h Bbar_a(t_i) 2^F, and sum_i |V_i| s <= 2h beta + 8s <= beta + 1,
    beta = sup|Bbar_a| < 2 zeta(2) a! / (2 pi)^a < 4 a! / 6^a.  So the panel
    is within (beta + 1)(4k + 11)(C + 1) s of
    sum_i w_i h Bbar_a(t_i) phi_k^(a+1)(n + t_i), at most 2^-wp at the F of
    _panel_bits.
    """
    E, nodes = cell
    m = k - a - 1
    one, unit = 1 << (F + E), 1 << F
    *rest, top = [c << F for c in pcoeffs]
    rest.reverse()
    acc = 0
    for T, V in nodes:
        ix = one // ((n << E) + T)
        i2 = ix * ix >> F
        g = top
        for c in rest:
            g = (g * i2 >> F) + c
        u, U, e = unit - i2, unit, m
        while e:
            if e & 1:
                U = U * u >> F
            e >>= 1
            if e:
                u = u * u >> F
        acc += V * (U * (ix ** (a + 2) >> F * (a + 1)) * g >> 2 * F)
    return acc


def _next_prow(row: list[int], r: int, k: int) -> list[int]:
    """p_{r,j}(k) for j = 0..r from row[j] = p_{r-1,j}(k), by the recurrence."""
    out = [-(2 * j + r) * c for j, c in enumerate(row)] + [0]
    for j in range(1, r + 1):
        out[j] += (2 * k + 2 * j - r) * row[j - 1]
    return out


def _l1_tail(pcoeffs: list[int], r: int, X: int) -> Fraction:
    """Termwise bound on Int_X^inf |phi_k^(r)| for r <= k, exactly, from pcoeffs[j] = p_{r,j}(k):

        sum_j |p_{r,j}(k)| / ((r+2j) X^(r+2j)),   using (1 - 1/x^2)^(k-r) <= 1,

    summed by Horner in X^2 over the common denominator lcm_j(r+2j) X^(r+2J).
    """
    J = len(pcoeffs) - 1
    lcm = math.lcm(*range(r, r + 2 * J + 1, 2))
    num = [abs(c) * (lcm // (r + 2 * j)) for j, c in enumerate(pcoeffs)]
    return Fraction(_scaled_poly(num[::-1], X * X, 0), lcm * X ** (r + 2 * J))


def _phi_deriv_exact(k: int, r: int, X: int, pcoeffs: list[int]) -> Fraction:
    """phi_k^(r)(X) as an exact Fraction at an integer X >= 1, for r <= k, from
    pcoeffs[j] = p_{r,j}(k): (X^2 - 1)^(k-r) sum_j p_{r,j}(k) X^(2(r-j)) / X^(2k+r+1)."""
    x2 = X * X
    acc = _scaled_poly(pcoeffs[::-1], x2, 0)  # sum_j p_{r,j}(k) X^(2(r-j))
    return Fraction((x2 - 1) ** (k - r) * acc, X ** (2 * k + r + 1))


def _em_cut(k: int, a: int, row: list[int], limit: Fraction):
    """The cut (X, d, rows, tail) of em_remainder_a_k's walk: tail, the bound
    on T_d(X), is below limit at the first such X, or, when no X up to
    MAX_PANELS + 1 gets it there, X is MAX_PANELS + 1 and tail its bound.

    The bound at depth e is sup|Bbar_e| / e! * _l1_tail(p_{e+1}, e + 1, X).
    Once d is k - 1 it cannot rise again, and the bound falls with X, so one
    bound at X = MAX_PANELS + 1 tells whether the rest of the walk can end
    in budget.  rows[e - a] holds p_{e+1,j}(k), from row = p_{a+1,j}(k) up
    to e = d + 1.
    """
    # sups[e - a] = sup|Bbar_e| / e!, grown with rows as d rises
    rows, sups = [row], []

    def bound(e, X):
        if e - a == len(sups):
            sups.append(periodified_sup_bound(e) / math.factorial(e))
            rows.append(_next_prow(rows[-1], e + 2, k))
        return sups[e - a] * _l1_tail(rows[e - a], e + 1, X)

    d, in_budget = a, False
    for X in range(4, MAX_PANELS + 2):
        best = None
        for e in range(d, k):
            b = bound(e, X)
            if best is not None and not b < best:
                break
            d, best = e, b
        if best < limit:
            return X, d, rows, best
        if d == k - 1 and not in_budget:
            if not bound(d, MAX_PANELS + 1) < limit:
                break
            in_budget = True
    return MAX_PANELS + 1, d, rows, bound(d, MAX_PANELS + 1)


def em_remainder_a_k(k: int, a: int, paj: PajTable, ctx: PrecisionContext, quad_tol):
    """A_k recomputed as the depth-a Euler-Maclaurin remainder integral.

        A_k = ((-1)^a / a!) * Int_1^X Bbar_a(x) phi_k^(a+1)(x) dx  +  T_a(X)

    Valid for 2 <= a < k (so every boundary derivative at 1 vanishes and the
    result is depth-independent); uses no zeta value.  The tail T_a(X) past
    an integer X is the boundary sum to depth d plus T_d(X), by the depth
    shift of the module docstring.  Two phases.

    The cut: the bound on T_d(X) depends on k, d, X and quad_tol alone, so X
    and d are fixed before any panel.  At X = 4, 5, ..., d rises while the
    bound keeps shrinking, up to k-1, starting from a at X = 4 and from the
    previous X's d after that (the best depth grows with X); the walk stops at
    the first X where that bound is below quad_tol/2 (_em_cut).  The bound is
    an exact Fraction: its sum is exact at the integer X (_l1_tail), and
    sup|Bbar_d| / d! is the exact bound of periodified_sup_bound, once per d.
    When d first reaches k-1 it can rise no further and the bound falls
    with X, so one bound at X = MAX_PANELS + 1 tells whether the walk can
    stop in budget.  A cut past that X raises QuadratureError at once,
    naming the least quad_tol the bound there allows, rounded up.

    The panels: [1, X] is walked in unit panels [n, n+1] on the fixed
    Gauss-Legendre rule Q.  A panel [lo, hi] (dyadic Fractions) with midpoint
    mid takes the value Q[lo,mid] + Q[mid,hi]; it is bisected while the
    estimate |Q[lo,hi] - Q[lo,mid] - Q[mid,hi]| / a! exceeds its share
    (quad_tol/2) (1/lo - 1/hi), shares that sum to less than quad_tol/2, in
    an exact comparison.  Each Q is one integer at the scale 2^(2F),
    F = working_bits + guard (_panel_bits), over nodes and weights set up once
    per cell [lo, hi] of the unit interval (_cell_rule), and the panels add
    up exactly.  More than MAX_PANELS panels (sub-panels included) raise
    QuadratureError, and so does a panel to bisect whose share is below
    2^-working_bits: each Q is only that close to the rule's value, so no
    bisection can certify it.

    Error: the rule's own error, held by the estimate to each panel's share;
    each Q within 2^-working_bits of the rule's exact value (_phi_panel); the
    dropped T_d(X), below quad_tol/2 by the exact bound; the boundary sum,
    exact (_phi_deriv_exact); and one final rounding to working_bits.

    quad_tol (an mpf, an int or a string) is read by mpmath at working_bits,
    and the result is an mpf.  This wrapper hands the raw tuples to
    ``_em_remainder_raw``, which imports no mpmath; ``maslanka em-check``
    and ``verify --suite em-remainder`` call that core through ``_em_check``.
    """
    from mpmath import mp, mpf

    with mp.workprec(ctx.working_bits):
        tol = mpf(quad_tol)._mpf_
    return _to_mp(_em_remainder_raw(k, a, paj, ctx.working_bits, tol))


def _em_remainder_raw(k: int, a: int, paj: PajTable, wp: int, quad_tol: tuple) -> tuple:
    """The integer core of ``em_remainder_a_k`` at working_bits wp, on a raw
    quad_tol, rounded to wp bits first; returns the raw tuple of the exact
    sum rounded once to wp bits, as mpmath's from_rational rounds it.

    half_tol is quad_tol/2 with its exponent held to [-21k - bc, top], top =
    k bitlen(6k) + 6, which changes no decision: every tail bound of _em_cut
    exceeds 2^-21k (sup|Bbar_e| / e! > 2^(1-3e), and _l1_tail's j = 0 term is
    e! X^-(e+1), X < 2^18); at X = 4 each is below (6k)^k, which bounds
    sum_j |p_{e+1,j}(k)|; and a unit panel's estimate, below 3 (beta + 1)(C+1)
    < 3 a! (C + 1) (_phi_panel), is below its share when half_tol >= 2^top.
    """
    if not 2 <= a < k:
        raise ValueError("need 2 <= a < k")
    if paj.a_max < a + 1:
        raise ValueError("paj must cover depth a+1")
    tol = _round(quad_tol, wp)
    _check_positive(tol, "quad_tol")
    shown = format_nstr(tol, 6)
    x = min(max(tol[2] - 1, -21 * k - tol[3]), k * (6 * k).bit_length() + 6)
    half_tol = Fraction(tol[1] << max(x, 0), 1 << max(-x, 0))
    X, d, rows, tail = _em_cut(k, a, _pcoeffs(paj, a + 1, k), half_tol)
    if not tail < half_tol:  # quad_tol must exceed 2 tail, shown rounded up
        v = 2 * tail
        t = max(0, 64 + v.denominator.bit_length() - v.numerator.bit_length())
        lead, e10 = _floor_digits(-(-v.numerator << t) // v.denominator, -t, 6)
        raise QuadratureError(f"tolerance {shown} is out of reach at k = {k}, a = {a}: the "
                              f"tail bound at X = {X} needs quad_tol above "
                              f"{format_nstr(decimal_to_raw(lead + 1, e10 - 5, 53), 6)}")
    failure = f"tolerance {shown} not met within {MAX_PANELS} panels"
    pc = rows[0]
    F = _panel_bits(k, a, pc, wp)
    xs, ws = _gauss_legendre(QUAD_ORDER, wp)
    cells: dict = {}  # (lo, hi) within a unit cell -> _cell_rule

    def panel(n, lo, hi):
        cell = cells.get((lo, hi))
        if cell is None:
            cell = cells[(lo, hi)] = _cell_rule(a, lo, hi, xs, ws, F)
        return _phi_panel(k, a, n, cell, pc, F)

    afact = math.factorial(a)
    noise = Fraction(1, 1 << wp)  # one Q's accuracy
    total, panels = 0, X - 1
    for n in range(1, X):
        stack = [(Fraction(0), Fraction(1), panel(n, Fraction(0), Fraction(1)))]
        while stack:
            lo, hi, whole = stack.pop()
            mid = (lo + hi) / 2
            left, right = panel(n, lo, mid), panel(n, mid, hi)
            share = half_tol * (1 / (n + lo) - 1 / (n + hi)) * afact
            if abs(Fraction(whole - left - right, 1 << 2 * F)) <= share:
                total += left + right
            else:
                panels += 1
                if panels > MAX_PANELS:
                    raise QuadratureError(failure)
                if share < noise:
                    raise QuadratureError(f"tolerance {shown} is below the "
                                          f"panels' noise at {wp} bits")
                stack += [(lo, mid, left), (mid, hi, right)]
    value = Fraction((-1) ** a * total, afact << 2 * F)
    for r in range(a + 2 - a % 2, d + 1, 2):  # even r in (a, d]
        b_r = bernoulli_number(r) / math.factorial(r)
        value += b_r * _phi_deriv_exact(k, r, X, rows[r - a - 1])
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

    if not 2 <= a < k:  # before build_paj(a + 1), which costs about a^3
        raise ValueError("need 2 <= a < k")
    paj = build_paj(a + 1)
    ref = _single_index("A", k, ctx)
    if quad_tol is None:
        quad_tol = _ratio([(ref[1] * tol[1], ref[2] + tol[2])], [(100, 0)], 53)
    val = _em_remainder_raw(k, a, paj, ctx.working_bits, quad_tol)
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


def deriv_l1_norm(k: int, a: int, paj: PajTable, ctx: PrecisionContext):
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
    if not 1 <= a <= min(k, paj.a_max):
        raise ValueError("need 1 <= a <= min(k, paj.a_max)")
    import mpmath
    from mpmath import mp

    rows = [_pcoeffs(paj, r, k) for r in range(a + 1)]
    b = ctx.working_bits
    with mp.workprec(b):
        vals = [mp.zero]
        for m in _bracket_zeros(rows, b):
            u = mpmath.ldexp(m, -b)
            g = mpmath.ldexp(_scaled_poly(rows[a - 1], m, b), -b * (a - 1))
            vals.append((1 - u) ** (k - a + 1) * mpmath.sqrt(u) ** a * g)
        vals.append(mp.zero)
        return mpmath.fsum(abs(q - p) for p, q in zip(vals, vals[1:]))
