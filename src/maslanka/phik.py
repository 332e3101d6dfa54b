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

The boundary sum is exact and closed-form; only T_d(X) is dropped, and its
bound falls like X^-(d+1) instead of X^-(a+1).  em_remainder_a_k picks, at
each integer X >= 4, the d in [a, k-1] reached by raising d while the bound
shrinks (from a at X = 4, from the previous d after that), and stops at the
first X where that bound is below half its tolerance.  The other half is
shared among the panels of [1, X]: a panel [lo, hi] gets (1/lo - 1/hi) of
it, and is bisected while the Gauss-Legendre error estimate
|Q[lo,hi] - Q[lo,mid] - Q[mid,hi]| exceeds its share.

The quadrature strategy throughout: the integrands are piecewise smooth with
breakpoints exactly at the integers (corners of Bbar_a) or at the real roots
of the bracketed polynomial (kinks of |phi^(a)|), so panels aligned on those
breakpoints restore spectral accuracy for a fixed-order Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .bernoulli import bernoulli_number, periodified_bernoulli, periodified_sup_bound
from .mpnum import PrecisionContext, required_bits_for_alternating_sum

__all__ = [
    "PajTable",
    "QuadratureError",
    "binomial_sum_equals_neg_phi_prime",
    "build_paj",
    "deriv_l1_norm",
    "em_remainder_a_k",
    "paj_eval",
    "phi",
    "phi_deriv",
]

QUAD_ORDER = 16
# em_remainder_a_k raises QuadratureError past this many panels, sub-panels included.
MAX_PANELS = 200_000
# deriv_l1_norm stops doubling once the tail bound is below this share of the value.
L1_REL_TOL = 1e-10
# _bracket_poly_roots narrows each root of the bracketed polynomial to 2^-BISECT_BITS.
BISECT_BITS = 48


class QuadratureError(ArithmeticError):
    """A quadrature loop could not meet its tolerance within its budget."""


@dataclass(frozen=True)
class PajTable:
    """p_{a,j}(k) for 0 <= j <= a <= a_max, as exact integer polynomials in k.

    entries[(a, j)] holds the coefficients lowest power first, so
    p_{1,1} = 2k+1 is stored as (1, 2).
    """

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
    acc = 0
    for c in reversed(paj.entries[(a, j)]):
        acc = acc * k + c
    return acc


def phi(k: int, x, ctx: PrecisionContext) -> mpf:
    """phi_k(x) = (1 - 1/x^2)^k / x; exactly 0 at x = 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    with ctx.prec():
        xf = mpf(x)
        if xf < 1:
            raise ValueError("x must be >= 1")
        u = 1 - 1 / (xf * xf)
        return +(u ** k / xf)


def _phi_deriv_raw(k: int, a: int, x, pcoeffs: list[int]):
    """phi_k^(a)(x) at ambient precision given pcoeffs[j] = p_{a,j}(k)."""
    xf = mpf(x)
    inv2 = 1 / (xf * xf)
    u = 1 - inv2
    xp = xf ** (-(a + 1))
    acc = mp.zero
    for c in pcoeffs:
        acc += c * xp
        xp *= inv2
    return u ** (k - a) * acc


def _pcoeffs(paj: PajTable, a: int, k: int) -> list[int]:
    return [paj_eval(paj, a, j, k) for j in range(a + 1)]


def phi_deriv(k: int, a: int, x, paj: PajTable, ctx: PrecisionContext) -> mpf:
    """The a-th derivative of phi_k from the closed form; a = 0 reduces to phi."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= a <= min(k, paj.a_max)):
        raise ValueError("need 0 <= a <= min(k, paj.a_max)")
    with ctx.prec():
        xf = mpf(x)
        if xf < 1:
            raise ValueError("x must be >= 1")
        return +_phi_deriv_raw(k, a, xf, _pcoeffs(paj, a, k))


def binomial_sum_equals_neg_phi_prime(k: int, x, ctx: PrecisionContext):
    """Both sides of  sum_{j=0}^{k} (-1)^j C(k,j) (2j+1) / x^(2j+2) = -phi_k'(x).

    Returned as a (lhs, rhs) pair for tests; the alternating LHS is evaluated
    at required_bits_for_alternating_sum(k, target_bits), the RHS from the
    closed-form derivative.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with mp.workprec(required_bits_for_alternating_sum(k, ctx.target_bits)):
        xf = mpf(x)
        if xf <= 1:
            raise ValueError("x must be > 1")
        inv2 = 1 / (xf * xf)
        ppow = inv2
        lhs = mp.zero
        c = 1
        for j in range(k + 1):
            term = mpf(c * (2 * j + 1)) * ppow
            lhs = lhs + term if j % 2 == 0 else lhs - term
            c = c * (k - j) // (j + 1)
            ppow = ppow * inv2
        rhs = -_phi_deriv_raw(k, 1, xf, _next_prow([1], 1, k))
        return +lhs, +rhs


# -- Gauss-Legendre panels ---------------------------------------------------

_GL_CACHE: dict[tuple[int, int], tuple[tuple, tuple]] = {}


def _legendre(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for n >= 1 and x != +-1."""
    p0, p1 = mp.one, x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _gauss_legendre(n: int, prec: int) -> tuple[tuple, tuple]:
    """Nodes and weights of the order-n Gauss-Legendre rule on [-1, 1].

    Newton iteration on the three-term Legendre recurrence, computed at
    prec + 32 bits; mpmath offers tanh-sinh natively but no fixed-order
    arbitrary-precision Legendre nodes, hence this small solver.
    """
    key = (n, prec)
    cached = _GL_CACHE.get(key)
    if cached is not None:
        return cached
    with mp.workprec(prec + 32):
        nodes: list = []
        weights: list = []
        tol = mpf(2) ** (-(prec + 16))
        for i in range(1, n // 2 + 1):
            x = mpmath.cos(mp.pi * (i - mpf(1) / 4) / (n + mpf(1) / 2))
            for _ in range(100):
                p, dp = _legendre(n, x)
                dx = p / dp
                x -= dx
                if abs(dx) < tol:
                    break
            _, dp = _legendre(n, x)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append(x)
            weights.append(w)
        xs: list = []
        ws: list = []
        for x, w in zip(reversed(nodes), reversed(weights)):
            xs.append(-x)
            ws.append(w)
        if n % 2:
            _, dp = _legendre(n, mp.zero)
            xs.append(mp.zero)
            ws.append(2 / (dp * dp))
        for x, w in zip(nodes, weights):
            xs.append(x)
            ws.append(w)
        result = (tuple(+x for x in xs), tuple(+w for w in ws))
    _GL_CACHE[key] = result
    return result


def _panel_integral(f, lo, hi, xs, ws):
    half = (hi - lo) / 2
    mid = (hi + lo) / 2
    acc = mp.zero
    for x, w in zip(xs, ws):
        acc += w * f(mid + half * x)
    return acc * half


def _next_prow(row: list[int], r: int, k: int) -> list[int]:
    """p_{r,j}(k) for j = 0..r from row[j] = p_{r-1,j}(k), by the recurrence."""
    out = [-(2 * j + r) * c for j, c in enumerate(row)] + [0]
    for j in range(1, r + 1):
        out[j] += (2 * k + 2 * j - r) * row[j - 1]
    return out


def _l1_tail(pcoeffs: list[int], r: int, X) -> mpf:
    """Termwise bound on Int_X^inf |phi_k^(r)| for r <= k, from pcoeffs[j] = p_{r,j}(k):

        sum_j |p_{r,j}(k)| / ((r+2j) X^(r+2j)),   using (1 - 1/x^2)^(k-r) <= 1.
    """
    xp = mpf(X) ** (-r)
    inv2 = 1 / (mpf(X) * mpf(X))
    acc = mp.zero
    for j, c in enumerate(pcoeffs):
        acc += abs(c) * xp / (r + 2 * j)
        xp *= inv2
    return acc


def _shift_bound(d: int, X, pcoeffs: list[int]) -> mpf:
    """Bound on |T_d(X)|: sup|Bbar_d| / d! * Int_X^inf |phi_k^(d+1)|, for d < k.

    pcoeffs[j] = p_{d+1,j}(k).
    """
    return periodified_sup_bound(d) / math.factorial(d) * _l1_tail(pcoeffs, d + 1, X)


def _shift_boundary(k: int, a: int, d: int, X, prow) -> mpf:
    """The boundary terms sum_{r=a+1}^{d} (-1)^r B_r / r! * phi_k^(r)(X).

    X is an integer, so Bbar_r(X) = B_r; prow(r) gives the list p_{r,j}(k).
    Odd r >= 3 have B_r = 0 and are skipped.
    """
    acc = mp.zero
    for r in range(a + 1, d + 1):
        if r % 2 == 0:
            b = bernoulli_number(r)
            acc += (mpf(b.numerator) / mpf(b.denominator) / math.factorial(r)
                    * _phi_deriv_raw(k, r, X, prow(r)))
    return acc


def em_remainder_a_k(k: int, a: int, paj: PajTable, ctx: PrecisionContext, quad_tol: mpf) -> mpf:
    """A_k recomputed as the depth-a Euler-Maclaurin remainder integral.

        A_k = ((-1)^a / a!) * Int_1^X Bbar_a(x) phi_k^(a+1)(x) dx  +  T_a(X)

    Valid for 2 <= a < k (so every boundary derivative at 1 vanishes and the
    result is depth-independent); uses no zeta value.  The tail T_a(X) past
    an integer X is taken by the depth shift of the module docstring:

        T_a(X) = sum_{r=a+1}^{d} (-1)^r B_r / r! * phi_k^(r)(X)  +  T_d(X),
        |T_d(X)| <= sup|Bbar_d| / d! * sum_j |p_{d+1,j}(k)| / ((d+2j+1) X^(d+2j+1)),

    the boundary sum is added exactly and T_d(X) is dropped.  Choice of d and
    X: after each unit panel, at every integer X >= 4, d rises while the
    bound keeps shrinking, up to k-1, starting from a at X = 4 and from the
    previous X's d after that (the best depth grows with X); integration
    stops at the first X where that bound is below quad_tol/2.

    Panels: [1, X] is walked in unit panels [n, n+1], each on the fixed
    Gauss-Legendre rule Q.  A panel [lo, hi] with midpoint mid takes the value
    Q[lo,mid] + Q[mid,hi] and the error estimate |Q[lo,hi] - Q[lo,mid] -
    Q[mid,hi]|; it is bisected while that estimate, divided by a!, exceeds its
    share (quad_tol/2) * (1/lo - 1/hi), shares that sum to less than quad_tol/2
    over [1, X].  Bbar_a is evaluated once per node offset within a unit cell.
    More than MAX_PANELS panels (sub-panels included) raise QuadratureError.
    """
    if not 2 <= a < k:
        raise ValueError("need 2 <= a < k")
    if paj.a_max < a + 1:
        raise ValueError("paj must cover depth a+1")
    wp = ctx.working_bits
    with mp.workprec(wp):
        tol = mpf(quad_tol)
        if not tol > 0:
            raise ValueError("quad_tol must be positive")
        half_tol = tol / 2
        afact = math.factorial(a)
        rows = {a + 1: _pcoeffs(paj, a + 1, k)}

        def prow(r):
            for s in range(max(rows) + 1, r + 1):
                rows[s] = _next_prow(rows[s - 1], s, k)
            return rows[r]

        xs, ws = _gauss_legendre(QUAD_ORDER, wp)
        cells: dict = {}  # (lo, hi) within a unit cell -> [(node offset, weight * Bbar_a)]
        pc = rows[a + 1]

        def panel(n, lo, hi):
            nodes = cells.get((lo, hi))
            if nodes is None:
                half = (hi - lo) / 2
                ts = [lo + half * (1 + x) for x in xs]
                nodes = cells[(lo, hi)] = [
                    (t, w * half * periodified_bernoulli(a, t)) for t, w in zip(ts, ws)]
            acc = mp.zero
            for t, wb in nodes:
                acc += wb * _phi_deriv_raw(k, a + 1, n + t, pc)
            return acc

        total = mp.zero
        panels = 0
        X, d = 1, a
        while True:
            panels += 1
            stack = [(mp.zero, mp.one, panel(X, mp.zero, mp.one))]
            while stack:
                if panels > MAX_PANELS:
                    raise QuadratureError(
                        f"tolerance {mpmath.nstr(tol, 6)} not met within {MAX_PANELS} panels"
                    )
                lo, hi, whole = stack.pop()
                mid = (lo + hi) / 2
                left, right = panel(X, lo, mid), panel(X, mid, hi)
                share = half_tol * (1 / (X + lo) - 1 / (X + hi)) * afact
                if abs(whole - left - right) <= share:
                    total += left + right
                else:
                    panels += 1
                    stack += [(lo, mid, left), (mid, hi, right)]
            X += 1
            if X < 4:
                continue
            best = _shift_bound(d, X, prow(d + 1))
            while d + 1 < k:
                nxt = _shift_bound(d + 1, X, prow(d + 2))
                if not nxt < best:
                    break
                d, best = d + 1, nxt
            if best < half_tol:
                break
        value = total / afact
        if a % 2:
            value = -value
        return +(value + _shift_boundary(k, a, d, mpf(X), prow))


# -- L1 norms of phi^(a) -----------------------------------------------------


def _bracket_poly_roots(coeffs: list[int]) -> list[Fraction]:
    """Real roots in (0, 1) of g(u) = sum_j coeffs[j] u^j, as Fractions.

    Sign evaluation is exact (integers only): sign(g(p/q)) = sign(sum_j c_j
    p^j q^(deg-j)).  A uniform grid brackets sign changes, bisection narrows
    each to width 2^-BISECT_BITS.  Exactness means no spurious roots from
    rounding; a root of even multiplicity (no sign change) would be missed,
    but such a point does not break |integrand| smoothness anyway.
    """

    def sign_at(fr: Fraction) -> int:
        p, q = fr.numerator, fr.denominator
        acc = 0
        qp = 1
        for c in reversed(coeffs):  # Horner for q^deg * g(p/q), all-integer
            acc = acc * p + c * qp
            qp *= q
        return (acc > 0) - (acc < 0)

    grid = 2048
    roots: list[Fraction] = []
    prev_u = Fraction(1, grid)
    prev_s = sign_at(prev_u)
    if prev_s == 0:
        roots.append(prev_u)
    for i in range(2, grid):
        u = Fraction(i, grid)
        s = sign_at(u)
        if s == 0:
            roots.append(u)
        elif s != prev_s and prev_s != 0:
            lo, hi = prev_u, u
            for _ in range(BISECT_BITS + 12):
                mid = (lo + hi) / 2
                sm = sign_at(mid)
                if sm == 0:
                    lo = hi = mid
                    break
                if sm == prev_s:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < Fraction(1, 2 ** BISECT_BITS):
                    break
            roots.append((lo + hi) / 2)
        prev_u, prev_s = u, s
    return roots


def deriv_l1_norm(k: int, a: int, paj: PajTable, ctx: PrecisionContext) -> mpf:
    """Int_1^inf |phi_k^(a)(x)| dx by sign-split panel quadrature plus tail bound.

    |phi^(a)| is smooth except where the bracketed polynomial g(u) =
    sum_j p_{a,j}(k) u^j vanishes (u = 1/x^2), so those roots become panel
    breakpoints.  Beyond X0 ~ 4 sqrt(k) the integral is extended by doubling
    panels until the term-wise tail bound

        sum_j |p_{a,j}(k)| / ((a+2j) X^(a+2j))

    is below L1_REL_TOL of the accumulated value; the bound itself is then added,
    so the quoted value covers the whole half-line.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= a <= min(k, paj.a_max):
        raise ValueError("need 1 <= a <= min(k, paj.a_max)")
    pc = _pcoeffs(paj, a, k)
    roots = _bracket_poly_roots(pc)
    wp = ctx.working_bits
    with mp.workprec(wp):
        xs, ws = _gauss_legendre(QUAD_ORDER, wp)
        breakpoints = sorted(1 / mpmath.sqrt(mpf(r.numerator) / r.denominator) for r in roots)
        X0 = mpf(max(math.ceil(4 * math.sqrt(k)), 4))
        if breakpoints:
            X0 = max(X0, mpmath.ceil(breakpoints[-1]) + 2)

        def f(x):
            return abs(_phi_deriv_raw(k, a, x, pc))

        # panel edges: 1 -> each breakpoint -> X0, long stretches cut to <= 1
        edges = [mp.one]
        for b in breakpoints + [X0]:
            lo = edges[-1]
            if b <= lo:
                continue
            span = b - lo
            steps = max(1, int(mpmath.ceil(span)))
            for i in range(1, steps):
                edges.append(lo + span * i / steps)
            edges.append(b)

        acc = mp.zero
        for lo, hi in zip(edges, edges[1:]):
            acc += _panel_integral(f, lo, hi, xs, ws)

        X = edges[-1]
        for _ in range(400):
            if _l1_tail(pc, a, X) <= mpf(L1_REL_TOL) * acc:
                break
            acc += _panel_integral(f, X, 2 * X, xs, ws)
            X = 2 * X
        else:
            raise QuadratureError("tail bound did not shrink within the doubling budget")
        return +(acc + _l1_tail(pc, a, X))
