"""Pochhammer polynomials P_k(h) = prod_{r=1}^{k} (1 - h/r), with P_0 = 1.

One incremental sweep serves every caller: ``_fixed_terms`` runs
P_k = P_{k-1} (1 - h/k) in Gaussian integers at one scale 2^W, with a proven
error bound, and yields each P_k times a caller's weight; ``_guard_bits``
gives the W that bound needs.  The Maslanka series and its truncation
identities (:mod:`maslanka.series`) feed it their coefficients.  Here it
gives the first values P_0(s), ..., P_K(s) (exactly zero at integer
1 <= s <= k) and a bound probe measuring sup_k |P_k(s)| k^Re(s).  The sweep
takes integers and its two helpers floats and raw tuples, so the series core
runs without mpmath; the two functions that return mpf import it in-call.
A step multiplies by the significant bits of h 2^W alone, so its cost
follows the bits h has, not W.
"""

from __future__ import annotations

import math

from .mpnum import PrecisionContext

__all__ = [
    "pochhammer_bound_probe",
    "pochhammer_values",
]


def _to_fixed(x: tuple, e: int) -> int:
    """x * 2^e rounded to the nearest integer, ties away from zero, for a
    finite raw tuple x: 0 once |x 2^e| < 2^(bc + exp + e) <= 1/2."""
    sign, man, exp, bc = x
    sh = exp + e
    if sh < -bc:
        return 0
    v = man << sh if sh >= 0 else (man + (1 << (-sh - 1))) >> -sh
    return -v if sign else v


def _fixed_terms(H: tuple[int, int], weights, W: int):
    """Yield floor(c_k Q_k) as (real, imag) integers for the weights c_k in ``weights``.

    Q_0 = 2^W and Q_k = floor(Q_{k-1} (k 2^W - H) / (k 2^W)) componentwise,
    so Q_k 2^-W approximates P_k(h) for H ~ h 2^W (exactly zero from k = n on
    when h = n is a positive integer, and exactly 2^W throughout at h = 0).
    Each weight is a pair (m, t) of integers, c_k = m 2^-t with t >= 0, and
    the product m Q_k is floored by the shift t.

    Step.  Q_{k-1} k 2^W is a multiple of 2^W, and nested floor divisions by
    positive integers compose, with floor((k Q + y)/k) = Q + floor(y/k); so
    Q_k = Q_{k-1} + floor(floor(-Q_{k-1} H / 2^W) / k).  With H = (a + b i) 2^e,
    e = min(W, the trailing zero bits of H_r | H_i), and d = W - e,
    floor(x 2^e / 2^W) = floor(x / 2^d): each step multiplies Q_{k-1} by the
    significant bits a and b of H alone, and yields the integers of the
    recurrence above for every H, W and weight.

    Bound.  Let u = 2^-W, q_k = Q_k u, r_i = |1 - h/i| and
    Pi_k = r_1 ... r_k = |P_k(h)|, with H the nearest Gaussian integer to
    h 2^W.  A floor moves each component by less than u, so q by less than
    sqrt2 u, and rounding H moves h by at most u/sqrt2; hence
    q_k = q_{k-1} (1 - h/k) + d_k with |d_k| < u (sqrt2 + |q_{k-1}|/(sqrt2 k)).
    Unrolled, q_k - P_k(h) = sum_{j<=k} d_j prod_{i=j+1..k} (1 - h/i): an error
    made at step j reaches step k multiplied by |P_k/P_j|, written as a product
    that stays finite at the zeros of P.  While the bound below stays under 1,
    |q_{j-1}| <= Pi_{j-1} + 1, and with
    X_k = max_{j<=k} max(1, Pi_{j-1}) prod_{i=j+1..k} r_i, that is
    X_k = max(r_k X_{k-1}, 1, Pi_{k-1}), the error of q_k is below
    u (sqrt2 k + sqrt2 H_k) X_k <= 3 k X_k u (H_k the harmonic number).
    The floor of each weighted term adds less than sqrt2 u.
    """
    low = H[0] | H[1]
    e = min(W, (low & -low).bit_length() - 1) if low else W
    a, b, d = H[0] >> e, H[1] >> e, W - e
    na = -a
    qr, qi = 1 << W, 0
    for k, (m, t) in enumerate(weights):
        if k:
            qr, qi = qr + ((qi * b - qr * a) >> d) // k, qi + ((qi * na - qr * b) >> d) // k
        yield (m * qr) >> t, (m * qi) >> t


def _guard_bits(x: float, y: float, k_max: int) -> int:
    """ceil(log2 E) + 1 for E = 4 (K+1)^2 max_{k<=K} X_k at K = k_max, h = x + y i.

    X_k is the growth factor of ``_fixed_terms``.  E bounds every 3 k X_k, so
    a sweep at W = b + _guard_bits(x, y, K) keeps each q_k within 2^-(b+1) of
    P_k(h); the factor (K+1)^2 leaves room for a sum of weighted terms (see
    ``maslanka.series.maslanka_eval``).  log2 X_k is run in floats over the
    first m = ceil(|h|^2) steps.  Beyond them, log r_i <= -Re(h)/i +
    |h|^2/(2 i^2) and sum_{i>m} i^-2 < 1/m give
    X_k <= e^(|h|^2/2m) (k/m)^max(0,-Re h) max(X_m, Pi_m).  Each factor
    |1 - h/i| is raised by 2^-40 (1 + |h|/i), more than the rounding of h to
    floats and of the float operations can move it; the rounding of the sums
    of logarithms is covered by the factor of at least 4/3 by which E exceeds
    the error sums it bounds.  An h beyond the float range is refused.
    """
    habs = math.hypot(x, y)
    if not math.isfinite(habs):
        raise ValueError("s is too large to sum in fixed point")
    m = max(1, min(k_max, math.ceil(min(habs * habs, k_max))))
    lx = lpi = top = 0.0  # log2 of X_k, Pi_k and max_k X_k
    for i in range(1, m + 1):
        lr = math.log2(math.hypot(1 - x / i, y / i) + 2.0**-40 * (1 + habs / i))
        lx = max(lx + lr, 0.0, lpi)
        lpi += lr
        top = max(top, lx)
    if k_max > m:
        tail = habs * habs / (2 * m * math.log(2)) + max(0.0, -x) * math.log2(k_max / m)
        top = max(top, tail + max(lx, lpi))
    return math.ceil(2 + 2 * math.log2(k_max + 1) + top) + 1


def pochhammer_values(s, k_max: int, ctx: PrecisionContext) -> list:
    """[P_0(s), ..., P_k_max(s)] from one sweep, O(1) integer steps per k.

    The sweep runs with unit weights at W = working_bits + _guard_bits(Re s, Im s, k_max),
    so each Q_k 2^-W is within 3 k X_k 2^-W <= 2^-(working_bits+1) of P_k(s)
    and each value, rounded once to working_bits, satisfies
    |value - P_k(s)| <= 2^-(working_bits+1) plus half an ulp.  Returns mpf
    for real s, mpc for complex s.  When s is a real integer with
    1 <= s <= k, P_k(s) is exactly zero.
    """
    import mpmath
    from mpmath import mp, mpc, mpf

    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    with mp.workprec(ctx.working_bits):
        z = mpmath.mpmathify(s)
        W = ctx.working_bits + _guard_bits(float(z.real), float(z.imag), k_max)
        H = (_to_fixed(z.real._mpf_, W), _to_fixed(z.imag._mpf_, W))
        terms = _fixed_terms(H, [(1, 0)] * (k_max + 1), W)
        if isinstance(z, mpc):
            return [mpc(mpf((qr, -W)), mpf((qi, -W))) for qr, qi in terms]
        return [mpf((qr, -W)) for qr, _ in terms]


def pochhammer_bound_probe(s, k_max: int, ctx: PrecisionContext) -> mpf:
    """sup over 1 <= k <= k_max of |P_k(s)| * k**Re(s), over pochhammer_values."""
    import mpmath
    from mpmath import mp, mpf

    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    values = pochhammer_values(s, k_max, ctx)
    with mp.workprec(ctx.working_bits):
        sigma = mp.re(mpmath.mpmathify(s))
        return +max(abs(P) * mpf(k) ** sigma for k, P in enumerate(values) if k)
