"""Evaluation of (s-1) zeta(s) = sum_k A_k P_k(s/2) anywhere in the plane.

Also provides the independent reference zeta (Euler-Maclaurin continuation,
used as the oracle the series is tested against), the triangular truncation
identities (2n-1) zeta(2n) = sum_{k<n} A_k P_k(n), and the *divergent*
Bernoulli-coefficient representation

    (s-1) zeta(s) = 1 + (1/2)(s-1) + sum_{k>=2} B_k P_k(2-s)

which truncates exactly at non-positive integer s but does not converge
elsewhere (its partial sums are still useful for demonstrating exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .bernoulli import BernoulliTable, bernoulli_number, zeta_even
from .coefficients import CoefficientTable
from .mpnum import Complex, PoleError, PrecisionContext, Real
from .pochhammer import pochhammer_sweep

__all__ = [
    "SeriesResult",
    "bernoulli_rep_partial",
    "maslanka_eval",
    "truncation_check",
    "zeta_reference",
]


@dataclass(frozen=True)
class SeriesResult:
    """Partial Maslanka sum at s, with convergence bookkeeping.

    ``value`` approximates (s-1) zeta(s); ``zeta_value`` is value/(s-1), or
    None when s = 1 (``is_pole``).  ``converged`` is False when the table was
    exhausted before the tolerance was met, in which case
    ``residual_estimate`` (an |S_K - S_K/2| doubling difference) is the best
    available honesty about the gap.
    """

    s: Complex
    value: Complex
    terms_used: int
    residual_estimate: Real
    zeta_value: Complex | None
    is_pole: bool
    converged: bool


def maslanka_eval(s, table: CoefficientTable, tol, ctx: PrecisionContext) -> SeriesResult:
    """Sum A_k P_k(s/2) until the tolerance's stopping rule fires.

    Stops at the smallest K >= 1 with both |A_K P_K(s/2)| < tol/4 and
    |S_K - S_ceil(K/2)| < tol/2.  The two-part rule matters because the term
    magnitudes are not monotone (P_k oscillates, A_k changes sign): a small
    single term near a sign change must not end the sum on its own.
    """
    if table.kind != "A":
        raise ValueError("maslanka_eval needs a kind=A table")
    with mp.workprec(ctx.working_bits):
        tolm = +mpf(tol)
        if not tolm > 0:
            raise ValueError("tol must be a positive number")
        if not tolm > mpf(2) ** (-table.target_bits + 8):
            raise ValueError("tol is below what the table's target_bits can support")
        z = mpmath.mpmathify(s)
        half = z / 2
        partials = []
        S = mp.zero
        converged = False
        K = table.k_max
        for k, (a, P) in enumerate(zip(table.values, pochhammer_sweep(half))):
            term = a * P
            S = S + term
            partials.append(S)
            if k >= 1 and abs(term) < tolm / 4:
                if abs(S - partials[(k + 1) // 2]) < tolm / 2:
                    K = k
                    converged = True
                    break
        residual = abs(partials[K] - partials[(K + 1) // 2])
        value = +partials[K]
        is_pole = z == 1
        zeta_value = None if is_pole else +(value / (z - 1))
    return SeriesResult(
        s=z,
        value=value,
        terms_used=K + 1,
        residual_estimate=+residual,
        zeta_value=zeta_value,
        is_pole=is_pole,
        converged=converged,
    )


def _em_zeta_attempt(z, N: int, wp: int):
    """One Euler-Maclaurin pass at fixed N and precision.

    Returns (True, value) on success, (False, None) when the correction terms
    start growing before reaching tolerance (N too small for this s).
    """
    with mp.workprec(wp):
        zc = +mpmath.mpmathify(z)
        acc = mp.zero
        for n in range(1, N):
            acc += mpmath.power(n, -zc)
        acc += mpmath.power(N, 1 - zc) / (zc - 1)
        acc += mpmath.power(N, -zc) / 2
        tol = mpf(2) ** (-wp + 4) * max(abs(acc), mpf(2) ** (-wp // 2))
        rising = zc  # (s)_{2r-1}
        npow = mpmath.power(N, -zc - 1)
        corr = mp.zero
        prev = mpmath.inf
        r = 1
        while True:
            b = bernoulli_number(2 * r)
            term = (
                mpf(b.numerator)
                / mpf(b.denominator)
                / mpf(math.factorial(2 * r))
                * rising
                * npow
            )
            at = abs(term)
            if at > prev:
                return False, None
            corr += term
            if at < tol:
                return True, +(acc + corr)
            prev = at
            rising = rising * (zc + 2 * r - 1) * (zc + 2 * r)
            npow = npow / (N * N)
            r += 1
            if r > 2 * N + 16:
                return False, None


def zeta_reference(s, ctx: PrecisionContext) -> Complex:
    """zeta(s) by Euler-Maclaurin continuation, the package's independent oracle.

    N and the working precision are chosen jointly from target_bits and Im s;
    for Re s < 0 extra bits absorb the cancellation between the partial sum
    (which grows like N^(1+|Re s|)) and the continuation terms.  If the
    correction series bottoms out before reaching tolerance, N is doubled and
    the pass rerun.
    """
    z = mpmath.mpmathify(s)
    if z == 1:
        raise PoleError("zeta pole at s = 1")
    t = ctx.target_bits
    sigma = float(mp.re(z))
    tau = abs(float(mp.im(z)))
    wp = t + 24
    for _ in range(3):
        N = max(16, math.ceil(0.14 * wp + 0.55 * tau + 8))
        extra = 0
        if sigma < 0:
            extra = math.ceil((1.0 - sigma) * math.log2(N + 1)) + 8
        wp = t + 24 + extra
    while True:
        ok, val = _em_zeta_attempt(z, N, wp)
        if ok:
            return val
        N *= 2
        if sigma < 0:
            wp = t + 24 + math.ceil((1.0 - sigma) * math.log2(N + 1)) + 8


def truncation_check(n: int, table: CoefficientTable, ctx: PrecisionContext):
    """Both sides of (2n-1) zeta(2n) = sum_{k=0}^{n-1} A_k P_k(n).

    The sum truncates because P_k(n) = 0 for k >= n; only n terms exist.
    Returns (lhs, rhs).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if table.kind != "A":
        raise ValueError("truncation_check needs a kind=A table")
    if table.k_max < n - 1:
        raise ValueError("table too short: need k_max >= n-1")
    with ctx.prec():
        lhs = mp.zero
        for a, P in zip(table.values[:n], pochhammer_sweep(mpf(n))):
            lhs += a * P
        rhs = (2 * n - 1) * zeta_even(2 * n, ctx)
        return +lhs, +rhs


def bernoulli_rep_partial(s, K: int, btable: BernoulliTable, ctx: PrecisionContext) -> Complex:
    """Partial sum of the truncating Bernoulli representation.

        c_0 + sum_{k=1}^{K} c_k P_k(2-s),  c_0 = 1, c_1 = 1/2, c_k = B_k (k >= 2)

    The coefficient convention is pinned by solving the triangular system at
    s = 1, 0, -1, ...: the k=1 coefficient must be +1/2, not B_1.  No
    convergence claim is made; at non-truncating s the terms eventually grow.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if btable.n_max < K:
        raise ValueError("btable too short for K")
    with ctx.prec():
        z = mpmath.mpmathify(s)
        acc = mp.one  # c_0 P_0
        sweep = pochhammer_sweep(2 - z)
        next(sweep)
        for k, P in zip(range(1, K + 1), sweep):
            if k == 1:
                acc += P / 2
            elif k % 2 == 0:
                b = btable[k]
                acc += mpf(b.numerator) / mpf(b.denominator) * P
            # odd k >= 3: B_k = 0, nothing to add
        return +acc
