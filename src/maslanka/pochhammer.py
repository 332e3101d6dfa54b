"""Pochhammer polynomials P_k(s) = prod_{r=1}^{k} (1 - s/r), with P_0 = 1.

One incremental sweep yields P_0(z), P_1(z), ... by P_k = P_{k-1} (1 - z/k) in
mpmath arithmetic.  (The Maslanka series and its truncation identities run
their own fixed-point integer sweep, in :mod:`maslanka.series`.)  On top of
it: the list of the first values (exact at the integer truncation points
P_k(m) = 0 for integer 1 <= m <= k), and a bound probe measuring
sup_k |P_k(s)| k^Re(s).  The Gamma-ratio form
P_k(s) = Gamma(k+1-s) / (k! Gamma(1-s)) is the independent cross-check.
"""

from __future__ import annotations

from itertools import count, islice

import mpmath
from mpmath import mp, mpf

from .mpnum import PoleError, PrecisionContext

__all__ = [
    "pochhammer_bound_probe",
    "pochhammer_gamma",
    "pochhammer_sweep",
    "pochhammer_values",
]


def pochhammer_sweep(z):
    """Yield P_0(z), P_1(z), ... without end, each at the ambient precision.

    z must already be an mpmath number; each step costs one division, one
    subtraction and one multiplication, rounded at the precision in force when
    the value is drawn.
    """
    P = mp.one
    yield P
    for k in count(1):
        P = P * (1 - z / k)
        yield P


def pochhammer_values(s, k_max: int, ctx: PrecisionContext) -> list:
    """[P_0(s), ..., P_k_max(s)] filled incrementally, O(1) per additional k.

    Returns mpf for real s, mpc for complex s.  When s is a real integer with
    1 <= s <= k the factor (1 - s/s) is exactly zero and so is P_k(s).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    with ctx.prec():
        return list(islice(pochhammer_sweep(mpmath.mpmathify(s)), k_max + 1))


def pochhammer_gamma(k: int, s, ctx: PrecisionContext):
    """P_k(s) via exp(log Gamma(k+1-s) - log Gamma(k+1) - log Gamma(1-s)).

    The ratio of three huge Gamma values is formed by subtracting principal
    log-Gammas and exponentiating once, which never overflows.  Raises
    PoleError when 1-s or k+1-s is a non-positive integer; at those s callers
    use pochhammer_values, which needs no pole bookkeeping.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with ctx.prec():
        z = mpmath.mpmathify(s)
        try:
            d = mpmath.loggamma(k + 1 - z) - mpmath.loggamma(mpf(k + 1)) - mpmath.loggamma(1 - z)
        except ValueError as exc:
            raise PoleError(f"log-gamma pole at s = {s}") from exc
        return +mpmath.exp(d)


def pochhammer_bound_probe(s, k_max: int, ctx: PrecisionContext) -> mpf:
    """sup over 1 <= k <= k_max of |P_k(s)| * k**Re(s), by incremental sweep."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    with ctx.prec():
        z = mpmath.mpmathify(s)
        sigma = mp.re(z)
        sweep = islice(pochhammer_sweep(z), 1, k_max + 1)
        return +max(abs(P) * mpf(k) ** sigma for k, P in enumerate(sweep, 1))
