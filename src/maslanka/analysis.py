"""Empirical decay diagnostics for coefficient tables.

The decay claims this package probes are asymptotic (A_k falls faster than
any power of k; b_k roughly like k^(-3/4) up to log factors), so nothing here
*asserts* an asymptotic law: decay_fit reports a power-law slope as a
diagnostic, and rh_diagnostic emits the scaled b_k sequence for plotting.  The
slope comes from an ordinary least-squares line in plain float arithmetic,
with every sum a math.fsum over centred points.

Two exclusion rules keep log|c_k| fits honest near the sign changes of c_k
(where |c_k| dips towards zero and the log spikes down) and near precision
exhaustion (where the stored value is mostly rounding noise).  Excluded points
are counted, never silently dropped.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

from .coefficients import CoefficientTable
from .mpnum import Record

__all__ = ["DecayFit", "decay_fit", "rh_diagnostic"]


class DecayFit(Record):
    __slots__ = ("k_range", "slope", "intercept", "max_abs_residual", "excluded_count")
    k_range: tuple[int, int]
    slope: float
    intercept: float
    max_abs_residual: float
    excluded_count: int


def _median(values):
    """The median by sort and index: the middle value, or the mean of the middle two."""
    xs = sorted(values)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def _usable(table: CoefficientTable, k: int) -> bool:
    v = abs(table.values[k])
    if v == 0:
        return False
    # precision floor: stored error bound above 10% of the magnitude
    if table.error_bound(k) > v / 10:
        return False
    lo = max(0, k - 2)
    hi = min(table.k_max, k + 2)
    med = _median(abs(table.values[i]) for i in range(lo, hi + 1))
    # sign-change spike: the magnitude dips orders below its neighbourhood
    if v < med * mpf("1e-3"):
        return False
    return True


def decay_fit(table: CoefficientTable, k_min: int, k_max: int) -> DecayFit:
    """Ordinary least squares of log|c_k| against log k over usable points."""
    if not 2 <= k_min < k_max <= table.k_max:
        raise ValueError("need 2 <= k_min < k_max <= table.k_max")
    xs: list[float] = []
    ys: list[float] = []
    excluded = 0
    with mp.workprec(53):  # the fit is in floats, whatever the caller's precision
        for k in range(k_min, k_max + 1):
            if not _usable(table, k):
                excluded += 1
                continue
            xs.append(math.log(k))
            ys.append(float(mpmath.log(abs(table.values[k]))))
    if len(xs) < 10:
        raise ValueError(f"insufficient usable points ({len(xs)} < 10)")
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    slope = (math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys))
             / math.fsum(dx * dx for dx in dxs))
    intercept = y_mean - slope * x_mean
    return DecayFit(
        k_range=(k_min, k_max),
        slope=slope,
        intercept=intercept,
        max_abs_residual=max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys)),
        excluded_count=excluded,
    )


def rh_diagnostic(table: CoefficientTable, k_min: int, k_max: int) -> list[tuple[int, mpf, mpf]]:
    """Rows (k, |b_k| k^(3/4), |b_k| k^(3/4) log^2 k) for k_min..k_max.

    The second column is the quantity whose boundedness/decay is the Riemann
    hypothesis criterion; the third is the companion with the conjectured
    log^(-2) factor compensated, emitted so a reader can judge both scalings.
    No points are excluded here: this is plot data, not a fit.

    Both columns are formed at p + 40 bits, p = max(target_bits, 64), and
    rounded once to p.  The power, the logarithm and the products each err
    by at most an ulp at p + 40 bits, so the one rounding is correct unless
    the value lies within about 2^-36 ulp of a tie at p.
    """
    if table.kind != "b":
        raise ValueError("rh_diagnostic needs a kind=b table")
    if not 1 <= k_min <= k_max <= table.k_max:
        raise ValueError("need 1 <= k_min <= k_max <= table.k_max")
    p = max(table.target_bits, 64)
    wide = []
    with mp.workprec(p + 40):
        three_quarters = mpf("0.75")
        for k in range(k_min, k_max + 1):
            scaled = abs(table.values[k]) * mpf(k) ** three_quarters
            wide.append((k, scaled, scaled * mpmath.log(k) ** 2))
    with mp.workprec(p):
        return [(k, +scaled, +scaled_log2) for k, scaled, scaled_log2 in wide]
