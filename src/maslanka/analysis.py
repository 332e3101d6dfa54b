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

The rh_diagnostic columns are formed in Python integers from the table's raw
tuples, by integer square roots and a sieved table of logarithms (Brent &
Zimmermann, Modern Computer Arithmetic, 2010, sections 1.5 and 4.2-4.4), so
``maslanka bk`` never imports mpmath.  decay_fit and rh_diagnostic's mpf
values import mpmath when they run; importing this module does not.
"""

from __future__ import annotations

import math
from math import isqrt

from .bernoulli import _atan_inv
from .coefficients import CoefficientTable
from .mpnum import Record, _least_prime_factors, _raw, _to_mp

__all__ = ["DecayFit", "decay_fit", "rh_diagnostic"]

# bits past the output precision of rh_diagnostic's first bounds on a column
_GUARD_BITS = 48


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
    from mpmath import mpf

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
    import mpmath

    if not 2 <= k_min < k_max <= table.k_max:
        raise ValueError("need 2 <= k_min < k_max <= table.k_max")
    xs: list[float] = []
    ys: list[float] = []
    excluded = 0
    with mpmath.mp.workprec(53):  # the fit is in floats, whatever the caller's precision
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


def _log_table(n: int, m: int) -> tuple[list[int], list[int]]:
    """(L, E) with L[i] <= log(i) 2^m <= L[i] + E[i] for 1 <= i <= n.

    One least-prime-factor sieve (mpnum._least_prime_factors, which also
    builds the powers n^-s of ``series.zeta_reference``): log(ab) = log a +
    log b, and for a prime p, log p = log(p - 1) + 2 atanh(1/(2p - 1)) (log 2
    from log 1 = 0).
    E[i] is built by the same recurrence from the one-sided bounds of the
    atanh series (bernoulli._atan_inv), so it holds by induction on i.
    """
    spf = _least_prime_factors(n)
    L = [0] * (n + 1)
    E = [0] * (n + 1)
    for i in range(2, n + 1):
        f = spf[i]
        if f == i:
            a, e = _atan_inv(2 * i - 1, m, hyperbolic=True)
            L[i], E[i] = L[i - 1] + 2 * a, E[i - 1] + 2 * e
        else:
            L[i], E[i] = L[f] + L[i // f], E[f] + E[i // f]
    return L, E


def _rh_rows(table: CoefficientTable, k_min: int, k_max: int) -> list[tuple]:
    """rh_diagnostic's rows with the two columns as raw tuples."""
    if table.kind != "b":
        raise ValueError("rh_diagnostic needs a kind=b table")
    if not 1 <= k_min <= k_max <= table.k_max:
        raise ValueError("need 1 <= k_min <= k_max <= table.k_max")
    p = max(table.target_bits, 64)
    logs = {}

    def column(k: int, man: int, exp: int, with_log: bool) -> tuple:
        """Column 2, or with_log column 3, of row k rounded to p bits."""
        m = p + _GUARD_BITS
        while True:
            k3 = k ** 3 << 4 * m
            root = isqrt(isqrt(k3))
            lo, hi, e = man * root, man * (root + (root ** 4 != k3)), exp - m
            if with_log:
                if m not in logs:
                    logs[m] = _log_table(k_max, m)
                L, E = logs[m]
                lo, hi, e = lo * L[k] ** 2, hi * (L[k] + E[k]) ** 2, e - 2 * m
            raw = _raw(lo, e, p)
            if raw == _raw(hi, e, p):
                return raw
            m *= 2

    return [(k, column(k, man, exp, False), column(k, man, exp, True))
            for k, (_, man, exp, _) in enumerate(table.raw[k_min:k_max + 1], k_min)]


def rh_diagnostic(table: CoefficientTable, k_min: int, k_max: int) -> list[tuple]:
    """Rows (k, |b_k| k^(3/4), |b_k| k^(3/4) log^2 k) for k_min..k_max, as mpf.

    The second column is the quantity whose boundedness/decay is the Riemann
    hypothesis criterion; the third is the companion with the conjectured
    log^(-2) factor compensated, emitted so a reader can judge both scalings.
    No points are excluded here: this is plot data, not a fit.

    Both columns are correctly rounded to p = max(target_bits, 64) bits, to
    nearest with ties to even, from the entry |b_k| = man 2^exp.  With
    m = p + _GUARD_BITS, r = isqrt(isqrt(k^3 2^4m)) = floor(k^(3/4) 2^m)
    exactly, so r <= k^(3/4) 2^m <= r + 1, with r + 1 taken as r when
    r^4 = k^3 2^4m (k a fourth power, where k^(3/4) is an integer and the
    product can sit on a tie).  _log_table gives L <= log(k) 2^m <= L + E.
    So man r 2^(exp-m) and man r L^2 2^(exp-3m) are lower bounds of the two
    columns, and the same with r + 1 and L + E are upper bounds.  Where both
    ends of a column round alike, the column rounds to that value; else m
    doubles and the bounds close on the column.  Each column is exact
    (k^(3/4) of a fourth power; the zero at k = 1, where L = E = 0) or
    irrational (k^(3/4) of any other k; log k is transcendental for k >= 2).
    An exact column has equal ends; an irrational one is no tie, so its ends
    round alike once they are close enough, and the loop ends.  The rows are
    _rh_rows's raw tuples as mpf.
    """
    return [(k, _to_mp(scaled), _to_mp(scaled_log2))
            for k, scaled, scaled_log2 in _rh_rows(table, k_min, k_max)]
