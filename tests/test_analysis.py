import math
import statistics

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from maslanka import analysis
from maslanka.analysis import DecayFit, _log_table, _median, decay_fit, rh_diagnostic
from maslanka.coefficients import CoefficientTable
from maslanka.mpnum import _raw


def _power_law_table(k_max: int = 100, p: int = 3) -> CoefficientTable:
    """Synthetic kind=A table with c_k = k^-p exactly (c_0 := 1)."""
    with mp.workprec(64):
        values = tuple(mpf(1) if k == 0 else +(mpf(k) ** -p) for k in range(k_max + 1))
    return CoefficientTable(
        kind="A",
        k_max=k_max,
        target_bits=64,
        raw=tuple(v._mpf_ for v in values),
        error_bound_exponents=(-300,) * (k_max + 1),
    )


@pytest.fixture(scope="module")
def cubic_table():
    return _power_law_table()


class TestDecayFitSynthetic:
    def test_exact_power_law(self, cubic_table):
        fit = decay_fit(cubic_table, 2, 100)
        assert isinstance(fit, DecayFit)
        assert fit.k_range == (2, 100)
        assert abs(fit.slope + 3) < 1e-10
        assert abs(fit.intercept) < 1e-10
        assert fit.max_abs_residual < 1e-10
        assert fit.excluded_count == 0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scale_equivariance(self, cubic_table, scale):
        with mp.workprec(64):
            scaled_values = tuple(+(v * mpf(scale)) for v in cubic_table.values)
        scaled = CoefficientTable(
            kind="A",
            k_max=cubic_table.k_max,
            target_bits=64,
            raw=tuple(v._mpf_ for v in scaled_values),
            error_bound_exponents=cubic_table.error_bound_exponents,
        )
        base = decay_fit(cubic_table, 2, 100)
        fit = decay_fit(scaled, 2, 100)
        assert abs(fit.slope - base.slope) < 1e-9
        assert abs(fit.intercept - base.intercept - math.log(scale)) < 1e-9

    def test_sign_change_spike_excluded_and_counted(self, cubic_table):
        values = list(cubic_table.values)
        with mp.workprec(64):
            values[50] = mpf("1e-40")  # a near-zero dip, as at a sign change
            values[60] = mpf(0)
        spiky = CoefficientTable(
            kind="A",
            k_max=cubic_table.k_max,
            target_bits=64,
            raw=tuple(v._mpf_ for v in values),
            error_bound_exponents=cubic_table.error_bound_exponents,
        )
        fit = decay_fit(spiky, 2, 100)
        assert fit.excluded_count == 2
        assert abs(fit.slope + 3) < 1e-8

    def test_precision_floor_exclusion(self, cubic_table):
        errs = list(cubic_table.error_bound_exponents)
        errs[70] = -10  # bound 2^-10 dwarfs |c_70| ~ 2.9e-6
        noisy = CoefficientTable(
            kind="A",
            k_max=cubic_table.k_max,
            target_bits=64,
            raw=cubic_table.raw,
            error_bound_exponents=tuple(errs),
        )
        fit = decay_fit(noisy, 2, 100)
        assert fit.excluded_count == 1

    def test_insufficient_points(self, cubic_table):
        with pytest.raises(ValueError, match="insufficient"):
            decay_fit(cubic_table, 2, 10)  # nine candidates only

    def test_range_validation(self, cubic_table):
        with pytest.raises(ValueError):
            decay_fit(cubic_table, 1, 50)
        with pytest.raises(ValueError):
            decay_fit(cubic_table, 30, 30)
        with pytest.raises(ValueError):
            decay_fit(cubic_table, 2, 101)


class TestDecayFitOnCoefficients:
    def test_a_slope_is_steep(self, table_a400_128):
        fit = decay_fit(table_a400_128, 50, 200)
        assert fit.slope < -4

    def test_a_decay_steepens(self, table_a400_128):
        low = decay_fit(table_a400_128, 50, 100)
        high = decay_fit(table_a400_128, 100, 200)
        assert high.slope < low.slope

    def test_b_slope_beats_criterion_exponent(self, table_b1000_160):
        # at desk scale the b_k sequence is dominated by a clean k^-2 term
        # (first trivial zeta zero); the -3/4 oscillation has far too small an
        # amplitude to surface below k ~ 10^3.  The criterion only needs decay
        # faster than k^(-3/4), which holds with lots of room.
        fit = decay_fit(table_b1000_160, 100, 1000)
        assert fit.slope < -0.75
        assert -2.2 < fit.slope
        assert fit.max_abs_residual < 0.1  # very close to a pure power law


def _reference_line(table: CoefficientTable, k_min: int, k_max: int):
    """The OLS line through the float points (log k, log|c_k|) at 60 digits.

    Returns (slope, intercept, max_abs_residual) and, for each, the magnitude
    of the operands it is formed from: the intercept and the residual are
    differences that cancel to rounding noise on an exact power law.
    """
    xs = [math.log(k) for k in range(k_min, k_max + 1)]
    ys = [float(mpmath.log(abs(table.values[k]))) for k in range(k_min, k_max + 1)]
    with mp.workdps(60):
        X, Y = [mpf(x) for x in xs], [mpf(y) for y in ys]
        x_mean, y_mean = mpmath.fsum(X) / len(X), mpmath.fsum(Y) / len(Y)
        slope = (mpmath.fsum((x - x_mean) * (y - y_mean) for x, y in zip(X, Y))
                 / mpmath.fsum((x - x_mean) ** 2 for x in X))
        intercept = y_mean - slope * x_mean
        resid = max(abs(y - (slope * x + intercept)) for x, y in zip(X, Y))
        scales = (abs(slope), abs(y_mean) + abs(slope * x_mean), max(abs(y) for y in Y))
    return (slope, intercept, resid), scales


class TestDecayFitReference:
    @pytest.mark.parametrize("which, k_min, k_max", [("a400", 50, 200), ("cubic", 2, 100)])
    def test_matches_60_digit_least_squares(self, which, k_min, k_max,
                                            table_a400_128, cubic_table):
        table = table_a400_128 if which == "a400" else cubic_table
        fit = decay_fit(table, k_min, k_max)
        assert fit.excluded_count == 0  # so the fit used exactly these points
        refs, scales = _reference_line(table, k_min, k_max)
        got = (fit.slope, fit.intercept, fit.max_abs_residual)
        for name, g, ref, scale in zip(("slope", "intercept", "residual"), got, refs, scales):
            assert abs(g - ref) <= 1e-13 * max(abs(ref), scale), (name, g, ref)


class TestRhDiagnostic:
    def test_row_count_and_first_row(self, table_b1000_160):
        rows = rh_diagnostic(table_b1000_160, 1, 50)
        assert len(rows) == 50
        k, scaled, with_log = rows[0]
        assert k == 1
        with mp.workprec(96):
            assert abs(scaled - mpf("0.31601130106756353836")) < mpf("1e-18")
        assert with_log == 0  # log(1)^2 = 0

    def test_companion_column_scaling(self, table_b1000_160):
        rows = rh_diagnostic(table_b1000_160, 10, 10)
        k, scaled, with_log = rows[0]
        with mp.workprec(200):
            import mpmath

            assert abs(with_log - scaled * mpmath.log(10) ** 2) < mpf("1e-40")

    def test_upper_envelope_decreases(self, table_b1000_160):
        rows = rh_diagnostic(table_b1000_160, 100, 1000)
        col = [r[1] for r in rows]
        thirds = [max(col[:300]), max(col[300:600]), max(col[600:])]
        assert thirds[0] > thirds[1] > thirds[2]

    def test_each_value_is_rounded_once(self, table_b1000_160):
        # against the same columns formed at 2p and rounded once to p: forming
        # them at p and rounding again misses in the last unit
        p = max(table_b1000_160.target_bits, 64)
        misses = []
        for k, scaled, scaled_log2 in rh_diagnostic(table_b1000_160, 1, table_b1000_160.k_max):
            with mp.workprec(2 * p):
                wide = abs(table_b1000_160.values[k]) * mpf(k) ** mpf("0.75")
                wide_log2 = wide * mpmath.log(k) ** 2
            with mp.workprec(p):
                if (scaled, scaled_log2) != (+wide, +wide_log2):
                    misses.append(k)
        assert misses == []

    def test_rejects_a_table(self, table_a400_128):
        with pytest.raises(ValueError):
            rh_diagnostic(table_a400_128, 1, 50)

    def test_range_validation(self, table_b1000_160):
        with pytest.raises(ValueError):
            rh_diagnostic(table_b1000_160, 0, 50)
        with pytest.raises(ValueError):
            rh_diagnostic(table_b1000_160, 5, 1001)


def _tie_man(k: int, p: int) -> int:
    """An odd man with man k^(3/4) of p + 1 bits, for a fourth power k: when
    k^(3/4) is odd, so is the product, and the one bit that rounding to p
    bits drops is exactly half an ulp, a tie."""
    cube = math.isqrt(math.isqrt(k)) ** 3
    return (1 << p) // cube + 1 | 1


class TestRhDiagnosticIntegers:
    """The integer route of rh_diagnostic against mpmath at higher precision."""

    @settings(max_examples=4, deadline=None)
    @given(st.integers(16, 320))
    @example(208)  # the scale b600@160 starts from
    def test_log_table_brackets_log(self, m):
        L, E = _log_table(2000, m)
        with mp.workprec(2 * m + 32):
            for n in range(1, 2001):
                y = mpmath.ldexp(mpmath.log(n), m)
                assert L[n] <= y <= L[n] + E[n], n

    @settings(max_examples=40, deadline=None)
    @given(target_bits=st.integers(16, 300), k=st.integers(1, 2000), data=st.data(),
           exp=st.integers(-400, 100), guard=st.sampled_from([-16, 0, 48]))
    @example(target_bits=64, k=16, data=None, exp=-70, guard=48)
    @example(target_bits=64, k=81, data=None, exp=-70, guard=48)
    @example(target_bits=200, k=625, data=None, exp=-250, guard=0)
    def test_columns_are_rounded_once(self, target_bits, k, data, exp, guard):
        # guards -16 and 0 start the bounds at or below p bits, where their two
        # ends often round apart and m doubles
        p = max(target_bits, 64)
        if data is None:
            man = _tie_man(k, p)  # k^(3/4) = 8 is a power of two at k = 16: exact
        else:
            man = data.draw(st.integers(1, (1 << p) - 1), label="man")
        raw = _raw(man, exp)
        table = CoefficientTable(kind="b", k_max=k, target_bits=target_bits, raw=(raw,) * (k + 1),
                                 error_bound_exponents=(0,) * (k + 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_GUARD_BITS", guard)
            [(_, scaled, scaled_log2)] = rh_diagnostic(table, k, k)
        with mp.workprec(2 * p + 64):
            wide = mp.make_mpf(raw) * mpmath.sqrt(mpmath.sqrt(mpf(k) ** 3))
            wide_log2 = wide * mpmath.log(k) ** 2
        with mp.workprec(p):
            assert (scaled, scaled_log2) == (+wide, +wide_log2)


class TestMedian:
    """analysis._median, the sort-and-index median, against statistics.median."""

    def test_windows_decay_fit_sees(self, table_a400_128):
        # |A_i| for i in [k-2, k+2] clipped to the table: five values inside,
        # four at k = k_max - 1, three at k = k_max
        lengths = set()
        for k in range(2, table_a400_128.k_max + 1):
            window = [abs(table_a400_128.values[i])
                      for i in range(max(0, k - 2), min(table_a400_128.k_max, k + 2) + 1)]
            lengths.add(len(window))
            assert _median(window) == statistics.median(window), k
        assert lengths == {3, 4, 5}

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
    def test_floats(self, xs):
        assert _median(xs) == statistics.median(xs)

    @given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=12), st.integers(0, 200))
    def test_mpf_at_working_precision(self, ints, shift):
        with mp.workprec(96):
            xs = [mpf(n) * mpf(2) ** -shift for n in ints]
            assert _median(xs) == statistics.median(xs)
            assert _median(iter(xs)) == statistics.median(iter(xs))
