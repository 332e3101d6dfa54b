import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from maslanka.mpnum import (
    PoleError,
    PrecisionContext,
    as_real,
    ln_gamma,
    pi,
    required_bits_for_alternating_sum,
)


class TestRequiredBits:
    def test_base_case(self):
        assert required_bits_for_alternating_sum(0, 64) == 64 + 0 + 1 + 32

    def test_k_100(self):
        assert required_bits_for_alternating_sum(100, 128) == 128 + 100 + 7 + 32

    @given(st.integers(0, 5000), st.integers(1, 4096))
    def test_exceeds_inputs(self, k, t):
        w = required_bits_for_alternating_sum(k, t)
        assert w >= t + k + 32

    @given(st.integers(0, 2000), st.integers(0, 50), st.integers(16, 1024), st.integers(0, 200))
    def test_monotone(self, k, dk, t, dt):
        assert required_bits_for_alternating_sum(k + dk, t) >= required_bits_for_alternating_sum(k, t)
        assert required_bits_for_alternating_sum(k, t + dt) >= required_bits_for_alternating_sum(k, t)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            required_bits_for_alternating_sum(-1, 64)


class TestPrecisionContext:
    def test_default_working_bits(self):
        ctx = PrecisionContext(100)
        assert ctx.working_bits == 132
        assert ctx.target_bits == 100

    def test_explicit_working_bits(self):
        ctx = PrecisionContext(64, 300)
        assert ctx.working_bits == 300

    def test_rejects_working_below_target(self):
        with pytest.raises(ValueError):
            PrecisionContext(128, 64)

    def test_rejects_tiny_target(self):
        with pytest.raises(ValueError):
            PrecisionContext(8)

    def test_escalated(self):
        ctx = PrecisionContext(128)
        e = ctx.escalated(100)
        assert e.target_bits == 128
        assert e.working_bits == required_bits_for_alternating_sum(100, 128)

    def test_prec_context_manager(self):
        ctx = PrecisionContext(64, 777)
        with ctx.prec():
            assert mp.prec == 777


class TestPi:
    def test_known_digits(self, ctx64):
        # 3.14159265358979323846... (first 21 digits)
        with mp.workprec(96):
            diff = abs(pi(ctx64) - mpf("3.14159265358979323846"))
        assert diff < mpf(2) ** -62

    def test_refinement_consistency(self):
        lo = pi(PrecisionContext(64))
        hi = pi(PrecisionContext(64, 128))
        assert abs(lo - hi) < mpf(2) ** -62

    def test_deterministic(self, ctx128):
        assert pi(ctx128) == pi(ctx128)


class TestLnGamma:
    def test_at_one(self, ctx128):
        assert ln_gamma(mpf(1), ctx128) == 0

    def test_at_half(self, ctx128):
        # log(sqrt(pi)) = 0.57236494292470008707...
        with mp.workprec(160):
            diff = abs(ln_gamma(mpf("0.5"), ctx128) - mpf("0.57236494292470008707"))
        assert diff < mpf("1e-19")

    def test_at_five(self, ctx128):
        with ctx128.prec():
            want = mpmath.log(24)
        assert abs(ln_gamma(mpf(5), ctx128) - want) < mpf(2) ** -120

    @pytest.mark.parametrize("z", [0, -1, -2, -7])
    def test_poles(self, z, ctx128):
        with pytest.raises(PoleError):
            ln_gamma(mpf(z), ctx128)

    def test_complex_value(self, ctx128):
        got = ln_gamma(mpmath.mpc(0.5, 3), ctx128)
        with mp.workprec(200):
            want = mpmath.loggamma(mpmath.mpc(0.5, 3))
        assert abs(got - want) < mpf(2) ** -120


def test_as_real_fraction_conversion(ctx128):
    from fractions import Fraction

    x = as_real(Fraction(1, 3), ctx128)
    with ctx128.prec():
        assert abs(x - mpf(1) / 3) < mpf(2) ** -158
