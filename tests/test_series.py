import mpmath
import pytest
from mpmath import mp, mpc, mpf

from maslanka.bernoulli import bernoulli_table, zeta_even
from maslanka.coefficients import build_table
from maslanka.mpnum import PoleError, PrecisionContext
from maslanka.series import (
    bernoulli_rep_partial,
    maslanka_eval,
    truncation_check,
    zeta_reference,
)


@pytest.fixture(scope="module")
def btable40():
    return bernoulli_table(40)


class TestMaslankaEval:
    def test_s2_truncates_at_first_term(self, table_a400_128, ctx128):
        res = maslanka_eval(2, table_a400_128, mpf("1e-6"), ctx128)
        assert res.value == table_a400_128[0]
        assert res.terms_used == 2  # the k=1 term is exactly zero
        assert res.converged
        assert not res.is_pole
        with mp.workprec(200):
            rel = abs(res.zeta_value - zeta_even(2, ctx128)) / zeta_even(2, ctx128)
        assert rel < mpf(2) ** -124

    def test_s4_two_terms(self, table_a400_128, ctx128):
        res = maslanka_eval(4, table_a400_128, mpf("1e-6"), ctx128)
        with mp.workprec(200):
            diff = abs(res.value - mpf("3.2469697011334145745"))
        assert diff < mpf("1e-18")
        assert res.terms_used == 3

    def test_s0_coefficients_sum_to_half(self, table_a400_128, ctx128):
        res = maslanka_eval(0, table_a400_128, mpf("1e-6"), ctx128)
        assert res.converged
        assert abs(res.value - mpf("0.5")) < mpf("1e-6")
        assert abs(res.zeta_value + mpf("0.5")) < mpf("1e-6")
        assert 100 < res.terms_used <= 401

    def test_pole_at_one(self, table_a400_128, ctx128):
        res = maslanka_eval(1, table_a400_128, mpf("1e-8"), ctx128)
        assert res.is_pole
        assert res.zeta_value is None
        assert abs(res.value - 1) < mpf("1e-7")

    @pytest.mark.parametrize("s,tol", [(-2, "1e-6"), (-4, "1e-5")])
    def test_trivial_zeros(self, s, tol, table_a900_128, ctx128):
        # P_k(s/2) grows like k^|s|/2 here, which pushes the stopping index
        # into the hundreds; at s=-4 a 900-entry table converges at 1e-5
        res = maslanka_eval(s, table_a900_128, mpf(tol), ctx128)
        assert res.converged
        assert abs(res.value) < mpf(tol)

    @pytest.mark.parametrize(
        "s,tol",
        [
            (mpf(3), "1e-8"),
            (mpf(-1), "1e-6"),
            (mpc(5, 10), "1e-6"),
            (mpc("0.5", "5"), "1e-6"),
        ],
    )
    def test_agrees_with_reference_zeta(self, s, tol, table_a400_128, ctx128):
        res = maslanka_eval(s, table_a400_128, mpf(tol), ctx128)
        assert res.converged
        with mp.workprec(200):
            gap = abs(res.zeta_value - zeta_reference(s, ctx128))
        assert gap < 10 * mpf(tol)

    def test_agrees_left_of_the_strip(self, table_a900_128, ctx128):
        res = maslanka_eval(mpf("-2.5"), table_a900_128, mpf("1e-6"), ctx128)
        assert res.converged
        with mp.workprec(200):
            gap = abs(res.zeta_value - zeta_reference(mpf("-2.5"), ctx128))
        assert gap < mpf("1e-5")

    def test_exhaustion_is_flagged_not_hidden(self, table_a400_128, ctx128):
        # at the first nontrivial zero the terms still sit above 1e-6/4 when
        # the 400-entry table runs out
        res = maslanka_eval(mpc("0.5", "14.134725"), table_a400_128, mpf("1e-6"), ctx128)
        assert not res.converged
        assert res.terms_used == table_a400_128.k_max + 1
        assert res.residual_estimate > 0

    def test_converged_residual_below_tol(self, table_a400_128, ctx128):
        res = maslanka_eval(0, table_a400_128, mpf("1e-6"), ctx128)
        assert res.residual_estimate < mpf("1e-6")

    def test_rejects_b_table(self, ctx64):
        btab = build_table("b", 2, ctx64)
        with pytest.raises(ValueError):
            maslanka_eval(2, btab, mpf("1e-6"), ctx64)

    def test_rejects_tol_below_table_resolution(self, table_a400_128, ctx128):
        with pytest.raises(ValueError):
            maslanka_eval(2, table_a400_128, mpf(2) ** -124, ctx128)


class TestZetaReference:
    @pytest.mark.parametrize(
        "s",
        [
            mpf(2),
            mpf(3),
            mpf("0.5"),
            mpf(-1),
            mpf("-2.5"),
            mpf(-11),
            mpc("0.5", "14.134725"),
            mpc(5, 10),
            mpc("0.5", 50),
            mpc(-3, 7),
        ],
    )
    def test_against_mpmath_zeta(self, s, ctx128):
        got = zeta_reference(s, ctx128)
        with mp.workprec(220):
            want = mpmath.zeta(s)
            rel = abs(got - want) / abs(want)
        assert rel < mpf(2) ** -120

    def test_zeta_zero_value(self, ctx128):
        with mp.workprec(200):
            assert abs(zeta_reference(0, ctx128) + mpf("0.5")) < mpf(2) ** -120

    def test_minus_one_is_minus_twelfth(self, ctx128):
        with mp.workprec(200):
            assert abs(zeta_reference(-1, ctx128) + mpf(1) / 12) < mpf(2) ** -120

    def test_trivial_zero(self, ctx128):
        assert abs(zeta_reference(-2, ctx128)) < mpf(2) ** -120

    def test_matches_even_zeta_machinery(self, ctx128):
        with mp.workprec(200):
            rel = abs(zeta_reference(2, ctx128) - zeta_even(2, ctx128)) / zeta_even(2, ctx128)
        assert rel < mpf(2) ** -120

    def test_pole(self, ctx128):
        with pytest.raises(PoleError):
            zeta_reference(1, ctx128)


class TestTruncationCheck:
    def test_n1(self, table_a400_128, ctx128):
        lhs, rhs = truncation_check(1, table_a400_128, ctx128)
        assert lhs == table_a400_128[0]
        with mp.workprec(200):
            rel = abs(lhs - rhs) / rhs
        assert rel < mpf(2) ** -124

    def test_n2_frozen_value(self, table_a400_128, ctx128):
        lhs, rhs = truncation_check(2, table_a400_128, ctx128)
        with mp.workprec(200):
            assert abs(lhs - mpf("3.2469697011334145745")) < mpf("1e-18")
            assert abs(lhs - rhs) < mpf("1e-30")

    @pytest.mark.parametrize("n", list(range(1, 21)))
    def test_sweep(self, n, table_a400_128, ctx128):
        lhs, rhs = truncation_check(n, table_a400_128, ctx128)
        with mp.workprec(200):
            rel = abs(lhs - rhs) / abs(rhs)
        assert rel < mpf(2) ** -120

    def test_preconditions(self, table_a400_128, ctx128, ctx64):
        with pytest.raises(ValueError):
            truncation_check(0, table_a400_128, ctx128)
        short = build_table("A", 2, ctx64)
        with pytest.raises(ValueError):
            truncation_check(5, short, ctx64)
        btab = build_table("b", 5, ctx64)
        with pytest.raises(ValueError):
            truncation_check(2, btab, ctx64)


class TestBernoulliRepresentation:
    def test_s1_truncates_to_one(self, btable40, ctx64):
        for K in (0, 5, 20):
            assert bernoulli_rep_partial(1, K, btable40, ctx64) == 1

    def test_s0_is_half(self, btable40, ctx64):
        assert bernoulli_rep_partial(0, 1, btable40, ctx64) == mpf("0.5")
        assert bernoulli_rep_partial(0, 8, btable40, ctx64) == mpf("0.5")

    def test_s_minus_one(self, btable40, ctx64):
        # (-2) zeta(-1) = 1/6
        with mp.workprec(96):
            v = bernoulli_rep_partial(-1, 2, btable40, ctx64)
            assert abs(v - mpf(1) / 6) < mpf(2) ** -90

    def test_s_minus_three(self, btable40, ctx64):
        # (-4) zeta(-3) = -1/30
        with mp.workprec(96):
            v = bernoulli_rep_partial(-3, 4, btable40, ctx64)
            assert abs(v + mpf(1) / 30) < mpf(2) ** -90

    def test_truncation_makes_longer_sums_identical(self, btable40, ctx64):
        assert bernoulli_rep_partial(-3, 4, btable40, ctx64) == bernoulli_rep_partial(
            -3, 30, btable40, ctx64
        )

    def test_divergence_at_s3(self, btable40, ctx64):
        # |c_K P_K(-1)| grows for even K >= 8: the representation earns its
        # "divergent" label through increasing doubling gaps
        gaps = []
        for K in range(8, 31, 2):
            with mp.workprec(96):
                gap = abs(
                    bernoulli_rep_partial(3, K, btable40, ctx64)
                    - bernoulli_rep_partial(3, K - 2, btable40, ctx64)
                )
            gaps.append(gap)
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_preconditions(self, btable40, ctx64):
        with pytest.raises(ValueError):
            bernoulli_rep_partial(0, -1, btable40, ctx64)
        with pytest.raises(ValueError):
            bernoulli_rep_partial(0, 60, btable40, ctx64)
