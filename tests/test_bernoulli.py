import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from maslanka import bernoulli
from maslanka.bernoulli import (
    bernoulli_number,
    periodified_sup_bound,
    zeta_even,
)
from maslanka.coefficients import a_k_alt, build_table, cross_identity_pairs
from maslanka.mpnum import PrecisionContext
from maslanka.phik import build_paj, em_remainder_a_k
from maslanka.series import truncation_check, zeta_reference


def bernoulli_poly_coeffs(a: int) -> tuple[Fraction, ...]:
    """B_a(x) = sum_i C(a, i) B_i x^(a-i), exact coefficients, highest power first."""
    return tuple(math.comb(a, i) * bernoulli_number(i) for i in range(a + 1))


def periodified_bernoulli(a: int, x) -> mpf:
    """B_a({x}) by Horner over bernoulli_poly_coeffs at the ambient precision."""
    xf = mpf(x)
    t = xf - mpmath.floor(xf)
    acc = mp.zero
    for c in bernoulli_poly_coeffs(a):
        acc = acc * t + mpf(c.numerator) / c.denominator
    return acc


def _exact_periodified_bernoulli(a: int, x: Fraction) -> Fraction:
    """B_a({x}) exactly, by Horner over bernoulli_poly_coeffs in Fractions:
    the oracle of the checks on the exact sup bound."""
    t = x - math.floor(x)
    acc = Fraction(0)
    for c in bernoulli_poly_coeffs(a):
        acc = acc * t + c
    return acc


def _recurrence_table(n_max: int) -> list[Fraction]:
    """Exact B_0 .. B_n_max by the defining recurrence, the oracle for
    bernoulli_number: for n >= 1, sum_{j=0}^{n} C(n+1, j) B_j = 0, so
    B_n = -(1/(n+1)) * sum_{j<n} C(n+1, j) B_j."""
    vals = [Fraction(1)]
    for n in range(1, n_max + 1):
        vals.append(Fraction(-sum(math.comb(n + 1, j) * vals[j] for j in range(n)), n + 1))
    return vals


class TestBernoulliTable:
    def test_first_values(self):
        t = _recurrence_table(12)
        assert [bernoulli_number(n) for n in range(13)] == t
        assert t[0] == 1
        assert t[1] == Fraction(-1, 2)
        assert t[2] == Fraction(1, 6)
        assert t[3] == 0
        assert t[4] == Fraction(-1, 30)
        assert t[12] == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for n in range(3, 34, 2):
            assert bernoulli_number(n) == 0

    def test_even_signs_alternate(self):
        for n in range(1, 20):
            assert (bernoulli_number(2 * n) > 0) == (n % 2 == 1)

    def test_matches_bernfrac_backend(self):
        # the tangent-number table against the defining recurrence, exactly
        t = _recurrence_table(130)
        for n in range(131):
            assert t[n] == bernoulli_number(n)

    @pytest.mark.parametrize("order", [range(402, -1, -1), range(403)], ids=["high-first", "low-first"])
    def test_table_matches_bernfrac(self, order, empty_bernoulli_table):
        # every growth path gives mpmath's zeta-based fractions: one extension
        # straight to B_402, or one column at a time from an empty table
        for n in order:
            p, q = mpmath.bernfrac(n)
            assert bernoulli_number(n) == Fraction(int(p), int(q))

    def test_consumers_never_call_bernfrac(self, monkeypatch, empty_bernoulli_table):
        # the coefficient rows, the reference zeta and the Euler-Maclaurin
        # boundary terms all read the table, even from an empty one
        def bernfrac(n):
            raise AssertionError(f"mpmath.bernfrac({n}) called")

        monkeypatch.setattr(mpmath, "bernfrac", bernfrac)
        ctx = PrecisionContext(128)
        assert len(list(cross_identity_pairs(100, ctx))) == 100
        assert build_table("A", 400, ctx).k_max == 400
        assert abs(zeta_reference(mpmath.mpc("0.5", "14.134725"), ctx)) < mpf("1e-6")
        assert zeta_reference(mpf("-2.5"), ctx) != 0
        assert em_remainder_a_k(12, 3, build_paj(8), PrecisionContext(64), mpf("1e-9")) != 0

    def test_consumers_never_read_mpmaths_pi(self, monkeypatch):
        # pi^2 and zeta(2j) have one route, bernoulli's integer walk: no
        # consumer of zeta(2j) or of the coefficient rows reads mpmath's pi
        class Unread:
            def fail(self, *args):
                raise AssertionError("mpmath's pi read")

            _mpf_ = property(fail)
            __pos__ = __neg__ = __abs__ = __float__ = fail
            __add__ = __radd__ = __sub__ = __rsub__ = fail
            __mul__ = __rmul__ = __truediv__ = __rtruediv__ = __pow__ = __rpow__ = fail

        monkeypatch.setattr(mpmath.mp, "pi", Unread())
        monkeypatch.setattr(mpmath, "pi", Unread())
        ctx = PrecisionContext(128)
        assert zeta_even(40, ctx) > 1
        table = build_table("A", 60, ctx)
        lhs, rhs = truncation_check(20, table, ctx)
        assert abs(lhs - rhs) < abs(rhs) * mpf(2) ** -100
        assert build_table("b", 60, ctx).k_max == 60
        assert a_k_alt(30, ctx) != 0
        assert len(list(cross_identity_pairs(30, ctx))) == 30

    def test_table_grows_in_place(self, empty_bernoulli_table):
        # a cold request builds to exactly its index, and growth appends to
        # the table: the entries made before are kept as the same objects
        bernoulli_number(200)
        assert len(bernoulli._EVEN) == 101
        before = list(bernoulli._EVEN)
        bernoulli_number(402)
        assert len(bernoulli._EVEN) == 202
        assert all(x is y for x, y in zip(before, bernoulli._EVEN))
        for n in range(0, 403, 2):
            p, q = mpmath.bernfrac(n)
            assert bernoulli._EVEN[n // 2] == Fraction(int(p), int(q))

    def test_interrupted_extension_resumes(self, empty_bernoulli_table):
        # a column bound but its B_2k not yet appended, the state an interrupt
        # between the two leaves: the next request appends B_2k from it
        bernoulli_number(12)
        del bernoulli._EVEN[-1]
        for n in range(0, 41, 2):
            p, q = mpmath.bernfrac(n)
            assert bernoulli_number(n) == Fraction(int(p), int(q))

    def test_large_index_is_cheap(self):
        b = bernoulli_number(400)
        assert b.denominator > 1
        # von Staudt-Clausen: denominator is the product of primes p with (p-1) | 400
        assert b.denominator % 6 == 0


class TestZetaEven:
    @pytest.mark.parametrize(
        "m,text",
        [
            (2, "1.644934066848226436472"),
            (4, "1.082323233711138191516"),
            (6, "1.017343061984449139714"),
        ],
    )
    def test_known_values(self, m, text, ctx128):
        with mp.workprec(160):
            diff = abs(zeta_even(m, ctx128) - mpf(text))
        assert diff < mpf("1e-20")

    def test_matches_pi_squared_over_six_exactly(self, ctx128):
        # pi^2/6 far past working_bits, then rounded once to it
        with mp.workprec(2 * ctx128.working_bits + 64):
            exact = mp.pi ** 2 / 6
        with mp.workprec(ctx128.working_bits):
            want = +exact
        assert zeta_even(2, ctx128) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 200), st.integers(16, 512))
    def test_within_the_stated_bound(self, half_m, target_bits):
        # |zeta_even(m) - zeta(m)| <= 2^-wp (1 + 2^-32) zeta(m), wp = working_bits
        ctx = PrecisionContext(target_bits)
        wp = ctx.working_bits
        v = zeta_even(2 * half_m, ctx)
        with mp.workprec(2 * wp + 64):
            want = mpmath.zeta(2 * half_m)
            assert abs(v - want) <= mpmath.ldexp(want, -wp) * (1 + mpf(2) ** -32)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_against_partial_sums_with_tail_bound(self, m, ctx128):
        # sum_{n<=N} n^-m lies within the integral tail bound N^(1-m)/(m-1)
        N = 10_000
        with mp.workprec(200):
            partial = sum(mpf(n) ** -m for n in range(1, N + 1))
            upper = partial + mpf(N) ** (1 - m) / (m - 1)
        v = zeta_even(m, ctx128)
        assert partial < v < upper

    def test_against_independent_zeta(self, ctx128):
        for m in (2, 10, 60, 200):
            with mp.workprec(200):
                want = mpmath.zeta(m)
            rel = abs(zeta_even(m, ctx128) - want) / want
            assert rel < mpf(2) ** -124

    @pytest.mark.parametrize("m", [0, 1, 3, -2])
    def test_rejects_bad_m(self, m, ctx128):
        with pytest.raises(ValueError):
            zeta_even(m, ctx128)


class TestPeriodifiedBernoulli:
    def test_linear_case(self):
        with mp.workprec(64):
            assert periodified_bernoulli(1, mpf("0.25")) == mpf("-0.25")

    def test_quadratic_at_zero(self):
        with mp.workprec(96):
            v = periodified_bernoulli(2, mpf(0))
            diff = abs(v - mpf(1) / 6)
        assert diff < mpf(2) ** -90

    def test_quadratic_at_half_integer(self):
        # B_2(1/2) = 1/4 - 1/2 + 1/6 = -1/12
        with mp.workprec(96):
            v = periodified_bernoulli(2, mpf("3.5"))
            diff = abs(v + mpf(1) / 12)
        assert diff < mpf(2) ** -90

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 2 ** 20 - 1),
        st.integers(0, 8),
    )
    def test_periodicity(self, a, frac_num, shift):
        # x and x+shift with an exactly representable fractional part
        with mp.workprec(96):
            x = mpf(frac_num) / 2 ** 20
            assert periodified_bernoulli(a, x) == periodified_bernoulli(a, x + shift)

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_mean_zero_over_period(self, a):
        with mp.workprec(128):
            integral = mpmath.quad(lambda t: periodified_bernoulli(a, t), [0, 1])
            assert abs(integral) < mpf("1e-30")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)
        with pytest.raises(ValueError):
            periodified_sup_bound(0)


class TestPolyCoeffs:
    """bernoulli_poly_coeffs, the oracle of the B_a({x}) checks in this module."""

    def test_degree_two(self):
        # B_2(x) = x^2 - x + 1/6
        assert bernoulli_poly_coeffs(2) == (Fraction(1), Fraction(-1), Fraction(1, 6))

    def test_degree_four_constant_term(self):
        assert bernoulli_poly_coeffs(4)[-1] == Fraction(-1, 30)

    def test_matches_the_recurrence(self):
        # B_a(x) = sum_i C(a, i) B_i x^(a-i), with B_i from the recurrence
        t = _recurrence_table(40)
        for a in range(41):
            assert bernoulli_poly_coeffs(a) == tuple(math.comb(a, i) * t[i] for i in range(a + 1))


class TestSupBound:
    """periodified_sup_bound is an exact Fraction.  The sampled sup is exact
    too: at 96 bits an mpf sample, converted exactly, already rounds above
    |B_a| at the integers (by 1e-30 at a = 2), where the even bound is
    attained."""

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6, 7])
    def test_bounds_sampled_values(self, a):
        bound = periodified_sup_bound(a)
        assert type(bound) is Fraction
        worst = max(abs(_exact_periodified_bernoulli(a, Fraction(i, 257))) for i in range(257))
        assert worst <= bound

    def test_even_case_is_attained_at_integers(self):
        for a in range(2, 62, 2):
            assert periodified_sup_bound(a) == abs(bernoulli_number(a))
            assert periodified_sup_bound(a) == abs(_exact_periodified_bernoulli(a, Fraction(0)))

    @pytest.mark.parametrize("a", range(3, 62, 2))
    def test_odd_case_within_2_to_minus_20_of_fourier(self, a):
        # F = 2 zeta(a) a! / (2 pi)^a at 128 bits, twice the bound's fixed point
        with mp.workprec(128):
            f = 2 * mpmath.zeta(a) * mpf(math.factorial(a)) / (2 * mp.pi) ** a
        f = Fraction(*to_rational(f._mpf_))
        assert f <= periodified_sup_bound(a) <= f * (1 + Fraction(1, 2**20))
