import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpc, mpf

from maslanka.coefficients import CoefficientTable
from maslanka.mpnum import PoleError, PrecisionContext, _raw
from maslanka.pochhammer import _fixed_terms, _to_fixed, pochhammer_bound_probe, pochhammer_values


def pochhammer_gamma(k: int, s, ctx: PrecisionContext):
    """P_k(s) = Gamma(k+1-s) / (k! Gamma(1-s)), the independent oracle for the sweep.

    The ratio of three huge Gamma values is formed by subtracting principal
    log-Gammas and exponentiating once, which never overflows.  Raises
    PoleError when 1-s or k+1-s is a non-positive integer.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with mp.workprec(ctx.working_bits):
        z = mpmath.mpmathify(s)
        try:
            d = mpmath.loggamma(k + 1 - z) - mpmath.loggamma(mpf(k + 1)) - mpmath.loggamma(1 - z)
        except ValueError as exc:
            raise PoleError(f"log-gamma pole at s = {s}") from exc
        return +mpmath.exp(d)


class TestProduct:
    def test_empty_product(self, ctx128):
        assert pochhammer_values(mpf("0.3"), 0, ctx128)[-1] == 1

    def test_k3_at_half(self, ctx128):
        # (1/2)(3/4)(5/6) = 5/16
        with mp.workprec(160):
            diff = abs(pochhammer_values(mpf("0.5"), 3, ctx128)[-1] - mpf("0.3125"))
        assert diff < mpf(2) ** -150

    def test_k2_at_three(self, ctx128):
        # (1-3)(1-3/2) = 1, both factors exact dyadics
        assert pochhammer_values(mpf(3), 2, ctx128)[-1] == 1

    def test_linear_factor(self, ctx128):
        with mp.workprec(160):
            diff = abs(pochhammer_values(mpf("0.25"), 1, ctx128)[-1] - mpf("0.75"))
        assert diff == 0

    def test_at_minus_one(self, ctx128):
        # prod (1 + 1/r) telescopes to k+1
        for k in (1, 5, 17, 60):
            with mp.workprec(160):
                rel = abs(pochhammer_values(mpf(-1), k, ctx128)[-1] - (k + 1)) / (k + 1)
            assert rel < mpf(2) ** -150

    def test_complex_exact_dyadic(self, ctx128):
        # (1-i)(1-i/2) = 1/2 - 3i/2, every intermediate exact
        assert pochhammer_values(mpc(0, 1), 2, ctx128)[-1] == mpc("0.5", "-1.5")

    def test_truncation_zeros_exact(self, ctx64):
        # P_k(m) = 0 exactly for every integer 1 <= m <= k
        for k in range(1, 65):
            for m in range(1, k + 1):
                assert pochhammer_values(mpf(m), k, ctx64)[-1] == 0

    def test_no_spurious_zero_past_truncation(self, ctx64):
        assert pochhammer_values(mpf(5), 3, ctx64)[-1] != 0


class TestValues:
    def test_zero_argument_all_ones(self, ctx64):
        vals = pochhammer_values(mpf(0), 30, ctx64)
        assert len(vals) == 31
        assert all(v == 1 for v in vals)

    @pytest.mark.parametrize("k_max", [-1, -5])
    def test_rejects_negative_kmax(self, k_max, ctx64):
        with pytest.raises(ValueError):
            pochhammer_values(mpf("0.5"), k_max, ctx64)


class TestStatedBound:
    def test_within_stated_bound_against_rising_factorial(self, ctx64):
        """|value - P_k(s)| <= 2^-(working_bits+1) plus the value's rounding.

        The reference is rf(1-s, k)/k! at twice the working precision; each
        component of the value is rounded to nearest, which moves it by at
        most 2^-working_bits |value|.
        """
        wb = ctx64.working_bits
        rng = random.Random(20261018)
        for _ in range(40):
            k_max = rng.randint(1, 1000)
            s = mpc(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if rng.random() < 0.3:
                s = mpf(s.real)
            values = pochhammer_values(s, k_max, ctx64)
            assert isinstance(values[-1], type(s))
            with mp.workprec(2 * wb):
                for k in sorted({0, 1, k_max // 3, k_max} | {rng.randint(1, k_max)}):
                    ref = mpmath.rf(1 - s, k) / mpmath.factorial(k)
                    err = abs(values[k] - ref)
                    bound = mpf(2) ** -(wb + 1) + abs(values[k]) * mpf(2) ** -wb
                    slack = abs(ref) * mpf(2) ** (16 - 2 * wb)
                    assert err <= bound + slack, (k, s, err, bound)

    def test_imaginary_part_below_the_scale(self, ctx64):
        """At s = 2 + 1e-300 i the imaginary part rounds to 0 at the sweep's
        scale 2^W, and every value stays within the bound against
        rf(1-s, k)/k! at twice the working precision."""
        wb = ctx64.working_bits
        s = mpc(2, "1e-300")
        values = pochhammer_values(s, 12, ctx64)
        assert all(v.imag == 0 for v in values)
        with mp.workprec(2 * wb):
            for k, v in enumerate(values):
                err = abs(v - mpmath.rf(1 - s, k) / mpmath.factorial(k))
                assert err <= mpf(2) ** -(wb + 1) + abs(v) * mpf(2) ** -wb, k

    @pytest.mark.parametrize("as_complex", [False, True])
    def test_exact_zeros_at_integers_up_to_k_1000(self, as_complex, ctx64):
        for m in (1, 2, 7, 64, 333, 1000):
            s = mpc(m, 0) if as_complex else mpf(m)
            values = pochhammer_values(s, 1000, ctx64)
            assert all(v == 0 for v in values[m:])
            assert all(v != 0 for v in values[:m])


def _recurrence(H, raw, W):
    """The sweep as the recurrence reads, the oracle for ``_fixed_terms``:
    Q_k = ((Q_{k-1} (k 2^W - H_r) + Q_i H_i) >> W) // k and its imaginary
    twin, each weight a raw tuple (sign, man, exp, bc) applied as man 2^exp."""
    hr, hi = H
    qr, qi = 1 << W, 0
    for k, (sign, man, exp, _) in enumerate(raw):
        if k:
            f = (k << W) - hr
            qr, qi = ((qr * f + qi * hi) >> W) // k, ((qi * f - qr * hi) >> W) // k
        man = -man if sign else man
        if exp >= 0:
            yield (man * qr) << exp, (man * qi) << exp
        else:
            yield (man * qr) >> -exp, (man * qi) >> -exp


@st.composite
def _sweep_inputs(draw):
    """(H, raw weights, W): each part of H zero or with 0, a few, exactly W or
    more than W trailing zero bits (H = n 2^W, n even), |H| < 2^(W+7)."""
    W = draw(st.integers(8, 300))

    def part():
        zeros = draw(st.sampled_from([0, 1, 3, 6, W, W + 1, W + 4]))
        m = ((draw(st.integers(0, 2 ** (W + 6))) >> zeros) | 1) << zeros
        return 0 if draw(st.integers(0, 7)) == 0 else m * draw(st.sampled_from([1, -1]))

    H = (part(), part())
    weight = st.one_of(
        st.just((0, 0, 0, 0)), st.just((0, 1, 0, 1)),
        st.builds(lambda sign, man, exp: (sign, man, exp, man.bit_length()),
                  st.integers(0, 1), st.integers(1, 2**80), st.integers(-160, 24)))
    return H, draw(st.lists(weight, min_size=1, max_size=40)), W


class TestSweepIntegers:
    @settings(max_examples=200, deadline=None)
    @given(_sweep_inputs())
    @example(((0, 0), [(0, 1, 0, 1)] * 5, 8))
    @example(((6 << 20, 0), [(0, 3, -2, 2), (1, 5, 3, 3), (0, 0, 0, 0)], 20))
    def test_same_integers_as_the_recurrence(self, case):
        # every integer the sweep yields is the recurrence's, through the
        # weights a table hands it
        H, raw, W = case
        table = CoefficientTable(kind="A", k_max=len(raw) - 1, target_bits=64, raw=tuple(raw),
                                 error_bound_exponents=(0,) * len(raw))
        assert list(_fixed_terms(H, table.weights, W)) == list(_recurrence(H, raw, W))


_H_BOXES = (  # eval_plane's boxes of s, halved: (Re h range, |Im h| bound)
    ((Fraction(3, 4), 3), 5),
    ((Fraction(1, 40), Fraction(19, 40)), 5),
    ((Fraction(1, 4), Fraction(1, 4)), Fraction(15, 2)),
    ((-2, Fraction(-1, 40)), Fraction(5, 2)),
)


@st.composite
def _h_points(draw):
    """h = s/2 in an eval_plane box, each part of s a 53-bit float or a
    48-digit decimal read at 160 bits, as mpmath mpf."""
    (lo, hi), im_bound = draw(st.sampled_from(_H_BOXES))
    parts = []
    for a, b in ((lo, hi), (-im_bound, im_bound)):
        q = a + (b - a) * Fraction(draw(st.integers(0, 10**48)), 10**48)
        if draw(st.booleans()):
            parts.append(mpf(float(2 * q)) / 2)
        else:
            with mp.workprec(160):
                parts.append(mpf(2 * q.numerator) / q.denominator / 2)
    return parts


def _nearest(x, W: int) -> int:
    """The integer nearest x 2^W for an mpf x, exactly."""
    sign, man, exp, _ = x._mpf_
    return round(Fraction(-man if sign else man) * Fraction(2) ** (exp + W))


class TestToFixed:
    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.integers(1, 2 ** 80), st.integers(-1200, 100), st.integers(0, 400))
    @example(False, 1, -1000, 300)  # 2^-700: far below one half
    @example(False, 1, -301, 300)  # 1/2, a tie: away from zero
    @example(True, 1, -302, 300)  # -1/4: the first bit below the point is 0
    @example(True, 3, -302, 300)  # -3/4
    @example(False, *mpf("1e-300").man_exp, 200)  # the imaginary part above, at a 200-bit scale
    def test_nearest_ties_away_from_zero(self, neg, man, exp, e):
        want = math.floor(Fraction(man) * Fraction(2) ** (exp + e) + Fraction(1, 2))
        assert _to_fixed(_raw(-man if neg else man, exp), e) == (-want if neg else want)


class TestSweepBound:
    @settings(max_examples=30, deadline=None)
    @given(h=_h_points(), K=st.integers(1, 200), extra=st.integers(0, 40))
    def test_error_within_3k_X_k_u(self, h, K, extra):
        # |Q_k 2^-W - P_k(h)| <= 3 k X_k u with unit weights, u = 2^-W and
        # X_k = max(r_k X_{k-1}, 1, Pi_{k-1}), P_k and X_k formed at 2W + 20 bits
        # with W chosen so that every 3 k X_k u < 1; their roundings are
        # below u of the bound, which (1 + u) covers
        x, y = h
        with mp.workprec(120):
            X = Pi = Xmax = mpf(1)
            for k in range(1, K + 1):
                r = abs(mpc(1 - x / k, -y / k))
                X, Pi = max(r * X, 1, Pi), Pi * r
                Xmax = max(Xmax, X)
        W = math.ceil(math.log2(3 * K * float(Xmax) * 1.01)) + 1 + extra
        H = (_nearest(x, W), _nearest(y, W))
        terms = _fixed_terms(H, [(1, 0)] * (K + 1), W)
        with mp.workprec(2 * W + 20):
            u, h, P, X, Pi = mpf(2) ** -W, mpc(x, y), mpc(1), mpf(1), mpf(1)
            for k, (qr, qi) in enumerate(terms):
                if k:
                    r = abs(1 - h / k)
                    X, Pi, P = max(r * X, 1, Pi), Pi * r, P * (1 - h / k)
                    assert abs(mpc(qr, qi) * u - P) <= 3 * k * X * u * (1 + u), (k, h)


class TestGammaForm:
    def test_at_minus_one(self, ctx128):
        for k in (1, 4, 40):
            with mp.workprec(160):
                rel = abs(pochhammer_gamma(k, mpf(-1), ctx128) - (k + 1)) / (k + 1)
            assert rel < mpf(2) ** -120

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pole_at_positive_integers(self, s, ctx128):
        # Gamma(1-s) pole; the product form is the one to use there
        with pytest.raises(PoleError):
            pochhammer_gamma(5, mpf(s), ctx128)

    def test_rejects_k_zero(self, ctx128):
        with pytest.raises(ValueError):
            pochhammer_gamma(0, mpf("0.5"), ctx128)

    def test_cross_form_agreement_seeded(self, ctx128):
        """Product and Gamma-ratio forms agree on 200 random points.

        Points with a coordinate near an integer on the real axis are skipped:
        the Gamma form is singular at the exact integers and the two forms are
        compared only where both are well defined.
        """
        rng = random.Random(20240117)
        checked = 0
        while checked < 200:
            k = rng.randint(1, 200)
            re = rng.uniform(-10, 10)
            im = rng.uniform(-10, 10) if rng.random() < 0.5 else 0.0
            if im == 0.0 and abs(re - round(re)) < 0.05:
                continue
            with mp.workprec(200):
                s = mpf(re) + mpc(0, 1) * mpf(im) if im else mpf(re)
                a = pochhammer_values(s, k, ctx128)[-1]
                b = pochhammer_gamma(k, s, ctx128)
                rel = abs(a - b) / abs(a)
            assert rel < mpf(2) ** -115, (k, re, im)
            checked += 1


class TestBoundProbe:
    def test_zero_is_unit(self, ctx64):
        assert pochhammer_bound_probe(mpf(0), 100, ctx64) == 1

    def test_two_truncates(self, ctx64):
        # only P_1(2) = -1 survives; the rest vanish
        assert pochhammer_bound_probe(mpf(2), 50, ctx64) == 1

    def test_half_stabilizes_toward_inverse_root_pi(self, ctx64):
        p500 = pochhammer_bound_probe(mpf("0.5"), 500, ctx64)
        p1000 = pochhammer_bound_probe(mpf("0.5"), 1000, ctx64)
        with mp.workprec(96):
            limit = 1 / mpmath.sqrt(mpmath.pi)
            assert p500 < p1000 < limit
            assert abs(p1000 - limit) / limit < mpf("0.01")

    def test_negative_real_sup_at_k_one(self, ctx64):
        # for sigma < 0 the weighted values decrease from k = 1, where
        # |P_1(-5/2)| * 1**sigma = 7/2 exactly
        assert pochhammer_bound_probe(mpf("-2.5"), 1000, ctx64) == mpf("3.5")

    def test_negative_real_pointwise_gamma_asymptote(self, ctx64):
        # |P_k(s)| k**Re(s) -> 1/|Gamma(1-s)| pointwise
        with mp.workprec(96):
            v = abs(pochhammer_values(mpf("-2.5"), 1000, ctx64)[-1]) * mpf(1000) ** mpf("-2.5")
            limit = 1 / mpmath.gamma(mpf("3.5"))
            assert abs(v - limit) / limit < mpf("0.005")

    def test_rejects_bad_kmax(self, ctx64):
        with pytest.raises(ValueError):
            pochhammer_bound_probe(mpf(1), 0, ctx64)
