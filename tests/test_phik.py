import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from maslanka import phik
from maslanka.bernoulli import bernoulli_number
from maslanka.coefficients import a_k, a_k_alt
from maslanka.mpnum import PrecisionContext
from maslanka.phik import (
    QuadratureError,
    _phi_deriv_exact,
    build_paj,
    deriv_l1_norm,
    em_remainder_a_k,
    phi_deriv,
)


@functools.cache
def _paj_polys(a_max):
    """p_{a,j} for 0 <= j <= a <= a_max as integer polynomials in k, lowest
    power first, by the recurrence on their coefficients: the oracle of
    phik._prows, which runs the recurrence at one k."""
    polys = {(0, 0): (1,)}
    for a in range(1, a_max + 1):
        for j in range(a + 1):
            out = [0] * (j + 1)
            for i, c in enumerate(polys.get((a - 1, j), ())):
                out[i] -= (2 * j + a) * c
            for i, c in enumerate(polys.get((a - 1, j - 1), ())):  # (2k + 2j - a) p_{a-1,j-1}
                out[i] += (2 * j - a) * c
                out[i + 1] += 2 * c
            polys[(a, j)] = tuple(out)
    return polys


def _prow(r, k):
    """[p_{r,0}(k), ..., p_{r,r}(k)] from the polynomials of _paj_polys."""
    polys = _paj_polys(r)
    return [sum(c * k**i for i, c in enumerate(polys[(r, j)])) for j in range(r + 1)]


def _phi(k, x):
    """phi_k(x) = (1 - 1/x^2)^k / x from its definition, at the ambient precision."""
    return (1 - 1 / (x * x)) ** k / x


def _horner(k, a, x, bits):
    """phi_k^(a)(x) at `bits` bits, x read there, by Horner over the p_{a,j}(k)
    of _prow: the alternating sum cancels, so it is an oracle only far above
    the bits it checks."""
    with mp.workprec(bits):
        xf = mpf(x)
        inv2 = 1 / (xf * xf)
        xp = xf ** (-(a + 1))
        acc = mp.zero
        for c in _prow(a, k):
            acc += c * xp
            xp *= inv2
        return (1 - inv2) ** (k - a) * acc


def _bernoulli_poly_coeffs(a):
    """B_a(x) = sum_i C(a, i) B_i x^(a-i), exact coefficients, highest power first."""
    return tuple(math.comb(a, i) * bernoulli_number(i) for i in range(a + 1))


def _bbar(a, x):
    """B_a({x}) by Horner over the exact coefficients, at the ambient precision."""
    t = x - mpmath.floor(x)
    acc = mp.zero
    for c in _bernoulli_poly_coeffs(a):
        acc = acc * t + mpf(c.numerator) / c.denominator
    return acc


def _exact(x: tuple) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(x))


def _half_ulp(v, wp: int):
    """Half a unit in the last place of a wp-bit mpf v."""
    return mpf(2) ** (v._mpf_[2] + v._mpf_[3] - wp - 1)


@pytest.fixture(scope="module")
def paj8():
    return build_paj(8)


@pytest.fixture
def integrated(monkeypatch):
    """The arguments of every _head_sum call the test makes, in order."""
    calls = []
    head_sum = phik._head_sum

    def counting(*args):
        calls.append(args)
        return head_sum(*args)

    monkeypatch.setattr(phik, "_head_sum", counting)
    return calls


class TestPajTable:
    """p_{r,j}(k) from phik._prows, the recurrence at one k, against the
    polynomials in k of _paj_polys, and both at the first depths by hand."""

    def test_base_case(self):
        assert _paj_polys(0) == {(0, 0): (1,)}
        assert phik._prows(5, 0) == [[1]]

    def test_depth_one(self):
        # -p_{0,0} and (2k+1) p_{0,0}
        assert _paj_polys(1)[(1, 0)] == (-1,)
        assert _paj_polys(1)[(1, 1)] == (1, 2)
        assert phik._prows(7, 1)[1] == [-1, 15]

    def test_depth_two(self):
        assert _paj_polys(2)[(2, 0)] == (2,)
        assert _paj_polys(2)[(2, 1)] == (-4, -10)
        assert _paj_polys(2)[(2, 2)] == (2, 6, 4)
        assert phik._prows(3, 2)[2] == [2, -4 - 30, 2 + 18 + 36]

    def test_eval_is_exact_integer(self):
        rows = phik._prows(11, 8)
        assert [len(row) for row in rows] == list(range(1, 10))
        assert all(type(c) is int for row in rows for c in row)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 12))
    @example(0, 12)
    @example(10**6, 12)
    def test_matches_the_polynomials(self, k, depth):
        assert phik._prows(k, depth) == [_prow(r, k) for r in range(depth + 1)]

    def test_build_rejects_negative_depth(self):
        assert build_paj(8) == 8
        with pytest.raises(ValueError):
            build_paj(-1)


class TestPhi:
    """phi_k itself, as the depth-0 derivative."""

    def test_k1_at_two(self, ctx128):
        # (3/4)(1/2), every factor an exact dyadic
        assert phi_deriv(1, 0, 2, ctx128) == mpf("0.375")

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_vanishes_at_one(self, k, ctx128):
        assert phi_deriv(k, 0, 1, ctx128) == 0

    def test_decays_like_one_over_x(self, ctx128):
        with mp.workprec(160):
            v = phi_deriv(3, 0, mpf(10) ** 6, ctx128)
            assert abs(v * mpf(10) ** 6 - 1) < mpf("1e-11")

    def test_domain_checks(self, ctx128):
        with pytest.raises(ValueError):
            phi_deriv(0, 0, 2, ctx128)
        with pytest.raises(ValueError):
            phi_deriv(3, 0, mpf("0.99"), ctx128)


# Central difference stencils of second-order accuracy; offsets and weights
# are fixed test constants, step 2^-50 at 500 working bits.
_STENCILS = {
    1: ((-1, Fraction(-1, 2)), (1, Fraction(1, 2))),
    2: ((-1, 1), (0, -2), (1, 1)),
    3: ((-2, Fraction(-1, 2)), (-1, 1), (1, -1), (2, Fraction(1, 2))),
    4: ((-2, 1), (-1, -4), (0, 6), (1, -4), (2, 1)),
    5: (
        (-3, Fraction(-1, 2)),
        (-2, 2),
        (-1, Fraction(-5, 2)),
        (1, Fraction(5, 2)),
        (2, -2),
        (3, Fraction(1, 2)),
    ),
}


class TestPhiDeriv:
    def test_closed_form_example(self, ctx128):
        # (1-1/4)^1 * (-1/4 + 5/16) = 3/64, exact dyadics throughout
        assert phi_deriv(2, 1, 2, ctx128) == mpf("0.046875")

    def test_a_zero_reduces_to_phi(self, ctx128):
        got = phi_deriv(5, 0, mpf("2.25"), ctx128)
        want = (1 - Fraction(4, 9) ** 2) ** 5 / Fraction(9, 4)
        with mp.workprec(300):
            assert abs(got - mpf(want.numerator) / want.denominator) <= got * mpf(2) ** -128

    @pytest.mark.parametrize("k,a", [(3, 1), (5, 4), (8, 0), (8, 7)])
    def test_vanishes_at_one_below_depth_k(self, k, a, ctx128):
        assert phi_deriv(k, a, 1, ctx128) == 0

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_depth_k_at_one_is_coefficient_sum(self, k, ctx128):
        want = sum(_prow(k, k))
        assert phi_deriv(k, k, 1, ctx128) == want

    def test_boundary_decay_from_the_right(self, ctx128):
        vals = [abs(phi_deriv(6, 3, 1 + mpf(2) ** -m, ctx128)) for m in (4, 8, 12, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < mpf("1e-9")

    def test_decay_at_infinity(self, ctx128):
        v = phi_deriv(6, 2, mpf(10) ** 6, ctx128)
        assert v != 0
        assert abs(v) < mpf("1e-15")

    def test_preconditions(self, ctx128):
        with pytest.raises(ValueError):
            phi_deriv(3, 4, 2, ctx128)  # a > k
        with pytest.raises(ValueError):
            phi_deriv(3, 1, mpf("0.5"), ctx128)
        with pytest.raises(ValueError):
            phi_deriv(0, 0, 2, ctx128)
        for x in ("inf", "-inf", "nan"):  # non-finite
            with pytest.raises(ValueError):
                phi_deriv(3, 1, mpf(x), ctx128)

    @pytest.mark.parametrize("k", [6, 9, 13])
    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_matches_finite_differences(self, k, a, ctx64):
        # phi must be sampled far above target accuracy: the stencil cancels
        # about 50*a bits, so phi is evaluated at 520 bits
        rng = random.Random(1000 * k + a)
        h = mpf(2) ** -50
        for _ in range(5):
            x_dyadic = round(rng.uniform(1.2, 10.0) * 2 ** 20)
            with mp.workprec(520):
                x = mpf(x_dyadic) / 2 ** 20
                fd = mp.zero
                for off, wgt in _STENCILS[a]:
                    wq = Fraction(wgt)
                    term = mpf(wq.numerator) / wq.denominator * _phi(k, x + off * h)
                    fd += term
                fd /= h ** a
                closed = phi_deriv(k, a, x, ctx64)
                rel = abs(fd - closed) / abs(closed)
            assert rel < mpf("1e-6"), (k, a, x_dyadic)

    @pytest.mark.parametrize("X", [4, 7, 12])
    @pytest.mark.parametrize("k,r", [(k, r) for k in (8, 17, 30, 250) for r in (2, 4, 12) if r < k])
    def test_exact_at_integer_matches_closed_form(self, k, r, X, ctx128):
        """The exact phi_k^(r)(X) of em_remainder_a_k's boundary against the
        mpf Horner sum at 640 bits, four times ctx128's 160."""
        p, q = _phi_deriv_exact(k, r, X, _prow(r, k))
        assert type(p) is type(q) is int and q > 0
        want = _horner(k, r, X, 4 * ctx128.working_bits)
        with mp.workprec(1000):
            got = mpf(p) / q
            assert abs(got - want) <= abs(want) * mpf(2) ** -(2 * ctx128.working_bits), (k, r, X)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 120).flatmap(lambda k: st.tuples(st.just(k),
                                                           st.integers(0, min(k, 24)))),
           st.integers(2 ** 20, 10 * 2 ** 20).map(lambda n: n / 2 ** 20),
           st.sampled_from((64, 128)))
    @example((100, 60), "2.4781", 128)
    @example((400, 40), "4.4555", 128)
    @example((250, 30), "3.5093", 64)
    @example((5, 5), 1.0, 64)
    def test_within_half_an_ulp_of_the_exact_value(self, ka, x, bits):
        """phi_deriv against (1 - 1/x^2)^(k-a) sum_j p_{a,j}(k) x^-(a+2j+1) in
        Fractions, at x as read at working_bits: within half an ulp there.  A
        Horner sum in mpf at working_bits kept 89 of the 128 bits at (100, 60)."""
        k, a = ka
        ctx = PrecisionContext(bits)
        with mp.workprec(ctx.working_bits):
            xq = _exact(mpf(x)._mpf_)
        want = (1 - 1 / xq ** 2) ** (k - a) * sum(c / xq ** (a + 2 * j + 1)
                                                  for j, c in enumerate(_prow(a, k)))
        got = phi_deriv(k, a, x, ctx)
        assert abs(_exact(got._mpf_) - want) <= _exact(_half_ulp(got, ctx.working_bits)._mpf_)


def _neg_phi_prime(k: int, x: Fraction) -> Fraction:
    """sum_{j=0}^{k} (-1)^j C(k,j) (2j+1) x^-(2j+2), exactly: the alternating sum
    that A_k = -sum_n phi_k'(n) takes term by term."""
    return sum((-1) ** j * math.comb(k, j) * (2 * j + 1) / x ** (2 * j + 2)
               for j in range(k + 1))


class TestBinomialSumIdentity:
    """phi_deriv(k, 1, x) against the exact binomial sum for -phi_k'(x), within
    2^-target_bits relative."""

    @staticmethod
    def _rel_error(k, x: Fraction, ctx) -> Fraction:
        v = phi_deriv(k, 1, mpf(x.numerator) / x.denominator, ctx)  # x dyadic: exact
        sign, man, exp, _ = v._mpf_
        want = _neg_phi_prime(k, x)
        return abs((-1) ** (sign + 1) * man * Fraction(2) ** exp - want) / abs(want)

    def test_k1_exact(self, ctx128):
        assert _neg_phi_prime(1, Fraction(2)) == Fraction(1, 16)
        assert phi_deriv(1, 1, 2, ctx128) == mpf("-0.0625")

    def test_k5(self, ctx128):
        assert self._rel_error(5, Fraction(3), ctx128) < Fraction(1, 2**128)

    def test_k20_escalated(self, ctx128):
        # the binomial sum loses about 24 bits to cancellation here; the
        # closed form at working_bits loses none
        assert self._rel_error(20, Fraction(3, 2), ctx128) < Fraction(1, 2**128)

    @pytest.mark.parametrize("k", [2, 7, 40, 100])
    @pytest.mark.parametrize("x", [Fraction(9, 8), Fraction(3, 2), Fraction(4), Fraction(33, 4)])
    def test_grid(self, k, x, ctx64):
        assert self._rel_error(k, x, ctx64) < Fraction(1, 2**64)


class TestEmRemainder:
    @pytest.mark.parametrize("k,a,tol", [(8, 2, "1e-10"), (12, 3, "1e-9")])
    def test_recovers_a_k(self, k, a, tol, paj8, ctx64):
        got = em_remainder_a_k(k, a, paj8, ctx64, mpf(tol))
        with mp.workprec(200):
            want = a_k(k, PrecisionContext(target_bits=128))
            rel = abs(got - want) / abs(want)
        assert rel < mpf("1e-6")

    def test_depth_independence_at_k16(self, paj8, ctx64):
        d2 = em_remainder_a_k(16, 2, paj8, ctx64, mpf("1e-9"))
        d4 = em_remainder_a_k(16, 4, paj8, ctx64, mpf("1e-9"))
        with mp.workprec(200):
            want = a_k(16, PrecisionContext(target_bits=128))
            assert abs(d2 - want) / abs(want) < mpf("1e-6")
            assert abs(d4 - want) / abs(want) < mpf("1e-6")
            assert abs(d2 - d4) < 2 * mpf("1e-6") * abs(want)

    @pytest.mark.parametrize("k", range(10, 31))
    def test_grid_against_alt_identity(self, k, paj8, ctx128):
        # includes (17,4), (12,5), (13,5), (15,5), (17,5), where a 16-point
        # Gauss-Legendre rule on unit panels was off by up to 8e-6 relative
        want = a_k_alt(k, ctx128)
        for a in (3, 4, 5):
            got = em_remainder_a_k(k, a, paj8, ctx128, abs(want) * mpf("1e-8"))
            with mp.workprec(200):
                assert abs(got - want) / abs(want) < mpf("1e-6"), (k, a)

    @pytest.mark.parametrize("k,a", [(17, 5), (30, 5)])
    def test_tight_tolerance_met(self, k, a, paj8, ctx128):
        # a quadrature of [1, 2] that halves each unit panel once stalls near
        # 1e-10 relative at (17,5); the closed form has no such floor
        want = a_k_alt(k, ctx128)
        got = em_remainder_a_k(k, a, paj8, ctx128, abs(want) * mpf("1e-20"))
        with mp.workprec(200):
            assert abs(got - want) < abs(want) * mpf("1e-20")

    @pytest.mark.parametrize("k,a", [(12, 3), (17, 5), (25, 4)])
    def test_depth_shift_bound_holds(self, k, a):
        """|T_a(X) - boundary terms to depth d| <= the stated bound on T_d(X).

        T_a(X) is A_k minus the remainder integral over [1, X], the latter by
        mpmath.quad on eighth-unit panels at 320 bits; the boundary terms and the
        bound are rebuilt here from _prow, _horner and the Bernoulli
        numbers, and the module's own helpers must agree with them.
        """
        from maslanka.bernoulli import periodified_sup_bound
        from maslanka.phik import _l1_tail

        ctx = PrecisionContext(288)
        with mp.workprec(320):
            ref = a_k(k, ctx)
            cells = [mpmath.quad(lambda x: _bbar(a, x) * _horner(k, a + 1, x, 320),
                                 [n + mpf(i) / 8 for i in range(9)], method="gauss-legendre")
                     for n in range(1, 8)]
            body = mp.zero
            for X, cell in enumerate(cells, start=2):
                body += cell
                if X < 4:
                    continue
                t_a = ref - (-1) ** a * body / math.factorial(a)
                boundary = mp.zero
                for d in range(a, k):
                    if d > a and d % 2 == 0:
                        b = bernoulli_number(d)
                        boundary += (mpf(b.numerator) / b.denominator / math.factorial(d)
                                     * _horner(k, d, X, 320))
                    tail = mpmath.fsum(abs(c) / ((d + 2 * j + 1) * mpf(X) ** (d + 2 * j + 1))
                                       for j, c in enumerate(_prow(d + 1, k)))
                    bound = periodified_sup_bound(d) / math.factorial(d) * tail
                    assert abs(t_a - boundary) <= bound, (X, d)
                    exact = _l1_tail(_prow(d + 1, k), d + 1, X)
                    exact = exact.numerator / mpf(exact.denominator)
                    assert abs(exact - tail) <= tail * mpf(2) ** -280
                    mine = sum((bernoulli_number(r) / math.factorial(r)
                                * Fraction(*_phi_deriv_exact(k, r, X, _prow(r, k)))
                                for r in range(a + 1, d + 1) if r % 2 == 0), Fraction(0))
                    mine = mine.numerator / mpf(mine.denominator)
                    assert abs(mine - boundary) <= abs(ref) * mpf(2) ** -250, (X, d)

    def test_panel_budget_exhaustion(self, paj8, ctx64, monkeypatch):
        monkeypatch.setattr(phik, "MAX_PANELS", 2)
        with pytest.raises(QuadratureError):
            em_remainder_a_k(8, 2, paj8, ctx64, mpf("1e-10"))

    def test_tight_tolerance_at_64_bits_is_met(self, ctx64, integrated):
        # 1e-30 lies below 2^-96, the working bits' unit, so the scale of the
        # sum over n must be read from quad_tol, not from the working bits
        got = em_remainder_a_k(8, 2, build_paj(3), ctx64, mpf("1e-30"))
        with mp.workprec(600):
            want = a_k(8, PrecisionContext(600))
            assert abs(got - want) <= mpf("1e-30") + _half_ulp(got, ctx64.working_bits)
        assert len(integrated) == 1

    def test_unreachable_cut_fails_before_any_panel(self, ctx64, integrated, monkeypatch):
        # at k = 3 the depth stays at a = 2, so the tail bound falls only like
        # X^-3 and 1e-40 needs an X far past the budget, so nothing is summed
        monkeypatch.setattr(phik, "MAX_PANELS", 10)
        with pytest.raises(QuadratureError):
            em_remainder_a_k(3, 2, build_paj(3), ctx64, mpf("1e-40"))
        assert integrated == []

    def test_unreachable_cut_names_the_least_reachable_tolerance(self, ctx64, monkeypatch):
        # quad_tol must exceed twice the tail bound at X = MAX_PANELS + 1; the
        # message shows that rounded up to 6 digits, which reaches the cut
        from maslanka.phik import _em_cut, _prows

        monkeypatch.setattr(phik, "MAX_PANELS", 10)
        paj = build_paj(3)
        with pytest.raises(QuadratureError) as info:
            em_remainder_a_k(3, 2, paj, ctx64, mpf("1e-40"))
        assert str(info.value) == ("tolerance 1.0e-40 is out of reach at k = 3, a = 2: the "
                                   "tail bound at X = 11 needs quad_tol above 0.000288468")
        X, _, tail = _em_cut(3, 2, _prows(3, 3), Fraction(1, 2 * 10**40))
        assert X == 11 and 2 * tail < Fraction("0.000288468") <= 2 * tail * (1 + Fraction(1, 10**5))
        assert em_remainder_a_k(3, 2, paj, ctx64, mpf("0.000288468")) > 0
        # at the default budget, as `maslanka em-check --k 4 --a 2 --bits 64
        # --quad-tol 1e-24` meets it, before any sum
        monkeypatch.undo()
        with pytest.raises(QuadratureError, match=r"^tolerance 1\.0e-24 is out of reach at "
                           r"k = 4, a = 2: the tail bound at X = 200001 needs quad_tol "
                           r"above 7\.26889e-23$"):
            em_remainder_a_k(4, 2, paj, ctx64, mpf("1e-24"))

    @pytest.fixture
    def tail_bounds(self, monkeypatch):
        """The arguments of every _l1_tail call the test makes, in order."""
        calls = []
        l1_tail = phik._l1_tail

        def counting(*args):
            calls.append(args)
            return l1_tail(*args)

        monkeypatch.setattr(phik, "_l1_tail", counting)
        return calls

    def test_unreachable_cut_fails_in_few_tail_bounds(self, ctx128, tail_bounds):
        # the same failure at the default budget: once the depth is k - 1 the
        # step in X doubles up to MAX_PANELS + 1, which is not walked one X at
        # a time
        with pytest.raises(QuadratureError):
            em_remainder_a_k(3, 2, build_paj(3), ctx128, mpf("1e-40"))
        assert 0 < len(tail_bounds) < 100

    def test_far_cut_is_found_in_few_tail_bounds(self, ctx64, tail_bounds):
        # d reaches k - 1 = 3 at X = 4 and the first X below the limit is
        # 58399: doubling the step and then bisecting finds it in a few dozen
        # bounds, where a walk one X at a time takes one per X
        got = em_remainder_a_k(4, 2, build_paj(3), ctx64, mpf("1e-20"))
        assert 0 < len(tail_bounds) < 100
        with mp.workprec(600):
            want = a_k(4, PrecisionContext(600))
            assert abs(got - want) <= mpf("1e-20") + _half_ulp(got, ctx64.working_bits)

    @pytest.mark.parametrize("k", [3, 4, 6, 9, 14, 60, 120])
    def test_cut_search_matches_the_walk(self, k, monkeypatch):
        # the cut walked one X at a time, d rising while the bound shrinks and
        # every X tried up to MAX_PANELS + 1, against _em_cut, which, once d is
        # k - 1, doubles the step in X and then bisects; at small k the depth
        # reaches k - 1 (and the walk goes on past X = 4, or fails), at large
        # k the walk stops with d below k - 1
        from maslanka.bernoulli import periodified_sup_bound
        from maslanka.phik import _em_cut, _l1_tail, _prows

        monkeypatch.setattr(phik, "MAX_PANELS", 400)

        @functools.cache
        def depth(e):
            """sup|Bbar_e| / e! and p_{e+1,j}(k), once the walk reaches depth e."""
            return periodified_sup_bound(e) / math.factorial(e), _prow(e + 1, k)

        def walk(a, limit):
            d = a
            for X in range(4, 402):
                best = None
                for e in range(d, k):
                    sup, row = depth(e)
                    bound = sup * _l1_tail(row, e + 1, X)
                    if best is not None and not bound < best:
                        break
                    d, best = e, bound
                if best < limit:
                    return X, d
            return None

        cases = {60: [(5, 8)], 120: [(5, 20)]}.get(k)
        cases = cases or [(a, e) for a in range(2, k) for e in (6, 12, 20, 30, 40)]
        searched = failed = shallow = 0
        for a, e in cases:
            limit = Fraction(1, 10**e)
            X, d, tail = _em_cut(k, a, _prows(k, a + 1), limit)
            cut = (X, d) if tail < limit else None
            assert cut == walk(a, limit), (a, e)
            searched += cut is not None and d == k - 1 and X > 4
            failed += cut is None
            shallow += cut is not None and d < k - 1
        assert (searched > 0 and failed > 0) if k < 60 else shallow == len(cases)

    def test_preconditions(self, paj8, ctx64):
        with pytest.raises(ValueError):
            em_remainder_a_k(8, 1, paj8, ctx64, mpf("1e-6"))  # depth too shallow
        with pytest.raises(ValueError):
            em_remainder_a_k(4, 4, paj8, ctx64, mpf("1e-6"))  # a must stay < k
        with pytest.raises(ValueError):
            em_remainder_a_k(8, 2, build_paj(2), ctx64, mpf("1e-6"))  # needs a+1
        with pytest.raises(ValueError):
            em_remainder_a_k(8, 2, paj8, ctx64, mpf(0))
        with pytest.raises(ValueError, match="quad_tol must be finite"):
            em_remainder_a_k(8, 2, paj8, ctx64, mpf("inf"))  # would stop the walk at X = 4

    @pytest.mark.parametrize("quad_tol,message", [
        (0, "quad_tol must be a positive number"), (-1, "quad_tol must be a positive number"),
        (mpf("-inf"), "quad_tol must be a positive number"),
        (mpf("nan"), "quad_tol must be a positive number"), (mpf("inf"), "quad_tol must be finite")])
    def test_rejected_quad_tol_messages(self, quad_tol, message, paj8, ctx64):
        with pytest.raises(ValueError, match=f"^{message}$"):
            em_remainder_a_k(8, 2, paj8, ctx64, quad_tol)

    @pytest.mark.parametrize("quad_tol", [1, mpf("1e-9"), "1e-9"])
    def test_takes_any_mpf_operand_and_returns_an_mpf(self, quad_tol, paj8, ctx64):
        got = em_remainder_a_k(8, 2, paj8, ctx64, quad_tol)
        assert isinstance(got, mpf)
        with mp.workprec(ctx64.working_bits):
            raw = mpf(quad_tol)._mpf_
        assert got._mpf_ == phik._em_remainder_raw(8, 2, ctx64.working_bits, raw)


class TestClosedForm:
    """The remainder integral over [1, X] in closed form, and em_remainder_a_k's
    error contract, each against an independent oracle at twice the bits or more."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda a: st.tuples(st.integers(a + 1, 40), st.just(a))),
           st.integers(2, 8), st.sampled_from((64, 128)))
    @example((8, 2), 8, 128)
    @example((40, 7), 5, 64)
    def test_matches_quad_on_unit_panels(self, ka, X, bits):
        """((-1)^a / a!) Int_1^X Bbar_a phi_k^(a+1) = -sum_{2<=n<X} phi_k'(n)
        + phi_k(X) - phi_k'(X)/2 + sum_{even r=2..a} B_r / r! phi_k^(r)(X),
        the sum over n from _head_sum at 2^F and the rest from _phi_deriv_exact,
        against mpmath.quad on the unit panels at 2 bits + 32."""
        k, a = ka
        F = 2 * bits + 32
        closed = Fraction(phik._head_sum(k, X, F), 1 << F)
        for r in (0, 1, *range(2, a + 1, 2)):
            row = _prow(r, k)
            closed += (bernoulli_number(r) / math.factorial(r)
                       * Fraction(*_phi_deriv_exact(k, r, X, row)))
        with mp.workprec(2 * bits + 32):
            integral = mpmath.quad(lambda x: _bbar(a, x) * _horner(k, a + 1, x, 2 * bits + 32),
                                   list(range(1, X + 1)), method="gauss-legendre")
            want = (-1) ** a * integral / math.factorial(a)
            err = abs(mpf(closed.numerator) / closed.denominator - want)
        assert err <= mpf(2) ** -(2 * bits), (k, a, X, bits)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda a: st.tuples(st.integers(a + 1, 60), st.just(a))),
           st.sampled_from((64, 128, 256)), st.integers(1, 9), st.integers(3, 60))
    @example((8, 2), 64, 1, 30)
    @example((12, 3), 64, 1, 20)
    @example((21, 5), 128, 1, 26)
    def test_within_quad_tol_and_half_an_ulp(self, ka, bits, m, e):
        """|em_remainder_a_k - A_k| <= quad_tol + half an ulp at working_bits,
        against a_k at 600 bits; an unreachable quad_tol raises instead."""
        k, a = ka
        ctx = PrecisionContext(bits)
        quad_tol = mpf(m) / mpf(10) ** e
        try:
            got = em_remainder_a_k(k, a, build_paj(a + 1), ctx, f"{m}e-{e}")
        except QuadratureError as exc:
            assert "is out of reach" in str(exc)
            return
        with mp.workprec(600):
            want = a_k(k, PrecisionContext(600))
            assert abs(got - want) <= quad_tol + _half_ulp(got, ctx.working_bits), (k, a, bits)


class TestEmCheck:
    """_em_check, the raw route of `em-check` and `verify --suite em-remainder`,
    against the mpf route: a_k, the default quad_tol |A_k| tol / 100 rounded
    once at mpmath's default 53 bits, and em_remainder_a_k."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda a: st.tuples(st.integers(max(3, a + 1), 40),
                                                         st.just(a))),
           st.sampled_from((64, 128, 256)), st.sampled_from(("1e-3", "1e-6", "3e-8")))
    @example((3, 2), 64, "1e-6")
    @example((40, 7), 256, "1e-3")
    def test_matches_the_mpf_route(self, ka, bits, tol):
        k, a = ka
        ctx = PrecisionContext(bits)
        with mp.workprec(53):
            tol = mpf(tol)
        ref = a_k(k, ctx)
        q = abs(_exact(ref._mpf_)) * _exact(tol._mpf_) / 100  # rounded once
        quad_tol = mpmath.libmp.from_rational(q.numerator, q.denominator, 53, "n")
        val = em_remainder_a_k(k, a, build_paj(a + 1), ctx, mp.make_mpf(quad_tol))
        got = phik._em_check(k, a, ctx, tol._mpf_, None)
        assert got[:2] == (ref._mpf_, val._mpf_)
        # rel and the decision from the exact difference
        exact = abs(_exact(val._mpf_) - _exact(ref._mpf_)) / abs(_exact(ref._mpf_))
        rel = mpmath.libmp.from_rational(exact.numerator, exact.denominator, 53, "n")
        assert got[2:] == (rel, exact < _exact(tol._mpf_))

    def test_default_quad_tol_is_rounded_once(self, ctx64, monkeypatch):
        # |A_k| tol / 100 from a_k's exact head, rounded to nearest at 53 bits,
        # ties to even, here; the remainder itself is not computed
        seen = []

        def record(k, a, wp, quad_tol):
            seen.append(quad_tol)
            return (0, 1, 0, 1)

        monkeypatch.setattr(phik, "_em_remainder_raw", record)
        rng = random.Random("quad-tol")
        for k in range(3, 60):
            tol = mpmath.libmp.from_man_exp(rng.getrandbits(53) | 1, rng.randint(-120, -60))
            phik._em_check(k, 2, ctx64, tol, None)
            q = abs(_exact(a_k(k, ctx64)._mpf_)) * _exact(tol) / 100
            e = q.numerator.bit_length() - q.denominator.bit_length()
            e -= 52 + (q < Fraction(2) ** e)  # 2^(e+52) <= q < 2^(e+53)
            m = round(q / Fraction(2) ** e)
            assert _exact(seen[-1]) == m * Fraction(2) ** e and seen[-1][3] <= 53, k

    @pytest.mark.parametrize("k,a", [(8, 2), (12, 3), (21, 5)])
    def test_pass_is_decided_exactly(self, k, a, ctx64):
        # with quad_tol fixed the remainder is too; a 53-bit tol just above the
        # exact rel passes and the one below fails, though rel rounded to 53
        # bits may equal either
        quad_tol = mpf("1e-12")._mpf_
        ref, val, _, _ = phik._em_check(k, a, ctx64, (0, 1, 0, 1), quad_tol)
        exact = abs(_exact(val) - _exact(ref)) / abs(_exact(ref))
        e = exact.numerator.bit_length() - exact.denominator.bit_length() - 53
        m = math.floor(exact / Fraction(2) ** e)
        below, above = (mpmath.libmp.from_man_exp(n, e) for n in (m, m + 1))
        assert _exact(below) < exact < _exact(above)
        assert phik._em_check(k, a, ctx64, below, quad_tol)[3] is False
        assert phik._em_check(k, a, ctx64, above, quad_tol)[3] is True


class TestL1Tail:
    @pytest.mark.parametrize("k,r", [(8, 3), (17, 6), (21, 12), (30, 13)])
    @pytest.mark.parametrize("X", [4, 7, 12])
    def test_bounds_tanh_sinh_integral(self, k, r, X):
        """The exact termwise bound is at least Int_X^inf |phi_k^(r)| by tanh-sinh,
        split at the zeros of phi_k^(r) past X."""
        from maslanka.phik import _l1_tail

        pc = _prow(r, k)
        tail = _l1_tail(pc, r, X)
        ctx = PrecisionContext(96)
        with mp.workprec(128):
            us = mpmath.polyroots(pc[::-1], maxsteps=200, extraprec=192)
            splits = sorted(x for x in (1 / mpmath.sqrt(u) for u in us) if x > X)
            want = mpmath.quad(lambda x: abs(phi_deriv(k, r, x, ctx)),
                               [X, *splits, mpmath.inf])
            assert want > 0
            man, exp = (want * (1 + mpf(2) ** -64)).man_exp
        assert tail >= man * Fraction(2) ** exp, (k, r, X)


class TestBracketRoots:
    """The Rolle walk over g_r(u) = sum_j p_{r,j}(k) u^j, u = 1/x^2."""

    def test_single_root(self):
        from maslanka.phik import _bracket_zeros

        # g_1 = -1 + 9u at k = 4: phi_4' vanishes at x = 3 only
        (m,) = _bracket_zeros([[1], [-1, 9]], 48)
        assert Fraction(m, 2 ** 48) < Fraction(1, 9) <= Fraction(m + 1, 2 ** 48)

    def test_exact_grid_hit(self):
        from maslanka.phik import _bracket_zeros

        # 2u - 1 vanishes exactly on the first bisection midpoint
        assert _bracket_zeros([[1], [-1, 2]], 48) == [2 ** 47 - 1]

    def test_no_roots(self):
        from maslanka.phik import _bracket_zeros

        # g_0 = 1: phi_k has no zero in (1, inf)
        assert _bracket_zeros([[1]], 48) == []

    def test_bracket_without_sign_change_raises(self):
        from maslanka.phik import _bracket_zeros

        # 1 + u keeps its sign on [0, 1]; no zero may be invented
        with pytest.raises(QuadratureError):
            _bracket_zeros([[1], [1, 1]], 48)

    def test_against_polyroots(self):
        from maslanka.phik import _bracket_zeros

        bits = 96
        for k, a in [(1, 1), (3, 3), (6, 2), (8, 8), (30, 8), (100, 5), (1000, 2), (20000, 4)]:
            rows = [_prow(r, k) for r in range(a + 1)]
            got = _bracket_zeros(rows, bits)
            with mp.workprec(192):
                want = sorted(mpmath.polyroots(rows[a][::-1], maxsteps=200, extraprec=192))
                assert len(got) == len(want) == a, (k, a)
                for m, w in zip(got, want):
                    assert 0 < w < 1, (k, a)
                    assert abs(mpmath.ldexp(m, -bits) - w) <= mpf(2) ** -bits, (k, a)


class TestDerivL1Norm:
    def test_k4_a1_closed_form(self, ctx64):
        # phi_4 rises from 0 to its single max at x=3 (root of -1+9u) and
        # falls back to 0, so the exact norm is 2 phi_4(3) = 2*(8/9)^4/3
        got = deriv_l1_norm(4, 1, ctx64)
        want = 2 * Fraction(8, 9) ** 4 / 3
        with mp.workprec(128):
            rel = abs(got - mpf(want.numerator) / want.denominator) / got
        assert rel < mpf(2) ** -64

    def test_k6_a2_against_quad_oracle(self, ctx64):
        got = deriv_l1_norm(6, 2, ctx64)
        coeffs = _prow(2, 6)
        with mp.workprec(160):
            us = sorted(mpmath.polyroots([coeffs[2], coeffs[1], coeffs[0]]))
            splits = sorted(1 / mpmath.sqrt(u) for u in us)
            body = mpmath.quad(
                lambda x: abs(phi_deriv(6, 2, x, ctx64)),
                [1, splits[0], splits[1], 30],
            )
            # phi'' keeps one sign past the last root, so the tail telescopes
            tail = abs(phi_deriv(6, 1, 30, ctx64))
            rel = abs(got - (body + tail)) / (body + tail)
        assert rel < mpf(2) ** -64

    @pytest.mark.parametrize("k,a", [
        (4, 1), (6, 2), (100, 3), (400, 3), (400, 5), (1000, 2), (4000, 5), (20000, 4), (8, 8)])
    def test_meets_target_against_quad_oracle(self, k, a, ctx64):
        """Relative 2^-target_bits against tanh-sinh over the sign-definite
        pieces of |phi_k^(a)| at 128 bits, split at the mpmath.polyroots zeros.

        The grid scan and GL-16 panels this replaced missed here by up to
        1.6e-6, e.g. 5.2e-9 at (400, 3) and 1.6e-6 at (20000, 4).
        """
        got = deriv_l1_norm(k, a, ctx64)
        coeffs = _prow(a, k)
        with mp.workprec(128):
            us = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=192)
            splits = sorted(1 / mpmath.sqrt(u) for u in us)
            want = mpmath.quad(lambda x: abs(_horner(k, a, x, 128)),
                               [1, *splits, mpmath.inf])
            assert abs(got - want) <= want * mpf(2) ** -ctx64.target_bits

    def test_halving_across_k_doubling_quadrupling(self, ctx64):
        n100 = deriv_l1_norm(100, 2, ctx64)
        n400 = deriv_l1_norm(400, 2, ctx64)
        assert n400 / n100 < mpf("0.5")

    def test_depth_three_log_slope(self, ctx64):
        norms = [deriv_l1_norm(k, 3, ctx64) for k in (100, 200, 400)]
        with mp.workprec(96):
            s1 = mpmath.log(norms[1] / norms[0]) / mpmath.log(2)
            s2 = mpmath.log(norms[2] / norms[1]) / mpmath.log(2)
        assert s1 <= mpf("-0.75")
        assert s2 <= mpf("-0.75")

    def test_preconditions(self, ctx64):
        with pytest.raises(ValueError):
            deriv_l1_norm(4, 0, ctx64)
        with pytest.raises(ValueError):
            deriv_l1_norm(0, 1, ctx64)
        with pytest.raises(ValueError):
            deriv_l1_norm(4, 5, ctx64)  # a > k
