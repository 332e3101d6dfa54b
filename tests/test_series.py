import hashlib
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import libmp, mp, mpc, mpf

from maslanka.bernoulli import bernoulli_number, zeta_even
from maslanka.cli import GLOBAL_PROBES, parse_complex
from maslanka.coefficients import CoefficientTable, build_table
from maslanka.mpnum import PoleError, PrecisionContext, _least_prime_factors, _raw, _to_mp
from maslanka.pochhammer import _fixed_terms, _guard_bits, _to_fixed, pochhammer_values
from maslanka.series import (_em_plan, _em_powers, _em_rhos, _eval_raw, _truncation_raw,
                             _truncation_rows,
                             _zeta_quotient, maslanka_eval, truncation_check, zeta_reference)


class TestMaslankaEval:
    def test_s2_truncates_at_first_term(self, table_a400_128, ctx128):
        res = maslanka_eval(2, table_a400_128, mpf("1e-6"), ctx128)
        assert res.value == table_a400_128.values[0]
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
        assert maslanka_eval(mpc(1, 0), table_a400_128, mpf("1e-8"), ctx128).is_pole

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

    @pytest.mark.parametrize("s", [mpf("nan"), mpf("inf"), mpf("-inf"),
                                   mpc("0.5", "nan"), mpc("inf", 3)])
    def test_rejects_non_finite_s(self, s, table_a400_128, ctx128):
        with pytest.raises(ValueError, match="s must be a finite number"):
            maslanka_eval(s, table_a400_128, mpf("1e-6"), ctx128)

    def test_rejects_s_beyond_float_range(self, table_a400_128, ctx128):
        # the bound that sets the integer width is evaluated in floats
        with pytest.raises(ValueError, match="too large"):
            maslanka_eval(mpf("1e400"), table_a400_128, mpf("1e-6"), ctx128)


def _rounded_exact_sum(values, weights, bits):
    """sum_k values[k] weights[k] for integer weights, formed exactly (each
    product of a 128-bit entry and an integer below 2^64 fits in 2000 bits, as
    does their sum) and rounded once to ``bits``."""
    with mp.workprec(2000):
        total = mpmath.fsum(a * w for a, w in zip(values, weights))
    with mp.workprec(bits):
        return +total


def _binomial_weights(n):
    """P_k(n) = (-1)^k C(n-1, k) for k < n."""
    return [(-1) ** k * math.comb(n - 1, k) for k in range(n)]


class TestIntegerKernelEdgeCases:
    def test_s0_sums_the_coefficients(self, table_a400_128, ctx128):
        # P_k(0) = 1 for every k, so the value is the plain sum of A_0..A_K
        res = maslanka_eval(0, table_a400_128, mpf("1e-6"), ctx128)
        want = _rounded_exact_sum(table_a400_128.values, [1] * res.terms_used,
                                  ctx128.working_bits)
        assert res.value == want

    @pytest.mark.parametrize("n", range(1, 21))
    def test_even_s_is_the_exact_finite_sum(self, n, table_a400_128, ctx128):
        # P_k(n) = (-1)^k C(n-1, k) vanishes from k = n on.  The rule stops at
        # the first k >= n whose half-index partial sum S_ceil(k/2) already
        # holds all n nonzero terms: k = max(n, 2n - 3)
        res = maslanka_eval(2 * n, table_a400_128, mpf("1e-6"), ctx128)
        assert res.converged
        assert res.terms_used == max(n, 2 * n - 3) + 1
        assert res.value == _rounded_exact_sum(table_a400_128.values, _binomial_weights(n),
                                               ctx128.working_bits)

    @pytest.mark.parametrize("s", [mpf(3), mpc("0.5", "14.134725")])
    def test_infinite_tol_is_rejected(self, s, table_a400_128, ctx128):
        # every term is below an infinite tol, so the sum would stop at the
        # first check, K = 1, and call itself converged
        with pytest.raises(ValueError, match="tol must be finite"):
            maslanka_eval(s, table_a400_128, mpf("inf"), ctx128)

    def test_single_entry_table(self, ctx64):
        table = build_table("A", 0, ctx64)
        res = maslanka_eval(mpf(3), table, mpf("1e-6"), ctx64)
        assert res.terms_used == 1
        assert not res.converged
        assert res.value == table.values[0]
        assert res.residual_estimate == 0

    @pytest.mark.parametrize("s,kind", [(3, mpf), (3.0, mpf), (mpf(-1), mpf),
                                        (mpc(3, 0), mpc), (mpc(-1, 0), mpc),
                                        (mpc("0.5", 2), mpc)])
    def test_result_types(self, s, kind, table_a400_128, ctx128):
        res = maslanka_eval(s, table_a400_128, mpf("1e-6"), ctx128)
        assert type(res.value) is kind
        assert type(res.residual_estimate) is mpf


def _exact_parts(x):
    """The exact (sign, mantissa, exponent, bitcount) tuples of an mpf or mpc."""
    parts = (x.real, x.imag) if isinstance(x, mpc) else (x,)
    return tuple(tuple(int(c) for c in p._mpf_) for p in parts)


class TestGoldenValues:
    """sha256 over the exact results, pinned so a refactor of the sweep
    cannot change a single bit of what the series returns."""

    def test_eval_at_the_cli_probes(self, table_a400_128, ctx128):
        h = hashlib.sha256()
        for text in GLOBAL_PROBES + ("0", "1"):
            r = maslanka_eval(_to_mp(*parse_complex(text, 53)), table_a400_128, mpf("1e-20"),
                              ctx128)
            h.update(repr((text, _exact_parts(r.value), r.terms_used, r.converged,
                           _exact_parts(r.residual_estimate))).encode())
        assert h.hexdigest() == "a59f4ee4cb08b2b1c03360fa3f26285c22c041db4c10cba1f1da03c4bfc4eb64"

    def test_every_field_at_edge_points(self, table_a400_128, table_a900_128, ctx128):
        # s read from its literal at working bits, as `maslanka eval` reads it:
        # the probes, an mpc with a zero imaginary part, points next to s = 0,
        # where s - 1 is wider than working bits, and next to s = 1, one far
        # left, and an eval_plane point (float parts) at which mpmath's mpc_div
        # was 5 ulps off the correctly rounded zeta_value
        texts = GLOBAL_PROBES + ("0", "1", "4+0i", "0.5e-30+1e-30i",
                                 "1.0000000000000000000001", "-1e5")
        with mp.workprec(ctx128.working_bits):
            cases = [(mpmath.mpmathify(t.replace("i", "j")), table_a400_128, "1e-20")
                     for t in texts]
        cases.append((mpc(5.039913, -6.257193), table_a900_128, "1e-8"))
        h = hashlib.sha256()
        for s, table, tol in cases:
            r = maslanka_eval(s, table, mpf(tol), ctx128)
            zeta = None if r.zeta_value is None else _exact_parts(r.zeta_value)
            h.update(repr((_exact_parts(r.s), _exact_parts(r.value), zeta, r.terms_used,
                           _exact_parts(r.residual_estimate), r.is_pole, r.converged)).encode())
        assert h.hexdigest() == "504932fb197f81a392e6904606131a9f68ddc951776cc2b9e7bd495f784acded"

    def test_truncation_identities(self, table_a400_128, ctx128):
        h = hashlib.sha256()
        for n in range(1, 21):
            lhs, rhs = truncation_check(n, table_a400_128, ctx128)
            h.update(repr((n, _exact_parts(lhs), _exact_parts(rhs))).encode())
        assert h.hexdigest() == "ca710133ecdd147ea398a1962c0206692dccc6a50dd080caa5cf9243ac65b616"


def _stop_index(terms, partials, tol):
    """(K, converged) of the two-part stopping rule applied to given sequences."""
    for k in range(1, len(terms)):
        if abs(terms[k]) < tol / 4 and abs(partials[k] - partials[(k + 1) // 2]) < tol / 2:
            return k, True
    return len(terms) - 1, False


_GRID_S = [mpc(re, im) if im else mpf(re)
           for re in ("-20", "-8", "-4", "-2.5", "0", "0.5", "3", "6")
           for im in (0, 5, 15, 40)]
# points whose parts use all 160 working bits, so that rounding s/2 more
# coarsely than the kernel's scale shows
with mp.workprec(160):
    _GRID_S += [mpf(1) / 3, mpf(-17) / 7, mpc(mpf(1) / 3, 14 + mpf(1) / 7),
                mpc(-5 - mpf(1) / 3, mpf(22) / 3)]


def _reference_sums(s, table, bits: int):
    """(terms, partial sums) of sum_k A_k P_k(s/2) over the table's entries, at
    `bits`: P_k(s/2) by its defining product, no package code."""
    with mp.workprec(bits):
        h = s / 2
        P = mpf(1)
        terms, partials, acc = [], [], mpf(0)
        for k, a in enumerate(table.values):
            if k:
                P *= 1 - h / k
            terms.append(a * P)
            acc += terms[-1]
            partials.append(acc)
    return terms, partials


def _assert_within_bound(s, tol, reference, table, ctx):
    """maslanka_eval at s stops where the stopping rule on the reference terms
    (``_reference_sums`` at twice the working precision) stops, and its value
    is within 2^-working_bits (1 + |S_K|) of that reference S_K."""
    res = maslanka_eval(s, table, mpf(tol), ctx)
    terms, partials = reference
    with mp.workprec(2 * ctx.working_bits):
        K, converged = _stop_index(terms, partials, mpf(tol))
        assert (res.terms_used, res.converged) == (K + 1, converged)
        err = abs(res.value - partials[K])
        bound = mpf(2) ** -ctx.working_bits * (1 + abs(partials[K]))
    assert err <= bound, f"error {mpmath.nstr(err, 3)} above bound {mpmath.nstr(bound, 3)}"


# the four regions of the benchmark's eval_plane points: (Re range, |Im| bound)
_EVAL_PLANE_BOXES = {
    "right": ((Fraction(3, 2), 6), 10),
    "strip": ((Fraction(1, 20), Fraction(19, 20)), 10),
    "line": ((Fraction(1, 2), Fraction(1, 2)), 15),
    "left": ((-4, Fraction(-1, 20)), 5),
}


@st.composite
def _eval_plane_points(draw):
    """(Re s, Im s) in one of the eval_plane boxes, as fractions with
    denominators up to 10^4: most need every working bit, as s read from
    decimal text does."""
    (lo, hi), im_bound = draw(st.sampled_from(list(_EVAL_PLANE_BOXES.values())))
    re = draw(st.fractions(lo, hi, max_denominator=10**4))
    im = draw(st.fractions(-im_bound, im_bound, max_denominator=10**4))
    return re, im


class TestIntegerKernelAccuracy:
    """The integer sum against the same terms formed independently at twice
    the working precision."""

    @pytest.fixture(scope="class")
    def references(self, table_a900_128, ctx128):
        return {s: _reference_sums(s, table_a900_128, 2 * ctx128.working_bits) for s in _GRID_S}

    @pytest.mark.parametrize("tol", ["1e-4", "1e-8"])
    @pytest.mark.parametrize("s", _GRID_S, ids=str)
    def test_within_documented_bound(self, s, tol, references, table_a900_128, ctx128):
        _assert_within_bound(s, tol, references[s], table_a900_128, ctx128)

    @settings(max_examples=12, deadline=None)
    @given(point=_eval_plane_points(), tol=st.sampled_from(["1e-4", "1e-8"]))
    def test_within_documented_bound_searched(self, point, tol, table_a900_128, ctx128):
        re, im = point
        with mp.workprec(ctx128.working_bits):  # s as maslanka_eval reads it
            s = mpf(re.numerator) / re.denominator
            if im:
                s = mpc(s, mpf(im.numerator) / im.denominator)
        reference = _reference_sums(s, table_a900_128, 2 * ctx128.working_bits)
        _assert_within_bound(s, tol, reference, table_a900_128, ctx128)


def _mp_roundings(z, table, terms: int, wb: int):
    """value and residual_estimate as mpmath rounds them at wb, from the
    sweep's partial sums S_K and S_ceil(K/2), K = terms - 1, at the W and H
    that mpmath's own z/2 and float() give, and the exact S_K 2^-W as a pair
    of Fractions."""
    with mp.workprec(wb):
        h = z / 2
        W = wb + _guard_bits(float(h.real), float(h.imag), table.k_max)
        H = (_to_fixed(mp.re(z)._mpf_, W - 1), _to_fixed(mp.im(z)._mpf_, W - 1))
        sums = list(itertools.accumulate(_fixed_terms(H, table.weights[:terms], W),
                                         lambda p, t: (p[0] + t[0], p[1] + t[1])))
        (sr, si), (mr, mi) = sums[-1], sums[terms // 2]
        residual = mpmath.sqrt(mpf(((sr - mr) ** 2 + (si - mi) ** 2, -2 * W)))
        value = mpc(mpf((sr, -W)), mpf((si, -W))) if isinstance(z, mpc) else mpf((sr, -W))
        return value, residual, (Fraction(sr, 2**W), Fraction(si, 2**W))


def _fraction(x: tuple) -> Fraction:
    """The exact value of a finite raw tuple."""
    sign, man, exp, _ = x
    return (-1) ** sign * man * Fraction(2) ** exp


def _nearest(q: Fraction, bits: int) -> tuple:
    """The raw tuple of q rounded to nearest at `bits` bits, ties to even."""
    if not q:
        return (0, 0, 0, 0)
    a = abs(q)
    n = a.numerator.bit_length() - a.denominator.bit_length()  # floor(log2 a) or n - 1
    exp = n - (a < Fraction(2) ** n) - bits + 1
    man = round(a / Fraction(2) ** exp)
    zeros = (man & -man).bit_length() - 1
    return (int(q < 0), man >> zeros, exp + zeros, (man >> zeros).bit_length())


@st.composite
def _tiny_real_parts(draw):
    """(Re s, Im s) with |Re s| below 10^-20, where s - 1 is wider than working bits."""
    re = draw(st.fractions(-1, 1, max_denominator=10**4)) / 10 ** draw(st.integers(20, 60))
    im = draw(st.just(0) | st.fractions(-15, 15, max_denominator=10**4))
    return re, im


class TestRawCore:
    """``_eval_raw`` against the roundings mpmath makes of the same integer
    sums, bit for bit, for value and residual_estimate, and against an exact
    oracle for zeta_value, at the eval_plane boxes and at tiny real parts."""

    @settings(max_examples=30, deadline=None)
    @given(point=_eval_plane_points() | _tiny_real_parts(),
           tol=st.sampled_from(["1e-4", "1e-8"]))
    # where mpmath's mpc_div was 5 ulps off the correctly rounded imaginary
    # part of zeta_value, a point next to the pole, and one next to s = 0,
    # where s - 1 is wider than working bits
    @example(point=(Fraction(5.039913), Fraction(-6.257193)), tol="1e-8")
    @example(point=(Fraction("1.0000000000000000000001"), 0), tol="1e-8")
    @example(point=(Fraction(11, 10**25), Fraction(-20, 7)), tol="1e-8")
    def test_roundings_are_mpmaths(self, point, tol, table_a900_128, ctx128):
        # zeta_value is S 2^-W / (s - 1) from the exact sum S, each part
        # rounded to nearest once at working bits
        re, im = point
        wb = ctx128.working_bits
        with mp.workprec(wb):  # s as maslanka_eval reads it
            z = mpf(re.numerator) / re.denominator
            if im:
                z = mpc(z, mpf(im.numerator) / im.denominator)
            tol = mpf(tol)
        parts = z._mpc_ if isinstance(z, mpc) else (z._mpf_, None)
        terms, _, value, zeta, residual = _eval_raw(*parts, table_a900_128, tol._mpf_, wb)
        want_value, want_residual, (sr, si) = _mp_roundings(z, table_a900_128, terms, wb)
        assert value == (want_value._mpc_ if isinstance(z, mpc) else (want_value._mpf_, None))
        assert residual == want_residual._mpf_
        a, b = _fraction(parts[0]) - 1, _fraction(parts[1]) if parts[1] else 0
        norm = a * a + b * b
        assert zeta == (_nearest((sr * a + si * b) / norm, wb),
                        _nearest((si * a - sr * b) / norm, wb) if parts[1] else None)


@st.composite
def _quotient_cases(draw):
    """(S_r, S_i, zr, zi, W, wb) for _zeta_quotient: parts of s with wb-bit
    mantissas at exponents down to -10^4 or near 1, and sums S that often put
    the quotient on a rounding boundary: S_r a midpoint at wb bits while s is
    near 0, where the tiny parts decide the side, or, for a real s, S_r made
    so that S_r 2^-W / (s - 1) is itself a midpoint."""
    wb = draw(st.sampled_from([16, 53, 160]))
    W = wb + draw(st.integers(0, 40))

    def part():
        man = draw(st.integers(-(2**wb - 1), 2**wb - 1))
        exp = draw(st.integers(-10**4, -wb - 64) | st.integers(-wb - 8, 4))
        return _raw(man, exp)

    zr, zi = part(), draw(st.none() | st.builds(part))
    sr, si = (draw(st.integers(-(2 ** (W + 8)), 2 ** (W + 8))) for _ in range(2))
    kind = draw(st.sampled_from(["any", "midpoint", "tie"]))
    if kind == "midpoint":  # a midpoint at wb bits, up to the tiny parts
        sr = draw(st.sampled_from([1, -1])) * (2 * draw(st.integers(2**(wb - 1), 2**wb - 1)) + 1)
        sr <<= draw(st.integers(0, 8))
    elif kind == "tie" and zr[1]:  # S_r 2^-W / (zr - 1) = mu 2^k exactly
        zi, mu = None, 2 * draw(st.integers(2**(wb - 1), 2**wb - 1)) + 1
        a = _fraction(zr) - 1
        sr = int(mu * a * 2 ** (W - min(zr[2], 0)))
        W -= min(zr[2], 0)
    assume(zr != (0, 1, 0, 1) or zi is not None and zi[1])  # s != 1
    return sr, si, zr, zi, W, wb


class TestZetaQuotient:
    """_zeta_quotient against the exact quotient, rounded once, however far
    apart the exponents of the parts of s - 1 lie."""

    @settings(max_examples=300, deadline=None)
    @given(_quotient_cases())
    # s near 0 with S_r 2^-W a midpoint at 16 bits, where the tiny parts of s
    # pick the side: a sticky bit in each sum for the term far below its
    # partner, in place of s's own parts, rounds these to the wrong side
    @example((115443, -2808, (0, 47919, -1975, 16), (1, 18317, -1691, 15), 6, 16))
    @example((413820, -214374, (0, 5953, -5856, 13), (0, 63345, -3339, 16), 4, 16))
    def test_is_the_exact_quotient_rounded_once(self, case):
        sr, si, zr, zi, W, wb = case
        a, b = _fraction(zr) - 1, _fraction(zi) if zi is not None else 0
        norm = (a * a + b * b) * 2**W
        want = (_nearest((sr * a + si * b) / norm, wb),
                None if zi is None else _nearest((si * a - sr * b) / norm, wb))
        assert _zeta_quotient(sr, si, zr, zi, W, wb) == want


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

    @pytest.mark.parametrize("t", [16, 512])
    @pytest.mark.parametrize(
        "s",
        [mpc(-60, "0.5"), mpf(60), mpc("0.5", 300), mpc(-30, 40), mpc("0.5", "14.134725141734693")],
    )
    def test_one_pass_against_mpmath_zeta(self, s, t):
        # far left and right, high on the critical line and next to its first
        # zero (|acc| near its floor), at both ends of the precision range
        got = zeta_reference(s, PrecisionContext(t))
        with mp.workprec(2 * t):
            want = mpmath.zeta(s)
            assert abs(got - want) <= mpf(2) ** -(t - 8) * max(1, abs(want))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-12, 8), st.floats(-100, 100), st.sampled_from([64, 128, 256]))
    # within 1e-6 of the first three zeros, where |acc| sits near its floor
    @example(0.5, 14.134725, 256)
    @example(0.5, -21.02204, 128)
    @example(0.5, 25.010858, 64)
    def test_backlund_stop_searched(self, sigma, tau, t):
        assume((sigma, tau) != (1, 0))
        s = mpc(sigma, tau)
        got = zeta_reference(s, PrecisionContext(t))
        _, wp, _ = _em_plan(sigma, abs(tau), t)
        with mp.workprec(2 * wp):
            want = mpmath.zeta(s)
            assert abs(got - want) <= mpf(2) ** -(t - 8) * max(1, abs(want))

    @pytest.mark.parametrize("s, t", [(mpc(-4, 15), 128), (mpc(6, -15), 128), (mpf(60), 512),
                                      (mpc(-60, "0.5"), 512), (mpc("0.5", 300), 512)])
    def test_powers_within_their_product_bound(self, s, t):
        # the corners of eval_plane's boxes and the largest N and wp at t = 512:
        # primes are mpmath.power's, and a composite with Omega prime factors is
        # within (1+delta)^Omega (1+u)^(Omega-1) - 1 of n^-s, delta the primes'
        # largest error, which the docstring needs below (N/floor(log2 N) - 1) u
        N, wp, _ = _em_plan(float(s.real), abs(float(s.imag)), t)
        spf, u = _least_prime_factors(N), mpf(2) ** -wp
        with mp.workprec(wp):
            pw = _em_powers(s, N)
            assert all(pw[p] == mpmath.power(p, -s) for p in range(2, N + 1) if spf[p] == p)
        with mp.workprec(2 * wp):
            rel = {n: abs(pw[n] / mpmath.power(n, -s) - 1) for n in range(2, N + 1)}
            delta = max(rel[p] for p in rel if spf[p] == p)
            assert delta <= (mpf(N) / int(math.log2(N)) - 1) * u
            for n in (n for n in rel if spf[n] < n):
                omega, m = 0, n
                while m > 1:
                    omega, m = omega + 1, m // spf[m]
                assert rel[n] <= (1 + delta) ** omega * (1 + u) ** (omega - 1) - 1

    @pytest.mark.parametrize("s", [mpc("0.5", "14.134725"), mpf(-3), mpc(-7, "1e-30"), mpc(2, 40)])
    def test_rhos_bound_the_remainder_ratio(self, s):
        # each float rho_r covers |s+2r-1|/(sigma+2r-1) exactly computed, and
        # is infinite where sigma+2r-1 <= 0
        sigma, tau = float(s.real), abs(float(s.imag))
        rhos = _em_rhos(sigma, tau, 60, 200)
        assert rhos
        with mp.workprec(200):
            for r, rho in enumerate(rhos, 1):
                d = s.real + 2 * r - 1
                assert rho == math.inf if d <= 0 else rho >= abs(s + 2 * r - 1) / d

    @pytest.mark.parametrize("t", [64, 128])
    def test_within_the_documented_bound_at_the_promised_wp(self, t):
        # the docstring's bound, tol + 2 N u sum_{n<N} n^-sigma, at the promised
        # wp = t + 24 (+ ceil((1-sigma) log2(N+1)) + 8 for sigma < 0), u = 2^-wp,
        # whatever wp the plan returns; |acc| in tol is the exact head sum
        rng = random.Random(20261021 + t)
        for box in [*_EVAL_PLANE_BOXES.values()] * 6:
            (lo, hi), im_bound = box
            s = mpc(round(rng.uniform(lo, hi), 6), round(rng.uniform(-im_bound, im_bound), 6))
            sigma = float(s.real)
            N, _, _ = _em_plan(sigma, abs(float(s.imag)), t)
            wp = t + 24 + (math.ceil((1 - sigma) * math.log2(N + 1)) + 8 if sigma < 0 else 0)
            got = zeta_reference(s, PrecisionContext(t))
            with mp.workprec(2 * wp):
                acc = sum(mpf(n) ** -s for n in range(1, N)) + mpf(N) ** (1 - s) / (s - 1)
                acc += mpf(N) ** -s / 2
                tol = mpf(2) ** (4 - wp) * max(abs(acc), mpf(2) ** (-wp // 2))
                bound = tol + 2 * N * mpf(2) ** -wp * sum(mpf(n) ** -sigma for n in range(1, N))
                assert abs(got - mpmath.zeta(s)) <= bound, s

    def test_rhos_refuse_too_small_n(self):
        # at N = 2 the bound on |T_r| rises before it reaches the least tol
        assert _em_rhos(0.5, 14.0, 2, 152) is None

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

    @pytest.mark.parametrize("s", [mpf("nan"), mpf("inf"), mpc("nan", 1), mpc(2, "-inf")])
    def test_non_finite_s_is_rejected(self, s, ctx128):
        # a NaN or infinite part would leave the choice of N without an end
        with pytest.raises(ValueError, match="finite"):
            zeta_reference(s, ctx128)


class TestTruncationCheck:
    def test_n1(self, table_a400_128, ctx128):
        lhs, rhs = truncation_check(1, table_a400_128, ctx128)
        assert lhs == table_a400_128.values[0]
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

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
    def test_sum_is_exact_then_rounded_once(self, n, table_a400_128, ctx128):
        lhs, _ = truncation_check(n, table_a400_128, ctx128)
        assert lhs == _rounded_exact_sum(table_a400_128.values, _binomial_weights(n),
                                         ctx128.working_bits)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
    def test_right_side_is_rounded_once(self, n, table_a400_128, ctx128):
        # (2n-1) zeta(2n) from mpmath at twice working bits, rounded once to
        # nearest at working bits
        _, rhs = truncation_check(n, table_a400_128, ctx128)
        wb = ctx128.working_bits
        with mp.workprec(2 * wb):
            want = (2 * n - 1) * mpmath.zeta(2 * n)
        assert rhs._mpf_ == libmp.normalize(*want._mpf_, wb, "n")

    @pytest.mark.parametrize("bits", [64, 128])
    def test_rows_are_decided_exactly(self, bits):
        # every stored exponent lowered by 0..40 moves the bound across the
        # gaps; each row must agree with the stated bound summed in Fractions
        ctx = PrecisionContext(bits)
        table = build_table("A", 30, ctx)
        wb = ctx.working_bits
        outcomes = set()
        for drop in range(0, 41, 4):
            errs = tuple(e - drop for e in table.error_bound_exponents)
            shifted = CoefficientTable(kind="A", k_max=30, target_bits=bits, raw=table.raw,
                                       error_bound_exponents=errs)
            for n, passed, rel in _truncation_rows(shifted, wb, 31):
                lhs, rhs = (Fraction(*libmp.to_rational(x))
                            for x in _truncation_raw(n, shifted, wb))
                err = sum(math.comb(n - 1, k) * Fraction(2) ** errs[k] for k in range(n))
                gap = abs(lhs - rhs)
                assert passed == (gap < err + (abs(lhs) + abs(rhs)) / 2 ** wb), (drop, n)
                q = gap / abs(rhs)
                assert rel == libmp.from_rational(q.numerator, q.denominator, 53, "n")
                outcomes.add(passed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("errs,passed", [((1, 0), False), ((1, 1), True)])
    def test_row_bound_is_exact_at_its_edge(self, errs, passed, monkeypatch):
        # lhs 0, rhs 4 and working bits 2 at n = 2: the bound 2^e_0 + 2^e_1 +
        # (|lhs| + |rhs|) 2^-2 is 4, the gap itself, at e = (1, 0), which
        # fails, and 5 at e = (1, 1), which passes
        from maslanka import series

        monkeypatch.setattr(series, "_truncation_raw", lambda n, table, wb: ((0, 0, 0, 0),
                                                                             (0, 1, 2, 1)))
        table = CoefficientTable(kind="A", k_max=1, target_bits=16, raw=((0, 0, 0, 0),) * 2,
                                 error_bound_exponents=errs)
        *_, (n, got, rel) = _truncation_rows(table, 2, 2)
        assert (n, got, rel) == (2, passed, (0, 1, 0, 1))

    def test_preconditions(self, table_a400_128, ctx128, ctx64):
        with pytest.raises(ValueError):
            truncation_check(0, table_a400_128, ctx128)
        short = build_table("A", 2, ctx64)
        with pytest.raises(ValueError):
            truncation_check(5, short, ctx64)
        btab = build_table("b", 5, ctx64)
        with pytest.raises(ValueError):
            truncation_check(2, btab, ctx64)


def _bernoulli_form(s, K: int, ctx: PrecisionContext):
    """c_0 + sum_{k=1}^{K} c_k P_k(2-s), c_0 = 1, c_1 = 1/2, c_k = B_k (k >= 2),
    built as demos/truncation_and_identities.py builds it: the c_k rounded,
    the P_k(2-s) from one pochhammer_values sweep, each product and the sum
    rounded at working_bits."""
    with mp.workprec(ctx.working_bits):
        weights = [mp.one, mpf(1) / 2] + [mpf(b.numerator) / b.denominator
                                          for b in map(bernoulli_number, range(2, K + 1))]
        return mpmath.fsum(c * p for c, p in zip(weights, pochhammer_values(2 - s, K, ctx)))


class TestBernoulliRepresentation:
    """The divergent form (s-1) zeta(s) = 1 + (1/2)(s-1) + sum_{k>=2} B_k P_k(2-s)
    through the public pochhammer_values and bernoulli_number: exact where it
    truncates (s = 1, 0, -1, ...), growing gaps elsewhere."""

    def test_s1_truncates_to_one(self, ctx64):
        for K in (0, 5, 20):
            assert _bernoulli_form(1, K, ctx64) == 1

    def test_s0_is_half(self, ctx64):
        assert _bernoulli_form(0, 1, ctx64) == mpf("0.5")
        assert _bernoulli_form(0, 8, ctx64) == mpf("0.5")
        assert _bernoulli_form(0, 60, ctx64) == mpf("0.5")  # no table to run out of

    def test_s_minus_one(self, ctx64):
        # (-2) zeta(-1) = 1/6
        with mp.workprec(96):
            v = _bernoulli_form(-1, 2, ctx64)
            assert abs(v - mpf(1) / 6) < mpf(2) ** -90

    def test_s_minus_three(self, ctx64):
        # (-4) zeta(-3) = -1/30
        with mp.workprec(96):
            v = _bernoulli_form(-3, 4, ctx64)
            assert abs(v + mpf(1) / 30) < mpf(2) ** -90

    def test_truncation_makes_longer_sums_identical(self, ctx64):
        assert _bernoulli_form(-3, 4, ctx64) == _bernoulli_form(-3, 30, ctx64)

    def test_divergence_at_s3(self, ctx64):
        # |c_K P_K(-1)| = (K+1) |B_K| grows for even K >= 8: the representation
        # earns its "divergent" label through increasing doubling gaps
        gaps = []
        for K in range(8, 31, 2):
            with mp.workprec(96):
                gap = abs(_bernoulli_form(3, K, ctx64) - _bernoulli_form(3, K - 2, ctx64))
            gaps.append(gap)
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("s", [mpf("0.3"), mpc("0.5", "14.134725"), mpc(-3, 2), mpf(7)])
    def test_within_stated_bound(self, s, ctx64):
        # against the exact Bernoulli numbers and the defining product of
        # P_k(2-s) at twice the precision, with u = 2^-wb: each P_k within
        # u/2 + u |P_k| (pochhammer_values), each c_k within u |c_k|, each
        # product within u |c_k P_k| and the sum of K+1 terms within
        # (K+1) u sum |c_k P_k|
        wb, K = ctx64.working_bits, 40
        value = _bernoulli_form(s, K, ctx64)
        with mp.workprec(2 * wb):
            h, P, acc, abs_c, abs_terms = 2 - s, mpf(1), mpf(1), mpf(1), mpf(1)
            for k in range(1, K + 1):
                P *= 1 - h / k
                c = bernoulli_number(k) if k > 1 else Fraction(1, 2)
                b = mpf(c.numerator) / c.denominator
                acc += b * P
                abs_c += abs(b)
                abs_terms += abs(b * P)
            err = abs(value - acc)
            bound = mpf(2) ** -wb * (abs_c / 2 + (K + 5) * abs_terms)
        assert err <= bound

    def test_preconditions(self, ctx64):
        with pytest.raises(ValueError):
            pochhammer_values(2, -1, ctx64)
