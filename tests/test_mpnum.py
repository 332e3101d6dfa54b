import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp, mp

from maslanka.mpnum import (PrecisionContext, _quotient, _ratio, _raw, _sqrt, _to_float,
                            format_nstr, required_bits_for_alternating_sum)


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

    def test_rejects_non_positive_target(self):
        with pytest.raises(ValueError, match="target_bits must be positive"):
            required_bits_for_alternating_sum(5, 0)


class TestPrecisionContext:
    def test_default_working_bits(self):
        ctx = PrecisionContext(100)
        assert ctx.working_bits == 132
        assert ctx.target_bits == 100
        assert ctx == PrecisionContext(100) != PrecisionContext(101)

    def test_working_bits_is_read_only(self):
        ctx = PrecisionContext(128)
        assert ctx.working_bits == 160
        with pytest.raises(AttributeError):
            ctx.working_bits = 300
        with pytest.raises(AttributeError):
            ctx.target_bits = 64
        assert ctx.target_bits == 128

    @pytest.mark.parametrize("args", [(), (64, 300), (128, 64)],
                             ids=["no-target", "working-300", "working-below-target"])
    def test_target_bits_is_the_only_field(self, args):
        with pytest.raises(TypeError):
            PrecisionContext(*args)

    def test_rejects_tiny_target(self):
        with pytest.raises(ValueError):
            PrecisionContext(8)

    def test_prec_context_manager(self):
        with PrecisionContext(64).prec():
            assert mp.prec == 96


def _records():
    """One instance of each value class, a twin built separately, and its repr."""
    from mpmath import mpf

    from maslanka.analysis import DecayFit
    from maslanka.coefficients import CoefficientTable
    from maslanka.phik import build_paj
    from maslanka.series import SeriesResult

    table = dict(kind="A", k_max=1, target_bits=32, raw=((0, 1, 0, 1), (0, 1, -1, 1)),
                 error_bound_exponents=(-40, -41))
    result = dict(s=mpf(4), value=mpf(3), terms_used=5, residual_estimate=mpf(0),
                  zeta_value=mpf(1), is_pole=False, converged=True)
    fit = dict(k_range=(5, 20), slope=-1.5, intercept=0.25, max_abs_residual=0.125,
               excluded_count=2)
    return {
        "PrecisionContext": (lambda: PrecisionContext(64), "PrecisionContext(target_bits=64)"),
        "CoefficientTable": (
            lambda: CoefficientTable(**table),
            "CoefficientTable(kind='A', k_max=1, target_bits=32, "
            "raw=((0, 1, 0, 1), (0, 1, -1, 1)), error_bound_exponents=(-40, -41))"),
        "PajTable": (
            lambda: build_paj(1),
            "PajTable(a_max=1, entries={(0, 0): (1,), (1, 0): (-1,), (1, 1): (1, 2)})"),
        "SeriesResult": (
            lambda: SeriesResult(**result),
            "SeriesResult(s=mpf('4.0'), value=mpf('3.0'), terms_used=5, "
            "residual_estimate=mpf('0.0'), zeta_value=mpf('1.0'), is_pole=False, "
            "converged=True)"),
        "DecayFit": (
            lambda: DecayFit(**fit),
            "DecayFit(k_range=(5, 20), slope=-1.5, intercept=0.25, max_abs_residual=0.125, "
            "excluded_count=2)"),
    }


class TestRecord:
    """The value classes compare, print and refuse assignment as frozen dataclasses do."""

    @pytest.mark.parametrize("name", list(_records()))
    def test_value_semantics(self, name):
        import pickle

        make, text = _records()[name]
        one, twin = make(), make()
        assert type(one).__name__ == name
        assert one == twin and not one != twin and one is not twin
        assert one != PrecisionContext(16)
        assert one != tuple(getattr(one, f) for f in one.__slots__)
        if name != "PajTable":  # its entries are a dict
            assert hash(one) == hash(twin)
        assert repr(one) == text
        field = one.__slots__[0]
        before = getattr(one, field)
        with pytest.raises(AttributeError):
            setattr(one, field, None)
        with pytest.raises(AttributeError):
            delattr(one, field)
        with pytest.raises(AttributeError):
            one.extra = 1
        assert getattr(one, field) == before and one == twin
        assert pickle.loads(pickle.dumps(one)) == one

    def test_fields_bind_like_a_signature(self):
        from maslanka.analysis import DecayFit

        fit = DecayFit((5, 20), -1.5, intercept=0.25, max_abs_residual=0.125, excluded_count=2)
        assert fit == _records()["DecayFit"][0]()
        for args, kwargs in [((), {}), (((5, 20),), {"k_range": (5, 20)}),
                             (((5, 20), -1.5, 0.25, 0.125), {"colour": 2})]:
            with pytest.raises(TypeError):
                DecayFit(*args, **kwargs)


def _raw_samples(seed: str, n: int):
    """n raw tuples: zero now and then, mantissas of 1 to 400 bits (wider than
    the precisions they meet), exponents within +-300, often far apart."""
    rng = random.Random(seed)
    for _ in range(n):
        if rng.random() < 0.03:
            yield (0, 0, 0, 0)
        else:
            man = rng.getrandbits(rng.choice([1, 3, 20, 53, 90, 170, 400])) | 1
            yield _raw(rng.choice([-man, man]), rng.randint(-300, 300))


class TestRawArithmetic:
    """The raw roundings against mpmath.libmp's own, bit for bit, at
    precisions below, near and above the operands' widths."""

    def test_div_is_mpf_div(self):
        # x / y as _ratio takes it, one term over one positive term
        pairs = zip(_raw_samples("div-x", 3000), _raw_samples("div-y", 3000))
        for i, (x, y) in enumerate(pairs):
            if y[1]:
                bits = (16, 53, 100, 170, 240)[i % 5]
                got = _ratio([((-1) ** (x[0] ^ y[0]) * x[1], x[2])], [(y[1], y[2])], bits)
                assert got == libmp.mpf_div(x, y, bits, "n")

    def test_sqrt_is_mpf_sqrt(self):
        for i, x in enumerate(_raw_samples("sqrt", 3000)):
            x = (0, *x[1:])
            bits = (16, 53, 100, 170, 240)[i % 5]
            assert _sqrt(x, bits) == libmp.mpf_sqrt(x, bits, "n")

    def test_to_float_is_mpmaths(self):
        rng = random.Random("float")
        for x in _raw_samples("float", 3000):
            if x[1]:  # out to the float range's ends, below it and past it
                x = (x[0], x[1], rng.randint(-1200, 1100) - x[3], x[3])
            assert _to_float(x) == libmp.to_float(x, rnd="n")
        assert _to_float((1, 1, 1024, 1)) == -math.inf
        # a mantissa past the float range at an exponent that brings it back
        wide = _raw(3**1300, -2050)
        assert _to_float(wide) == libmp.to_float(wide, rnd="n") == 3**1300 / 2**2050


class TestNstr:
    """format_nstr against mpmath's nstr, which to_str prints."""

    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), st.integers(1, 2 ** 200), st.integers(-400, 200),
           st.sampled_from((3, 6, 18, 25)))
    @example(False, 1, 0, 3)  # 1.0: fixed point, the zeros stripped
    @example(False, 999_999, 0, 6)  # 999999.0: the widest fixed point
    @example(False, 1_999_999, -1, 6)  # 999999.5 rounds up past it, to 1.0e+6
    @example(True, 3, -20, 3)  # -2.86e-6: past the small edge, signed
    @example(False, 1, -15, 3)  # 3.05e-5: at it, in fixed point
    @example(False, 1, -20, 18)  # 9.5367431640625e-7: the edge moves to -7 at 18 digits
    def test_is_mpmaths_nstr(self, neg, man, exp, digits):
        # the same rounding as format_real, so the same one exception: a decimal
        # tie in (x - d, x], d = 2^(mag - bitprec + 3), which to_str's
        # truncation to bitprec bits can put x below
        x = _raw(-man if neg else man, exp)
        got, want = format_nstr(x, digits), libmp.to_str(x, digits)
        if got != want:
            mag = exp + man.bit_length()
            d = mag - (int((digits + 3) * math.log(10, 2)) + 10) + 3
            e = min(x[2], d)
            below = _raw(((x[1] << x[2] - e) - (1 << d - e)) * (-1 if neg else 1), e)
            assert format_nstr(below, digits) == want, x

    def test_zero(self):
        assert format_nstr((0, 0, 0, 0), 3) == libmp.to_str(libmp.fzero, 3) == "0.0"

    def test_quotient_is_from_rational(self):
        rng = random.Random("quotient")
        for i in range(3000):
            p = rng.getrandbits(rng.choice([1, 20, 53, 90, 300])) * rng.choice([1, -1])
            q = rng.getrandbits(rng.choice([1, 20, 53, 90, 300])) | 1
            bits = (16, 53, 100, 170, 240)[i % 5]
            assert _quotient(p, q, bits) == libmp.from_rational(p, q, bits, "n")
