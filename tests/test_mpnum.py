import dataclasses

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from maslanka.mpnum import PrecisionContext, required_bits_for_alternating_sum


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

    def test_working_bits_is_read_only(self):
        ctx = PrecisionContext(128)
        assert ctx.working_bits == 160
        with pytest.raises(AttributeError):
            ctx.working_bits = 300
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.target_bits = 64

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
