"""Arbitrary-precision numeric kernel.

Every numeric operation in this package runs against a PrecisionContext that
separates the accuracy actually promised to the caller (``target_bits``) from
the precision used internally (``working_bits``).  The split matters because
the alternating binomial sums computed in :mod:`maslanka.coefficients` lose
roughly ``k`` leading bits to cancellation at index ``k``; the helper
:func:`required_bits_for_alternating_sum` quantifies the escalation needed to
absorb that loss.

Values are mpmath ``mpf``/``mpc`` instances (``Real``/``Complex`` below) and
exact rationals are ``fractions.Fraction``; the hot loops (the coefficient
kernel, the series sum) work internally in Python integers at a fixed-point
scale and hand back ``mpf``/``mpc`` values.  mpmath arithmetic is
round-to-nearest throughout; there is no interval mode, and refinement consistency tests
(recompute at twice the bits, compare) stand in for rigorous enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

__all__ = [
    "Complex",
    "PoleError",
    "PrecisionContext",
    "Real",
    "as_real",
    "ln_gamma",
    "pi",
    "required_bits_for_alternating_sum",
]

Real = mpf
Complex = mpc

DEFAULT_TARGET_BITS = 128

# Margin added on top of the cancellation-driven escalation: covers per-term
# rounding in sums of a few thousand terms with room to spare.
GUARD_BITS = 32


class PoleError(ValueError):
    """An operation was evaluated at a pole of the underlying function."""


def required_bits_for_alternating_sum(k: int, target_bits: int) -> int:
    """Working precision that keeps an order-k alternating binomial sum accurate.

    The largest intermediate term of such a sum is below
    ``(2k+1) * zeta(2) * C(k, k//2) < 2**(k + log2(k) + 2)`` while the result can
    be arbitrarily small, so ``k + ceil(log2(k+2))`` leading bits are lost to
    cancellation.  Returns ``target_bits + k + ceil(log2(k+2)) + 32``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if target_bits < 1:
        raise ValueError("target_bits must be positive")
    return target_bits + k + (k + 1).bit_length() + GUARD_BITS


@dataclass(frozen=True)
class PrecisionContext:
    """Precision policy shared by all operations.

    ``target_bits`` is the accuracy promised to the caller, ``working_bits``
    the precision actually used inside an operation.  ``working_bits=0`` (the
    default) means ``target_bits + GUARD_BITS``.  Operations that face
    catastrophic cancellation ignore ``working_bits`` and escalate on their
    own via :meth:`escalated`.
    """

    target_bits: int = DEFAULT_TARGET_BITS
    working_bits: int = 0

    def __post_init__(self) -> None:
        if self.target_bits < 16:
            raise ValueError("target_bits must be at least 16")
        if self.working_bits == 0:
            object.__setattr__(self, "working_bits", self.target_bits + GUARD_BITS)
        if self.working_bits < self.target_bits:
            raise ValueError("working_bits must be >= target_bits")

    def prec(self):
        """Context manager setting mpmath precision to working_bits."""
        return mp.workprec(self.working_bits)

    def escalated(self, k: int) -> "PrecisionContext":
        """Same target, working precision raised for an order-k alternating sum."""
        return PrecisionContext(
            self.target_bits,
            max(self.working_bits, required_bits_for_alternating_sum(k, self.target_bits)),
        )


def as_real(x, ctx: PrecisionContext) -> Real:
    """Convert int/float/str/Fraction to Real at the context's working precision."""
    with ctx.prec():
        if isinstance(x, Fraction):
            return mpf(x.numerator) / mpf(x.denominator)
        return +mpf(x)


def pi(ctx: PrecisionContext) -> Real:
    """pi rounded to the context's working precision."""
    with ctx.prec():
        return +mp.pi


def ln_gamma(z, ctx: PrecisionContext):
    """Principal branch of log Gamma(z).

    Raises PoleError at the poles z = 0, -1, -2, ...  This, rather than gamma
    itself, is the primitive used for Pochhammer ratios: the ratio of three
    huge Gamma values is formed by subtracting logs and exponentiating once,
    which never overflows.
    """
    with ctx.prec():
        try:
            return +mpmath.loggamma(z)
        except ValueError as exc:
            raise PoleError(f"log-gamma pole at z = {z}") from exc
