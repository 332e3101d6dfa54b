"""Arbitrary-precision numeric kernel.

Every numeric operation in this package runs against a PrecisionContext whose
one field, ``target_bits``, is the accuracy promised to the caller; the
precision used internally, ``working_bits``, is derived from it as
``target_bits + GUARD_BITS``.  Operations that face catastrophic cancellation
derive their own precision instead: the alternating binomial sums computed in
:mod:`maslanka.coefficients` lose roughly ``k`` leading bits at index ``k``,
and :func:`required_bits_for_alternating_sum` quantifies that loss.

Values are mpmath ``mpf``/``mpc`` instances and exact rationals are
``fractions.Fraction``; the hot loops (the coefficient kernel, the series sum)
work internally in Python integers at a fixed-point scale and hand back
``mpf``/``mpc`` values.  There is no interval mode; error bounds are proven
instead, in the docstrings of the table entries' stored 2^e_k
(:mod:`maslanka.coefficients`), ``maslanka_eval``, ``truncation_check``,
``em_remainder_a_k``, ``deriv_l1_norm`` and ``zeta_reference``.
"""

from __future__ import annotations

from mpmath import mp

__all__ = [
    "PoleError",
    "PrecisionContext",
    "required_bits_for_alternating_sum",
]

# Margin added on top of the cancellation-driven escalation: covers per-term
# rounding in sums of a few thousand terms with room to spare.
GUARD_BITS = 32


class PoleError(ValueError):
    """An operation was evaluated at a pole of the underlying function."""


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``.  An instance takes them
    positionally or by keyword, runs ``__post_init__`` (the subclass's
    validation, if any) and then refuses attribute assignment.  Equality,
    hash and repr follow the fields, and two records are equal only if their
    types are the same.  It stands in for a frozen dataclass: importing
    dataclasses (inspect with it) takes about 11 ms of every process.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if (len(args) + len(kwargs) != len(names)
                or not set(kwargs) <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


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


class PrecisionContext(Record):
    """Precision policy shared by all operations.

    ``target_bits`` is the accuracy promised to the caller; ``working_bits``,
    the precision used inside an operation, is ``target_bits + GUARD_BITS``.
    """

    __slots__ = ("target_bits",)
    target_bits: int

    def __post_init__(self) -> None:
        if self.target_bits < 16:
            raise ValueError("target_bits must be at least 16")

    @property
    def working_bits(self) -> int:
        return self.target_bits + GUARD_BITS

    def prec(self):
        """Context manager setting mpmath precision to working_bits."""
        return mp.workprec(self.working_bits)
