"""Independent references for the benchmark's correctness gates.

Nothing here imports maslanka.  Coefficient references are the defining
alternating sums over ``mpmath.zeta(2j+2)``, summed at 64 bits more than the
cancellation needs, so they share no code with the package's ``bernoulli`` or
``coefficients`` modules.  Series values are checked against
``(s-1) * mpmath.zeta(s)``.
"""

from __future__ import annotations

import math
import re

import mpmath
from mpmath import mp, mpf

# The CLI prints reals as <sign><digit>.<digits>e<sign><exponent>.
_REAL = r"[+-]\d\.\d+e[+-]\d+"
_COMPLEX = re.compile(rf"({_REAL})(?:({_REAL})i)?")

# A result that misses its tolerance by at most this factor shows one of the
# package's known defects (the series stopping rule, the em-check quadrature;
# the worst miss seen is 8x): a missed operation, but not a wrong output.  A
# larger error is a wrong output.
NEAR_MISS = 100


def near_miss(err, tol) -> bool:
    return err <= NEAR_MISS * mpf(tol)


def parse_value(text: str):
    """A real or complex number in the CLI's fixed output format."""
    m = _COMPLEX.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"unparsable value {text!r}")
    with mp.workprec(600):
        re_part = mpf(m.group(1))
        return mpmath.mpc(re_part, mpf(m.group(2))) if m.group(2) else re_part


class CoefficientReference:
    """A_k = sum_j (-1)^j C(k,j) (2j+1) zeta(2j+2), or b_k with 1/zeta(2j+2)."""

    def __init__(self, kind: str, k_max: int, target_bits: int) -> None:
        self.kind = kind
        self.target_bits = target_bits
        self.prec = target_bits + k_max + 2 * (k_max + 1).bit_length() + 64
        with mp.workprec(self.prec):
            zetas = [mpmath.zeta(2 * j + 2) for j in range(k_max + 1)]
            if kind == "A":
                self.row = [(2 * j + 1) * z for j, z in enumerate(zetas)]
            else:
                self.row = [1 / z for z in zetas]
        self._cache: dict[int, mpf] = {}

    def value(self, k: int) -> mpf:
        v = self._cache.get(k)
        if v is None:
            with mp.workprec(self.prec):
                acc = mp.zero
                for j in range(k + 1):
                    term = math.comb(k, j) * self.row[j]
                    acc = acc + term if j % 2 == 0 else acc - term
                v = self._cache[k] = +acc
        return v

    def error(self, k: int, stored) -> mpf:
        with mp.workprec(self.prec):
            return abs(mpf(stored) - self.value(k))

    def agrees(self, k: int, stored) -> bool:
        """The gate: stored is within 2^8 times the error model the seed stores
        with each entry, plus 16 units in the last place of the final rounding.

        The model is the benchmark's own copy of the seed's, so a later change
        to the bounds a table stores cannot widen this gate.
        """
        t = self.target_bits
        working = t + k + (k + 1).bit_length() + 32
        model = ((2 * k + 1) * 2 * math.comb(k, k // 2)).bit_length() - working
        with mp.workprec(self.prec):
            allowed = mpf(2) ** (model + 8) + abs(self.value(k)) * mpf(2) ** (4 - t)
            return self.error(k, stored) <= allowed

    def bound_missed(self, k: int, stored, exponent: int) -> bool:
        """True when the error exceeds the 2^e the table stores for entry k."""
        with mp.workprec(self.prec):
            return self.error(k, stored) > mpf(2) ** exponent


def series_target(s, bits: int = 192):
    """(s-1) zeta(s), the quantity the Maslanka series sums to."""
    with mp.workprec(bits):
        z = mpmath.mpmathify(s)
        return (z - 1) * mpmath.zeta(z)
