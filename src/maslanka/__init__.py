"""Maslanka's representation of (s-1) zeta(s) = sum_k A_k P_k(s/2).

Arbitrary-precision coefficients with cancellation-aware precision escalation,
Pochhammer polynomials, series evaluation over the whole complex plane, the
Euler-Maclaurin remainder machinery behind the coefficient decay, and the b_k
Riemann-hypothesis criterion sequence, all behind a small library API plus a
CLI (``maslanka --help``).  The top level re-exports the main entry points;
every other name is imported from its module.
"""

from .analysis import decay_fit, rh_diagnostic
from .bernoulli import zeta_even
from .coefficients import TableFormatError, a_k, a_k_alt, build_table, load_table, save_table
from .mpnum import PrecisionContext, required_bits_for_alternating_sum
from .phik import build_paj, em_remainder_a_k
from .series import maslanka_eval, truncation_check, zeta_reference

__version__ = "0.1.0"

__all__ = [
    "PrecisionContext",
    "TableFormatError",
    "a_k",
    "a_k_alt",
    "build_paj",
    "build_table",
    "decay_fit",
    "em_remainder_a_k",
    "load_table",
    "maslanka_eval",
    "required_bits_for_alternating_sum",
    "rh_diagnostic",
    "save_table",
    "truncation_check",
    "zeta_even",
    "zeta_reference",
]
