"""Maslanka's representation of (s-1) zeta(s) = sum_k A_k P_k(s/2).

Arbitrary-precision coefficients with cancellation-aware precision escalation,
Pochhammer polynomials, series evaluation over the whole complex plane, the
Euler-Maclaurin remainder machinery behind the coefficient decay, and the b_k
Riemann-hypothesis criterion sequence, all behind a small library API plus a
CLI (``maslanka --help``).
"""

from .analysis import DecayFit, decay_fit, rh_diagnostic
from .bernoulli import (
    BernoulliTable,
    bernoulli_number,
    bernoulli_table,
    periodified_bernoulli,
    zeta_even,
)
from .coefficients import (
    CoefficientTable,
    TableFormatError,
    a_k,
    a_k_alt,
    b_k,
    build_table,
    load_table,
    save_table,
)
from .mpnum import (
    Complex,
    PoleError,
    PrecisionContext,
    Real,
    ln_gamma,
    pi,
    required_bits_for_alternating_sum,
)
from .phik import (
    PajTable,
    QuadratureError,
    binomial_sum_equals_neg_phi_prime,
    build_paj,
    deriv_l1_norm,
    em_remainder_a_k,
    phi,
    phi_deriv,
)
from .pochhammer import pochhammer_bound_probe, pochhammer_gamma, pochhammer_product
from .series import (
    SeriesResult,
    bernoulli_rep_partial,
    maslanka_eval,
    truncation_check,
    zeta_reference,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "CoefficientTable",
    "Complex",
    "DecayFit",
    "PajTable",
    "PoleError",
    "PrecisionContext",
    "QuadratureError",
    "Real",
    "SeriesResult",
    "TableFormatError",
    "a_k",
    "a_k_alt",
    "b_k",
    "bernoulli_number",
    "bernoulli_rep_partial",
    "bernoulli_table",
    "binomial_sum_equals_neg_phi_prime",
    "build_paj",
    "build_table",
    "decay_fit",
    "deriv_l1_norm",
    "em_remainder_a_k",
    "ln_gamma",
    "load_table",
    "maslanka_eval",
    "periodified_bernoulli",
    "phi",
    "phi_deriv",
    "pi",
    "pochhammer_bound_probe",
    "pochhammer_gamma",
    "pochhammer_product",
    "required_bits_for_alternating_sum",
    "rh_diagnostic",
    "save_table",
    "truncation_check",
    "zeta_even",
    "zeta_reference",
]
