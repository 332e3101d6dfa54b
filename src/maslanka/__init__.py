"""Maslanka's representation of (s-1) zeta(s) = sum_k A_k P_k(s/2).

Arbitrary-precision coefficients with cancellation-aware precision escalation,
Pochhammer polynomials, series evaluation over the whole complex plane, the
Euler-Maclaurin remainder machinery behind the coefficient decay, and the b_k
Riemann-hypothesis criterion sequence, all behind a small library API plus a
CLI (``maslanka --help``).  The top level re-exports the main entry points
lazily: ``import maslanka`` loads no submodule (and no mpmath), and the first
use of a name imports the one submodule that defines it.  Every other name is
imported from its module.
"""

__version__ = "0.1.0"

# the submodule that defines each name of __all__
_SOURCES = {
    "analysis": ("decay_fit", "rh_diagnostic"),
    "bernoulli": ("zeta_even",),
    "coefficients": ("TableFormatError", "a_k", "a_k_alt", "build_table", "load_table",
                     "save_table"),
    "mpnum": ("PrecisionContext", "required_bits_for_alternating_sum"),
    "phik": ("build_paj", "em_remainder_a_k"),
    "series": ("maslanka_eval", "truncation_check", "zeta_reference"),
}
__all__ = sorted(name for names in _SOURCES.values() for name in names)


def __getattr__(name: str):
    module = next((m for m, names in _SOURCES.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
