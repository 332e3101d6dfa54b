"""The lazy top level: `import maslanka` loads no submodule, and each name in
`__all__` imports its submodule on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maslanka


def _fresh(code: str) -> str:
    """What a fresh interpreter prints for code, with src/ on its path."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# the maslanka modules loaded, and mpmath if it is
LOADED = "[m for m in sorted(sys.modules) if m == 'mpmath' or m.startswith('maslanka')]"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from maslanka import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(maslanka.__all__)
    assert namespace["PrecisionContext"] is maslanka.mpnum.PrecisionContext


def test_dir_lists_every_exported_name_before_any_is_used():
    out = _fresh("import sys, maslanka; "
                 f"print(set(maslanka.__all__) <= set(dir(maslanka)), {LOADED})")
    assert out == "True ['maslanka']"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        maslanka.no_such_name
    assert not hasattr(maslanka, "dataclass")


def test_import_alone_leaves_mpmath_out():
    assert _fresh(f"import sys, maslanka; print({LOADED})") == "['maslanka']"


def test_first_use_imports_one_submodule():
    # mpnum imports mpmath only inside PrecisionContext.prec
    out = _fresh(f"import sys, maslanka; maslanka.PrecisionContext(64); print({LOADED})")
    assert out == "['maslanka', 'maslanka.mpnum']"


@pytest.fixture(scope="module")
def entry_points(table_a400_128, ctx128):
    """name -> (function, arguments), the arguments made at the default precision."""
    from mpmath import mpc, mpf

    from maslanka import analysis, bernoulli, coefficients, phik, pochhammer, series

    table_b = maslanka.build_table("b", 60, ctx128)
    paj = phik.build_paj(6)
    s, tol = mpc("0.5", "14.134725"), mpf("1e-12")
    return {
        "maslanka_eval": (series.maslanka_eval, (mpf("-2.5"), table_a400_128, tol, ctx128)),
        "zeta_reference": (series.zeta_reference, (s, ctx128)),
        "truncation_check": (series.truncation_check, (12, table_a400_128, ctx128)),
        "pochhammer_values": (pochhammer.pochhammer_values, (s / 2, 30, ctx128)),
        "em_remainder_a_k": (phik.em_remainder_a_k,
                             (8, 2, paj, maslanka.PrecisionContext(64), tol)),
        "deriv_l1_norm": (phik.deriv_l1_norm, (12, 5, paj, ctx128)),
        "phi_deriv": (phik.phi_deriv, (12, 5, mpf("2.75"), paj, ctx128)),
        "rh_diagnostic": (analysis.rh_diagnostic, (table_b, 10, 60)),
        "zeta_even": (bernoulli.zeta_even, (40, ctx128)),
        "a_k_alt": (coefficients.a_k_alt, (30, ctx128)),
        "decay_fit": (analysis.decay_fit, (table_a400_128, 50, 200)),
    }


def _exact(x):
    """x with every mpf and mpc replaced by its raw tuple, records by their fields.

    repr would print at the ambient precision, so results are compared this way."""
    from maslanka.mpnum import Record

    if hasattr(x, "_mpf_"):
        return x._mpf_
    if hasattr(x, "_mpc_"):
        return x._mpc_
    if isinstance(x, Record):
        return type(x), _exact(x._fields())
    if isinstance(x, (list, tuple)):
        return tuple(_exact(v) for v in x)
    return x


@pytest.mark.parametrize("prec", [20, 300])
@pytest.mark.parametrize("name", ["maslanka_eval", "zeta_reference", "truncation_check",
                                  "pochhammer_values", "em_remainder_a_k", "deriv_l1_norm",
                                  "phi_deriv", "rh_diagnostic", "zeta_even", "a_k_alt",
                                  "decay_fit"])
def test_results_ignore_the_callers_precision(entry_points, name, prec):
    from mpmath import mp

    fn, args = entry_points[name]
    want = _exact(fn(*args))
    with mp.workprec(prec):
        assert _exact(fn(*args)) == want
