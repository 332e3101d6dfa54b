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
