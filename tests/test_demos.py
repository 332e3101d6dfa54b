"""Code outside the package keeps working against it.

The demos run end to end as scripts and print what they claim, and every name
the package exports or the benchmark scripts import still resolves.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maslanka

ROOT = Path(__file__).resolve().parents[1]


def _coefficient_tables(out):
    assert "all entries bit-identical" in out


def _series_everywhere(out):
    table = out.split("|vs reference|\n", 1)[1].split("\n\n", 1)[0]
    assert len(table.splitlines()) == 9, table
    assert "table exhausted" not in out
    assert "is_pole = True" in out


def _truncation_and_identities(out):
    diffs = re.findall(r"^\s*\d+\s+[\d.]+\s+(\S+)$", out, re.M)
    diffs += re.findall(r"(?:rel|abs) diff (\S+)", out)
    assert len(diffs) == 16, out
    assert all(float(d) < 1e-30 for d in diffs), diffs


def _remainder_integral(out):
    rels = [float(m) for m in re.findall(r"rel diff (\S+)", out)]
    assert len(rels) == 3, out
    assert all(r < 1e-6 for r in rels), rels


def _rh_criterion_scan(out):
    slope = float(re.search(r"slope (\S+),", out).group(1))
    assert slope < -0.75, out


CHECKS = {
    "coefficient_tables": _coefficient_tables,
    "series_everywhere": _series_everywhere,
    "truncation_and_identities": _truncation_and_identities,
    "remainder_integral": _remainder_integral,
    "rh_criterion_scan": _rh_criterion_scan,
}


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    CHECKS[name](proc.stdout)


def test_every_exported_name_resolves():
    modules = [maslanka] + [importlib.import_module(f"maslanka.{m.name}")
                            for m in pkgutil.iter_modules(maslanka.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_benchmark_imports_resolve():
    """Each `from maslanka... import name` in bench/*.py names something that exists."""
    imported = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "maslanka":
                imported += [(node.module, alias.name) for alias in node.names]
    assert ("maslanka.pochhammer", "pochhammer_values") in imported
    missing = [f"{mod}.{name}" for mod, name in imported
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing
