"""Code outside the package keeps working against it.

The demos run end to end as scripts and print what they claim, every name
the package exports or the benchmark scripts import still resolves, the calls
the benchmark makes still take their arguments as it passes them, the top
level exports exactly what these callers import from it, every name a
submodule exports has a caller besides the unit tests, and every private
helper has a caller in the package.
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
    assert len(diffs) == 20, out  # the last four: the Bernoulli form at s = 1, 0, -1, -3
    assert all(float(d) < 1e-30 for d in diffs), diffs
    assert out.count(" identical, value ") == 4, out
    gaps = [float(g) for g in re.findall(r"gap (\S+)", out)]
    assert len(gaps) == 12, out
    assert all(a < b for a, b in zip(gaps, gaps[1:])), gaps


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


def _top_level_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "maslanka" and not node.level
            for alias in node.names}


def test_top_level_exports_are_imported():
    """`maslanka.__all__` is what bench/, demos/, tests/ and the README quick
    start import from the top level, submodules aside."""
    imported = set()
    for folder in ("bench", "demos", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            imported |= _top_level_imports(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        imported |= _top_level_imports(block)
    submodules = {m.name for m in pkgutil.iter_modules(maslanka.__path__)}
    assert set(maslanka.__all__) == imported - submodules
    assert len(maslanka.__all__) == len(set(maslanka.__all__))


def test_benchmark_call_shapes(tmp_path):
    """Each package call in bench/replay.py and bench/workloads.py, at tiny
    sizes and with the argument shapes used there."""
    from mpmath import mpf

    from maslanka import (PrecisionContext, TableFormatError, a_k, a_k_alt, build_paj,
                          build_table, decay_fit, em_remainder_a_k, load_table, maslanka_eval,
                          required_bits_for_alternating_sum, rh_diagnostic, save_table,
                          truncation_check, zeta_even, zeta_reference)
    from maslanka.pochhammer import pochhammer_values

    ctx = PrecisionContext(64)
    assert ctx.working_bits == 96
    assert zeta_even(2, ctx) > 1
    assert required_bits_for_alternating_sum(20, 64) > 64
    table = build_table("A", 20, PrecisionContext(64))
    path = tmp_path / "A.tbl"
    save_table(table, path)
    assert load_table(path) == table
    assert isinstance(table.error_bound_exponents[3], int) and table.values[3] != 0
    b_table = build_table("b", 12, ctx)
    assert len(rh_diagnostic(b_table, 1, 12)) == 12
    assert decay_fit(table, 5, 20).k_range == (5, 20)
    s = mpf(4)  # the series truncates at even s, so the 21 terms suffice
    result = maslanka_eval(s, table, mpf("1e-6"), ctx)
    assert result.converged and result.terms_used >= 1
    assert len(pochhammer_values(s / 2, result.terms_used - 1, ctx)) == result.terms_used
    assert abs(result.value - (s - 1) * zeta_reference(s, ctx)) < 1e-6
    lhs, rhs = truncation_check(3, table, ctx)
    assert abs(lhs - rhs) < abs(rhs) * mpf(2) ** -50
    ref, alt = a_k(8, ctx), a_k_alt(8, ctx)
    assert abs(ref - alt) < abs(ref) * mpf(2) ** -50
    paj = build_paj(3)
    val = em_remainder_a_k(8, 2, paj, ctx, abs(ref) * mpf("1e-6") / 100)
    assert abs(val - ref) < abs(ref) * mpf("1e-6")
    bad = tmp_path / "bad.tbl"
    bad.write_text("not a table\n")
    with pytest.raises(TableFormatError):
        load_table(bad)


def _identifiers(tree, skip=()) -> set[str]:
    """Names, attribute names and imported names used in tree, outside the
    subtrees in skip."""
    skipped = {id(node) for sub in skip for node in ast.walk(sub)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def test_every_submodule_name_has_a_caller():
    """Each name in a submodule's `__all__` is used by the package outside its
    own definition, by a demo, by the benchmark, in the README or by the
    acceptance tests; a route only unit tests call does not belong in src/."""
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        outside |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "maslanka").glob("*.py"))}
    used = {module: _identifiers(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        if module == "__init__":  # the top level has its own test above
            continue
        elsewhere = outside.union(*(ids for m, ids in used.items() if m != module))
        for name in getattr(importlib.import_module(f"maslanka.{module}"), "__all__", ()):
            own = [node for node in tree.body if _defines(node, name) or _defines(node, "__all__")]
            if name not in elsewhere | _identifiers(tree, own):
                unused.append(f"maslanka.{module}.{name}")
    assert not unused


def test_every_private_helper_has_a_caller():
    """Each module-level private function or class in src/maslanka is used in
    src/ outside its own definition: a simplification leaves no dead helper."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "maslanka").glob("*.py"))}
    used = {module: _identifiers(tree) for module, tree in trees.items()}
    helpers, orphans = 0, []
    for module, tree in trees.items():
        elsewhere = set().union(*(ids for m, ids in used.items() if m != module))
        for node in tree.body:
            name = getattr(node, "name", "")
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and name.startswith("_") and not name.startswith("__")):
                continue
            helpers += 1
            if name not in elsewhere | _identifiers(tree, [node]):
                orphans.append(f"maslanka.{module}.{name}")
    assert helpers > 0 and not orphans
