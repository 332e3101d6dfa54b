"""Smoke test of the benchmark itself, at tiny sizes (about half a minute):

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def default_pool(monkeypatch):
    monkeypatch.delenv("MASLANKA_THREADS", raising=False)


def run_tiny(capsys, *args: str) -> tuple[int, str, str]:
    """run.main in this process at the tiny sizes: (exit code, stdout, stderr)."""
    code = run.main(list(args), sizes=inputs.TINY)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(capsys, workload, trace):
    code, out, err = run_tiny(capsys, "--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", trace)
    assert code == 0, err
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 1 <= result["attempted"] and result["failed"] == 0
    declared = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        for _, name, *_ in inputs.SLOTS[workload]:
            assert f" = {name} = " in out
        assert "failed_ops_share = " in out


def test_refuses_to_run_with_pool_override(capsys, monkeypatch):
    monkeypatch.setenv("MASLANKA_THREADS", "1")
    code, out, err = run_tiny(capsys, "--workload", "crosscheck", "--seed", "1", "--seconds", "1")
    assert code != 0 and out == "" and "MASLANKA_THREADS" in err


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", "tables_cold", "--seed", "1",
                        "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=170)
    assert r.returncode != 0 and r.stdout == ""


def test_inputs_follow_the_seed():
    def draw(seed):
        return (list(itertools.islice(inputs.plane_points("eval_plane", seed), 12)),
                next(inputs.cycles("crosscheck", seed, "em", inputs.em_grid((10, 21)), 2)),
                inputs.spot_entries("tables_cold", seed, "A", 900, 4))
    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_plane_pass_meets_every_stratum():
    points = list(itertools.islice(inputs.plane_points("eval_plane", 5), 96))
    assert [p[3] for p in points].index(True) == 95
    line = [float(inputs.point_value(lit).imag) for region, lit, tol, _ in points
            if region == "line" and tol == "1e-6"]
    assert sorted(int((im + 15) / 30 * 8) for im in line) == list(range(8))


def test_self_time_excludes_children_and_other_workloads():
    tr = Tracer()
    tr.workload = "w"
    with tr.operation("op"):
        with tr.span("outer"):
            with tr.span("inner"):
                sum(range(10000))
    tr.workload = "other"
    with tr.operation("op2"):
        with tr.span("inner"):
            tr.count("n", 1)
    rec = {r["name"]: r for r in tr.spans if r["workload"] == "w"}
    selfs = tr.self_times("w")
    inner = rec["inner"]["end"] - rec["inner"]["start"]
    outer = rec["outer"]["end"] - rec["outer"]["start"]
    assert selfs["inner"] == pytest.approx(inner)
    assert selfs["outer"] == pytest.approx(outer - inner)
    assert rec["inner"]["parent"] == tr.spans.index(rec["outer"])
    assert len({r["op"] for r in rec.values()}) == 1
    assert tr.counts["w"]["n"] == 0 and tr.counts["other"]["n"] == 1
