"""Traced in-process replay of the workloads, for the per-layer metrics.

Each replay makes the library calls the CLI commands (or, for eval_plane, the
benchmark loop) make, with a span around every call into a module, so each
layer's self time can be read off.  The replay is a fixed list of operations
drawn from the seed, so its counts repeat exactly for a seed.

Differences from the untraced run, on purpose:
- The Bernoulli row is computed once, cold, in its own span before the first
  table build, so the build spans time the coefficient kernel on a warm row
  (the default worker pool forks from this process and inherits the row).
- One pass of each operation is replayed instead of a loop of --seconds
  (for crosscheck, one pass over the em-check grid).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

from mpmath import mp, mpf

import inputs
from maslanka import (PrecisionContext, a_k, a_k_alt, build_paj, build_table, decay_fit,
                      em_remainder_a_k, load_table, maslanka_eval,
                      required_bits_for_alternating_sum, rh_diagnostic, save_table,
                      truncation_check, zeta_even, zeta_reference)
from maslanka.pochhammer import pochhammer_values
from reference import CoefficientReference, near_miss, series_target
from tracing import Tracer
from workloads import READ_TOL, Outcome


class Replay:
    def __init__(self, tracer: Tracer, outcome: Outcome, work: Path) -> None:
        self.tr = tracer
        self.o = outcome
        self.work = work

    # -- traced calls into single layers -------------------------------------

    def zeta_row(self, k_max: int, bits: int) -> None:
        ctx = PrecisionContext(bits)
        with self.tr.span("bernoulli.zeta_row"):
            for j in range(k_max + 1):
                zeta_even(2 * j + 2, ctx)
        self.tr.count("bernoulli.zeta_row_terms", k_max + 1)

    def build(self, kind: str, k_max: int, bits: int):
        with self.tr.span("coefficients.build"):
            table = build_table(kind, k_max, PrecisionContext(bits))
        self.tr.count("coefficients.sum_terms", (k_max + 1) * (k_max + 2) // 2)
        self.tr.maximum("coefficients.max_working_bits",
                        required_bits_for_alternating_sum(k_max, bits))
        return table

    def save(self, table, path: Path) -> None:
        with self.tr.span("coefficients.save"):
            save_table(table, path)
        self.tr.count("coefficients.file_bytes", path.stat().st_size)

    def load(self, path: Path):
        with self.tr.span("coefficients.load"):
            return load_table(path)

    def spot_check(self, table, ref: CoefficientReference, ks) -> None:
        """Gate the entries on the independent reference and count the ones
        whose error exceeds the bound the table stores (a count, not a failure)."""
        ok = True
        for k in ks:
            ok &= ref.agrees(k, table.values[k])
            self.tr.count("coefficients.bound_misses",
                          ref.bound_missed(k, table.values[k], table.error_bound_exponents[k]))
            self.tr.count("coefficients.spot_checked", 1)
        self.o.check(ok, f"{table.kind} table entries {ks} disagree with the reference")

    def evaluate(self, literal: str, tol: str, table, ctx, sweep: bool):
        s = inputs.point_value(literal)
        with self.tr.span("series.eval"):
            result = maslanka_eval(s, table, mpf(tol), ctx)
        if sweep:
            with self.tr.span("pochhammer.sweep"):
                pochhammer_values(s / 2, result.terms_used - 1, ctx)
        self.tr.count("series.evals", 1)
        self.tr.count("series.converged", result.converged)
        self.tr.count("series.terms_used", result.terms_used)
        return s, result

    def em_remainder(self, k: int, a: int, paj, ctx, tol) -> tuple:
        with self.tr.span("coefficients.a_k"):
            ref = a_k(k, ctx)
        with self.tr.span("phik.em_remainder"):
            val = em_remainder_a_k(k, a, paj, ctx, abs(ref) * tol / 100)
        return ref, val

    def paj(self, a_max: int):
        with self.tr.span("phik.build_paj"):
            return build_paj(a_max)

    # -- workloads -----------------------------------------------------------

    def tables_cold(self, sizes: inputs.Sizes, seed: int) -> None:
        w, op = "tables_cold", self.tr.operation
        a_ref = CoefficientReference("A", sizes.a_kmax, sizes.a_bits)
        b_ref = CoefficientReference("b", sizes.b_kmax, sizes.b_bits)
        path = self.work / "A.tbl"
        with op("coeff"):
            self.zeta_row(max(sizes.a_kmax, sizes.b_kmax), sizes.a_bits)
            table = self.build("A", sizes.a_kmax, sizes.a_bits)
            self.save(table, path)
        self.spot_check(table, a_ref, inputs.spot_entries(w, seed, "A", sizes.a_kmax,
                                                         sizes.spot_entries))
        with op("bk"):
            b_table = self.build("b", sizes.b_kmax, sizes.b_bits)
            with self.tr.span("analysis.rh_diagnostic"):
                rh_diagnostic(b_table, 1, sizes.b_kmax)
        self.spot_check(b_table, b_ref, inputs.spot_entries(w, seed, "b", sizes.b_kmax,
                                                           sizes.spot_entries))
        with op("cache-info"):
            loaded = self.load(path)
        self.o.check(loaded == table, "table changed in a save/load round trip")
        with op("decay"):
            loaded = self.load(path)
            with self.tr.span("analysis.decay_fit"):
                decay_fit(loaded, *sizes.decay_range)
        ctx = PrecisionContext(sizes.a_bits)
        reads, _ = next(inputs.cycles(w, seed, "reads", inputs.READ_GRID, 1))
        for literal in reads:
            with op("eval"):
                loaded = self.load(path)
                s, result = self.evaluate(literal, READ_TOL, loaded, ctx, sweep=False)
            err = _error(result.value, s)
            self.o.check(result.converged and err <= mpf(READ_TOL), f"eval s={literal}",
                         hard=result.converged and not near_miss(err, READ_TOL))

    def eval_plane(self, sizes: inputs.Sizes, seed: int) -> None:
        w, op = "eval_plane", self.tr.operation
        ctx = PrecisionContext(sizes.a_bits)
        path = self.work / "A.tbl"
        with op("setup"):
            self.zeta_row(sizes.plane_kmax, sizes.a_bits)
            self.save(self.build("A", sizes.plane_kmax, sizes.a_bits), path)
            table = self.load(path)
        self.spot_check(table, CoefficientReference("A", sizes.plane_kmax, sizes.a_bits),
                        inputs.spot_entries(w, seed, "A", sizes.plane_kmax, sizes.spot_entries))
        points = inputs.plane_points(w, seed)
        for _ in range(sizes.trace_points):
            region, literal, tol, _ = next(points)
            with op("point"):
                s, result = self.evaluate(literal, tol, table, ctx, sweep=True)
                with self.tr.span("series.reference"):
                    ref = zeta_reference(s, ctx)
            with mp.workprec(ctx.working_bits):
                err = abs(result.value - (s - 1) * ref)
            self.o.check(result.converged and err <= mpf(tol),
                         f"eval {region} s={literal} tol={tol}",
                         hard=result.converged and not near_miss(err, tol))

    def crosscheck(self, sizes: inputs.Sizes, seed: int) -> None:
        op = self.tr.operation
        ctx = PrecisionContext(sizes.cli_bits)
        tol = mpf(sizes.em_tol)
        with op("verify-em"):
            self.zeta_row(sizes.cross_kmax + 1, sizes.cli_bits)
            paj = self.paj(max(a for _, a in inputs.EM_SUITE_PAIRS) + 1)
            for k, a in inputs.EM_SUITE_PAIRS:
                ref, val = self.em_remainder(k, a, paj, ctx, tol)
                self.o.check(abs(val - ref) < tol * abs(ref), f"em-remainder k={k} a={a}")
        with op("verify-cross"):
            for k in range(1, sizes.cross_kmax + 1):
                with self.tr.span("coefficients.a_k"):
                    va = a_k(k, ctx)
                with self.tr.span("coefficients.a_k_alt"):
                    vb = a_k_alt(k, ctx)
                self.o.check(abs(va - vb) < abs(va) * mpf(2) ** (6 - sizes.cli_bits),
                             f"cross-identity k={k}")
        with op("verify-truncation"):
            table = self.build("A", sizes.truncation_nmax - 1, sizes.cli_bits)
            with self.tr.span("series.truncation_check"):
                sides = [truncation_check(n, table, ctx)
                         for n in range(1, sizes.truncation_nmax + 1)]
        self.o.check(all(abs(lhs - rhs) < abs(rhs) * mpf(2) ** (8 - sizes.cli_bits)
                         for lhs, rhs in sides), "truncation identities")
        a_ref = CoefficientReference("A", sizes.em_ks[1], sizes.cli_bits)
        pairs, _ = next(inputs.cycles("crosscheck", seed, "em", inputs.em_grid(sizes.em_ks), 1))
        for k, a in pairs:
            with op("em-check"):
                _, val = self.em_remainder(k, a, self.paj(a + 1), ctx, tol)
            with mp.workprec(a_ref.prec):
                rel = a_ref.error(k, val) / abs(a_ref.value(k))
            self.o.check(rel <= tol, f"em-check k={k} a={a}", hard=not near_miss(rel, tol))


def _error(value, s):
    with mp.workprec(192):
        return abs(value - series_target(s))


def import_seconds(src: Path, repeats: int = 3) -> float:
    """Median time of `import maslanka` in a fresh interpreter, timed inside it."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    code = "import time; t = time.perf_counter(); import maslanka; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)
