"""The three untraced workloads.

Each is a closed loop: one caller, one operation at a time, and every
operation's output is checked before the next one starts.  A failed or missed
operation counts against the attempts and is never dropped or re-drawn.

tables_cold and crosscheck run the `maslanka` CLI as subprocesses with the
environment the benchmark was started with (so table builds use their default
worker pool); eval_plane calls the library in-process.

Speed probe.  The shared host this benchmark was built on runs the same code
up to twice as slowly for minutes at a time when its neighbours are busy, so
raw medians of 20-second runs differ by 20-40% from run to run.  Before every
operation each run therefore times a fixed probe (mpmath arithmetic, no
package code) run the way the operations run: in-process for eval_plane, as a
fresh interpreter for the CLI workloads (an in-process probe does not follow
the speed of subprocesses).  Every wall time of the run is rescaled by
(reference probe time) / (mean of the probes just before and just after the
operation): seconds at the host's unloaded speed.  The raw wall times are
printed too.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
from mpmath import mp, mpf

import inputs
import probe
from maslanka import (PrecisionContext, TableFormatError, build_table, load_table, maslanka_eval,
                      save_table, zeta_reference)
from reference import CoefficientReference, near_miss, parse_value, series_target

CLI_TIMEOUT_S = 170
READ_TOL = "1e-6"
# A run holds only three or two cycles; the short commands whose timing is a
# metric run this often in each cycle, so that the run's median rests on more
# than two or three samples.
SHORT_OP_REPEATS = 2

# Probe sizes and their median times on an unloaded 2-core Intel Xeon (2.1 GHz) host.
PROBE_STEPS, PROBE_REF_S = 300, 0.0016                        # in-process
CLI_PROBE_STEPS, CLI_PROBE_REF_S = 12000, 0.16                # fresh interpreter


@dataclass
class Outcome:
    """What one run measured: timed operations, probe times, failed and missed ops."""

    probe_ref_s: float = PROBE_REF_S
    ops: list[tuple[str, float, float]] = field(default_factory=list)     # kind, start, end
    probes: list[tuple[float, float]] = field(default_factory=list)       # end, duration
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)
    peak_rss_kb: int = 0
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def check(self, ok: bool, what: str, hard: bool = True) -> bool:
        """Count one attempted operation.  An operation that does not pass
        either fails (hard: a bad exit or a wrong output, which marks the run
        incorrect) or misses (one of the package's known misses: a series
        evaluation running out of table, or a near miss of a tolerance, see
        reference.NEAR_MISS).  Both count against tol_met_share."""
        self.attempted += 1
        if not ok:
            (self.failures if hard else self.misses).append(what)
        return ok

    def tol_met_share(self) -> float:
        return 1 - (len(self.failures) + len(self.misses)) / self.attempted

    def record(self, kind: str, start: float, end: float) -> None:
        self.ops.append((kind, start, end))

    def probe(self) -> None:
        t0 = time.perf_counter()
        probe.probe(PROBE_STEPS)
        t1 = time.perf_counter()
        self.probes.append((t1, t1 - t0))

    def kinds(self) -> list[str]:
        return list(dict.fromkeys(kind for kind, _, _ in self.ops))

    def walls(self, kind: str) -> list[float]:
        return [end - start for k, start, end in self.ops if k == kind]

    def scaled(self, kind: str) -> list[float]:
        """Wall times of one op kind rescaled to the reference probe speed, by
        the mean of the probes run just before and just after each operation."""
        ends = [t for t, _ in self.probes]
        out = []
        for k, start, end in self.ops:
            if k == kind:
                i = bisect.bisect_right(ends, start)
                near = [d for _, d in self.probes[max(i - 1, 0):i + 1]]
                out.append((end - start) * self.probe_ref_s / statistics.fmean(near))
        return out


@dataclass
class CliResult:
    code: int
    stdout: str


class Cli:
    """Runs `python -m maslanka.cli` from the checkout's src/ in a work directory."""

    def __init__(self, src: Path, work: Path, outcome: Outcome) -> None:
        self.work = work
        self.outcome = outcome
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))

    def __call__(self, kind: str, *args: str) -> CliResult:
        """Run one CLI command, timed as an operation of the given kind."""
        self.probe()
        out_path, err_path = self.work / "cli.stdout", self.work / "cli.stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "maslanka.cli", *args], cwd=self.work,
                                    env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(CLI_TIMEOUT_S, _kill_tree, (proc.pid,))
            watchdog.start()
            try:
                # wait4 gives the child's rusage, whose maxrss covers its worker pool
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: leave no command or worker running
                _kill_tree(proc.pid)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.outcome.record(kind, t0, time.perf_counter())
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.outcome.peak_rss_kb = max(self.outcome.peak_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out_path.read_text())

    def probe(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe.__file__, str(CLI_PROBE_STEPS)], cwd=self.work,
                       env=self.env, stdout=subprocess.DEVNULL, check=True, timeout=CLI_TIMEOUT_S)
        t1 = time.perf_counter()
        self.outcome.probes.append((t1, t1 - t0))


def _kill_tree(pid: int) -> None:
    """SIGKILL a process and its descendants (a CLI command and its worker pool)."""
    try:
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        children = []
    for child in children:
        _kill_tree(int(child))
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def _fields(text: str) -> dict[str, str]:
    """`name = value` lines of the CLI's text output."""
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            out[name] = value
    return out


def cli_setup(cli: Cli, sizes: inputs.Sizes, outcome: Outcome) -> None:
    """Set-up of the CLI workloads: start the CLI until it is ready to serve."""
    for _ in range(sizes.setup_repeats):
        r = cli("setup", "--help")
        outcome.check(r.code == 0 and "usage: maslanka" in r.stdout, f"--help exit {r.code}")


def _table_entries_agree(path: Path, ref: CoefficientReference, ks, kind, k_max, bits) -> bool:
    try:
        table = load_table(path)
    except (OSError, TableFormatError):
        return False
    return ((table.kind, table.k_max, table.target_bits) == (kind, k_max, bits)
            and all(ref.agrees(k, table.values[k]) for k in ks))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_tables_cold(src, work, sizes: inputs.Sizes, seed: int, seconds: float) -> Outcome:
    o = Outcome(CLI_PROBE_REF_S)
    cli = Cli(src, work, o)
    w = "tables_cold"
    a_ref = CoefficientReference("A", sizes.a_kmax, sizes.a_bits)
    b_ref = CoefficientReference("b", sizes.b_kmax, sizes.b_bits)
    a_spots = inputs.spot_entries(w, seed, "A", sizes.a_kmax, sizes.spot_entries)
    b_spots = inputs.spot_entries(w, seed, "b", sizes.b_kmax, sizes.spot_entries)
    lo, hi = sizes.decay_range
    cli_setup(cli, sizes, o)

    start = time.perf_counter()
    for reads, pass_done in inputs.cycles(w, seed, "reads", inputs.READ_GRID, 3):
        for _ in range(SHORT_OP_REPEATS):
            r = cli("coeff", "coeff", "--kind", "A", "--kmax", str(sizes.a_kmax),
                    "--bits", str(sizes.a_bits), "--out", "A.tbl")
            o.check(r.code == 0 and _table_entries_agree(work / "A.tbl", a_ref, a_spots, "A",
                                                          sizes.a_kmax, sizes.a_bits),
                    f"coeff exit {r.code} or A table wrong")

        r = cli("bk", "bk", "--kmax", str(sizes.b_kmax), "--bits", str(sizes.b_bits),
                "--format", "csv", "--out", "bk.csv")
        ok = r.code == 0
        if ok:
            rows = _csv_rows(work / "bk.csv")
            ok = len(rows) == sizes.b_kmax + 1 and all(
                rows[k][0] == str(k) and b_ref.agrees(k, parse_value(rows[k][1]))
                for k in b_spots if k >= 1)
        o.check(ok, f"bk exit {r.code} or b values wrong")

        r = cli("read", "cache-info", "--table", "A.tbl")
        f = _fields(r.stdout)
        o.check(r.code == 0 and f.get("kind") == "A" and f.get("k_max") == str(sizes.a_kmax)
                and f.get("checksum") == "ok" and a_ref.agrees(0, parse_value(f.get("first", "x"))),
                f"cache-info exit {r.code} or wrong fields")

        r = cli("read", "decay", "--table", "A.tbl", "--kmin", str(lo), "--kmax", str(hi),
                "--out", "decay.csv")
        ok = r.code == 0
        if ok:
            rows = _csv_rows(work / "decay.csv")
            ok = (len(rows) == hi - lo + 2 and rows[1][0] == str(lo) and rows[-1][0] == str(hi)
                  and a_ref.agrees(hi, parse_value(rows[-1][1])))
        o.check(ok, f"decay exit {r.code} or rows wrong")

        for s in reads:
            r = cli("read", "eval", "--table", "A.tbl", "--s", s, "--tol", READ_TOL)
            ok, hard = _eval_read(r, s, READ_TOL)
            o.check(ok, f"eval s={s} tol={READ_TOL} exit {r.code}", hard)

        if pass_done and time.perf_counter() - start >= seconds:
            cli.probe()
            return o


def _eval_read(r: CliResult, s: str, tol: str) -> tuple[bool, bool]:
    """(passed, hard) for one `eval` read.  An exhausted table (exit 3) or a
    near miss of tol is the series' own failure, counted like an eval_plane
    miss; any other exit, malformed output or larger error is a hard failure."""
    f = _fields(r.stdout)
    if r.code not in (0, 3) or "value" not in f:
        return False, True
    if r.code == 3:
        return False, False
    with mp.workprec(192):
        err = abs(parse_value(f["value"]) - series_target(inputs.point_value(s)))
    return err <= mpf(tol), not near_miss(err, tol)


def run_crosscheck(src, work, sizes: inputs.Sizes, seed: int, seconds: float) -> Outcome:
    o = Outcome(CLI_PROBE_REF_S)
    cli = Cli(src, work, o)
    w = "crosscheck"
    bits = str(sizes.cli_bits)
    a_ref = CoefficientReference("A", sizes.em_ks[1], sizes.cli_bits)
    cli_setup(cli, sizes, o)

    start = time.perf_counter()
    for pairs, pass_done in inputs.cycles(w, seed, "em", inputs.em_grid(sizes.em_ks), 2):
        r = cli("verify_em", "verify", "--suite", "em-remainder", "--bits", bits,
                "--tol", sizes.em_tol)
        o.check(r.code == 0 and r.stdout.count("PASS em-remainder") == len(inputs.EM_SUITE_PAIRS),
                f"verify em-remainder exit {r.code}")

        for _ in range(SHORT_OP_REPEATS):
            r = cli("verify_cross", "verify", "--suite", "cross-identity", "--bits", bits)
            o.check(r.code == 0 and "PASS cross-identity" in r.stdout,
                    f"verify cross-identity exit {r.code}")

        r = cli("verify_truncation", "verify", "--suite", "truncation", "--bits", bits,
                "--nmax", str(sizes.truncation_nmax))
        o.check(r.code == 0 and r.stdout.count("PASS truncation") == sizes.truncation_nmax,
                f"verify truncation exit {r.code}")

        for k, a in pairs:
            r = cli("em_check", "em-check", "--k", str(k), "--a", str(a), "--bits", bits,
                    "--tol", sizes.em_tol)
            o.counts["em_check_missed"] += r.code == 3
            ok, hard = _em_output(r, k, a, a_ref, sizes.em_tol)
            o.check(ok, f"em-check k={k} a={a} exit {r.code}", hard)

        if pass_done and time.perf_counter() - start >= seconds:
            cli.probe()
            return o


def _em_output(r: CliResult, k: int, a: int, ref: CoefficientReference,
               tol: str) -> tuple[bool, bool]:
    """(passed, hard) for one `em-check`: the remainder integral itself must
    match the independent A_k to tol.  A tolerance miss (exit 3) within the
    near-miss factor is the quadrature's known failure, counted but not hard."""
    f = _fields(r.stdout)
    value = f.get(f"em_remainder(k={k}, a={a})")
    if r.code not in (0, 3) or value is None:
        return False, True
    with mp.workprec(ref.prec):
        rel = ref.error(k, parse_value(value)) / abs(ref.value(k))
    return r.code == 0 and rel <= mpf(tol), not near_miss(rel, tol)


def run_eval_plane(src, work, sizes: inputs.Sizes, seed: int, seconds: float) -> Outcome:
    o = Outcome()
    w = "eval_plane"
    ctx = PrecisionContext(sizes.a_bits)
    a_ref = CoefficientReference("A", sizes.plane_kmax, sizes.a_bits)
    spots = inputs.spot_entries(w, seed, "A", sizes.plane_kmax, sizes.spot_entries)
    path = work / "A.tbl"
    for _ in range(sizes.setup_repeats):
        o.probe()
        t0 = time.perf_counter()
        save_table(build_table("A", sizes.plane_kmax, ctx), path)
        table = load_table(path)
        o.record("setup", t0, time.perf_counter())
        o.check(table.k_max == sizes.plane_kmax
                and all(a_ref.agrees(k, table.values[k]) for k in spots), "set-up table wrong")

    start = time.perf_counter()
    for region, literal, tol, pass_done in inputs.plane_points(w, seed):
        s = inputs.point_value(literal)
        o.probe()
        t0 = time.perf_counter()
        result = maslanka_eval(s, table, mpf(tol), ctx)
        t1 = time.perf_counter()
        ref = zeta_reference(s, ctx)
        t2 = time.perf_counter()
        o.record("eval", t0, t1)
        o.record("reference", t1, t2)
        o.counts[f"terms_used.{region}"] += result.terms_used
        if not result.converged:
            o.counts["exhausted"] += 1
        with mp.workprec(ctx.working_bits):
            err = abs(result.value - (s - 1) * ref)
        missed = result.converged and err > mpf(tol)
        o.counts["tol_missed"] += missed
        o.counts[f"failed.{region}"] += missed or not result.converged
        o.check(result.converged and not missed,
                f"eval {region} s={literal} tol={tol}: "
                + ("table exhausted" if not result.converged else f"err {mpmath.nstr(err, 3)}"),
                hard=result.converged and not near_miss(err, tol))
        if pass_done and time.perf_counter() - start >= seconds:
            o.probe()
            return o


RUNNERS = {"tables_cold": run_tables_cold, "eval_plane": run_eval_plane,
           "crosscheck": run_crosscheck}
