"""Benchmark of the maslanka package: one workload per run, end to end or traced.

    python3 bench/run.py --workload tables_cold --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout and uses the package under src/ there.
--trace 0 measures the end-to-end metrics (tracing off); --trace 1 replays the
workload in-process with a span around every call into a module and reports
per-layer metrics, writing the spans to .bench_trace/.  Human-readable lines
come first; the last line of stdout is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "tol_met_share": "share",
              "op1_s": "s", "op2_s": "s", "op3_s": "s"}

# Per-layer metrics: span self times (name ends in _s) and counters.
PER_LAYER = {
    "cli.import_s": "s",
    "bernoulli.zeta_row_s": "s", "bernoulli.zeta_row_terms": "count",
    "coefficients.build_s": "s", "coefficients.sum_terms": "count",
    "coefficients.max_working_bits": "bits",
    "coefficients.save_s": "s", "coefficients.load_s": "s", "coefficients.file_bytes": "bytes",
    "coefficients.a_k_s": "s", "coefficients.a_k_alt_s": "s", "coefficients.bound_misses": "count",
    "pochhammer.sweep_s": "s",
    "series.eval_s": "s", "series.terms_used": "count", "series.converged_share": "share",
    "series.reference_s": "s", "series.truncation_check_s": "s",
    "phik.em_remainder_s": "s", "phik.build_paj_s": "s",
    "analysis.decay_fit_s": "s", "analysis.rh_diagnostic_s": "s",
    "trace.overhead_s": "s",
}


def percentile(values: list[float], p: int) -> float:
    if p == 50 or len(values) == 1:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(values: list[float]) -> str:
    """n, median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"n={n} p50={statistics.median(values):.6g}s"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return text + f" p{p}={percentile(values, p):.6g}s ({n - round(n * p / 100)} beyond)"
    return text


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import mpmath
    return {"workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": commit, "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0))}


def end_to_end(workload: str, outcome) -> tuple[dict, list[str]]:
    peak_kb = outcome.peak_rss_kb
    if workload == "eval_plane":   # in-process: the benchmark's own process and its pool
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = outcome.scaled("setup")
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_kb / 1024,
               "tol_met_share": outcome.tol_met_share()}
    lines = [f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setup)} set-ups)",
             f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB",
             f"failed_ops_share = {len(outcome.failures) + len(outcome.misses)}/"
             f"{outcome.attempted} = {1 - metrics['tol_met_share']:.6g} "
             f"({len(outcome.misses)} missed, {len(outcome.failures)} failed)"]
    for slot, name, kind, p, scale in inputs.SLOTS[workload]:
        values = outcome.scaled(kind)
        metrics[slot] = percentile(values, p)
        unit = "ms" if scale == 1e3 else "s"
        lines.append(f"{slot} = {name} = {metrics[slot] * scale:.6g} {unit} "
                     f"(p{p} of n={len(values)})")
    probes = [d for _, d in outcome.probes]
    lines.append(f"  probe: {describe(probes)}; reference {outcome.probe_ref_s}s")
    for kind in outcome.kinds():
        lines.append(f"  {kind}: scaled {describe(outcome.scaled(kind))}; "
                     f"raw wall {describe(outcome.walls(kind))}")
    lines += [f"  count {k} = {v}" for k, v in sorted(outcome.counts.items())]
    lines += [f"  FAILED {what}" for what in outcome.failures[:5]]
    lines += [f"  MISSED {what}" for what in outcome.misses[:5]]
    return metrics, lines


def run_traced(args, sizes: inputs.Sizes, work: Path) -> tuple[dict, list[str], object, bool]:
    from replay import Replay, import_seconds
    from tracing import Tracer
    from workloads import Outcome

    tracer, outcomes, walls = Tracer(), {}, {}
    import_s = import_seconds(SRC)
    # The metrics come from the named workload's spans and counts alone.  The
    # other two workloads are replayed after it at the tiny sizes only so that
    # the side file holds spans of every layer; the tracer tags every span and
    # count with its workload, which keeps them apart.
    order = [args.workload] + [w for w in WHY if w != args.workload]
    for w in order:
        tracer.workload, outcomes[w] = w, Outcome()
        t0 = time.perf_counter()
        getattr(Replay(tracer, outcomes[w], work), w)(
            sizes if w == args.workload else inputs.TINY, args.seed)
        walls[w] = time.perf_counter() - t0

    selfs, counts = tracer.self_times(args.workload), tracer.counts[args.workload]
    overhead = tracer.overhead_s[args.workload]
    metrics = {}
    for name in PER_LAYER:
        if name == "cli.import_s":
            metrics[name] = import_s
        elif name == "trace.overhead_s":
            metrics[name] = overhead
        elif name == "series.converged_share":   # 0 when the workload evaluates no series
            evals = counts["series.evals"]
            metrics[name] = counts["series.converged"] / evals if evals else 0.0
        elif name.endswith("_s"):
            metrics[name] = selfs.get(name[:-2], 0.0)
        else:
            metrics[name] = counts[name]
    trace_file = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(trace_file, {"order": order, "wall_s": walls})
    wall = walls[args.workload]
    lines = [f"{name} = {metrics[name]:.6g} {PER_LAYER[name]}" for name in PER_LAYER]
    lines.append(f"traced replay of {args.workload}: wall {wall:.6g} s, tracing overhead "
                 f"{overhead:.3g} s ({100 * overhead / wall:.3g}%) over "
                 f"{sum(rec['workload'] == args.workload for rec in tracer.spans)} spans; "
                 f"all spans -> {trace_file}")
    lines.append(f"coefficients.bound_misses: {metrics['coefficients.bound_misses']:g} of "
                 f"{counts['coefficients.spot_checked']:g} spot-checked entries")
    lines += [f"  FAILED {what}" for what in outcomes[args.workload].failures[:5]]
    lines += [f"  MISSED {what}" for what in outcomes[args.workload].misses[:5]]
    lines += [f"  coverage replay {w}: {len(outcomes[w].misses)} missed, "
              f"{len(outcomes[w].failures)} failed of {outcomes[w].attempted}" for w in order[1:]]
    correct = not any(o.failures for o in outcomes.values())
    return metrics, lines, outcomes[args.workload], correct


def main(argv=None, sizes: inputs.Sizes = inputs.FULL) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if "MASLANKA_THREADS" in os.environ:
        print("bench: MASLANKA_THREADS is set; unset it, the default worker pool is part of "
              "what is measured", file=sys.stderr)
        return 2
    if not (SRC / "maslanka" / "__init__.py").is_file():
        print(f"bench: no maslanka package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, lines, outcome, correct = run_traced(args, sizes, work)
            units = PER_LAYER
        else:
            outcome = workloads.RUNNERS[args.workload](SRC, work, sizes, args.seed, args.seconds)
            metrics, lines = end_to_end(args.workload, outcome)
            correct = not outcome.failures
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: {WHY[args.workload]}")
    for line in lines:
        print(line)
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the running CLI command is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
