"""Workload definitions, problem sizes and the seeded input generators.

Every input the program sees (evaluation points and tolerances, spot-checked
table indices, Euler-Maclaurin (k, a) pairs) is drawn here from the workload
seed, so the same seed gives the same inputs and the program receives only
the generated values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath

# End-to-end slot metrics: the same three names on every workload, each bound
# to that workload's own operations.  (slot, printed name, op kind, percentile, unit scale)
SLOTS = {
    "tables_cold": (("op1_s", "coeff_A_s", "coeff", 50, 1.0),
                    ("op2_s", "bk_s", "bk", 50, 1.0),
                    ("op3_s", "read_cmd_p50_s", "read", 50, 1.0)),
    "eval_plane": (("op1_s", "eval_p50_ms", "eval", 50, 1e3),
                   ("op2_s", "reference_p50_ms", "reference", 50, 1e3),
                   ("op3_s", "eval_p90_ms", "eval", 90, 1e3)),
    "crosscheck": (("op1_s", "verify_em_s", "verify_em", 50, 1.0),
                   ("op2_s", "verify_cross_s", "verify_cross", 50, 1.0),
                   ("op3_s", "em_check_p50_s", "em_check", 50, 1.0)),
}


@dataclass(frozen=True)
class Sizes:
    a_kmax: int            # A table depth of tables_cold's coeff
    a_bits: int            # bits of every A table
    b_kmax: int            # b table depth of tables_cold's bk
    plane_kmax: int        # A table depth of eval_plane
    b_bits: int
    decay_range: tuple[int, int]
    spot_entries: int      # seeded table entries checked per table
    setup_repeats: int
    trace_points: int      # eval_plane points in the traced replay
    cli_bits: int          # --bits for crosscheck commands
    em_tol: str            # --tol for the em-remainder suite and em-check
    em_ks: tuple[int, int]  # k range of the em-check grid
    truncation_nmax: int
    cross_kmax: int        # k range of the replayed cross-identity suite (the CLI fixes 100)


FULL = Sizes(a_kmax=400, a_bits=128, b_kmax=600, b_bits=160, plane_kmax=900, decay_range=(50, 200),
             spot_entries=4, setup_repeats=3, trace_points=48,
             cli_bits=128, em_tol="1e-6", em_ks=(10, 21), truncation_nmax=20, cross_kmax=100)

# The smoke test's sizes, and those of the coverage replays of a traced run.
TINY = Sizes(a_kmax=200, a_bits=64, b_kmax=80, b_bits=64, plane_kmax=200, decay_range=(10, 40),
             spot_entries=2, setup_repeats=2, trace_points=8,
             cli_bits=64, em_tol="1e-3", em_ks=(10, 11), truncation_nmax=8, cross_kmax=20)

# Pairs of the `verify --suite em-remainder` suite, which the traced replay repeats.
EM_SUITE_PAIRS = ((8, 2), (12, 3), (16, 2), (16, 4))

# eval_plane regions: (name, Re range, Im range, tolerance ladder).  The
# ladders reach from tolerances the 901-term table meets to ones where it runs
# out of terms, so both the early stop and the full sweep are timed.
REGIONS = (
    ("right", (1.5, 6.0), (-10.0, 10.0), ("1e-8", "1e-10", "1e-12")),
    ("strip", (0.05, 0.95), (-10.0, 10.0), ("1e-5", "1e-6", "1e-7")),
    ("line", (0.5, 0.5), (-15.0, 15.0), ("1e-4", "1e-5", "1e-6")),
    ("left", (-4.0, -0.05), (-5.0, 5.0), ("1e-4", "1e-5", "1e-6")),
)


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _literal(re_part: float, im_part: float) -> str:
    """Point as a CLI complex literal with 6 decimals, so CLI and library see one value."""
    r, i = f"{re_part:.6f}", f"{im_part:+.6f}"
    return r if float(i) == 0 else f"{r}{i}i"


def point_value(literal: str):
    """The value the CLI parses from a literal: each part rounded to 53 bits."""
    body = literal[:-1] if literal.endswith("i") else literal
    cut = max(body.rfind("+"), body.rfind("-"))
    if literal.endswith("i") and cut > 0:
        return mpmath.mpc(float(body[:cut]), float(body[cut:]))
    return mpmath.mpf(float(literal))


def plane_points(workload: str, seed: int):
    """Endless stream of (region, literal, tol, ends_pass).

    A pass holds, for each region and each tolerance of its ladder, one Latin
    hypercube of 8 points: Re s and Im s each meet all 8 of their equal
    strata once, at seeded places within them.  Whether a point misses its
    tolerance depends mostly on the tolerance and on where the point lies, so
    a run that ends where a pass ends has a miss share that depends little on
    the seed.  The seed places the points and orders each pass."""
    rng = rng_for(workload, seed, "points")
    m = 8
    while True:
        cells = []
        for name, (re_lo, re_hi), (im_lo, im_hi), ladder in REGIONS:
            for tol in ladder:
                for i, j in zip(rng.sample(range(m), m), rng.sample(range(m), m)):
                    point = _literal(re_lo + (re_hi - re_lo) * (i + rng.random()) / m,
                                     im_lo + (im_hi - im_lo) * (j + rng.random()) / m)
                    cells.append((name, point, tol))
        rng.shuffle(cells)
        for n, cell in enumerate(cells, 1):
            yield (*cell, n == len(cells))


# Points of the tables_cold eval reads (tol 1e-6): the corners, edge
# midpoints and centre of Re s in [0.1, 4], |Im s| <= 5.
READ_GRID = tuple(_literal(re_part, im_part) for re_part in (0.1, 2.05, 4.0)
                  for im_part in (-5.0, 0.0, 5.0))


def spot_entries(workload: str, seed: int, stream: str, k_max: int, n: int) -> list[int]:
    """Table indices to check against the independent reference: k=1 and k_max
    (the two ends of the cancellation range) and n seeded ones."""
    rng = rng_for(workload, seed, stream)
    return sorted({1, k_max, *(rng.randint(0, k_max) for _ in range(n))})


def em_grid(ks: tuple[int, int]) -> list[tuple[int, int]]:
    """The em-check (k, a) pairs: k in ks, a in (4, 5).

    The full-size grid, k in [10, 21], holds the five pairs where em-check
    misses its default 1e-6 tolerance, (17, 4), (12, 5), (13, 5), (15, 5) and
    (17, 5) (a quadrature defect, see bench/README.md).  a = 3 is left out
    because its cost varies threefold with k."""
    return [(k, a) for k in range(ks[0], ks[1] + 1) for a in (4, 5)]


def cycles(workload: str, seed: int, stream: str, grid, n: int):
    """Endless stream of (batch, ends_pass): passes over a fixed grid of
    inputs, each pass in a new seeded order and cut into n batches, one per
    cycle of a run.  A run that ends only where a pass ends meets every input
    of the grid equally often, so its failed share does not depend on the
    seed; the seed orders the inputs."""
    rng = rng_for(workload, seed, stream)
    order = list(grid)
    size = -(-len(order) // n)
    while True:
        rng.shuffle(order)
        for i in range(0, len(order), size):
            yield order[i:i + size], i + size >= len(order)
