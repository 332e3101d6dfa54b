"""Fixed speed probe: mpmath arithmetic that calls no package code.

    python3 bench/probe.py STEPS
"""

import sys

from mpmath import mp, mpf


def probe(steps: int) -> None:
    with mp.workprec(256):
        x, acc = mpf(1) / 3, mp.zero
        for j in range(1, steps):
            acc += x * j / (j + 1)


if __name__ == "__main__":
    probe(int(sys.argv[1]))
