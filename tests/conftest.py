from fractions import Fraction

import pytest
from hypothesis import settings

from maslanka import PrecisionContext, bernoulli, build_table

# Every property test draws the same examples on every run, so the suite's
# cost and outcome do not move between runs.  The profile is loaded here,
# before the test modules build their @settings from it; for random
# exploration pass --hypothesis-profile=default, which pytest loads after.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def empty_bernoulli_table(monkeypatch):
    """The whole Bernoulli table state set back to its start, B_0 and column 1
    of the tangent triangle, as a fresh import has it.  Restored after the test."""
    monkeypatch.setattr(bernoulli, "_EVEN", [Fraction(1)])
    monkeypatch.setattr(bernoulli, "_EDGE", [1])


@pytest.fixture(scope="session")
def ctx128():
    return PrecisionContext(128)


@pytest.fixture(scope="session")
def ctx64():
    return PrecisionContext(64)


@pytest.fixture(scope="session")
def table_a400_128(ctx128):
    """kind=A table to k=400 at 128-bit target; shared by series and acceptance tests."""
    return build_table("A", 400, ctx128)


@pytest.fixture(scope="session")
def table_a900_128(ctx128):
    """kind=A table to k=900: enough terms for the slow series points.

    At s = -2, -4, -2.5 the P_k factors grow polynomially, so tolerances near
    1e-6 push the stopping index well past 400.
    """
    return build_table("A", 900, ctx128)


@pytest.fixture(scope="session")
def table_a200_256():
    """kind=A table to k=200 at 256-bit target; decay criteria need the headroom."""
    return build_table("A", 200, PrecisionContext(256))


@pytest.fixture(scope="session")
def table_b1000_160():
    """kind=b table to k=1000 at 160-bit target.

    At k=1000 the escalated working precision is 160+1000+10+32 = 1202 bits,
    which is what the b_k diagnostic sweep requires.
    """
    return build_table("b", 1000, PrecisionContext(160))
