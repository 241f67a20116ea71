"""The exact expansion of 1 against the earlier mpmath one.

Every base the package accepts is rational (a decimal string is p/q, a float
its binary value), so `beta_expansion_of_one` runs the greedy map exactly.
Where the mpmath reference decides every digit it must report the same
`BetaExpansion`, field by field: non-terminating decimals and floats, integer
bases, and golden/tribonacci strings rounded to 6-37 decimals, which snap from
about ten decimals on.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from shiftkms import beta_expansion_of_one

import oracles

PHI = (1 + math.sqrt(5)) / 2


with mpmath.workdps(60):
    _GOLDEN = (1 + mpmath.sqrt(5)) / 2
    _TRIBONACCI = mpmath.findroot(lambda x: x**3 - x**2 - x - 1, 1.84)
    ROUNDED = [mpmath.nstr(x, k + 1, strip_zeros=False) for x in (_GOLDEN, _TRIBONACCI) for k in range(6, 38)]

FIXED = [
    "1.7", 1.7, "2.5", 2.5, "1.01", 1.01, "1.05", 1.05, "1.1", 1.1, "2", 2, "3", 3.0,
    "1.41421", 3.95, "3.95", 1 + math.sqrt(2), PHI, "1.6180339887", 1.8392867552, "1.8392867552",
]
SEEDED = [f"{b:.4f}" for b in np.random.default_rng(12).uniform(1.05, 3.95, 100)]
SEEDED_FLOATS = [float(b) for b in np.random.default_rng(13).uniform(1.05, 3.95, 30)]
BASES = FIXED + SEEDED + SEEDED_FLOATS + ROUNDED


@pytest.mark.parametrize("depth", (40, 230))
def test_exact_expansion_matches_mpmath_reference(depth):
    for base in BASES:
        assert beta_expansion_of_one(base, depth) == oracles.beta_expansion_mpmath(base, depth), base


def test_rounded_parry_bases_snap_from_ten_decimals():
    # so the reference comparison above covers snapped blocks as well
    for text in ROUNDED:
        if len(text) >= 12:
            exp = beta_expansion_of_one(text, 64)
            assert exp.snapped and exp.quasi_greedy_block in ((1, 0), (1, 1, 0)), text


def test_snap_tolerance_is_compared_exactly():
    # 1.5 * 1 = 1 + 1/2, then 1.5 * 1/2 = 3/4 lies exactly 1/4 below 1
    exp = beta_expansion_of_one("1.5", 8, snap_tol=0.25)
    assert exp.greedy == (1, 1) and exp.terminated and exp.snapped
    # just below that, the next product 3/4 * 3/2 = 1 + 1/8 snaps instead
    assert beta_expansion_of_one("1.5", 8, snap_tol=0.2499).greedy == (1, 0, 1)
    assert not beta_expansion_of_one("1.5", 8, snap_tol=0).terminated


def test_only_a_terminated_expansion_reports_a_period():
    # a non-integer rational base is never a Parry number, so its expansion of
    # 1 is not eventually periodic whatever its computed digits look like
    rng = random.Random(0)
    for base in (f"{rng.uniform(1, 4):.4f}" for _ in range(2000)):
        exp = beta_expansion_of_one(base, 230)
        assert (exp.quasi_greedy_block is not None) == exp.terminated, base
