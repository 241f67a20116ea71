"""Presentations of one shift agree on every presentation-independent number.

Each family lists different presentations of the same one-sided shift: the
full shift on 3 symbols, and the golden-mean shift (no factor 22).  Word
counts, past-class counts with their stabilized flags, sofic verdicts and
brackets are properties of the language, so they must be equal within a
family.  The depth at which the subset family stops changing depends on the
presentation in general; these presentations reach it at the same depth (0
and 1).  `entropy.exact` is not compared: only the matrix presentations have
a closed form.

Seeded irreducible 0/1 matrices, d = 2..8, are also compared with the
forbidden-word shift of their zero 2-blocks.
"""

import math

import numpy as np
import pytest

from shiftkms import (
    SFT,
    BetaShift,
    ForbiddenWords,
    FullShift,
    count_words_sequence,
    dim_q,
    entropy_bracket,
    sofic_check,
)

import oracles

PHI = (1 + math.sqrt(5)) / 2

FAMILIES = {
    "full3": (
        0,
        [FullShift(3), SFT(np.ones((3, 3), dtype=int)), ForbiddenWords(3, ()),
         BetaShift("3"), BetaShift(3.0)],
    ),
    "golden": (
        1,
        [SFT([[1, 1], [1, 0]]), ForbiddenWords(2, ((2, 2),)),
         BetaShift("1.6180339887", digit_depth=8), BetaShift(PHI)],
    ),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_presentations_of_one_shift_agree(name):
    fixed, specs = FAMILIES[name]
    first, *rest = specs
    theta = count_words_sequence(first, 30)
    sofic = sofic_check(first, 10)
    bracket = entropy_bracket(first, 30)
    assert sofic.sofic_detected and bracket.width == 0
    assert sofic.fixed_point_depth == bracket.fixed_point_depth == fixed
    for spec in rest:
        assert count_words_sequence(spec, 30) == theta, spec
        assert sofic_check(spec, 10) == sofic, spec
        assert entropy_bracket(spec, 30) == bracket, spec
        assert [dim_q(spec, n, 12) for n in range(6)] == [dim_q(first, n, 12) for n in range(6)]


def _zero_blocks(M):
    return ForbiddenWords(len(M), tuple((i + 1, j + 1) for i, j in zip(*np.nonzero(M == 0))))


SEEDED_MATRICES = [
    oracles.random_irreducible_zero_one(np.random.default_rng([6, k]), 2 + k % 7) for k in range(30)
]


def test_irreducible_sft_agrees_with_its_forbidden_two_blocks():
    # an irreducible 0/1 matrix and its zero 2-blocks present one shift
    for M in SEEDED_MATRICES:
        sft, forbidden = SFT(M), _zero_blocks(M)
        assert count_words_sequence(forbidden, 20) == count_words_sequence(sft, 20), M
        assert sofic_check(forbidden, 10, depth=12) == sofic_check(sft, 10, depth=12), M
        a, b = entropy_bracket(sft, 20, depth=30), entropy_bracket(forbidden, 20, depth=30)
        fields = ("dims", "dims_stabilized", "sofic_detected", "fixed_point_depth")
        assert [getattr(b, f) for f in fields] == [getattr(a, f) for f in fields], M
