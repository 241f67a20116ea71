"""Presentations of one shift agree on every presentation-independent number.

Each family lists different presentations of the same one-sided shift: the
full shift on 3 symbols, and the golden-mean shift (no factor 22).  Word
counts, past-class counts with their stabilized flags, sofic verdicts and
brackets are properties of the language, so they must be equal within a
family.  The depth at which the subset family stops changing depends on the
presentation in general; these presentations reach it at the same depth (0
and 1).  `entropy.exact` is not compared: only the matrix presentations have
a closed form.
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
