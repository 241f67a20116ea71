"""Presentations of one shift agree on every presentation-independent number.

Each family lists different presentations of the same one-sided shift: the
full shift on 3 symbols, and the golden-mean shift (no factor 22).  Word
counts, past-class counts with their stabilized flags, sofic verdicts,
brackets and the exact entropy are properties of the language, so they must
be equal within a family.  The depth at which the subset family stops
changing depends on the presentation in general; these presentations reach
it at the same depth (0 and 1).  The exact entropy is read off a different
graph per presentation (a transition matrix or an automaton's transition
counts), so it is compared to 1e-15 relative, or absolutely when it is 0.

Seeded irreducible 0/1 matrices, d = 2..8, are also compared with the
forbidden-word shift of their zero 2-blocks.
"""

import math
from collections import Counter

import numpy as np
import pytest

from shiftkms import (
    SFT,
    BetaShift,
    ForbiddenWords,
    FullShift,
    count_words_sequence,
    entropy_bracket,
    sofic_check,
    spectral,
    subshift,
    topological_entropy,
)
from shiftkms.cli import run

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
    exact = topological_entropy(first, 30).exact
    for spec in rest:
        assert _same_entropy(topological_entropy(spec, 30).exact, exact), spec
        assert count_words_sequence(spec, 30) == theta, spec
        assert sofic_check(spec, 10) == sofic, spec
        assert entropy_bracket(spec, 30) == bracket, spec
        assert sofic_check(spec, 5, 12) == sofic_check(first, 5, 12), spec


def _same_entropy(a, b):
    return abs(a - b) <= 1e-15 * (abs(b) or 1.0)


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
        exact = topological_entropy(sft, 20).exact
        assert _same_entropy(topological_entropy(forbidden, 20).exact, exact), M
        assert sofic_check(forbidden, 10, depth=12) == sofic_check(sft, 10, depth=12), M
        a, b = entropy_bracket(sft, 20, depth=30), entropy_bracket(forbidden, 20, depth=30)
        fields = ("dims", "dims_stabilized", "sofic_detected", "fixed_point_depth")
        assert [getattr(b, f) for f in fields] == [getattr(a, f) for f in fields], M


def test_seeded_matrix_shifts_are_sofic_at_any_window():
    # both presentations are finite automata: sofic at l_max = 2 and a closed
    # bracket at n_max = 4, however far the class counts are from settling
    for M in SEEDED_MATRICES:
        for spec in (SFT(M), _zero_blocks(M)):
            assert sofic_check(spec, 2).sofic_detected, M
            bracket = entropy_bracket(spec, 4)
            assert bracket.sofic_detected and bracket.width == 0, M


FLAGS = {
    "max_n": 12,
    "depth": 12,
    "samples": 20,
    "seed": 0,
    "no_timestamp": True,
}


@pytest.fixture
def closures(monkeypatch):
    # counts dense reachability closures and sparse automaton solves; a
    # presentation's automaton keeps its bracket, so start from no automaton
    subshift._cached_automaton_for.cache_clear()
    seen = Counter()
    for name in ("reachability", "sparse_radius_bracket"):
        original = getattr(spectral, name)

        def counted(*args, _original=original, _name=name):
            seen[_name] += 1
            return _original(*args)

        monkeypatch.setattr(spectral, name, counted)
    return seen


def test_automaton_entropy_makes_one_component_pass(closures):
    # the forbidden automaton keeps its bracket, so the bracket section's
    # second entropy call solves nothing, and no dense closure is built
    report = run("all", ForbiddenWords(3, ((1, 2), (3, 3, 1))), FLAGS)["results"]
    assert report["entropy"]["method"] == "automaton-transfer-matrix"
    assert report["bracket"]["lower"] == report["entropy"]["exact"]
    assert closures == {"sparse_radius_bracket": 1}


def test_capped_beta_entropy_solves_nothing(closures):
    report = run("all", BetaShift("1.7", digit_depth=64), FLAGS)["results"]
    assert report["entropy"]["exact"] == math.log(1.7)
    assert report["entropy"]["method"] == "log-beta"
    assert closures == {}


def test_large_automaton_gets_the_sparse_exact_entropy(closures):
    # 40 words of length 12 over {1, 2} leave 264 automaton states, more than
    # a matrix document may have (cli.MAX_DIMENSION = 256)
    words = np.random.default_rng(30).integers(1, 3, (40, 12))
    spec = ForbiddenWords(2, tuple(map(tuple, words.tolist())))
    assert len(subshift.automaton_for(spec).states) == 264
    est = topological_entropy(spec, 12)
    assert isinstance(est.exact, float) and est.method == "automaton-transfer-matrix"
    assert closures == {"sparse_radius_bracket": 1}
