"""Library refusals that no other test reaches, one row each.

Every row calls one public function on an input it must refuse, and checks
the exception type and the whole message.
"""

import numpy as np
import pytest

from shiftkms import (
    SFT,
    BetaShift,
    beta_expansion_of_one,
    coherent_from_boundary,
    coherent_sequence,
    count_words,
    epsilon_sequence,
    h_iterate,
    predecessor_set,
)
from shiftkms.spectral import as_nonnegative, as_zero_one
from shiftkms.subshift import build_automaton

GOLDEN = [[1, 1], [1, 0]]
NOT_A_SPEC = object()

REFUSALS = [
    ("nonsquare", lambda: as_nonnegative([[1, 1]]), ValueError, "matrix must be square, got shape (1, 2)"),
    ("empty-matrix", lambda: as_nonnegative(np.zeros((0, 0))), ValueError, "matrix must have dimension >= 1"),
    ("infinite-entry", lambda: as_nonnegative([[np.inf]]), ValueError, "matrix entries must be finite"),
    ("negative-entry", lambda: as_nonnegative([[-1]]), ValueError, "matrix entries must be nonnegative"),
    ("entry-two", lambda: as_zero_one([[1, 2], [1, 0]]), ValueError, "matrix entries must be 0 or 1"),
    (
        "not-a-spec",
        lambda: build_automaton(NOT_A_SPEC),
        TypeError,
        f"not a subshift presentation: {NOT_A_SPEC!r}",
    ),
    ("empty-word", lambda: predecessor_set((), 1, SFT(GOLDEN)), ValueError, "word must be nonempty"),
    (
        "past-the-depth",
        lambda: count_words(BetaShift("1.7", digit_depth=10), 11),
        ValueError,
        "word length 11 exceeds the presentation depth 10; rebuild with a larger digit_depth",
    ),
    (
        "infinite-base",
        lambda: beta_expansion_of_one(float("inf"), 3),
        ValueError,
        "beta must be a finite number > 1, got inf",
    ),
    (
        "nan-base",
        lambda: beta_expansion_of_one(float("nan"), 3),
        ValueError,
        "beta must be a finite number > 1, got nan",
    ),
    ("base-one", lambda: beta_expansion_of_one(1.0, 3), ValueError, "beta must be a finite number > 1, got 1.0"),
    # Fraction reads '_' as a digit separator from Python 3.11 and refuses it before, float always reads it
    (
        "underscore-base",
        lambda: beta_expansion_of_one("1_5", 3),
        ValueError,
        "beta must be a plain decimal string, got '1_5'",
    ),
    (
        "underscore-decimal-base",
        lambda: beta_expansion_of_one("1_000.5", 3),
        ValueError,
        "beta must be a plain decimal string, got '1_000.5'",
    ),
    ("empty-trace", lambda: epsilon_sequence(GOLDEN, [], 3), ValueError, "trace vector must be a nonempty 1-d array"),
    (
        "2d-trace",
        lambda: epsilon_sequence(GOLDEN, [[0.5, 0.5]], 3),
        ValueError,
        "trace vector must be a nonempty 1-d array",
    ),
    ("no-levels", lambda: coherent_sequence(GOLDEN, []), ValueError, "need at least one level"),
    (
        "level-length",
        lambda: coherent_sequence(GOLDEN, [[1.0]]),
        ValueError,
        "level length must match the matrix dimension",
    ),
    ("negative-level", lambda: coherent_sequence(GOLDEN, [[-1.0, 2.0]]), ValueError, "levels must be nonnegative"),
    (
        "zero-renormalizer",
        lambda: h_iterate(coherent_sequence(GOLDEN, [[0.0, 0.0], [0.0, 0.0]]), 1),
        ValueError,
        "renormalizer sum(t_1) vanished",
    ),
    (
        "zero-boundary",
        lambda: coherent_from_boundary(GOLDEN, [0.0, 0.0], 3),
        ValueError,
        "boundary must be a nonnegative vector with positive sum",
    ),
    (
        "dead-column",
        lambda: epsilon_sequence([[0, 0], [1, 0]], [1, 0], 3),
        ValueError,
        "eps_n vanished; the matrix has a dead column for this trace",
    ),
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal_names_its_reason(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert str(info.value) == message
