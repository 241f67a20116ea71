"""One Perron solve and one SCC pass per matrix.

The counters wrap the two routines every Perron analysis runs through: the
strongly-connected-components pass and the Noda iteration, which runs once for
the right and once for the left Perron vector.  A consumer given
a matrix makes exactly one analysis; a consumer given the resulting Perron
data makes none and returns bitwise-identical results.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from shiftkms import (
    SFT,
    FullShift,
    bimodule_kms,
    kms_eigen_sequence,
    kms_temperature,
    parry_measure,
    perron_vectors,
    sft_entropy_exact,
    spectral,
    variational_scan,
)
from shiftkms.cli import run

import oracles

FLAGS = {
    "max_n": 12,
    "depth": 12,
    "tol": 1e-12,
    "samples": 20,
    "seed": 0,
    "reducible_mode": False,
    "no_timestamp": True,
}


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()
    for name in ("strongly_connected_components", "_noda"):
        original = getattr(spectral, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)

    def read():
        out = (seen["strongly_connected_components"], seen["_noda"])
        seen.clear()
        return out

    return read


def _random_sft_matrix():
    return oracles.random_irreducible_zero_one(np.random.default_rng(16), 16)


@pytest.mark.parametrize(
    "spec",
    [SFT([[1, 1], [1, 0]]), FullShift(3), SFT(_random_sft_matrix())],
    ids=["golden", "full3", "random16"],
)
def test_cli_all_makes_one_scc_pass_and_one_solve(spec, counts):
    report = run("all", spec, FLAGS)
    assert set(report["results"]) == {
        "entropy", "kms", "parry", "krieger", "bracket", "variational", "resolvent"
    }
    assert counts() == (1, 2)


def _bits(x):
    """Everything a result holds, with arrays and floats compared bit for bit."""
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    if isinstance(x, float):
        return x.hex()
    return x


CONSUMERS = {
    "kms_temperature": (lambda A: kms_temperature(A, depth=6), spectral.PERRON_TOL),
    "parry_measure": (parry_measure, spectral.PERRON_TOL),
    "bimodule_kms": (lambda A: bimodule_kms(A, depth=6), spectral.DEFAULT_TOL),
    "kms_eigen_sequence": (lambda A: kms_eigen_sequence(A, 6), spectral.PERRON_TOL),
    "variational_scan": (lambda A: variational_scan(A, 10), spectral.PERRON_TOL),
    "sft_entropy_exact": (sft_entropy_exact, spectral.PERRON_TOL),
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
@pytest.mark.parametrize(
    "matrix",
    [[[1, 1], [1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], _random_sft_matrix()],
    ids=["golden", "cycle3", "random16"],
)
def test_consumer_solves_once_and_reuses_perron_data(name, matrix, counts):
    consume, tol = CONSUMERS[name]
    from_matrix = consume(matrix)
    scc_passes, iterations = counts()
    assert scc_passes == 1 and iterations <= 2
    data = perron_vectors(matrix, tol=tol)
    counts()
    assert _bits(consume(data)) == _bits(from_matrix)
    assert counts() == (0, 0)


def test_kms_beta_equals_exact_entropy_bitwise():
    M = _random_sft_matrix()
    assert kms_temperature(M).beta == sft_entropy_exact(M)
    spec = SFT(M)
    report = run("all", spec, FLAGS)["results"]
    assert report["kms"]["beta"] == report["entropy"]["exact"]


def test_cli_all_runs_the_word_count_recursion_once(monkeypatch):
    steps = Counter()
    powers = spectral.integer_vector_powers

    def counted(start, rows, n):
        out = powers(start, rows, n)
        steps["steps"] += len(out)
        return out

    monkeypatch.setattr(spectral, "integer_vector_powers", counted)
    flags = dict(FLAGS, max_n=20, depth=22)
    report = run("all", SFT(_random_sft_matrix()), flags)
    assert report["results"]["entropy"]["n_max"] == 20
    assert report["results"]["bracket"]["n_max"] == 20
    assert steps["steps"] == 20


def test_kms_temperature_builds_one_reachability_closure(monkeypatch):
    closures = Counter()
    reachability = spectral.reachability

    def counted(A):
        closures["reachability"] += 1
        return reachability(A)

    monkeypatch.setattr(spectral, "reachability", counted)
    report = kms_temperature([[1, 1], [0, 1]], reducible_mode=True)
    assert report.heuristic and report.bracket == (0.0, 0.0)
    assert closures["reachability"] == 1
    closures.clear()
    with pytest.raises(spectral.ReducibleMatrixError, match="reducible_mode=True"):
        kms_temperature([[1, 1], [0, 1]])
    assert closures["reachability"] == 1
    closures.clear()
    assert not kms_temperature(_random_sft_matrix()).heuristic
    assert closures["reachability"] == 1


def test_transition_matrix_document_makes_one_component_pass(monkeypatch):
    closures = Counter()
    reachability = spectral.reachability

    def counted(A):
        closures["reachability"] += 1
        return reachability(A)

    monkeypatch.setattr(spectral, "reachability", counted)
    flags = dict(FLAGS, reducible_mode=True)
    report = run("all", SFT([[1, 1], [0, 1]]), flags)
    assert report["results"]["entropy"]["exact"] == 0.0
    # the document's component pass, and the kms section's own on the bare matrix
    assert closures["reachability"] == 2
    closures.clear()
    assert run("entropy", SFT([[1, 1], [0, 1]]), flags)["results"]["entropy"]["exact"] == 0.0
    assert closures["reachability"] == 1
