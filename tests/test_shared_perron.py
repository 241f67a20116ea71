"""One Perron solve and one SCC pass per matrix content.

The counters wrap the two routines every Perron analysis runs through: the
strongly-connected-components pass and the Noda iteration, which runs once for
the right and once for the left Perron vector.  A consumer given a matrix
makes exactly one analysis; a consumer given an equal matrix afterwards, as
an int or a float array, makes none and returns bitwise-identical results.
"""

import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest

from shiftkms import (
    SFT,
    FullShift,
    bimodule_kms,
    component_perron_data,
    kms_eigen_sequence,
    kms_temperature,
    parry_measure,
    perron_vectors,
    sft_entropy_exact,
    spectral,
    spectral_radius,
    temperature_sign,
    variational_scan,
)
from shiftkms.cli import run

import oracles
from conftest import clear_package_memos

FLAGS = {
    "max_n": 12,
    "depth": 12,
    "samples": 20,
    "seed": 0,
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
    "kms_temperature": lambda A: kms_temperature(A, depth=6),
    "parry_measure": parry_measure,
    "bimodule_kms": lambda A: bimodule_kms(A, depth=6),
    "kms_eigen_sequence": lambda A: kms_eigen_sequence(A, 6),
    "variational_scan": lambda A: variational_scan(A, 10),
    "sft_entropy_exact": sft_entropy_exact,
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
@pytest.mark.parametrize(
    "matrix",
    [[[1, 1], [1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], _random_sft_matrix()],
    ids=["golden", "cycle3", "random16"],
)
def test_consumer_solves_once_and_reuses_perron_data(name, matrix, counts):
    consume = CONSUMERS[name]
    from_matrix = consume(matrix)
    scc_passes, iterations = counts()
    assert scc_passes == 1 and iterations <= 2
    for dtype in (int, float):
        assert _bits(consume(np.array(matrix, dtype=dtype))) == _bits(from_matrix)
        assert counts() == (0, 0)
    assert perron_vectors(np.array(matrix, dtype=float)) is perron_vectors(matrix)
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
    with pytest.raises(spectral.ReducibleMatrixError, match="temperature_sign"):
        kms_temperature([[1, 1], [0, 1]])
    assert closures["reachability"] == 1
    closures.clear()
    # equal content: the analysis is shared, so no closure at all, and the
    # reducible route reads the same analysis
    sign = temperature_sign([[1, 1], [0, 1]])
    assert (sign.lower, sign.upper) == (1.0, 1.0)
    report = run("kms", SFT([[1, 1], [0, 1]]), FLAGS)
    assert report["results"]["kms"]["bracket"] == [0.0, 0.0]
    assert closures["reachability"] == 0
    assert kms_temperature(_random_sft_matrix()).eigen_sequence.coherent
    assert closures["reachability"] == 1
    closures.clear()
    assert kms_temperature(_random_sft_matrix().astype(float)).eigen_sequence.coherent
    assert closures["reachability"] == 0


def test_transition_matrix_document_makes_one_component_pass(monkeypatch):
    closures = Counter()
    reachability = spectral.reachability

    def counted(A):
        closures["reachability"] += 1
        return reachability(A)

    monkeypatch.setattr(spectral, "reachability", counted)
    report = run("all", SFT([[1, 1], [0, 1]]), FLAGS)
    assert report["results"]["entropy"]["exact"] == 0.0
    # the document's component pass, which the kms section reads too
    assert closures["reachability"] == 1
    closures.clear()
    # a new document with equal content shares that pass
    assert run("kms", SFT([[1, 1], [0, 1]]), FLAGS)["results"]["kms"]["bracket"] == [0.0, 0.0]
    assert closures["reachability"] == 0
    assert run("entropy", SFT([[1, 1], [0, 1]]), FLAGS)["results"]["entropy"]["exact"] == 0.0
    assert closures["reachability"] == 0
    assert run("entropy", SFT([[1, 1], [1, 1]]), FLAGS)["results"]["entropy"]["exact"] == math.log(2)
    assert closures["reachability"] == 1


def _closure_and_noda_counter(monkeypatch):
    """Counts reachability closures in every namespace of the package that
    holds the name, and Noda runs."""
    seen = Counter()
    for name in ("reachability", "_noda"):
        original = getattr(spectral, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("shiftkms") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return seen


def test_thermodynamic_chain_on_one_matrix_solves_once(monkeypatch):
    # kms, parry, sign and eigen-sequence on one matrix: with a closure and a
    # solve per call instead of the shared memo, this was 4 closures and 8 Noda runs
    seen = _closure_and_noda_counter(monkeypatch)
    M = _random_sft_matrix()
    kms = kms_temperature(M)
    parry = parry_measure(M)
    sign = temperature_sign(M)
    seq = kms_eigen_sequence(M, 6)
    assert (seen["reachability"], seen["_noda"]) == (1, 2)
    assert kms.lam == parry.lam == sign.lower == sign.upper
    assert np.array_equal(seq.levels[0], parry.u)


def test_one_acceptance_rule_holds_a_rejected_solve_for_every_consumer(monkeypatch, counts):
    # with no residual allowed, the one solve of the matrix misses acceptance;
    # the rejection is held in the memo, so no consumer solves it again
    monkeypatch.setattr(spectral, "PERRON_TOL", 0.0)
    monkeypatch.setattr(spectral, "residual_noise_floor", lambda d, lam=1.0: 0.0)
    M = _random_sft_matrix()
    for consume in (perron_vectors, component_perron_data, kms_temperature, parry_measure, bimodule_kms, temperature_sign):
        with pytest.raises(spectral.ConvergenceError, match="exceeds tolerance") as exc:
            consume(M)
        assert exc.value.residual > 0.0
    assert counts() == (1, 2)


def test_shared_perron_arrays_are_read_only():
    M = np.array(_random_sft_matrix(), dtype=float)
    p = perron_vectors(M)
    for x in (p.u, p.v, p.matrix):
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
    reducible = np.zeros((5, 5))
    reducible[:2, :2] = 1.0
    reducible[2:, 2:] = 1.0
    for c in component_perron_data(reducible):
        assert not (c.data.u.flags.writeable or c.data.v.flags.writeable or c.data.matrix.flags.writeable)
    assert M.flags.writeable  # the caller's array is not touched


def test_memo_is_keyed_on_content_not_identity(counts):
    M = np.ones((3, 3))
    assert spectral_radius(M) == pytest.approx(3.0, rel=1e-15)
    assert counts() == (1, 2)
    M[0, 0] = 2.0  # the same array, new content: solved again
    lam = perron_vectors(M).lam
    assert counts() == (1, 2)
    assert lam == pytest.approx(np.max(np.abs(np.linalg.eigvals(M))), rel=1e-13)
    M[0, 0] = 1.0  # back to the first content: shared again
    assert spectral_radius(M) == pytest.approx(3.0, rel=1e-15)
    assert counts() == (0, 0)


def test_cache_clear_makes_the_next_call_solve_again(counts):
    M = _random_sft_matrix()
    first = perron_vectors(M)
    assert counts() == (1, 2)
    assert perron_vectors(M) is first
    assert counts() == (0, 0)
    clear_package_memos()
    again = perron_vectors(M)
    assert counts() == (1, 2)
    assert again is not first and again.lam == first.lam


def test_reducible_matrix_with_an_overflowing_block_is_reported_reducible(counts):
    # the {0, 1} block overflows its first Noda step; the held failure does
    # not hide that the matrix is reducible, and it is raised again unsolved
    M = np.array([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [1.0, 1.0, 1.0]])
    for expected in ((1, 3), (0, 0)):
        with pytest.raises(spectral.ReducibleMatrixError):
            perron_vectors(M)
        with pytest.raises(spectral.ConvergenceError, match="not positive and finite"):
            component_perron_data(M)
        assert counts() == expected
