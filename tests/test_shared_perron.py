"""One Perron solve per matrix content, and one SCC pass per support.

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
    aperiodic,
    bimodule_kms,
    component_perron_data,
    exact_entropy,
    irreducible,
    kms_eigen_sequence,
    kms_temperature,
    normalization_profile,
    parry_measure,
    period,
    perron_vectors,
    spectral,
    spectral_radius,
    temperature_from_trace,
    temperature_sign,
    variational_scan,
)
from shiftkms.cli import run
from shiftkms.subshift import Automaton

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
    "exact_entropy": lambda A: exact_entropy(SFT(A))[0],
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
    assert kms_temperature(M).beta == exact_entropy(SFT(M))[0]
    spec = SFT(M)
    report = run("all", spec, FLAGS)["results"]
    assert report["kms"]["beta"] == report["entropy"]["exact"]


def test_cli_all_runs_the_word_count_recursion_once(monkeypatch):
    steps = Counter()
    plan = Automaton._count_plan.func

    def counted_plan(aut):
        gather, plain, heavy = plan(aut)

        def step(v):  # each step of the recursion gathers once
            steps["steps"] += 1
            return gather(v)

        return step, plain, heavy

    monkeypatch.setattr(Automaton, "_count_plan", property(counted_plan))
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


def _closure_and_noda_counter(monkeypatch, names=("reachability", "_noda")):
    """Counts reachability closures in every namespace of the package that
    holds the name, and Noda runs (or calls of other names)."""
    seen = Counter()
    for name in names:
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


def test_thermodynamic_chain_validates_each_matrix_once_per_call(monkeypatch):
    # one conversion and check per public call (a hit on the analysis memo
    # needs none); with every call and helper revalidating, this was 17
    seen = _closure_and_noda_counter(monkeypatch, ("as_nonnegative",))
    M = _random_sft_matrix()
    rng = np.random.default_rng(5)
    t = rng.random(16) + 0.1
    kms_temperature(M)
    parry_measure(M)
    temperature_sign(M)
    normalization_profile(kms_eigen_sequence(M, 6))
    temperature_from_trace(M, t / t.sum(), 300)
    bimodule_kms(M * (0.5 + 1.5 * rng.random(M.shape)))
    assert seen["as_nonnegative"] <= 7


@pytest.mark.parametrize(
    "matrix",
    [_random_sft_matrix(), oracles.block_cyclic(np.random.default_rng(3), 3, 6)],
    ids=["random16", "cyclic3"],
)
def test_lambda_matrix_reads_the_graph_pass_of_its_support(matrix, monkeypatch):
    # W has the support of A: its components and period come from A's graph
    # pass, its solve is its own, and its data is bitwise that of a cold run
    seen = _closure_and_noda_counter(monkeypatch)
    W = matrix * (0.5 + 1.5 * np.random.default_rng(4).random(matrix.shape))
    kms_temperature(matrix)
    seen.clear()
    bimodule_kms(W, depth=6)
    assert (seen["reachability"], seen["_noda"]) == (0, 2)
    warm = perron_vectors(W)
    spectral._analysis.cache_clear()
    spectral._graph.cache_clear()
    cold = perron_vectors(W)
    assert (seen["reachability"], seen["_noda"]) == (1, 4)
    assert cold is not warm and _bits(cold) == _bits(warm)
    assert warm.period == oracles.period_brute(matrix)


def test_period_reads_the_graph_pass_of_the_analysis(monkeypatch):
    seen = _closure_and_noda_counter(monkeypatch)
    rng = np.random.default_rng(6)
    for M in (_random_sft_matrix(), oracles.block_cyclic(rng, 4, 5), oracles.random_reducible_zero_one(rng)):
        component_perron_data(M)
        seen.clear()
        one = len(oracles.scc_tarjan(M)) == 1
        assert irreducible(M) == one
        if one:
            assert period(M) == oracles.period_brute(M)
            assert aperiodic(M) == (period(M) == 1)
        else:
            with pytest.raises(spectral.ReducibleMatrixError):
                period(M)
        assert seen["reachability"] == 0


def test_one_acceptance_rule_holds_a_rejected_solve_for_every_consumer(monkeypatch, counts):
    # with no residual allowed, the one solve of the matrix misses acceptance
    # (the warm-started pair, then the pair from ones/d: four Noda runs); the
    # rejection is held in the memo, so no consumer solves it again
    monkeypatch.setattr(spectral, "PERRON_TOL", 0.0)
    monkeypatch.setattr(spectral, "residual_noise_floor", lambda d, lam=1.0: 0.0)
    M = _random_sft_matrix()
    for consume in (perron_vectors, component_perron_data, kms_temperature, parry_measure, bimodule_kms, temperature_sign):
        with pytest.raises(spectral.ConvergenceError, match="exceeds tolerance") as exc:
            consume(M)
        assert exc.value.residual > 0.0
    assert counts() == (1, 4)


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
    M[0, 0] = 2.0  # the same array, new content on the same support: solved again, no SCC pass
    lam = perron_vectors(M).lam
    assert counts() == (0, 2)
    assert lam == pytest.approx(np.max(np.abs(np.linalg.eigvals(M))), rel=1e-13)
    M[0, 0] = 1.0  # back to the first content: shared again
    assert spectral_radius(M) == pytest.approx(3.0, rel=1e-15)
    assert counts() == (0, 0)
    M[0, 1] = 0.0  # a new support: a new SCC pass and a new solve
    assert perron_vectors(M).lam == pytest.approx(np.max(np.abs(np.linalg.eigvals(M))), rel=1e-13)
    assert counts() == (1, 2)


def test_memo_key_hashes_a_sample_but_compares_every_byte(counts):
    # the key's hash reads the first and last 512 entries and every 8th one at
    # d = 64; a change to entry 2049 keeps the hash but is a new matrix
    M = np.array(oracles.random_irreducible_zero_one(np.random.default_rng(8), 64, 0.6), dtype=float)
    M[32, 1] = 1.0
    W = M.copy()
    W[32, 1] = 3.0
    assert hash(spectral._MatrixKey(M)) == hash(spectral._MatrixKey(W))
    first = perron_vectors(M)
    assert counts() == (1, 2)
    other = perron_vectors(W)
    assert counts() == (0, 2) and other is not first and other.lam > first.lam
    assert perron_vectors(M.astype(int)) is first and perron_vectors(W.tolist()) is other
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
