import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from shiftkms import (
    cylinder,
    cylinder_eigen,
    markov_entropy,
    parry_measure,
    perron_vectors,
    resolvent_vector,
    variational_scan,
)
from shiftkms import equilibrium
from shiftkms.equilibrium import InvariantViolation

import oracles

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = [[1, 1], [1, 0]]


def admissible_words_of(matrix, n):
    import itertools

    d = len(matrix)
    M = np.asarray(matrix)
    return [
        w
        for w in itertools.product(range(1, d + 1), repeat=n)
        if all(M[a - 1, b - 1] for a, b in zip(w, w[1:]))
    ]


def test_parry_on_sparse_d256_meets_markov_invariants():
    # parry_measure raises InvariantViolation when a Markov invariant misses 1e-12
    m = parry_measure(oracles.sparse_d256())
    assert abs(float(m.stationary.sum()) - 1.0) <= 1e-12


def test_parry_uniform_bernoulli_on_ones():
    m = parry_measure(np.ones((2, 2), dtype=int))
    assert np.allclose(m.transitions, 0.5)
    assert np.allclose(m.stationary, 0.5)
    assert abs(cylinder(m, (1, 2)) - 0.25) < 1e-14


def test_parry_golden_mean():
    m = parry_measure(GOLDEN)
    assert abs(m.stationary[0] - PHI**2 / (PHI**2 + 1)) < 1e-12
    assert cylinder(m, (2, 2)) == 0.0
    assert abs(m.transitions[1, 0] - 1.0) < 1e-13
    assert abs(markov_entropy(m) - math.log(PHI)) < 1e-12


def test_parry_permutation_cycle():
    m = parry_measure([[0, 1], [1, 0]])
    assert np.allclose(m.stationary, 0.5, atol=1e-12)
    assert markov_entropy(m) == 0.0


def test_parry_rejects_reducible():
    with pytest.raises(ValueError):
        parry_measure([[1, 1], [0, 1]])


def test_cylinder_formula_equivalence():
    rng = np.random.default_rng(43)
    mats = [GOLDEN]
    while len(mats) < 4:
        M = oracles.random_irreducible_zero_one(rng, int(rng.integers(2, 5)))
        mats.append(M)
    for M in mats:
        m = parry_measure(M)
        for n in range(1, 9):
            for w in admissible_words_of(M, n):
                assert abs(cylinder(m, w) - cylinder_eigen(m, w)) < 1e-10


def test_cylinder_consistency_identities():
    m = parry_measure(GOLDEN)
    d = 2
    for n in range(1, 7):
        for w in admissible_words_of(GOLDEN, n):
            value = cylinder(m, w)
            kolmogorov = sum(cylinder(m, w + (j,)) for j in range(1, d + 1))
            shift = sum(cylinder(m, (i,) + w) for i in range(1, d + 1))
            assert abs(kolmogorov - value) < 1e-12
            assert abs(shift - value) < 1e-12


def test_cylinder_validates_words():
    m = parry_measure(GOLDEN)
    with pytest.raises(ValueError):
        cylinder(m, ())
    with pytest.raises(ValueError):
        cylinder(m, (0, 1))
    for word in ([1.9, 2.5], [True], ["1"]):
        with pytest.raises(ValueError, match="outside alphabet"):
            cylinder(m, word)
        with pytest.raises(ValueError, match="outside alphabet"):
            cylinder_eigen(m, word)


def test_markov_entropy_uniform_full_shift():
    m = parry_measure(np.ones((2, 2), dtype=int))
    assert abs(markov_entropy(m) - math.log(2)) < 1e-14


def test_resolvent_ones_hand_solve():
    M = np.ones((2, 2))
    p = perron_vectors(M)
    rv = resolvent_vector(p, 3.0)
    assert np.allclose(rv.a, [1.0, 1.0], atol=1e-12)
    assert abs(rv.pairing - 1.0) < 1e-12


def test_resolvent_pairing_and_limit():
    p = perron_vectors(GOLDEN)
    v_dir = p.v / p.v.sum()
    dists = []
    for off in (0.5, 0.1, 0.01, 1e-4):
        rv = resolvent_vector(p, p.lam + off)
        assert abs(rv.pairing - 1.0) < 1e-10
        assert rv.a.min() > 0
        a_dir = rv.a / rv.a.sum()
        dists.append(float(np.abs(a_dir - v_dir).sum()))
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-3


def test_resolvent_rejects_t_at_or_below_lambda():
    p = perron_vectors(GOLDEN)
    with pytest.raises(ValueError):
        resolvent_vector(p, p.lam)
    with pytest.raises(ValueError):
        resolvent_vector(p, 1.0)


def test_variational_ones2():
    report = variational_scan(np.ones((2, 2), dtype=int), 200, seed=5)
    assert report.violations == 0
    assert abs(report.parry_entropy - math.log(2)) < 1e-12
    assert abs(report.gap) < 1e-9
    assert report.max_sampled < math.log(2)


def test_variational_golden_strict_dominance():
    report = variational_scan(GOLDEN, 500, seed=1)
    assert report.violations == 0
    assert abs(report.parry_entropy - math.log(PHI)) < 1e-12
    assert report.max_sampled < report.parry_entropy


def test_variational_permutation_all_zero():
    report = variational_scan([[0, 1], [1, 0]], 50, seed=2)
    assert report.top_entropy == 0.0
    assert abs(report.max_entropy) < 1e-12
    assert report.violations == 0


def test_variational_reproducible():
    a = variational_scan(GOLDEN, 64, seed=9)
    b = variational_scan(GOLDEN, 64, seed=9)
    assert np.array_equal(a.entropies, b.entropies)
    c = variational_scan(GOLDEN, 64, seed=10)
    assert not np.array_equal(a.entropies, c.entropies)


def _block_cyclic_period_3():
    M = np.zeros((6, 6), dtype=int)
    for k in range(3):
        nxt = (k + 1) % 3
        M[2 * k : 2 * k + 2, 2 * nxt : 2 * nxt + 2] = 1
    return M


@pytest.mark.parametrize(
    "matrix, n_samples",
    [
        (GOLDEN, 300),
        (np.ones((3, 3), dtype=int), 300),
        ([[0, 1], [1, 0]], 50),
        (_block_cyclic_period_3(), 300),
        (oracles.random_irreducible_zero_one(np.random.default_rng(16), 16, 0.6), 300),
        (oracles.random_irreducible_zero_one(np.random.default_rng(64), 64, 0.6), 100),
    ],
    ids=["golden", "ones3", "permutation", "block-cyclic3", "random16", "random64"],
)
def test_variational_scan_matches_lazy_reference(matrix, n_samples, monkeypatch):
    # the scan solves one block of samples per call; join the blocks
    seen = {"Ps": [], "pis": []}
    solve = equilibrium._stationary_batch

    def spy(Ps, work):
        seen["Ps"].append(Ps.copy())
        seen["pis"].append(solve(Ps, work))
        return seen["pis"][-1]

    monkeypatch.setattr(equilibrium, "_stationary_batch", spy)
    report = variational_scan(matrix, n_samples, seed=3)
    seen = {key: np.concatenate(blocks) for key, blocks in seen.items()}
    Ps, pis, entropies = oracles.variational_entropies_brute(matrix, n_samples, seed=3)
    assert np.array_equal(seen["Ps"], Ps)
    assert np.abs(seen["pis"] - pis).max() <= 1e-12
    assert np.allclose(report.entropies, entropies, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "matrix",
    [GOLDEN, _block_cyclic_period_3(), oracles.random_irreducible_zero_one(np.random.default_rng(64), 64, 0.6)],
    ids=["golden", "block-cyclic3", "random64"],
)
def test_variational_scan_does_not_depend_on_the_block_size(matrix, monkeypatch):
    # 150 samples: a multiple of neither 7 nor the default block of 8 at d = 64
    n_samples = 150
    reports = []
    d = len(matrix)
    for samples_per_block in (1, 7, n_samples, None):
        if samples_per_block is not None:
            monkeypatch.setattr(equilibrium, "_BLOCK_ENTRIES", samples_per_block * d * d)
        reports.append(variational_scan(matrix, n_samples, seed=11))
    for report in reports[1:]:
        for field in dataclasses.fields(report):
            assert np.array_equal(getattr(report, field.name), getattr(reports[0], field.name)), field.name


@pytest.mark.parametrize("d, n_samples", [(16, 1000), (64, 1000), (256, 50)])
def test_variational_scan_memory_does_not_grow_with_the_samples(d, n_samples):
    # at 1000 samples on d = 64 the unblocked scan peaked at 64.6 MB; at
    # d = 256 a block is one sample
    matrix = oracles.random_irreducible_zero_one(np.random.default_rng(d), d, 0.6)
    tracemalloc.start()
    try:
        variational_scan(matrix, n_samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("n_samples", [150, 1000])
@pytest.mark.parametrize(
    "matrix",
    [
        np.ones((2, 2), dtype=int),
        oracles.random_irreducible_zero_one(np.random.default_rng(8), 8, 0.6),
        oracles.random_irreducible_zero_one(np.random.default_rng(16), 16, 0.6),
        oracles.random_irreducible_zero_one(np.random.default_rng(64), 64, 0.6),
        _block_cyclic_period_3(),
    ],
    ids=["full2", "random8", "random16", "random64", "block-cyclic3"],
)
def test_variational_scan_entropies_are_bitwise_the_allocating_scan(matrix, n_samples, seed):
    # the same sums in the same order: a reordered sum moves the last bits
    reference = oracles.variational_entropies_allocating(matrix, n_samples, seed)
    assert np.array_equal(variational_scan(matrix, n_samples, seed=seed).entropies, reference)


def test_variational_scan_runs_the_stationary_residual_check(monkeypatch):
    monkeypatch.setattr(equilibrium, "STATIONARY_TOL", -1.0)
    with pytest.raises(InvariantViolation, match="stationary residual"):
        variational_scan(oracles.random_irreducible_zero_one(np.random.default_rng(16), 16, 0.6), 300, seed=0)


@pytest.mark.parametrize(
    "matrix",
    [GOLDEN, oracles.random_irreducible_zero_one(np.random.default_rng(64), 64, 0.6)],
    ids=["golden", "random64"],
)
def test_variational_scan_is_prefix_stable(matrix):
    # 37 samples: a multiple of neither the block of 8 at d = 64 nor of 8192 at d = 2
    longer = variational_scan(matrix, 150, seed=4).entropies
    shorter = variational_scan(matrix, 37, seed=4).entropies
    assert np.array_equal(longer[:37], shorter)


@pytest.mark.parametrize("n_samples", [1, 1000])
@pytest.mark.parametrize("d", [1, 2, 16, 64])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**96, 10**39 + 7])
def test_scan_draws_are_one_stream_in_sample_order(seed, d, n_samples, monkeypatch):
    # seeds of one to five uint32 words; at d = 64 the 1000 samples span 125 blocks
    blocks = []
    entropies = equilibrium._block_entropies

    def spy(Ps, *buffers):
        blocks.append(Ps.copy())
        return entropies(Ps, *buffers)

    monkeypatch.setattr(equilibrium, "_block_entropies", spy)
    variational_scan(np.ones((d, d), dtype=int), n_samples, seed=seed)
    assert np.array_equal(np.concatenate(blocks), oracles.exponential_draws_brute(seed, n_samples, d))


def test_lazy_oracle_converges_on_a_slowly_mixing_chain():
    # sample 287 of ones3 at seed 3 has second eigenvalue 0.933: a lazy step
    # of 1e-13 still leaves about 30 times that to move
    Ps, pis, _ = oracles.variational_entropies_brute(np.ones((3, 3), dtype=int), 300, seed=3)
    chain = Ps[287]
    assert sorted(np.abs(np.linalg.eigvals(chain)))[1] > 0.93
    exact = oracles.stationary_mpmath(chain)
    assert np.abs(pis[287] - exact).max() <= 1e-12
    assert np.abs(equilibrium._stationary_batch(chain[None].copy(), np.empty((1, 3, 3)))[0] - exact).max() <= 1e-12


@pytest.mark.parametrize("seed", [7, 2**64 + 1])
def test_variational_scan_builds_one_generator(seed, monkeypatch):
    calls = {"SeedSequence": 0, "default_rng": 0}
    for name in calls:
        original = getattr(equilibrium.np.random, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(equilibrium.np.random, name, counted)
    variational_scan(GOLDEN, 1000, seed=seed)
    assert sum(calls.values()) <= 1


@pytest.mark.parametrize(
    "bad",
    [np.eye(2), np.array([[0.5, 0.6], [1.0, 0.0]])],
    ids=["reducible", "not-stochastic"],
)
def test_stationary_batch_rejects_chains_without_one_stationary_vector(bad):
    golden_chain = np.array([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(InvariantViolation):
        equilibrium._stationary_batch(np.stack([golden_chain, bad]), np.empty((2, 2, 2)))
