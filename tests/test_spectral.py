import math
import warnings

import numpy as np
import pytest

from shiftkms import (
    SFT,
    ConvergenceError,
    ReducibleMatrixError,
    component_perron_data,
    irreducible,
    kms_temperature,
    period,
    perron_vectors,
    sparse_radius_bracket,
    spectral,
    spectral_radius,
    strongly_connected_components,
    temperature_sign,
)

import oracles

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = [[1, 1], [1, 0]]


def test_irreducible_examples():
    assert irreducible([[0, 1], [1, 0]])
    assert not irreducible([[1, 1], [0, 1]])
    assert irreducible(GOLDEN)


def test_irreducible_one_by_one():
    assert irreducible([[1]])
    assert not irreducible([[0]])


def test_irreducible_matches_reachability_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 7))
        M = (rng.random((d, d)) < 0.4).astype(int)
        assert irreducible(M) == oracles.reachability_irreducible(M)


def test_period_examples():
    assert period([[0, 1], [1, 0]]) == 2
    assert period(GOLDEN) == 1
    assert period([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 3


def test_period_requires_irreducible():
    with pytest.raises(ReducibleMatrixError):
        period([[1, 1], [0, 1]])


def test_period_matches_closed_walk_oracle():
    rng = np.random.default_rng(11)
    found = 0
    while found < 25:
        d = int(rng.integers(2, 7))
        M = (rng.random((d, d)) < 0.35).astype(int)
        if not oracles.reachability_irreducible(M):
            continue
        found += 1
        assert period(M) == oracles.period_brute(M)


def test_scc_decomposition():
    assert strongly_connected_components([[1, 1], [0, 1]]) == [(0,), (1,)]
    assert strongly_connected_components(GOLDEN) == [(0, 1)]


def test_scc_closure_matches_tarjan_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = int(rng.integers(1, 41))
        # edges only from a lower to a higher-or-equal group, in shuffled labels:
        # reducible whenever two groups are used
        group = rng.integers(0, int(rng.integers(1, 6)), d)
        M = (rng.random((d, d)) < rng.uniform(0.05, 0.4)) & (group[:, None] <= group[None, :])
        perm = rng.permutation(d)
        M = M[np.ix_(perm, perm)].astype(int)
        assert strongly_connected_components(M) == oracles.scc_tarjan(M)
    # a trivial node 0 feeding the long cycle 39 -> 38 -> ... -> 1 -> 39
    M = np.zeros((40, 40), dtype=int)
    M[np.arange(2, 40), np.arange(1, 39)] = 1
    M[1, 39] = 1
    M[0, 5] = 1
    comps = strongly_connected_components(M)
    assert comps == oracles.scc_tarjan(M) == [(0,), tuple(range(1, 40))]


def _irreducible_draws():
    """Seeded irreducible 0/1 matrices, and a positively weighted copy of each, up to d = 256:
    random entries of density 1/d or 0.3 on top of a random d-cycle."""
    rng = np.random.default_rng(28)
    for d in (2, 5, 16, 64, 128, 256):
        for density in (1.0 / d, 0.3):
            M = (rng.random((d, d)) < density).astype(int)
            order = rng.permutation(d)
            M[order, np.roll(order, 1)] = 1
            yield f"zero-one{d}-{density:.2g}", M
            yield f"weighted{d}-{density:.2g}", M * (0.5 + 1.5 * rng.random((d, d)))


PERIOD_CASES = {
    **{f"cyclic{p}": (p, 256 // p) for p in range(2, 7)},
    **{f"chord{n}": oracles.cycle_chord(n) for n in (3, 12, 30, 100)},
    **dict(_irreducible_draws()),
    "one": [[1]],
}


@pytest.mark.parametrize("name", sorted(PERIOD_CASES))
def test_period_of_the_level_adjacency_matches_closed_walks(name):
    M = PERIOD_CASES[name]
    if isinstance(M, tuple):  # (period, block) of a block-cyclic matrix
        M = oracles.block_cyclic(np.random.default_rng(M[0]), *M)
    assert period(M) == oracles.period_brute(M)
    assert irreducible(M)


def test_graph_pass_matches_tarjan_on_reducible_matrices():
    rng = np.random.default_rng(2028)
    for _ in range(200):
        M = oracles.random_reducible_zero_one(rng)
        comps = oracles.scc_tarjan(M)
        assert strongly_connected_components(M) == comps
        assert [c.indices for c in component_perron_data(M)] == comps
        assert not irreducible(M)
        for c in component_perron_data(M):
            assert c.data.period == oracles.period_brute(M[np.ix_(c.indices, c.indices)])


CERTIFIED = {
    "chord30": lambda: oracles.cycle_chord(30),
    "chord100": lambda: oracles.cycle_chord(100),
    "chord300": lambda: oracles.cycle_chord(300),
    "sparse256": oracles.sparse_d256,
    "cyclic3": lambda: oracles.block_cyclic(np.random.default_rng(3), 3, 16),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_perron_certificate_brackets_the_eigenvalue(name):
    M = CERTIFIED[name]()
    p = perron_vectors(M)
    assert p.lo <= p.lam <= p.hi
    assert p.hi - p.lo <= 1e-12 * p.lam
    assert abs(p.lam - np.abs(np.linalg.eigvals(M)).max()) <= 1e-13 * p.lam
    assert p.period == (3 if name == "cyclic3" else 1)


def test_spectral_radius_golden():
    r = spectral_radius(GOLDEN)
    assert abs(r - PHI) < 1e-12
    # independent oracle: repeated squaring
    assert abs(r - oracles.spectral_radius_squaring(GOLDEN)) < 1e-9


def test_spectral_radius_identity_and_ones():
    assert spectral_radius(np.eye(4)) == 1.0
    for d in range(2, 7):
        assert spectral_radius(np.ones((d, d))) == float(d)


def test_spectral_radius_random_vs_squaring_oracle():
    rng = np.random.default_rng(3)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        M = oracles.random_irreducible_zero_one(rng, d)
        assert abs(spectral_radius(M) - oracles.spectral_radius_squaring(M)) < 1e-9


def test_spectral_radius_reducible_takes_max_over_components():
    M = np.zeros((5, 5))
    M[:2, :2] = 1.0
    M[2:, 2:] = 1.0
    M[0, 3] = 1.0  # coupling edge keeps it one matrix, still reducible
    assert abs(spectral_radius(M) - 3.0) < 1e-12


def test_spectral_radius_all_zero_rejected():
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((3, 3)))


def test_spectral_radius_nilpotent_is_zero():
    assert spectral_radius([[0, 1], [0, 0]]) == 0.0


def test_permutation_radius_exactly_one():
    P = np.eye(5)[[1, 2, 3, 4, 0]]
    assert spectral_radius(P) == 1.0


def test_spectral_radius_transpose():
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = oracles.random_irreducible_zero_one(rng, int(rng.integers(2, 7)))
        assert abs(spectral_radius(M) - spectral_radius(M.T)) <= 2e-12


def test_perron_golden_hand_solution():
    p = perron_vectors(GOLDEN)
    u_exact = np.array([PHI, 1.0]) / (PHI + 1.0)
    v_exact = np.array([PHI, 1.0]) * (PHI + 1.0) / (PHI**2 + 1.0)
    assert abs(p.lam - PHI) < 1e-12
    assert np.abs(p.u - u_exact).max() < 1e-12
    assert np.abs(p.v - v_exact).max() < 1e-12


def test_perron_all_ones_and_permutation():
    p = perron_vectors(np.ones((2, 2)))
    assert p.lam == 2.0
    assert np.allclose(p.u, [0.5, 0.5], atol=1e-13)
    assert np.allclose(p.v, [1.0, 1.0], atol=1e-13)
    q = perron_vectors([[0, 1], [1, 0]])
    assert abs(q.lam - 1.0) < 1e-12
    assert np.allclose(q.u, [0.5, 0.5], atol=1e-12)
    assert np.allclose(q.v, [1.0, 1.0], atol=1e-12)


def test_perron_invariants_on_random_matrices():
    rng = np.random.default_rng(13)
    for _ in range(20):
        M = oracles.random_irreducible_zero_one(rng, int(rng.integers(2, 7)))
        p = perron_vectors(M)
        A = np.asarray(M, dtype=float)
        assert np.abs(A @ p.u - p.lam * p.u).sum() <= p.residual <= 1e-12
        assert np.abs(A.T @ p.v - p.lam * p.v).sum() <= 1e-12
        assert abs(p.u.sum() - 1.0) < 1e-12
        assert abs(float(p.u @ p.v) - 1.0) < 1e-12
        assert p.u.min() > 0 and p.v.min() > 0


def _noda_matrices():
    rng = np.random.default_rng(19)
    for d in (3, 16, 64, 128):
        M = oracles.random_irreducible_zero_one(rng, d, 0.6)
        yield M
        yield M * (0.5 + 1.5 * rng.random((d, d)))  # positively weighted
    yield oracles.block_cyclic(rng, 3, 16)
    yield oracles.cycle_chord(30)


def test_noda_systems_are_bitwise_the_eye_build(monkeypatch):
    for M in _noda_matrices():
        got = perron_vectors(M)
        spectral._analysis.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(spectral, "_noda", oracles.noda_eye)
            ref = perron_vectors(M)
        for field in ("lam", "u", "v", "lo", "hi", "iterations"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field


def _noda_starts(monkeypatch):
    """The start vector of every Noda run from here on, in order."""
    starts, noda = [], spectral._noda

    def recorded(B, shift, x, settled):
        starts.append(x)
        return noda(B, shift, x, settled)

    monkeypatch.setattr(spectral, "_noda", recorded)
    return starts


def _from_ones(M, monkeypatch):
    """Perron data of M, cold, with every Noda run started from ones/d (no warm steps)."""
    spectral._analysis.cache_clear()
    warm_start = spectral._warm_start
    with monkeypatch.context() as m:
        m.setattr(spectral, "_warm_start", lambda B, steps: warm_start(B, 0))
        m.setattr(spectral, "_noda", oracles.noda_eye)
        return perron_vectors(M)


def _is_ones(x):
    return np.array_equal(x, np.full(x.size, 1.0 / x.size))


def test_warm_steps_stop_where_an_entry_underflows(monkeypatch):
    # rows scaled by 10^U(-150, 150): entries from 2e-112 to 1e137, and the
    # Perron vector reaches 6e-276, so the third power step underflows an entry
    rng = np.random.default_rng(24)
    A = oracles.random_irreducible_zero_one(rng, 16)
    M = A * 10.0 ** rng.uniform(-150, 150, (16, 1))
    starts = _noda_starts(monkeypatch)
    p = perron_vectors(M)
    assert len(starts) == 2 and not _is_ones(starts[0])  # warm steps ran, and one pair was enough
    y = M @ starts[0] + starts[0]
    assert np.count_nonzero(y / y.sum()) < 16  # the step after the returned x underflows
    assert abs(p.lam - _from_ones(M, monkeypatch).lam) <= 1e-15 * p.lam


@pytest.mark.parametrize("d", [64, 128])
def test_warm_steps_cut_the_solves_on_dense_matrices(d, monkeypatch):
    # from ones/d these take 8-13 solves; at d = 64 the d // 4 steps end near
    # rounding level, and Noda's stop on a non-shrinking bracket adds 1-4
    rng = np.random.default_rng(d)
    warm = ones = 0
    for _ in range(6):
        M = oracles.random_irreducible_zero_one(rng, d, 0.6)
        spectral._analysis.cache_clear()
        solves = perron_vectors(M).iterations
        assert solves <= 6
        warm, ones = warm + solves, ones + _from_ones(M, monkeypatch).iterations
    assert 2 * warm <= ones


def test_warm_steps_add_no_solves_on_periodic_and_slowly_mixing_matrices(monkeypatch):
    rng = np.random.default_rng(29)
    matrices = [oracles.block_cyclic(rng, period, 16) for period in (2, 3) for _ in range(4)]
    starts = _noda_starts(monkeypatch)
    warm = [perron_vectors(M).iterations for M in matrices]
    assert len(starts) == 2 * len(matrices)  # no pair needed the start from ones/d
    assert sum(warm) <= sum(_from_ones(M, monkeypatch).iterations for M in matrices)
    for n in (12, 30):  # the first step does not halve the bracket [1, 2] of ones/d
        M = oracles.cycle_chord(n)
        assert perron_vectors(M).iterations <= _from_ones(M, monkeypatch).iterations


def test_matrices_below_d4_take_no_warm_steps(monkeypatch):
    starts = _noda_starts(monkeypatch)
    for M in ([[2.0]], GOLDEN, [[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [0.5, 1.0, 0.0]]):
        perron_vectors(M)
    assert len(starts) == 6 and all(_is_ones(x) for x in starts)


def test_a_warm_pair_that_misses_acceptance_is_solved_from_ones(monkeypatch):
    # sparse rows scaled by 10^U(-10, 10): the lower Collatz-Wielandt bound stays
    # near 0, Noda stops on bracket noise, and from the warm start it stops at a
    # residual of 1.7e-12; the start from ones/d gets 4.5e-15
    rng = np.random.default_rng(5)
    M = oracles.random_irreducible_zero_one(rng, 32, 0.2) * 10.0 ** rng.uniform(-10, 10, (32, 1))
    starts = _noda_starts(monkeypatch)
    p = perron_vectors(M)
    assert len(starts) == 4 and not _is_ones(starts[0]) and _is_ones(starts[2]) and _is_ones(starts[3])
    ref = _from_ones(M, monkeypatch)
    for field in ("lam", "u", "v", "lo", "hi", "iterations"):
        assert np.array_equal(getattr(p, field), getattr(ref, field)), field


def _old_rule(M, monkeypatch):
    """Perron data of M, cold, under the rule that solved every warm start, settled or not."""
    spectral._analysis.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(spectral, "_noda", lambda B, shift, x, settled: oracles.noda_eye(B, shift, x, False))
        return perron_vectors(M)


@pytest.mark.parametrize("d", [128, 256])
def test_settled_warm_starts_take_no_solves_on_dense_matrices(d, monkeypatch):
    # the d // 4 warm steps end at rounding level; the old rule's 2-5 solves per pair only confirmed it
    rng = np.random.default_rng(3 * d)
    for _ in range(4):
        M = oracles.random_irreducible_zero_one(rng, d, 0.6)
        spectral._analysis.cache_clear()
        p = perron_vectors(M)
        old = _old_rule(M, monkeypatch)
        assert p.iterations == 0 < old.iterations
        assert old.lo <= p.lam <= old.hi and p.residual <= spectral.residual_noise_floor(d, p.lam)


def _unsettled_cases():
    rng = np.random.default_rng(31)
    for period in (2, 3):
        for _ in range(4):
            yield oracles.block_cyclic(rng, period, 16)
    for n in (12, 30):
        yield oracles.cycle_chord(n)
    for d in (32, 64):  # sparse rows scaled by 10^U(-10, 10): Noda can stop on bracket noise
        for seed in range(40):
            rng = np.random.default_rng(seed)
            yield oracles.random_irreducible_zero_one(rng, d, 0.2) * 10.0 ** rng.uniform(-10, 10, (d, 1))


def test_periodic_slow_and_badly_scaled_matrices_solve_as_under_the_old_rule(monkeypatch):
    failures = 0
    for M in _unsettled_cases():
        spectral._analysis.cache_clear()
        try:
            got = perron_vectors(M)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as ref:
                _old_rule(M, monkeypatch)
            assert str(exc) == str(ref.value) and exc.residual == ref.value.residual
            failures += 1
            continue
        ref = _old_rule(M, monkeypatch)
        for field in ("matrix", "lam", "u", "v", "period", "iterations", "residual", "lo", "hi"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
    assert failures == 22  # 10 of the 40 at d = 32 and 12 at d = 64


def test_perron_rejects_reducible():
    with pytest.raises(ReducibleMatrixError):
        perron_vectors([[1, 1], [0, 1]])


def test_component_perron_data():
    M = np.zeros((5, 5), dtype=int)
    M[:2, :2] = 1
    M[2:, 2:] = 1
    comps = component_perron_data(M)
    assert [c.indices for c in comps] == [(0, 1), (2, 3, 4)]
    assert [round(c.radius) for c in comps] == [2, 3]


def test_convergence_error_carries_state():
    # the Perron value 2e308 overflows: the error keeps the positive start vector
    with pytest.raises(ConvergenceError) as err:
        perron_vectors(np.full((2, 2), 1e308))
    assert np.array_equal(err.value.last_vector, [0.5, 0.5])
    assert err.value.residual == math.inf


def test_perron_rejects_non_finite_lambda():
    with pytest.raises(ConvergenceError):
        perron_vectors(np.full((2, 2), 1e308))


def test_normalized_powers_against_exact_powers():
    M = np.array([[0, 2, 1], [3, 0, 0], [1, 1, 1]])
    x = np.array([0.25, 0.5, 0.25])
    logs, vectors = spectral.normalized_powers(M, x, 12)
    Mo = M.astype(object)
    for k, (log_k, v) in enumerate(zip(logs, vectors), start=1):
        exact = np.linalg.matrix_power(Mo, k) @ (4 * x).astype(int).astype(object)
        total = sum(exact)
        assert abs(log_k - math.log(total / 4)) < 1e-13 * k
        assert np.allclose(v, [e / total for e in exact], rtol=1e-14, atol=0.0)
    # the lists stop at the first vanishing sum
    logs, vectors = spectral.normalized_powers(np.triu(np.ones((3, 3)), 1), np.ones(3) / 3, 5)
    assert len(logs) == len(vectors) == 2


def _growth_cases():
    rng = np.random.default_rng(3)
    for d in (8, 16, 32, 64, 128):
        yield f"sft{d}", oracles.random_irreducible_zero_one(rng, d, 0.6)
    yield "cyclic3", oracles.block_cyclic(rng, 3, 12)
    for d in (32, 64, 128):
        yield f"sparse{d}", oracles.random_irreducible_zero_one(rng, d, 0.1)


@pytest.mark.parametrize("M", [pytest.param(M, id=name) for name, M in _growth_cases()])
def test_chunked_growth_logs_match_exact_powers(M):
    # the stepwise recursion adds one rounded log per step and drifts up to 7.9e-15 here
    d = len(M)
    logs, vectors = spectral.normalized_powers(M, np.full(d, 1.0 / d), 300)
    assert len(logs) == len(vectors) == 300
    for log_n, v in zip(logs, oracles.column_sums_exact(M, 300)):
        exact = math.log(sum(v)) - math.log(d)
        assert abs(log_n - exact) <= 1e-15 * exact


def test_chunked_growth_matches_stepwise_on_huge_column_sums():
    # column sums 3.8e29 to 6.1e29: chunks of floor(300 / log(6.1e29)) = 4 steps
    rng = np.random.default_rng(17)
    M = 1e30 * rng.random((12, 12)) / 12
    x = rng.random(12)
    logs, vectors = spectral.normalized_powers(M, x / x.sum(), 50)
    ref_logs, ref_vectors = oracles.normalized_powers_stepwise(M, x / x.sum(), 50)
    assert len(logs) == len(ref_logs) == 50
    np.testing.assert_allclose(logs, ref_logs, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(vectors, ref_vectors, rtol=1e-13, atol=0.0)


def test_chunked_growth_is_stepwise_with_a_zero_column():
    M = np.array([[1, 2, 0, 1], [0, 1, 0, 3], [2, 0, 0, 1], [1, 1, 0, 0]])
    x = np.array([0.125, 0.375, 0.25, 0.25])  # sums to 1 exactly
    logs, vectors = spectral.normalized_powers(M, x, 40)
    ref_logs, ref_vectors = oracles.normalized_powers_stepwise(M, x, 40)
    assert len(logs) == 40 and logs == ref_logs
    assert np.array_equal(vectors, ref_vectors)


def test_chunked_growth_stops_where_stepwise_stops():
    for d in (2, 5, 9):
        M, x = np.triu(np.ones((d, d)), 1), np.ones(d) / d
        logs, vectors = spectral.normalized_powers(M, x, 3 * d)
        assert len(logs) == len(vectors) == len(oracles.normalized_powers_stepwise(M, x, 3 * d)[0]) == d - 1
    assert spectral.normalized_powers(np.ones((3, 3)), np.zeros(3), 5) == ([], [])


@pytest.mark.parametrize(
    "x", [[math.nan, 1.0], [math.inf, 1.0], [-1.0, 2.0], [1.0, 1.0, 1.0], [1.0], [[0.5, 0.5]]], ids=str
)
def test_normalized_powers_refuses_a_start_that_is_no_finite_nonnegative_d_vector(x):
    # a nan start once read as a vanished sum, inf warned, [-1, 2] dropped a log, a wrong length broadcast
    with pytest.raises(ValueError, match="^x must be a finite nonnegative vector of length 2$"):
        spectral.normalized_powers([[1, 1], [1, 0]], x, 3)


def test_normalized_powers_takes_a_finite_start_whose_sum_overflows():
    # 1e308 + 1e308 overflows; the start is divided by its largest entry first, so it runs as [1, 1]
    logs, vectors = spectral.normalized_powers(GOLDEN, [1e308, 1e308], 20)
    ref_logs, ref_vectors = spectral.normalized_powers(GOLDEN, [1.0, 1.0], 20)
    assert len(logs) == 20 and np.array_equal(vectors, ref_vectors)
    np.testing.assert_allclose(logs, np.array(ref_logs) + math.log(1e308), rtol=1e-15, atol=0.0)


def test_chunked_growth_stays_finite_far_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs, vectors = spectral.normalized_powers(np.ones((256, 256)), np.ones(256), 2000)
    assert len(logs) == 2000
    for n, log_n in enumerate(logs, start=1):
        assert math.isfinite(log_n) and abs(log_n - (n + 1) * math.log(256)) <= 1e-12 * n * math.log(256)
    assert np.array_equal(vectors[-1], np.full(256, 1 / 256))


def _unit_edges(M):
    """(src, dst) with one edge i -> j per unit of the integer entry M[i, j]."""
    src, dst = np.nonzero(M)
    return np.repeat(src, M[src, dst]), np.repeat(dst, M[src, dst])


def _partition(labels):
    groups = {}
    for v, c in enumerate(labels):
        groups.setdefault(c, []).append(v)
    return sorted(tuple(g) for g in groups.values())


def test_sparse_scc_labels_match_tarjan_oracle():
    rng = np.random.default_rng(37)
    for _ in range(80):
        d = int(rng.integers(1, 40))
        M = (rng.random((d, d)) < rng.choice([0.02, 0.05, 0.1, 0.3])).astype(int)
        labels = spectral._scc_labels(d, *_unit_edges(M))
        assert _partition(labels) == oracles.scc_tarjan(M)
        assert all(labels[v] in comp for comp in oracles.scc_tarjan(M) for v in comp)


def test_sparse_radius_bracket_holds_the_lapack_radius():
    # reducible, periodic and weighted count matrices; LAPACK's value carries
    # no certificate, so it is compared within 1e-14 relative
    rng = np.random.default_rng(41)
    for _ in range(60):
        d = int(rng.integers(1, 60))
        M = rng.integers(1, 4, (d, d)) * (rng.random((d, d)) < rng.choice([0.03, 0.08, 0.3]))
        lo, hi = sparse_radius_bracket(d, *_unit_edges(M))
        if not lo:  # no cycle: the radius is 0 and LAPACK's nilpotent eigenvalues are noise
            assert hi == 0.0 and not np.linalg.matrix_power(M, d).any()
            continue
        lam = float(np.max(np.abs(np.linalg.eigvals(M))))
        assert lo * (1 - 1e-14) <= lam <= hi * (1 + 1e-14), (lo, lam, hi)
        assert 0.0 < hi - lo <= 1e-12 * hi
    assert sparse_radius_bracket(5, *_unit_edges(np.triu(np.ones((5, 5), dtype=int), 1))) == (0.0, 0.0)


def test_sparse_radius_bracket_handles_chains_past_the_recursion_limit():
    n = 4097
    chain = np.arange(n - 1)
    # a path into a self-loop, and one cycle through every node
    lo, hi = sparse_radius_bracket(n, np.append(chain, n - 1), np.append(chain + 1, n - 1))
    assert lo < 1.0 < hi and hi - lo < 1e-15
    lo, hi = sparse_radius_bracket(n, np.arange(n), (np.arange(n) + 1) % n)
    assert lo < 1.0 < hi and hi - lo < 1e-15


def test_sparse_radius_bracket_solves_each_component_apart():
    # two chained radius-1 components form a Jordan block, on which power
    # iteration over the whole graph converges only like 1/k
    lo, hi = sparse_radius_bracket(2, [0, 0, 1], [0, 1, 1])
    assert lo < 1.0 < hi and hi - lo < 1e-15
    # the golden-mean component upstream of a radius-2 one
    lo, hi = sparse_radius_bracket(4, [0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 0, 2, 2, 3, 2, 3])
    assert lo <= 2.0 <= hi and hi - lo < 1e-14


@pytest.mark.parametrize(
    "src, dst",
    [
        ([0, 1], [1, 2]),
        ([0, 2], [1, 0]),
        ([-1], [0]),
        ([0, 1], [1]),
        ([[0]], [[1]]),
        ([0.5, 1.7], [1, 0]),
        ([0, 1], [1.0, 0.5]),
        ([True, False], [1, 0]),
        ([0, 1], np.array([1, 0], dtype=bool)),
        ([0.0, math.nan], [1, 0]),
        ([math.inf], [0]),
        (["0", "1"], [1, 0]),
    ],
)
def test_sparse_radius_bracket_rejects_edges_outside_the_nodes(src, dst):
    # node 2 would be the virtual root of the Tarjan pass, -1 wraps around; a cast to
    # intp would turn 0.5 and 1.7 into nodes 0 and 1, and True and False into 1 and 0
    with pytest.raises(ValueError, match=r"nodes in 0\.\.1"):
        sparse_radius_bracket(2, src, dst)


def test_sparse_radius_bracket_takes_integral_floats_and_no_edges():
    assert sparse_radius_bracket(2, [0.0, 0.0, 1.0], [0, 1, 0]) == sparse_radius_bracket(2, [0, 0, 1], [0, 1, 0])
    unsigned = np.array([0, 1], dtype=np.uint8)
    assert sparse_radius_bracket(2, unsigned, [1, 0]) == sparse_radius_bracket(2, [0, 1], [1, 0])
    assert sparse_radius_bracket(2, [], []) == (0.0, 0.0)


def test_sparse_radius_bracket_step_cap_raises_with_the_bracket(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match="did not converge in 3 steps") as err:
        sparse_radius_bracket(2, [0, 0, 1], [0, 1, 0])
    assert 0.0 < err.value.residual < 1.0 and np.all(err.value.last_vector > 0)


@pytest.mark.parametrize("consume", [SFT, kms_temperature, temperature_sign], ids=lambda f: f.__name__)
@pytest.mark.parametrize("matrix", [[[1, 1], [0, 0]], [[1, 0], [1, 0]]], ids=["zero row", "zero column"])
def test_every_consumer_states_the_one_cuntz_krieger_rule(consume, matrix):
    with pytest.raises(ValueError, match=r"^matrix must have no zero row and no zero column$"):
        consume(matrix)
