import math

import numpy as np
import pytest

from shiftkms import (
    ConvergenceError,
    ReducibleMatrixError,
    aperiodic,
    column_sum_powers,
    component_perron_data,
    irreducible,
    period,
    perron_vectors,
    spectral,
    spectral_radius,
    spectral_radius_bracket_sequences,
    strongly_connected_components,
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


def test_aperiodic_examples():
    assert not aperiodic([[0, 1], [1, 0]])
    assert aperiodic(GOLDEN)
    cycle3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert not aperiodic(cycle3)
    assert period(cycle3) == 3


def test_aperiodic_requires_irreducible():
    with pytest.raises(ReducibleMatrixError):
        aperiodic([[1, 1], [0, 1]])


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


def test_column_sum_powers_examples():
    # ones 2x2: A^3 = 4 * ones, so each column sums to 8 = 2^3
    assert column_sum_powers(np.ones((2, 2), dtype=int), 3) == [8, 8]
    assert column_sum_powers(np.eye(3, dtype=int), 5) == [1, 1, 1]
    assert column_sum_powers(GOLDEN, 2) == [3, 2]


def test_column_sum_powers_matches_exact_matrix_power():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        M = (rng.random((d, d)) < 0.6).astype(int)
        r = int(rng.integers(1, 9))
        Mr = oracles.matrix_power_exact(M, r)
        expected = [sum(Mr[i][k] for i in range(d)) for k in range(d)]
        assert column_sum_powers(M, r) == expected


def test_column_sum_powers_large_r_no_overflow():
    out = column_sum_powers(np.ones((3, 3), dtype=int), 100)
    assert out == [3**100] * 3


@pytest.mark.parametrize(
    "matrix",
    [[[0, 2], [3, 0]], np.random.default_rng(31).integers(0, 1000, (6, 6))],
    ids=["weighted2", "random6"],
)
def test_column_sum_sequence_matches_object_matrix_power(matrix):
    # weights up to 999 overflow int64 within these powers; object dtype stays exact
    M = np.asarray(matrix).astype(object)
    ones = np.ones(len(M), dtype=object)
    expected = [list(ones @ np.linalg.matrix_power(M, n)) for n in range(1, 31)]
    assert spectral.column_sum_sequence(matrix, 30) == expected


def test_column_sum_powers_rejects_r_zero():
    with pytest.raises(ValueError):
        column_sum_powers(GOLDEN, 0)


def test_bracket_sequences_examples():
    lo, up = spectral_radius_bracket_sequences(np.eye(3, dtype=int), 5)
    assert lo == [1.0] * 5 and up == [1.0] * 5
    lo, up = spectral_radius_bracket_sequences(GOLDEN, 2)
    assert abs(lo[1] - math.sqrt(2)) < 1e-12
    assert abs(up[1] - math.sqrt(3)) < 1e-12
    lo, up = spectral_radius_bracket_sequences(np.ones((4, 4), dtype=int), 6)
    assert max(abs(x - 4.0) for x in lo + up) < 1e-12


def test_bracket_sequences_bracket_the_radius():
    rng = np.random.default_rng(23)
    for _ in range(10):
        M = oracles.random_irreducible_zero_one(rng, int(rng.integers(2, 6)))
        r = spectral_radius(M)
        lo, up = spectral_radius_bracket_sequences(M, 24)
        for a, b in zip(lo, up):
            assert a - 1e-9 <= r <= b + 1e-9
        assert up[-1] - lo[-1] < up[0] - lo[0] + 1e-12
