import itertools
import math

import numpy as np
import pytest

from shiftkms import (
    ReducibleMatrixError,
    bimodule_kms,
    coherent_from_boundary,
    coherent_sequence,
    epsilon_sequence,
    h_iterate,
    kms_eigen_sequence,
    kms_temperature,
    normalization_profile,
    perron_vectors,
    s_prime,
    spectral,
    t_prime,
    temperature_from_trace,
    temperature_sign,
    tracespace,
)
from shiftkms.tracespace import as_trace_vector

import oracles

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = [[1, 1], [1, 0]]


def test_trace_vector_validation():
    as_trace_vector([0.25, 0.75])
    with pytest.raises(ValueError):
        as_trace_vector([0.5, 0.6])
    with pytest.raises(ValueError):
        as_trace_vector([-0.1, 1.1])


def test_round_trips_are_exact():
    seq = coherent_from_boundary(GOLDEN, [0.3, 0.7], 6)
    back = t_prime(s_prime(seq))
    assert all((a == b).all() for a, b in zip(back.levels, seq.levels[:-1]))
    forward = s_prime(t_prime(seq))
    assert all((a == b).all() for a, b in zip(forward.levels, seq.levels[:-1]))


def test_shift_operators_scale_eigen_sequence():
    seq = kms_eigen_sequence(GOLDEN, 6)
    lam = perron_vectors(GOLDEN).lam
    up = s_prime(seq)
    for a, b in zip(up.levels, seq.levels[:-1]):
        assert np.abs(a - lam * b).max() < 1e-12
    down = t_prime(seq)
    for a, b in zip(down.levels, seq.levels[:-1]):
        assert np.abs(a - b / lam).max() < 1e-12


def _incoherent():
    """Levels 0.8^r (0.6, 0.4), r = 0..6: every residual |A t_{r+1} - t_r| = 0.4 * 0.8^r is visible."""
    return tracespace._coherent(np.array(GOLDEN), [np.array([0.6, 0.4]) * 0.8**r for r in range(7)], require=False)


@pytest.mark.parametrize("make", [_incoherent, lambda: kms_eigen_sequence(GOLDEN, 6)], ids=["incoherent", "eigen"])
def test_shift_operators_shift_the_residuals(make):
    # the new top level A t_0 is coherent by construction; every other residual moves with its levels
    seq = make()
    assert any(seq.residuals)
    up, down = s_prime(seq), t_prime(seq)
    assert up.residuals == (0.0,) + seq.residuals[:-1]
    assert down.residuals == seq.residuals[1:]
    assert up.tol == down.tol == seq.tol


def test_t_prime_needs_depth():
    seq = coherent_sequence(np.eye(2), [np.array([0.5, 0.5])])
    with pytest.raises(ValueError):
        t_prime(seq)


def test_h_fixes_eigen_sequence():
    seq = kms_eigen_sequence(GOLDEN, 8)
    out = h_iterate(seq, 1)
    for a, b in zip(out.levels, seq.levels):
        assert np.abs(a - b).max() < 1e-12


def test_h_identity_matrix_constant_sequence():
    levels = [np.array([0.5, 0.5])] * 5
    seq = coherent_sequence(np.eye(2), levels)
    out = h_iterate(seq, 3)
    for lv in out.levels:
        assert np.allclose(lv, [0.5, 0.5], atol=1e-15)


def test_h_iterates_approach_eigen_as_truncations_deepen():
    # coherence t_r = A t_{r+1} makes deep levels the least aligned with the
    # Perron direction, so at a fixed truncation h-iterates walk away from the
    # eigen-sequence; the honest limit is over construction depth.
    eig = kms_eigen_sequence(GOLDEN, 4)
    n = 3
    dists = []
    for R in (6, 10, 14, 18):
        out = h_iterate(coherent_from_boundary(GOLDEN, [1.0, 1.0], R), n)
        dists.append(
            sum(float(np.abs(a - b).sum()) for a, b in zip(out.levels[:5], eig.levels[:5]))
        )
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-4


def test_h_and_k_are_dual_on_backward_truncations():
    # level 0 of h^n(backward truncation of depth R) is the (R-n)-step
    # k-iterate of the normalized boundary vector
    R, n = 12, 5
    boundary = np.array([0.7, 0.3])
    seq = coherent_from_boundary(GOLDEN, boundary, R)
    out = h_iterate(seq, n)
    kk = spectral.normalized_powers(GOLDEN, boundary / boundary.sum(), R - n)[1][-1]
    assert np.abs(out.levels[0] - kk).max() < 1e-12


def test_h_requires_enough_levels():
    seq = kms_eigen_sequence(GOLDEN, 3)
    with pytest.raises(ValueError):
        h_iterate(seq, 4)


def test_k_iterate_examples():
    # the k-iteration t -> A t / (1^T A t) is the vector half of normalized_powers
    fixed = spectral.normalized_powers(np.eye(2), [0.3, 0.7], 5)[1]
    assert np.allclose(fixed[-1], [0.3, 0.7], atol=1e-15)
    one_step = spectral.normalized_powers(np.ones((2, 2)), [0.9, 0.1], 1)[1]
    assert np.allclose(one_step[0], [0.5, 0.5], atol=1e-15)
    u = perron_vectors(GOLDEN).u
    out = spectral.normalized_powers(GOLDEN, [1.0, 0.0], 200)[1]
    assert np.abs(out[-1] - u).sum() < 1e-12


def test_kms_eigen_sequence_examples():
    seq = kms_eigen_sequence(np.ones((2, 2), dtype=int), 4)
    for r, lv in enumerate(seq.levels):
        assert np.allclose(lv, [0.5 * 2.0**-r] * 2, atol=1e-13)
    perm = kms_eigen_sequence([[0, 1], [1, 0]], 4)
    for lv in perm.levels:
        assert np.allclose(lv, [0.5, 0.5], atol=1e-12)
    golden = kms_eigen_sequence(GOLDEN, 6)
    assert max(golden.residuals) < 1e-12
    assert golden.normalized


def test_epsilon_closed_form_coefficients():
    # brute expansion over words: eps_n coefficient of t_k must match column
    # sums of A^n; checked exactly for d = 2, n <= 3
    for A in ([[1, 1], [1, 0]], [[1, 1], [1, 1]], [[0, 1], [1, 1]]):
        M = np.asarray(A)
        for n in (1, 2, 3):
            coeff = [0, 0]
            for mu in itertools.product((1, 2), repeat=n):
                w = 1
                for a, b in zip(mu, mu[1:]):
                    w *= int(M[a - 1, b - 1])
                for k in (1, 2):
                    coeff[k - 1] += w * int(M[mu[-1] - 1, k - 1])
            power = oracles.matrix_power_exact(M, n)
            colsums = [sum(power[i][k] for i in range(2)) for k in range(2)]
            assert coeff == colsums


def test_epsilon_examples():
    eps = epsilon_sequence(np.eye(3), [1 / 3] * 3, 5)
    assert np.allclose(eps.eps, [1.0] * 5, atol=1e-15)
    eps = epsilon_sequence(np.ones((4, 4)), [0.25] * 4, 5)
    assert np.allclose(eps.eps, [4.0**n for n in range(1, 6)], rtol=1e-13)
    eps = epsilon_sequence(GOLDEN, [0.5, 0.5], 2)
    assert abs(eps.eps[0] - 1.5) < 1e-15
    assert abs(eps.eps[1] - 2.5) < 1e-15


def test_epsilon_simplex_bracket():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        M = oracles.random_irreducible_zero_one(rng, d)
        t = rng.random(d)
        t /= t.sum()
        eps = epsilon_sequence(M, t, 8)
        for n, value in enumerate(eps.eps, start=1):
            power = oracles.matrix_power_exact(M, n)
            colsums = [sum(power[i][k] for i in range(d)) for k in range(d)]
            assert min(colsums) - 1e-9 <= value <= max(colsums) + 1e-9


def test_epsilon_no_overflow_at_large_n():
    eps = epsilon_sequence(np.ones((6, 6)), [1 / 6] * 6, 400)
    assert abs(eps.rates[-1] - math.log(6)) < 1e-12


@pytest.mark.parametrize(
    "matrix, first",
    [
        (np.ones((4, 4)), None),  # 4^512 overflows float64
        (np.full((4, 4), 2.0), 341),  # 8^341 is above 1 / tiny
        (np.full((4, 4), 0.025), 308),  # 0.1^308 is below the normal floats
    ],
)
def test_eps_refuses_values_outside_the_normal_floats(matrix, first):
    seq = epsilon_sequence(matrix, [0.25] * 4, 600)
    assert len(seq.log_values) == len(seq.rates) == 600
    with pytest.raises(ValueError, match="eps_n leaves the normal float64 range at n = "):
        seq.eps
    if first is not None:
        with pytest.raises(ValueError, match=f"at n = {first} "):
            seq.eps
        assert epsilon_sequence(matrix, [0.25] * 4, first - 1).eps[-1] > 0.0


def test_temperature_from_trace_examples():
    for d in (2, 4):
        got = temperature_from_trace(np.ones((d, d)), [1 / d] * d, 50)
        assert abs(got - math.log(d)) < 1e-13
    perm = [[0, 1], [1, 0]]
    assert abs(temperature_from_trace(perm, [0.4, 0.6], 100)) < 1e-12
    got = temperature_from_trace(GOLDEN, [0.5, 0.5], 300)
    assert abs(got - math.log(PHI)) < 1e-2


def test_temperature_from_trace_requires_positive():
    with pytest.raises(ValueError):
        temperature_from_trace(GOLDEN, [1.0, 0.0], 10)


def test_kms_temperature_examples():
    for d in range(2, 7):
        rep = kms_temperature(np.ones((d, d), dtype=int))
        assert rep.beta == math.log(d)
        assert rep.uniqueness_flag
    rep = kms_temperature(GOLDEN)
    assert abs(rep.beta - math.log(PHI)) < 1e-12
    assert rep.uniqueness_flag
    assert max(rep.eigen_sequence.residuals) < 1e-12
    perm = kms_temperature([[0, 1], [1, 0]])
    assert abs(perm.beta) < 1e-12
    assert not perm.uniqueness_flag


def test_kms_temperature_reducible_paths():
    # two disjoint blocks, both distinguished: the extremal temperatures are log 2 and log 3
    M = np.zeros((5, 5), dtype=int)
    M[:2, :2] = 1
    M[2:, 2:] = 1
    with pytest.raises(ReducibleMatrixError, match="temperature_sign"):
        kms_temperature(M)
    sign = temperature_sign(M)
    assert (sign.lower, sign.upper) == (2.0, 3.0)
    # a path from the radius-3 block into the radius-2 block leaves log 3 the only temperature
    M[2, 0] = 1
    sign = temperature_sign(M)
    assert sign.column_growth == (3.0,) * 5
    assert oracles.distinguished_temperatures_brute(M) == pytest.approx((math.log(3),) * 2, abs=1e-12)
    with pytest.raises(ValueError):
        kms_temperature([[1, 0], [1, 1]])  # zero column


def test_bimodule_kms():
    rep = bimodule_kms(np.ones((3, 3)))
    assert abs(rep.beta - math.log(3)) < 1e-12
    assert np.allclose(rep.v0, [1 / 3] * 3, atol=1e-13)
    rep = bimodule_kms([[0.0, 2.0], [3.0, 0.0]])
    assert abs(rep.beta - 0.5 * math.log(6)) < 1e-12
    # consistency with the 0/1 route
    a = bimodule_kms(GOLDEN).beta
    b = kms_temperature(GOLDEN).beta
    assert abs(a - b) < 1e-12
    with pytest.raises(ReducibleMatrixError):
        bimodule_kms([[1.0, 1.0], [0.0, 1.0]])


def test_bimodule_sequence_scaling():
    rep = bimodule_kms(GOLDEN, depth=5)
    for r, v in enumerate(rep.sequence):
        assert np.abs(v - rep.v0 * rep.lam ** (-r)).max() < 1e-12


def test_bimodule_depth_past_the_float_range_is_a_value_error():
    # lam = sqrt(0.15): lam^-1000 overflows a float, lam^-700 does not
    weights = [[0.0, 0.3], [0.5, 0.0]]
    with pytest.raises(ValueError, match=r"depth = 1000 \(lambda = 0.387298\)"):
        bimodule_kms(weights, depth=1000)
    assert np.isfinite(bimodule_kms(weights, depth=700).sequence[-1]).all()
    with pytest.raises(ValueError, match="depth = 12"):
        bimodule_kms([[1e-300]], depth=12)


def test_a_negative_depth_is_a_value_error_naming_it():
    # the 0/1 and the lambda-matrix routes share one rule and one message
    for kms in (bimodule_kms, kms_temperature, kms_eigen_sequence):
        with pytest.raises(ValueError, match="depth must be >= 0, got -3"):
            kms(GOLDEN, -3)
    assert len(bimodule_kms(GOLDEN, depth=0).sequence) == 1


def test_kms_eigen_sequence_refuses_levels_that_leave_the_normal_floats():
    # t_R = u lam^(-R) is normal iff R log lam - log min(u) <= _LOG_RANGE
    p = perron_vectors(GOLDEN)
    deepest = math.floor((tracespace._LOG_RANGE + math.log(p.u.min())) / math.log(p.lam))
    levels = kms_eigen_sequence(GOLDEN, deepest).levels
    assert min(float(t.min()) for t in levels) >= np.finfo(float).tiny
    with pytest.raises(ValueError, match=f"depth = {deepest + 1}"):
        kms_eigen_sequence(GOLDEN, deepest + 1)
    # the full shift on 256 symbols: t_r = 256^(-r) / 256 underflowed to zero
    # vectors from r = 134 on, with residual 0.0
    full = np.ones((256, 256), dtype=int)
    with pytest.raises(ValueError, match="depth = 1000"):
        kms_temperature(full, depth=1000)
    assert all((t > 0).all() for t in kms_temperature(full, depth=100).eigen_sequence.levels)


def test_temperature_sign_classifications():
    assert temperature_sign([[0, 1], [1, 0]]).classification == "tracial"
    assert temperature_sign(GOLDEN).classification == "positive"
    assert temperature_sign(np.ones((3, 3))).classification == "positive"
    assert temperature_sign([[0.0, 0.5], [0.5, 0.0]]).classification == "negative"
    mixed = temperature_sign([[1, 1, 0], [0, 1, 1], [0, 1, 1]])
    assert mixed.classification == "mixed"
    assert abs(mixed.lower - 1.0) < 1e-12
    assert abs(mixed.upper - 2.0) < 1e-12
    chain = temperature_sign([[1, 1], [0, 1]])
    assert chain.classification == "tracial"


def test_temperature_sign_propagates_against_index_order():
    # node 0 (radius 2) feeds the cycle 5 -> 4 -> 3 -> 2 -> 1 -> 5, which runs
    # against index order: every column sum of A^n grows like 2^n
    M = np.zeros((6, 6), dtype=int)
    M[0, 0] = 2
    M[0, 5] = 1
    M[[5, 4, 3, 2, 1], [4, 3, 2, 1, 5]] = 1
    sign = temperature_sign(M)
    assert sign.column_growth == (2.0,) * 6
    assert sign.lower == sign.upper == 2.0
    assert sign.classification == "positive"


def test_temperature_sign_radii_are_the_column_sum_limits():
    # the paper defines the inner and outer spectral radii as the limits of
    # (min / max column sum of A^n)^(1/n); temperature_sign reads them exactly
    # off the component radii.  On these 40 reducible matrices (d = 3-27, lower
    # < upper on 26) the worst relative error of the exact column-sum roots
    # was, for (lower, upper): n = 128 (1.43e-2, 7.22e-2), 256 (7.17e-3,
    # 3.69e-2), 512 (3.59e-3, 1.84e-2), 1024 (1.80e-3, 9.16e-3): about half per
    # doubling of n, since a column sum c n^k r^n has an n-th root off from r
    # by a factor of about 1 + (log c + k log n) / n.
    rng = np.random.default_rng(0)
    matrices = [oracles.random_reducible_zero_one(rng) for _ in range(40)]
    ns = (128, 256, 512, 1024)
    worst = np.zeros((len(ns), 2))
    distinct = 0
    for M in matrices:
        sign = temperature_sign(M)
        distinct += sign.lower < sign.upper
        lower, upper = oracles.bracket_sequences_exact(M, ns[-1])
        for i, n in enumerate(ns):
            err = (abs(lower[n - 1] / sign.lower - 1.0), abs(upper[n - 1] / sign.upper - 1.0))
            worst[i] = np.maximum(worst[i], err)
    assert distinct >= 20
    assert (worst[:-1] >= 1.8 * worst[1:]).all(), worst
    assert (worst[-1] < 2e-2).all(), worst


def test_temperature_sign_radii_examples():
    sign = temperature_sign(np.eye(3, dtype=int))
    assert sign.lower == sign.upper == 1.0
    assert oracles.bracket_sequences_exact(np.eye(3, dtype=int), 5) == ([1.0] * 5, [1.0] * 5)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    sign = temperature_sign(GOLDEN)
    assert abs(sign.lower - phi) < 1e-12 and abs(sign.upper - phi) < 1e-12
    # A^2 = [[2, 1], [1, 1]] has column sums 3 and 2
    lower, upper = oracles.bracket_sequences_exact(GOLDEN, 2)
    assert abs(lower[1] - math.sqrt(2)) < 1e-12 and abs(upper[1] - math.sqrt(3)) < 1e-12
    sign = temperature_sign(np.ones((4, 4), dtype=int))
    assert abs(sign.lower - 4.0) < 1e-12 and abs(sign.upper - 4.0) < 1e-12


def test_column_sums_bracket_the_irreducible_radius():
    # on an irreducible matrix the inner and outer radii coincide, and every
    # (min / max column sum of A^n)^(1/n) brackets that one radius
    rng = np.random.default_rng(23)
    for _ in range(10):
        M = oracles.random_irreducible_zero_one(rng, int(rng.integers(2, 6)))
        sign = temperature_sign(M)
        assert abs(sign.lower - sign.upper) <= 1e-12 * sign.upper
        lower, upper = oracles.bracket_sequences_exact(M, 24)
        for a, b in zip(lower, upper):
            assert a - 1e-9 <= sign.lower and sign.upper <= b + 1e-9
        assert upper[-1] - lower[-1] < upper[0] - lower[0] + 1e-12


def test_normalization_profile_constant():
    seq = kms_eigen_sequence(GOLDEN, 10)
    profile = normalization_profile(seq)
    assert max(abs(x - 1.0) for x in profile) < 1e-9
    seq2 = coherent_from_boundary(GOLDEN, [0.2, 0.8], 10)
    profile2 = normalization_profile(seq2)
    assert max(abs(x - profile2[0]) for x in profile2) < 1e-9


def test_coherent_sequence_rejects_incoherent_when_required():
    with pytest.raises(ValueError):
        coherent_sequence(GOLDEN, [np.array([1.0, 0.0]), np.array([1.0, 0.0])])


def test_desk_scale_matrices_stay_within_posted_tolerances():
    # dense inputs up to d = 64 must pass the pipeline with the documented
    # residual bounds despite the float64 noise floor
    rng = np.random.default_rng(77)
    for d in (16, 32, 64):
        M = (rng.random((d, d)) < 0.5).astype(int)
        M[:, 0] = 1
        M[0, :] = 1
        rep = kms_temperature(M)
        assert max(rep.eigen_sequence.residuals) < 1e-12
        p = perron_vectors(M)
        assert abs(p.u.sum() - 1.0) < 1e-12
        assert abs(float(p.u @ p.v) - 1.0) < 1e-12


def test_temperature_sign_builds_the_closure_once(monkeypatch):
    # one reachability closure, and no growth recursion: the column growth is read off the components
    calls = {"reachability": 0, "normalized_powers": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        for module in (spectral, tracespace):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(spectral, name)))
    temperature_sign([[1, 1, 0], [0, 1, 1], [0, 1, 1]])
    assert calls == {"reachability": 1, "normalized_powers": 0}


def test_coherent_from_boundary_rejects_a_level_beyond_float64():
    # 1^T A^400 b = 8^400 overflows float64: no honest t_400 with sum(t_0) = 1 exists
    with pytest.raises(ValueError, match="R = 400"):
        coherent_from_boundary(np.ones((8, 8)), np.ones(8), 400)
    seq = coherent_from_boundary(np.ones((8, 8)), np.ones(8), 300)
    assert seq.coherent and seq.normalized


def test_normalization_profile_deep_sequence():
    # column sums of A^1030 exceed the float64 range; the profile must not.
    # Its eigen-sequence 2^(-r) / 2 is subnormal from r = 1022 on, which
    # kms_eigen_sequence refuses, so the levels are given directly (exact)
    levels = [np.full(2, 0.5 * 2.0**-r) for r in range(1031)]
    profile = normalization_profile(coherent_sequence(np.ones((2, 2)), levels))
    assert max(abs(x - 1.0) for x in profile) < 1e-9


def test_normalization_profile_beyond_zero_one_matrices():
    for seq in (
        coherent_from_boundary([[0, 2], [3, 0]], [0.3, 0.7], 10),
        kms_eigen_sequence([[0.5, 1.5], [1.0, 0.25]], 10),
    ):
        assert max(abs(x - 1.0) for x in normalization_profile(seq)) < 1e-9
