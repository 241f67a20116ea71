"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np

from shiftkms import (
    BetaShift,
    ForbiddenWords,
    FullShift,
    SFT,
    coherent_from_boundary,
    count_words,
    cylinder,
    entropy_bracket,
    epsilon_sequence,
    h_iterate,
    kms_eigen_sequence,
    kms_temperature,
    normalization_profile,
    omega_l,
    parry_measure,
    perron_vectors,
    predecessor_set,
    resolvent_vector,
    s_prime,
    spectral_radius,
    t_prime,
    topological_entropy,
    variational_scan,
)

import oracles

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = SFT([[1, 1], [1, 0]])


def _finish(num, failures, t0, budget, detail):
    elapsed = time.time() - t0
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {status} in {elapsed:.2f}s (budget {budget}s): {detail}")
    assert not failures, failures
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def _seeded_irreducible_matrices(seed, count, dims):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.choice(dims))
        out.append(oracles.random_irreducible_zero_one(rng, d))
    return out


def test_criterion_01_cuntz_algebra_shadow():
    t0 = time.time()
    failures = []
    for d in range(2, 7):
        A = np.ones((d, d), dtype=int)
        beta = kms_temperature(A).beta
        exact = topological_entropy(FullShift(d), 12).exact
        if abs(beta - math.log(d)) > 1e-12:
            failures.append(f"d={d}: kms beta {beta} != log {d}")
        if abs(exact - math.log(d)) > 1e-12:
            failures.append(f"d={d}: entropy exact {exact} != log {d}")
        if abs(beta - exact) > 1e-12:
            failures.append(f"d={d}: beta and exact entropy disagree")
    _finish(1, failures, t0, 1, "ones dxd (d=2..6): kms beta = exact entropy = log d to 1e-12")


def test_criterion_02_golden_mean_end_to_end():
    t0 = time.time()
    failures = []
    r = spectral_radius(GOLDEN.matrix)
    if abs(r - PHI) > 1e-10:
        failures.append(f"spectral radius {r} vs phi")
    est = topological_entropy(GOLDEN, 30)
    if abs(est.extrapolated - math.log(PHI)) > 5e-3:
        failures.append(f"extrapolated {est.extrapolated} not within 5e-3 of log phi")
    measure = parry_measure(GOLDEN.matrix)
    h_mu = measure.entropy
    if abs(h_mu - math.log(PHI)) > 1e-9:
        failures.append(f"parry entropy {h_mu} vs log phi")
    beta = kms_temperature(GOLDEN.matrix).beta
    if abs(math.log(r) - beta) > 1e-12:
        failures.append("log spectral radius disagrees with kms beta")
    if abs(est.extrapolated - beta) > 5e-3:
        failures.append("entropy estimate disagrees with kms beta")
    if abs(h_mu - beta) > 1e-9:
        failures.append("parry entropy disagrees with kms beta")
    _finish(2, failures, t0, 5, "golden mean: radius, entropy, parry measure and kms beta agree")


def test_criterion_03_temperature_from_arbitrary_traces():
    t0 = time.time()
    failures = []
    matrices = _seeded_irreducible_matrices(seed=101, count=5, dims=(2, 3, 4, 5, 6))
    rng = np.random.default_rng(202)
    n = 300
    for idx, A in enumerate(matrices):
        target = math.log(spectral_radius(A))
        for jdx in range(3):
            t = rng.random(A.shape[0]) + 0.05
            t /= t.sum()
            rate = epsilon_sequence(A, t, n).rates[-1]
            if abs(rate - target) >= 1e-2:
                failures.append(
                    f"matrix {idx} trace {jdx}: |{rate} - {target}| >= 1e-2 at n={n}"
                )
    _finish(3, failures, t0, 5, "5 seeded matrices x 3 traces: (1/n)log eps_n near log r(A) at n=300")


def test_criterion_04_variational_dominance():
    t0 = time.time()
    failures = []
    matrices = [GOLDEN.matrix, np.ones((3, 3), dtype=int)]
    matrices += _seeded_irreducible_matrices(seed=303, count=3, dims=(3, 4, 5, 6))
    for idx, A in enumerate(matrices):
        report = variational_scan(A, n_samples=1000, seed=404 + idx)
        if report.violations != 0:
            failures.append(f"matrix {idx}: {report.violations} dominance violations")
        if abs(report.gap) > 1e-9:
            failures.append(f"matrix {idx}: parry entry misses log r(A) by {report.gap}")
    _finish(4, failures, t0, 30, "1000 seeded measures per matrix: no dominance violations, parry attains")


def test_criterion_05_resolvent_construction():
    t0 = time.time()
    failures = []
    for A in (GOLDEN.matrix, np.ones((4, 4), dtype=int)):
        p = perron_vectors(A)
        v_dir = p.v / p.v.sum()
        for off in (0.5, 0.1, 0.01):
            rv = resolvent_vector(p, p.lam + off)
            if abs(rv.pairing - 1.0) > 1e-10:
                failures.append(f"pairing off by {abs(rv.pairing - 1.0)} at t=lam+{off}")
        dists = []
        for off in (0.5, 0.1, 0.01, 1e-4):
            rv = resolvent_vector(p, p.lam + off)
            a_dir = rv.a / rv.a.sum()
            dists.append(float(np.abs(a_dir - v_dir).sum()))
        if dists[-1] >= 1e-3:
            failures.append(f"alignment {dists[-1]} at t=lam+1e-4")
        # decreasing along the schedule, allowing ties at the float noise floor
        # (a symmetric matrix aligns a_t with v exactly at every t)
        if not all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])):
            failures.append(f"alignment not decreasing along schedule: {dists}")
    _finish(5, failures, t0, 1, "resolvent pairing exact to 1e-10, direction limit to the left eigenvector")


def test_criterion_06_krieger_counts():
    t0 = time.time()
    failures = []
    for d in (2, 3):
        for l in range(1, 9):
            part = omega_l(FullShift(d), l, 8)
            if part.class_count != 1:
                failures.append(f"full({d}) l={l}: {part.class_count} classes")
    for l in range(1, 9):
        part = omega_l(GOLDEN, l, 12)
        if part.class_count != 2 or not part.stabilized:
            failures.append(f"golden l={l}: count {part.class_count} stabilized {part.stabilized}")
    beta17 = BetaShift("1.7", digit_depth=64)
    for l in range(1, 9):
        part = omega_l(beta17, l, 12)
        if part.class_count != l + 1 or not part.stabilized:
            failures.append(f"beta(1.7) l={l}: count {part.class_count} stabilized {part.stabilized}")
    _finish(6, failures, t0, 60, "class counts: full=1, golden=2, beta(1.7)=l+1 for l<=8 at depth 12")


def test_criterion_07_entropy_bracket():
    t0 = time.time()
    failures = []
    sofic_specs = [
        GOLDEN,
        FullShift(2),
        FullShift(3),
        ForbiddenWords(2, ((2, 1, 2), (2, 1, 1, 1, 2), (2, 1, 1, 1, 1, 1, 2))),
    ]
    for spec in sofic_specs:
        report = entropy_bracket(spec, 20)
        if not report.sofic_detected or report.width != 0.0:
            failures.append(f"{spec}: sofic bracket width {report.width}")
    beta17 = BetaShift("1.7", digit_depth=230)
    report = entropy_bracket(beta17, 100, depth=110)
    correction = report.correction_sequence[-1]
    expected = 2 * math.log(101) / 100
    if report.dims[-1] != 101:
        failures.append(f"dim(Q_100) = {report.dims[-1]} != 101")
    if abs(correction - expected) > 1e-12:
        failures.append(f"correction {correction} != 2 log(101)/100")
    if not correction < 0.1:
        failures.append("correction at n=100 not below 0.1")
    if not (report.upper - report.lower) < 0.1:
        failures.append(f"bracket width {report.upper - report.lower} not below 0.1")
    _finish(7, failures, t0, 10, "sofic inputs close the bracket; beta(1.7) correction 2 log(101)/100 < 0.1")


def test_criterion_08_structural_identities():
    t0 = time.time()
    failures = []
    mats = [GOLDEN.matrix, np.ones((3, 3), dtype=int)]
    mats += _seeded_irreducible_matrices(seed=505, count=2, dims=(3, 4))
    for idx, A in enumerate(mats):
        seq = coherent_from_boundary(A, np.ones(A.shape[0]), 8)
        back = t_prime(s_prime(seq))
        if not all((a == b).all() for a, b in zip(back.levels, seq.levels[:-1])):
            failures.append(f"matrix {idx}: t'(s'(seq)) not exact")
        forward = s_prime(t_prime(seq))
        if not all((a == b).all() for a, b in zip(forward.levels, seq.levels[:-1])):
            failures.append(f"matrix {idx}: s'(t'(seq)) not exact")
        eig = kms_eigen_sequence(A, 8)
        fixed = h_iterate(eig, 1)
        drift = max(float(np.abs(a - b).max()) for a, b in zip(fixed.levels, eig.levels))
        if drift > 1e-12:
            failures.append(f"matrix {idx}: h moves the eigen-sequence by {drift}")
        profile = normalization_profile(eig)
        if max(abs(x - 1.0) for x in profile) > 1e-9:
            failures.append(f"matrix {idx}: normalization profile drifts {profile}")
    _finish(8, failures, t0, 1, "shift operators invert exactly, h fixes eigen-sequences, normalization propagates")


def test_criterion_09_oracle_equivalence():
    t0 = time.time()
    failures = []
    specs = [
        FullShift(2),
        FullShift(3),
        GOLDEN,
        SFT([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        ForbiddenWords(2, ((2, 1, 2), (2, 1, 1, 1, 2))),
        ForbiddenWords(3, ((1, 2), (3, 3, 1))),
        BetaShift(PHI, digit_depth=32),
        BetaShift(2.5, digit_depth=32),
    ]
    for spec in specs:
        for n in range(0, 13):
            fast = count_words(spec, n)
            brute = oracles.count_words_brute(spec, n) if n else fast
            if fast != brute:
                failures.append(f"{spec}: theta_{n} fast {fast} != brute {brute}")
                break
    for spec in specs:
        words = oracles.enumerate_words(spec, 8)[:6]
        for w in words:
            for l in (2, 4):
                got = predecessor_set(w, l, spec)
                want = sorted(
                    oracles.predecessor_set_brute(w, l, spec), key=lambda m: (len(m), m)
                )
                if got != want:
                    failures.append(f"{spec}: predecessor_set({w}, {l}) mismatch")
    _finish(9, failures, t0, 60, "automaton counting and predecessor sets equal brute force on all presentations")


def test_criterion_10_measure_consistency():
    t0 = time.time()
    failures = []
    matrices = [GOLDEN.matrix] + _seeded_irreducible_matrices(seed=606, count=3, dims=(3, 4, 5))
    for idx, A in enumerate(matrices):
        m = parry_measure(A)
        d = A.shape[0]
        words = [()]
        for n in range(1, 9):
            words = [
                w + (c,)
                for w in words
                for c in range(1, d + 1)
                if not w or A[w[-1] - 1, c - 1]
            ]
            for w in words:
                value = cylinder(m, w)
                kolmogorov = sum(cylinder(m, w + (j,)) for j in range(1, d + 1))
                shift = sum(cylinder(m, (i,) + w) for i in range(1, d + 1))
                if abs(kolmogorov - value) > 1e-10:
                    failures.append(f"matrix {idx}: kolmogorov fails at {w}")
                    break
                if abs(shift - value) > 1e-10:
                    failures.append(f"matrix {idx}: shift invariance fails at {w}")
                    break
            if failures:
                break
    _finish(10, failures, t0, 5, "parry cylinders satisfy kolmogorov and shift identities to 1e-10 up to length 8")
