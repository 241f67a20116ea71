import math

import numpy as np
import pytest

from shiftkms import (
    BetaShift,
    ForbiddenWords,
    FullShift,
    SFT,
    krieger,
    entropy_bracket,
    omega_l,
    predecessor_set,
    sofic_check,
    subshift,
)
from shiftkms.subshift import automaton_for, build_automaton, topological_entropy

import oracles

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = SFT([[1, 1], [1, 0]])
EVEN_TRUNC = ForbiddenWords(
    2, ((2, 1, 2), (2, 1, 1, 1, 2), (2, 1, 1, 1, 1, 1, 2), (2, 1, 1, 1, 1, 1, 1, 1, 2))
)


def test_predecessor_set_full_shift():
    assert predecessor_set((1, 2), 1, FullShift(2)) == [(), (1,), (2,)]


def test_predecessor_set_golden_by_first_letter():
    assert predecessor_set((1, 2), 1, GOLDEN) == [(), (1,), (2,)]
    assert predecessor_set((2, 1), 1, GOLDEN) == [(), (1,)]


def test_predecessor_set_rejects_an_inadmissible_word():
    with pytest.raises(ValueError, match="not admissible"):
        predecessor_set((1, 2, 2), 1, GOLDEN)
    with pytest.raises(ValueError, match="not admissible"):
        predecessor_set((1,), 0, ForbiddenWords(1, ((1,),)))  # the empty shift


def test_predecessor_set_forbidden_brute():
    spec = ForbiddenWords(2, ((1, 1),))
    got = predecessor_set((1, 2), 2, spec)
    assert got == sorted(oracles.predecessor_set_brute((1, 2), 2, spec), key=lambda m: (len(m), m))
    assert got == [(), (2,), (1, 2), (2, 2)]


def test_predecessor_set_matches_brute_everywhere():
    specs = [
        FullShift(2),
        GOLDEN,
        ForbiddenWords(2, ((2, 1, 2),)),
        BetaShift(PHI, digit_depth=24),
        BetaShift("1.7", digit_depth=24),
    ]
    for spec in specs:
        for w in oracles.enumerate_words(spec, 4):
            for l in (0, 1, 3):
                got = predecessor_set(w, l, spec)
                want = sorted(
                    oracles.predecessor_set_brute(w, l, spec), key=lambda m: (len(m), m)
                )
                assert got == want


def test_predecessor_set_rejects_inadmissible_word():
    with pytest.raises(ValueError):
        predecessor_set((2, 2), 2, GOLDEN)


def test_omega_full_shift_single_class():
    for l in (1, 3, 5):
        part = omega_l(FullShift(3), l, 6)
        assert part.class_count == 1
        assert part.stabilized


def test_omega_golden_two_classes():
    part = omega_l(GOLDEN, 1, 6)
    assert part.class_count == 2
    assert part.stabilized
    # classes are the words starting with 1 and the words starting with 2
    by_first = {c.representative[:1]: c.predecessors for c in part.classes}
    assert by_first[(1,)] == ((), (1,), (2,))
    assert by_first[(2,)] == ((), (1,))
    # 13 + 8 of the 21 golden-mean words of length 6
    assert {c.representative[:1]: len(c.words) for c in part.classes} == {(1,): 13, (2,): 8}
    assert omega_l(GOLDEN, 2, 6).class_count == 2


def test_omega_beta_17_grows_linearly():
    spec = BetaShift("1.7", digit_depth=32)
    part = omega_l(spec, 6, 12)
    assert part.class_count == 7
    assert part.stabilized


def test_omega_matches_brute_partition():
    specs = [
        FullShift(2),
        GOLDEN,
        ForbiddenWords(2, ((2, 1, 2),)),
        BetaShift("1.7", digit_depth=24),
    ]
    for spec in specs:
        for l, depth in ((1, 4), (2, 5), (3, 6)):
            assert omega_l(spec, l, depth).class_count == oracles.past_classes_brute(
                spec, l, depth
            )


def test_partition_refines_and_counts_monotone():
    for spec in (GOLDEN, EVEN_TRUNC, BetaShift("1.7", digit_depth=32)):
        prev = None
        prev_count = 0
        for l in range(1, 6):
            part = omega_l(spec, l, 8)
            assert part.class_count >= prev_count
            prev_count = part.class_count
            if prev is not None:
                coarse = {w: ci for ci, cls in enumerate(prev.classes) for w in cls.words}
                for cls in part.classes:
                    assert len({coarse[w] for w in cls.words}) == 1
            prev = part


def test_sft_class_count_bounded_by_power_of_alphabet():
    rng = np.random.default_rng(37)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        M = oracles.random_irreducible_zero_one(rng, d)
        part = omega_l(SFT(M), 4, 6)
        assert part.class_count <= 2**d


def test_dim_q_examples():
    assert sofic_check(FullShift(2), 5, 8).counts[4] == 1
    assert sofic_check(GOLDEN, 5, 8).counts[4] == 2
    assert sofic_check(BetaShift(PHI, digit_depth=32), 5, 8).counts[4] == 2


def test_dim_q_consistent_with_enumeration():
    specs = [
        FullShift(2),
        GOLDEN,
        ForbiddenWords(2, ((2, 1, 2),)),
        BetaShift("1.7", digit_depth=32),
    ]
    for spec in specs:
        # every n <= depth up to 6; one stabilization rule: the l = l_max flag
        # at depth = l_max is False in all four
        for depth in range(2, 10):
            l_max = min(depth, 6)
            parts = [omega_l(spec, n, depth) for n in range(1, l_max + 1)]
            flags = tuple(part.stabilized for part in parts)
            check = sofic_check(spec, l_max, depth)
            assert check.counts == tuple(part.class_count for part in parts)
            assert check.stabilized == flags
            if l_max >= 4:
                assert entropy_bracket(spec, l_max, depth).dims_stabilized == flags


def test_dim_q_beta_linear_growth_with_aperiodic_expansion():
    spec = BetaShift("1.7", digit_depth=64)
    assert spec.expansion().quasi_greedy_block is None
    report = sofic_check(spec, 10, 16)
    assert all(report.stabilized)
    assert report.counts == tuple(n + 1 for n in range(1, 11))


def test_sofic_check_golden():
    report = sofic_check(GOLDEN, 8)
    assert report.sofic_detected
    assert set(report.counts) == {2}


def test_sofic_check_even_shift_truncation():
    report = sofic_check(EVEN_TRUNC, 16, depth=20)
    assert report.sofic_detected
    assert report.counts[-1] == 9


def test_sofic_check_beta_17_not_detected():
    report = sofic_check(BetaShift("1.7", digit_depth=64), 8, depth=12)
    assert not report.sofic_detected
    assert report.counts == (2, 3, 4, 5, 6, 7, 8, 9)
    assert all(report.stabilized)


def test_sofic_check_detects_golden_beta_shift():
    report = sofic_check(BetaShift(PHI, digit_depth=32), 8, depth=12)
    assert report.sofic_detected
    assert set(report.counts) == {2}


def test_sofic_verdict_needs_no_count_window():
    # an uncapped presentation is a finite automaton, so the shift is sofic at
    # any l_max; the class counts only report evidence
    report = sofic_check(FullShift(3), 2)
    assert report.sofic_detected
    assert report.counts == (1, 1) and report.fixed_point_depth == 0
    # growing stabilized counts up to n_max = 8, all below the one forbidden word
    spec = ForbiddenWords(2, ((1, 2, 2, 2, 2, 2, 2, 2, 2, 1),))
    bracket = entropy_bracket(spec, 8)
    assert bracket.sofic_detected and bracket.width == 0
    assert bracket.dims == tuple(range(2, 10)) and bracket.fixed_point_depth == 9


def test_class_counts_are_presentation_independent():
    # three presentations of the same language give the same cover dimensions
    presentations = (GOLDEN, ForbiddenWords(2, ((2, 2),)), BetaShift(PHI, digit_depth=32))
    for spec in presentations:
        assert sofic_check(spec, 6, 10).counts == (2,) * 6


def test_bracket_sofic_inputs_close():
    for spec in (GOLDEN, FullShift(3), EVEN_TRUNC):
        report = entropy_bracket(spec, 20)
        assert report.sofic_detected
        assert report.width == 0.0


def test_bracket_full_shift_is_log_d():
    report = entropy_bracket(FullShift(4), 20)
    assert abs(report.lower - math.log(4)) < 1e-12
    assert abs(report.upper - math.log(4)) < 1e-12


def test_bracket_beta_17_correction():
    spec = BetaShift("1.7", digit_depth=80)
    report = entropy_bracket(spec, 30, depth=40)
    assert not report.sofic_detected
    assert report.dims == tuple(n + 1 for n in range(1, 31))
    expected = 2 * math.log(31) / 30
    assert abs((report.upper - report.lower) - expected) < 1e-12


def test_bracket_lower_is_the_exact_entropy():
    # the word-count extrapolation sits up to 5.3e-3 above log(phi) at n = 6
    for n in range(4, 31):
        report = entropy_bracket(GOLDEN, n)
        assert report.lower == report.upper == topological_entropy(GOLDEN, n).exact, n
        assert abs(report.lower - math.log(PHI)) <= 1e-15, n
    spec = BetaShift("1.7", digit_depth=80)
    assert topological_entropy(spec, 30).exact == math.log(1.7)
    report = entropy_bracket(spec, 30, depth=40)
    assert report.lower == math.log(1.7)
    assert abs(report.width - 2 * math.log(31) / 30) < 1e-12


def test_bracket_counts_no_words(monkeypatch):
    def refuse(spec, n_max):
        raise AssertionError("entropy_bracket counted words")

    monkeypatch.setattr(subshift, "count_words_sequence", refuse)
    for spec in (GOLDEN, FullShift(3), EVEN_TRUNC, BetaShift("1.7", digit_depth=80)):
        report = entropy_bracket(spec, 30, depth=40)
        assert report.lower == subshift.exact_entropy(spec)[0]
    with pytest.raises(ValueError, match=r"subshift is empty \(theta_1 = 0\)"):
        entropy_bracket(ForbiddenWords(2, ((1,), (2,))), 5)


def test_validation_errors():
    with pytest.raises(ValueError):
        omega_l(GOLDEN, 3, 2)
    with pytest.raises(ValueError):
        sofic_check(GOLDEN, -1, 5)
    with pytest.raises(ValueError):
        sofic_check(GOLDEN, 1)
    with pytest.raises(ValueError):
        entropy_bracket(GOLDEN, 3)
    with pytest.raises(ValueError):
        omega_l(ForbiddenWords(1, ((1,),)), 1, 3)
    # the empty family is a fixed point at depth 1, reached before the requested depth
    empty = ForbiddenWords(1, ((1,),))
    with pytest.raises(ValueError, match="no admissible words of length 5"):
        sofic_check(empty, 2, 5)
    with pytest.raises(ValueError, match="no admissible words of length 7"):
        sofic_check(empty, 3)
    with pytest.raises(ValueError, match=r"subshift is empty \(theta_1 = 0\)"):
        entropy_bracket(empty, 5)
    for base in ("nan", "1e400", float("inf")):
        with pytest.raises(ValueError, match=f"got '?{base}"):
            BetaShift(base)
    capped = BetaShift("1.7", digit_depth=32)
    for call in (sofic_check, entropy_bracket):
        with pytest.raises(ValueError, match="word length 40 exceeds the presentation depth 32"):
            call(capped, 10, 30)


SNAPPED_GOLDEN = BetaShift("1.6180339887", digit_depth=230)
SNAPPED_TRIBONACCI = BetaShift("1.8392867552", digit_depth=230)

# (spec, l_max, depths); every presentation is checked well past its fixed
# point, the snapped bases (finite Parry follower graphs of 2 and 3 states)
# at the depths of `shiftkms all --max-n 100 --depth 110`
REFERENCE_CASES = [
    (FullShift(3), 6, (6, 9, 20)),
    (GOLDEN, 8, (8, 12, 30)),
    (SFT([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 6, (6, 10, 25)),
    (ForbiddenWords(3, ((1, 2), (3, 3, 1))), 6, (6, 10, 25)),
    (EVEN_TRUNC, 16, (16, 20, 40)),
    (BetaShift("1.7", digit_depth=80), 8, (8, 12, 40)),
    (BetaShift(2.5, digit_depth=64), 8, (8, 12, 40)),
    (SNAPPED_GOLDEN, 100, (100, 110)),
    (SNAPPED_TRIBONACCI, 100, (100, 110)),
]


@pytest.mark.parametrize("spec,l_max,depths", REFERENCE_CASES)
def test_class_counts_match_frozenset_reference(spec, l_max, depths):
    aut = automaton_for(spec)
    # a beta-shift is sofic iff its expansion of 1 terminated; every other case is an SFT
    sofic = not isinstance(spec, BetaShift) or spec.expansion().terminated
    for depth in depths:
        counts, before = oracles.class_counts_brute(spec, l_max, depth)
        stab = tuple(depth - 1 >= n and before[n] == counts[n] for n in range(1, l_max + 1))

        check = sofic_check(spec, l_max, depth)
        assert check.counts == tuple(counts[1:])
        assert check.stabilized == stab
        assert check.sofic_detected == sofic

        bracket = entropy_bracket(spec, l_max, depth)
        assert bracket.dims == tuple(counts[1:])
        assert bracket.dims_stabilized == stab
        assert bracket.sofic_detected == sofic

        # the counts up to n do not depend on the n_max of the pass
        for n in range(2, l_max + 1, max(1, l_max // 8)):
            prefix = sofic_check(spec, n, depth)
            assert (prefix.counts, prefix.stabilized) == (check.counts[:n], stab[:n])

        # fixed_point_depth is the first m with family(m) == family(m + 1)
        family = oracles.subset_family_brute(aut, depth)
        repeats = [m for m in range(depth) if family[m] == family[m + 1]]
        expected = repeats[0] if repeats else None
        assert check.fixed_point_depth == bracket.fixed_point_depth == expected
    assert expected is not None and all(f == family[-1] for f in family[expected:])


def test_beta_17_family_fixed_point_certifies_deep_bracket():
    # without the fixed-point stop this bracket builds 220 families of up to
    # 496 subsets of 501 states
    spec = BetaShift(1.7, digit_depth=500)
    report = entropy_bracket(spec, 200, depth=220)
    assert report.fixed_point_depth is not None and report.fixed_point_depth <= 22
    counts, before = oracles.class_counts_brute(spec, 200, 220)
    assert report.dims == tuple(counts[1:]) == tuple(n + 1 for n in range(1, 201))
    assert report.dims_stabilized == tuple(b == c for b, c in zip(before[1:], counts[1:]))
    assert all(report.dims_stabilized) and not report.sofic_detected


@pytest.mark.parametrize("base", ["1.01", "1.05", "1.1"])
def test_truncated_beta_chain_never_claims_soficity(base):
    # the expansion of 1 does not terminate, so the depth-capped chain presents
    # a truncation: equal stabilized counts there prove nothing about the shift
    spec = BetaShift(base, digit_depth=200)
    check = sofic_check(spec, 10)
    assert len(set(check.counts[-3:])) == 1 and all(check.stabilized[-3:])
    assert not check.sofic_detected
    bracket = entropy_bracket(spec, 50, depth=60)
    assert not bracket.sofic_detected and bracket.width > 0


def test_closed_bracket_contains_h_above_256_states():
    # the sofic bracket closes on h itself, so it is compared with LAPACK's h
    # within rounding: lower <= h <= upper would need lower == upper == h bitwise
    words = np.random.default_rng(30).integers(1, 3, (40, 12)).tolist()
    spec = ForbiddenWords(2, tuple(map(tuple, words)))
    aut = automaton_for(spec)
    assert aut.sink == 264
    lam = oracles.perron_root_lapack(aut)
    lo, hi = aut.radius_bracket
    assert lo * (1 - 1e-14) <= lam <= hi * (1 + 1e-14)
    h = math.log(lam)
    report = entropy_bracket(spec, 30)
    assert report.lower == report.upper == topological_entropy(spec, 30).exact
    assert abs(report.lower - h) <= 1e-13 * h


# the bases of the first pass of the beta-all benchmark at seed 1 (digit_depth
# 230, `shiftkms all --max-n 100 --depth 110`), snapped golden and tribonacci among them
BETA_ALL_SEED_1 = ["1.2974", "3.9261", "1.6180339887", "2.0863", "2.9585", "1.8392867552", "1.6841", "3.1879"]


def _sorted_rows_cases():
    for digit_depth in (64, 512):
        for n, depth in ((12, 12), (30, 40)):
            yield BetaShift(1.7, digit_depth=digit_depth), n, depth
    for n, depth in ((12, 12), (30, 40), (100, 110)):
        yield SNAPPED_GOLDEN, n, depth
    for i in range(40):
        rng = np.random.default_rng([31, i])
        alphabet = int(rng.integers(2, 5))
        words = tuple(tuple(rng.integers(1, alphabet + 1, int(k)).tolist()) for k in rng.integers(2, 7, int(rng.integers(1, 7))))
        for n, depth in ((12, 12), (30, 40)):
            yield ForbiddenWords(alphabet, words), n, depth
    for i in range(20):
        rng = np.random.default_rng([32, i])
        M = oracles.random_irreducible_zero_one(rng, int(rng.integers(2, 13)), float(rng.uniform(0.2, 0.7)))
        for n, depth in ((12, 12), (30, 40)):
            yield SFT(M), n, depth
    for base in BETA_ALL_SEED_1:
        yield BetaShift(base, digit_depth=230), 100, 110


def test_class_counts_equal_the_sorted_row_core():
    fixed = set()
    for spec, n, depth in _sorted_rows_cases():
        aut = build_automaton(spec)
        got = krieger._class_counts.__wrapped__(aut, n, depth)
        assert got == oracles.class_counts_sorted_rows(aut, n, depth), (spec, n, depth)
        fixed.add(got[2] is None)
    assert fixed == {True, False}
    empty = build_automaton(ForbiddenWords(2, ((1,), (2,))))
    for depth in (1, 5):
        for core in (krieger._class_counts.__wrapped__, oracles.class_counts_sorted_rows):
            with pytest.raises(ValueError, match=f"no admissible words of length {depth}"):
                core(empty, 3, depth)


@pytest.mark.parametrize("spec,n,depth", [(BetaShift(1.7, digit_depth=512), 30, 40), (EVEN_TRUNC, 16, 40)])
def test_class_counts_gather_each_subset_once(spec, n, depth, monkeypatch):
    # the rows handed to the gather are the distinct subsets of the families up
    # to the stop, each once: family(m) is gathered for m < depth, and not
    # past the first m whose next family equals it
    aut = build_automaton(spec)
    gathered, take = [], np.take

    def counted(a, indices, axis=None):
        gathered.append(len(a))
        return take(a, indices, axis=axis)

    monkeypatch.setattr(np, "take", counted)
    stop = krieger._class_counts.__wrapped__(aut, n, depth)[2]
    monkeypatch.undo()
    family = oracles.subset_family_brute(aut, depth)
    last = depth - 1 if stop is None else stop
    visited = set().union(*family[: last + 1])
    assert sum(gathered) == len(visited) < sum(map(len, family[: last + 1]))


def test_beta_4096_bracket_at_the_cli_bounds():
    # max_n = depth = 1000 and digit_depth 4096, the CLI's bounds: the family
    # reaches its fixed point at depth 38 of the 4097-state chain
    report = entropy_bracket(BetaShift(1.7, digit_depth=4096), 1000, depth=1000)
    assert report.dims == tuple(n + 1 for n in range(1, 1001))
    assert report.fixed_point_depth == 38
