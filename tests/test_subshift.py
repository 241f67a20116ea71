import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shiftkms import (
    BetaShift,
    ForbiddenWords,
    FullShift,
    SFT,
    ConvergenceError,
    admissible,
    beta_expansion_of_one,
    count_words,
    count_words_sequence,
    spectral,
    spectral_radius,
    topological_entropy,
)
from shiftkms.beta import BetaExpansion
from shiftkms.subshift import Automaton, automaton_for, build_automaton, exact_entropy

import oracles

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = SFT([[1, 1], [1, 0]])
TRIBONACCI = 1.8392867552


def test_spec_validation():
    with pytest.raises(ValueError):
        SFT([[1, 0], [1, 0]])  # zero column
    with pytest.raises(ValueError):
        SFT([[0, 0], [1, 1]])  # zero row
    with pytest.raises(ValueError):
        ForbiddenWords(2, ((),))
    with pytest.raises(ValueError):
        ForbiddenWords(2, ((3,),))
    with pytest.raises(ValueError):
        BetaShift(0.9)
    with pytest.raises(ValueError):
        FullShift(0)


def test_admissible_examples():
    assert admissible((1, 2, 1), GOLDEN)
    assert not admissible((2, 2), GOLDEN)
    assert admissible((1, 2, 2, 1, 2), FullShift(2))
    bphi = BetaShift(PHI, digit_depth=32)
    assert not admissible((2, 2), bphi)  # digits (1,1)
    assert admissible((2, 1), bphi)
    assert admissible((), GOLDEN)


def test_admissible_rejects_bad_symbols():
    with pytest.raises(ValueError):
        admissible((0, 1), GOLDEN)
    with pytest.raises(ValueError):
        admissible((3,), GOLDEN)


@pytest.mark.parametrize("word", [[1.7, 2.2], [True, 2], ["2"], [1, np.bool_(True)], [Fraction(3, 2)]])
def test_symbols_that_are_not_integers_are_rejected(word):
    with pytest.raises(ValueError, match="outside alphabet"):
        admissible(word, GOLDEN)
    with pytest.raises(ValueError, match="symbols outside"):
        ForbiddenWords(2, (tuple(word),))


def test_integral_symbols_of_any_number_type_are_accepted():
    assert admissible([np.int64(1), 2.0, np.float32(1)], GOLDEN)
    assert ForbiddenWords(2, ((np.int8(1), 2.0),)).words == ((1, 2),)
    assert type(ForbiddenWords(2, ((np.int8(1), 2.0),)).words[0][0]) is int


@pytest.mark.parametrize(
    "make, field",
    [
        (FullShift, "alphabet"),
        (lambda v: ForbiddenWords(v, ((1,),)), "alphabet"),
        (lambda v: BetaShift(1.5, digit_depth=v), "digit_depth"),
    ],
    ids=["full", "forbidden", "beta"],
)
def test_presentation_sizes_obey_the_integer_rule(make, field):
    non_integers = [(v, "must be an integer") for v in (2.5, True, "3", np.bool_(True), Fraction(3, 1))]
    for value, rule in non_integers + [(0, "must be >= 1")]:
        with pytest.raises(ValueError) as info:
            make(value)
        assert str(info.value) == f"{field} {rule}, got {value!r}"
    sizes = [getattr(make(v), field) for v in (3, 3.0, np.int64(3), np.float32(3))]
    assert sizes == [3] * 4 and {type(s) for s in sizes} == {int}
    assert count_words(make(3.0), 2) == count_words(make(3), 2)


def test_integral_float_alphabet_shares_the_automaton_memo():
    assert FullShift(3.0) == FullShift(np.int64(3)) == FullShift(3)
    assert automaton_for(FullShift(3.0)) is automaton_for(FullShift(3))


def test_count_words_examples():
    assert count_words(FullShift(2), 3) == 8
    assert [count_words(GOLDEN, n) for n in (1, 2, 3)] == [2, 3, 5]
    forb = ForbiddenWords(2, ((1, 1),))
    assert [count_words(forb, n) for n in range(9)] == [
        count_words(GOLDEN, n) for n in range(9)
    ]
    assert count_words(GOLDEN, 0) == 1


def test_count_words_empty_language():
    dead = ForbiddenWords(1, ((1,),))
    assert count_words(dead, 0) == 0
    assert count_words(dead, 3) == 0


def test_forbidden_words_that_kill_all_extensions():
    # every avoid-list word starting with 1 dies, so the shift is 2^inf and
    # the word (1,) occurs nowhere even though it avoids the list
    spec = ForbiddenWords(2, ((1, 1), (1, 2)))
    assert not admissible((1,), spec)
    assert [count_words(spec, n) for n in range(4)] == [1, 1, 1, 1]
    # and a list whose avoiders all die leaves an empty shift
    empty = ForbiddenWords(2, ((1, 1), (1, 2), (2, 2)))
    assert count_words(empty, 0) == 0
    assert not admissible((2, 1), empty)


def test_counts_match_brute_enumeration():
    specs = [
        FullShift(2),
        GOLDEN,
        ForbiddenWords(2, ((1, 1),)),
        ForbiddenWords(3, ((1, 2), (2, 2, 3))),
        BetaShift(PHI, digit_depth=32),
        BetaShift("1.7", digit_depth=32),
    ]
    for spec in specs:
        for n in range(0, 9):
            assert count_words(spec, n) == (
                oracles.count_words_brute(spec, n) if n else count_words(spec, 0)
            )


def test_forbidden_language_fuzz_against_exact_oracle():
    # random small lists, including ones whose avoiding words can die out;
    # membership means occurring in an infinite avoiding sequence
    import itertools

    rng = np.random.default_rng(47)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        n_words = int(rng.integers(1, 4))
        words = tuple(
            tuple(int(s) for s in rng.integers(1, d + 1, size=int(rng.integers(1, 4))))
            for _ in range(n_words)
        )
        spec = ForbiddenWords(d, words)
        for n in range(0, 6):
            expected = sum(
                1
                for w in itertools.product(range(1, d + 1), repeat=n)
                if oracles.forbidden_occurs_brute(w, words, d)
            )
            assert count_words(spec, n) == expected, (words, n)


def test_presentation_independence_sft_vs_forbidden():
    rng = np.random.default_rng(29)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        M = oracles.random_irreducible_zero_one(rng, d)
        spec_a = SFT(M)
        pairs = tuple(
            (i + 1, j + 1) for i in range(d) for j in range(d) if M[i, j] == 0
        )
        spec_b = ForbiddenWords(d, pairs) if pairs else FullShift(d)
        assert count_words_sequence(spec_a, 10) == count_words_sequence(spec_b, 10)


def test_submultiplicativity():
    specs = [
        FullShift(3),
        GOLDEN,
        ForbiddenWords(2, ((2, 1, 2), (2, 1, 1, 1, 2))),
        BetaShift("1.7", digit_depth=32),
    ]
    for spec in specs:
        theta = [count_words(spec, n) for n in range(15)]
        for m in range(1, 8):
            for n in range(1, 15 - m):
                assert theta[m + n] <= theta[m] * theta[n]


def test_every_admissible_word_extends():
    specs = [GOLDEN, ForbiddenWords(2, ((2, 1, 2),)), BetaShift("1.7", digit_depth=32)]
    for spec in specs:
        for w in oracles.enumerate_words(spec, 6):
            assert any(admissible(w + (c,), spec) for c in (1, 2))


def test_beta_factor_closure():
    spec = BetaShift("1.7", digit_depth=32)
    for w in oracles.enumerate_words(spec, 9):
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert admissible(w[i:j], spec)


def test_entropy_full_shift():
    est = topological_entropy(FullShift(4), 20)
    assert est.exact == math.log(4)
    assert abs(est.extrapolated - math.log(4)) < 1e-12
    assert topological_entropy(FullShift(1), 10).extrapolated == 0.0


def test_entropy_golden_mean():
    est = topological_entropy(GOLDEN, 30)
    assert abs(est.extrapolated - math.log(PHI)) < 5e-3
    assert abs(est.exact - math.log(PHI)) < 1e-11
    assert est.theta[:3] == (2, 3, 5)


def test_entropy_extrapolation_close_for_small_sfts():
    rng = np.random.default_rng(31)
    for _ in range(12):
        d = int(rng.integers(2, 5))
        M = oracles.random_irreducible_zero_one(rng, d)
        est = topological_entropy(SFT(M), 30)
        assert abs(est.extrapolated - math.log(spectral_radius(M))) < 5e-3


def test_entropy_beta_estimates_log_beta():
    est = topological_entropy(BetaShift("1.7", digit_depth=64), 40)
    assert abs(est.extrapolated - math.log(1.7)) < 1e-2
    assert est.exact == math.log(1.7) and est.method == "log-beta"


def test_entropy_empty_language_errors():
    with pytest.raises(ValueError):
        topological_entropy(ForbiddenWords(1, ((1,),)), 5)


def test_exact_entropy_sft_examples():
    for d in range(2, 7):
        assert abs(exact_entropy(SFT(np.ones((d, d), dtype=int)))[0] - math.log(d)) < 1e-12
    assert abs(exact_entropy(SFT([[1, 1], [1, 0]]))[0] - math.log(PHI)) < 1e-11
    perm = np.eye(4, dtype=int)[[1, 2, 3, 0]]
    assert exact_entropy(SFT(perm))[0] == 0.0


def test_beta_expansion_integer_base():
    exp = beta_expansion_of_one(2.0, 8)
    assert exp.greedy == (2,)
    assert exp.terminated and not exp.snapped
    assert exp.quasi_greedy_block == (1,)
    assert oracles.quasi_greedy_digits(exp, 5) == (1, 1, 1, 1, 1)


def test_beta_expansion_golden():
    exp = beta_expansion_of_one(PHI, 8)
    assert exp.greedy == (1, 1)
    assert exp.terminated
    assert exp.quasi_greedy_block == (1, 0)
    assert oracles.quasi_greedy_digits(exp, 6) == (1, 0, 1, 0, 1, 0)


def test_beta_expansion_tribonacci():
    exp = beta_expansion_of_one(TRIBONACCI, 8)
    assert exp.greedy == (1, 1, 1)
    assert exp.terminated and exp.snapped
    assert exp.quasi_greedy_block == (1, 1, 0)


def test_beta_expansion_silver_mean():
    exp = beta_expansion_of_one(1.0 + math.sqrt(2), 8)
    assert exp.greedy == (2, 1)
    assert exp.quasi_greedy_block == (2, 0)


def test_beta_expansion_matches_fraction_oracle():
    # decimal strings parse exactly; 1.5 and 2.5 are also exact as floats
    for p, q, text, depth in ((17, 10, "1.7", 60), (5, 2, "2.5", 40), (3, 2, "1.5", 60)):
        exact = oracles.greedy_digits_fraction(p, q, depth)
        computed = beta_expansion_of_one(text, depth)
        assert list(computed.greedy[: len(exact)]) == exact
        assert list(beta_expansion_of_one(p / q, depth).greedy[:20]) == exact[:20]


def test_beta_expansion_rejects_base_one():
    with pytest.raises(ValueError):
        beta_expansion_of_one(1.0, 4)
    with pytest.raises(ValueError):
        beta_expansion_of_one(0.5, 4)


def test_beta_word_length_guard():
    spec = BetaShift("1.7", digit_depth=8)
    with pytest.raises(ValueError):
        count_words(spec, 9)
    assert count_words(spec, 8) > 0


def test_counts_agree_in_any_call_order():
    M = oracles.random_irreducible_zero_one(np.random.default_rng(5), 5)

    def theta(n):
        return sum(map(sum, oracles.matrix_power_exact(M, n - 1)))

    spec = SFT(M)
    assert count_words_sequence(spec, 4) == [theta(n) for n in range(1, 5)]
    assert count_words(spec, 9) == theta(9)
    assert count_words(spec, 2) == theta(2)
    assert count_words_sequence(spec, 12) == [theta(n) for n in range(1, 13)]
    assert count_words_sequence(spec, 6) == [theta(n) for n in range(1, 7)]


def test_beta_word_length_guard_after_shorter_counts():
    spec = BetaShift("1.7", digit_depth=64)
    assert len(count_words_sequence(spec, 30)) == 30
    for call in (count_words, count_words_sequence):
        with pytest.raises(ValueError, match="exceeds the presentation depth"):
            call(spec, 70)
    assert count_words(spec, 64) > 0


def test_beta_counts_fuzz_random_bases():
    for text in ("1.3", "2.2", "1.9", "2.8"):
        spec = BetaShift(text, digit_depth=24)
        for n in range(0, 9):
            want = oracles.count_words_brute(spec, n) if n else count_words(spec, 0)
            assert count_words(spec, n) == want, (text, n)


def test_desk_scale_dimension():
    d = 64
    est = topological_entropy(FullShift(d), 10)
    assert abs(est.exact - math.log(d)) < 1e-12
    assert abs(exact_entropy(SFT(np.ones((d, d), dtype=int)))[0] - math.log(d)) < 1e-12


# every kind of presentation; the forbidden list's live trie nodes are 0, 1,
# 3 and 4 (node 2 ends the factor 12), and the last list kills every word
TABLE_CASES = [
    FullShift(3),
    GOLDEN,
    SFT([[1, 1, 0, 1], [0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0]]),
    ForbiddenWords(3, ((1, 2), (3, 3, 1))),
    BetaShift("1.7", digit_depth=40),
    BetaShift(2.5, digit_depth=40),
    ForbiddenWords(2, ((1,), (2,))),
]


def _dict_walk(aut, word):
    q, moves = aut.start, oracles.moves(aut)
    for c in word:
        q = moves.get((q, c))
        if q is None:
            return None
    return q


def _check_table(aut, rng):
    n = len(aut.states)
    moves = oracles.moves(aut)
    assert aut.sink == n and aut.succ.shape == (aut.alphabet, n + 1)
    assert set(aut.states) == {q for q, _ in moves} | set(moves.values()) | {aut.start}
    assert (aut.succ[:, n] == n).all()
    assert aut.is_empty == (not any(q == aut.start for q, _ in moves))
    for _ in range(200):
        word = tuple(int(c) for c in rng.integers(1, aut.alphabet + 1, rng.integers(0, 13)))
        assert aut.run(word) == _dict_walk(aut, word)


@pytest.mark.parametrize("spec", TABLE_CASES, ids=lambda s: type(s).__name__)
def test_successor_table_runs_words_like_its_moves(spec):
    _check_table(automaton_for(spec), np.random.default_rng(8))
    assert count_words_sequence(spec, 7) == [oracles.count_words_brute(spec, n) for n in range(1, 8)]


def test_run_leaves_on_an_undefined_move_or_a_symbol_outside_the_alphabet():
    aut = automaton_for(GOLDEN)  # state 2 follows symbol 2 and has no move on it
    assert aut.run((2, 2)) is None and aut.run((2, 1, 2, 1)) == 1
    # symbols outside the alphabet leave the language, never index the table
    assert aut.run((0,)) is None and aut.run((1, 3)) is None and aut.run((-1,)) is None


def _corners(length):
    # alphabet 16 and `length` word symbols each: a run of 1s is forbidden, and
    # so is every other symbol after a 1, so every state past the root is a
    # dead end; and the run of 1s alone, a chain of `length` states
    yield ForbiddenWords(16, ((1,) * (length - 30), *((1, s) for s in range(2, 17))))
    yield ForbiddenWords(16, ((1,) * length,))


def _table_build_cases():
    yield from TABLE_CASES
    for i in range(300):
        rng = np.random.default_rng([29, i])
        alphabet = int(rng.integers(2, 6))
        lengths = rng.integers(1, 9, int(rng.integers(1, 30)))
        yield ForbiddenWords(alphabet, tuple(tuple(rng.integers(1, alphabet + 1, k).tolist()) for k in lengths))
    yield from _corners(200)


def test_successor_table_matches_the_dict_build():
    sizes = set()
    for spec in _table_build_cases():
        aut = build_automaton(spec)
        assert np.array_equal(aut.succ, oracles.successor_table_dict(spec)), spec
        sizes.add(aut.sink)
    assert len(sizes) > 30 and {1, 200} <= sizes


def test_forbidden_corners_at_the_cli_bounds():
    # S = 4096 symbols, and alphabet * S = 2^16 on the first one
    one_state, chain = _corners(4096)
    assert len(one_state.words) == 16 and sum(map(len, one_state.words)) == 4096
    aut = build_automaton(one_state)
    assert aut.sink == 1 and aut.succ[:, 0].tolist() == [1] + [0] * 15
    assert exact_entropy(one_state) == (math.log(0.5 * sum(aut.radius_bracket)), "automaton-transfer-matrix")
    assert abs(exact_entropy(one_state)[0] - math.log(15)) <= 1e-14
    aut = build_automaton(chain)
    assert aut.sink == 4096 and aut.succ[0].tolist() == list(range(1, 4096)) + [4096, 4096]
    assert (aut.succ[1:, :-1] == 0).all()
    assert abs(exact_entropy(chain)[0] - math.log(16)) <= 1e-14


def _push_cases():
    for spec in _table_build_cases():
        yield spec, 30
    rng = np.random.default_rng(33)
    for d in (2, 3, 5, 8, 16, 32, 64):
        yield SFT(oracles.random_irreducible_zero_one(rng, d, 0.4)), 30
    yield SFT(oracles.random_irreducible_zero_one(rng, 256, 0.6)), 10
    yield BetaShift(TRIBONACCI, digit_depth=64), 30  # terminated: a 3-state cycle
    yield BetaShift("2.5", digit_depth=40), 40  # capped: a 41-state chain
    for spec in _corners(4096):
        yield spec, 10


def _count_vectors(aut, n):
    """The counts `_pull_counts` gives over R_n, spread over the states 0..N-1."""
    order, vectors = aut._reach[0], []
    for v in aut._pull_counts(n):
        assert v[-1] == 0  # the count read for the sink and outside R_n
        full = [0] * aut.sink
        for q, count in zip(order, v[:-1]):
            full[q] = count
        vectors.append(full)
    return vectors


def test_count_vectors_pull_equals_push():
    for spec, n in _push_cases():
        aut = build_automaton(spec)
        assert _count_vectors(aut, n) == oracles.count_vectors_push(aut, n), spec
    assert build_automaton(BetaShift(TRIBONACCI, digit_depth=64)).max_word_length is None


def _restricted_count_cases():
    for base in ("2.0863", "1.7", "3.9261"):  # capped chains of 231 states, below and at the cap
        for n in (1, 5, 230, 100):
            yield BetaShift(base, digit_depth=230), n
    for base in (TRIBONACCI, PHI, "3", 1.0 + math.sqrt(2)):  # terminated: cycles of 3, 2, 1 and 2 states
        yield BetaShift(base, digit_depth=64), 70
    for spec in _corners(4096):
        for n in (1, 100):
            yield spec, n
    yield ForbiddenWords(2, ((1,), (2,))), 4  # the empty shift


def test_word_counts_over_the_reachable_states_equal_the_push_sums():
    for spec, n in _restricted_count_cases():
        aut = automaton_for(spec)
        expected = [sum(v) for v in oracles.count_vectors_push(aut, n)]
        assert count_words_sequence(spec, n) == expected, (spec, n)
        assert _count_vectors(aut, n) == oracles.count_vectors_push(aut, n), (spec, n)


def test_count_iterators_of_one_automaton_run_side_by_side():
    # each iterator builds its own plan, on its own R_n: one started on R_5 and
    # resumed after a run over R_230 still gives its own counts
    aut = automaton_for(BetaShift("1.7", digit_depth=230))
    push_5, push_230 = (oracles.count_vectors_push(aut, n) for n in (5, 230))
    short = aut._pull_counts(5)
    first = [sum(next(short))]
    assert [sum(v) for v in aut._pull_counts(230)] == [sum(v) for v in push_230]
    assert first + [sum(v) for v in short] == [sum(v) for v in push_5]


def test_word_counts_pull_only_the_states_reachable_in_n_steps(monkeypatch):
    # a chain of 231 states, of which the 101 states 0..100 are reachable in 100 steps
    spec = BetaShift("2.0863", digit_depth=230)
    aut = automaton_for(spec)
    expected = [sum(v) for v in oracles.count_vectors_push(aut, 100)]
    pulled, plan = [], Automaton._count_plan

    def counted_plan(aut, n):
        size, gather, plain, heavy = plan(aut, n)

        def step(v):  # the states one step pulls a count for, the trailing 0 aside
            out = gather(v)
            pulled.append(len(out) - 1)
            return out

        return size, step, plain, heavy

    monkeypatch.setattr(Automaton, "_count_plan", counted_plan)
    assert count_words_sequence(spec, 100) == expected
    assert aut.sink == 231 and pulled == [101] * 100


def test_word_counts_reject_a_negative_length():
    spec, empty = SFT([[1, 1], [1, 0]]), ForbiddenWords(2, ((1,), (2,)))
    assert count_words_sequence(spec, 6) == [2, 3, 5, 8, 13, 21]
    assert count_words_sequence(empty, 3) == [0, 0, 0]
    for n in (-1, -2):
        for s in (spec, empty):
            with pytest.raises(ValueError, match="n_max must be >= 0"):
                count_words_sequence(s, n)
            with pytest.raises(ValueError, match="n must be >= 0"):
                count_words(s, n)
    assert count_words_sequence(spec, 0) == []


def test_word_counts_hold_one_vector_at_a_time():
    # 400 vectors of 64 counts near 38^400 take 4.4 MB when held together
    spec = SFT(oracles.random_irreducible_zero_one(np.random.default_rng(64), 64, 0.6))
    expected = count_words_sequence(spec, 400)  # builds and memoizes the automaton and its reach pass
    for call, want in ((count_words_sequence, expected), (count_words, expected[-1])):
        tracemalloc.start()
        try:
            assert call(spec, 400) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (call.__name__, peak)


def _reach_cases():
    yield from TABLE_CASES
    rng = np.random.default_rng(21)
    for d in (4, 9, 30):
        yield SFT(oracles.random_irreducible_zero_one(rng, d, 0.3))
    yield ForbiddenWords(2, ((2, 2), (1, 1, 1, 1, 1, 1)))
    yield ForbiddenWords(3, ((1, 2, 3), (3, 3, 1), (2, 1, 1, 2)))
    yield BetaShift("1.7", digit_depth=230)  # a 231-state chain


@pytest.mark.parametrize("spec", list(_reach_cases()), ids=lambda s: type(s).__name__)
def test_reach_order_is_the_frontier_bfs(spec):
    aut = automaton_for(spec)
    for l in (0, 1, 2, 5, 30, 100, 240, 1000):
        assert aut.reach_order(l) == oracles.reach_order_frontier(aut, l), l


def test_reach_pass_equals_the_numpy_levels():
    for spec, _ in _push_cases():
        aut = build_automaton(spec)
        for l in (0, 1, 5, 100, 5000):
            assert aut.reach_order(l) == oracles.reach_order_numpy(aut, l), (spec, l)


# bases whose expansion of 1 does not terminate: four fixed ones and 50
# seeded 4-decimal bases in (1.05, 3.95)
CHAIN_BASES = ["1.7", "2.5", "1.01", "1.1"] + [
    f"{b:.4f}" for b in np.random.default_rng(11).uniform(1.05, 3.95, 50)
]


@pytest.mark.parametrize("digit_depth", (40, 230))
def test_beta_follower_chain_matches_prefix_function_reference(digit_depth):
    # a smaller digit returns to state 0, where the KMP fallback also lands
    for base in CHAIN_BASES:
        spec = BetaShift(base, digit_depth=digit_depth)
        assert not spec.expansion().terminated, base
        aut, ref = automaton_for(spec), oracles.beta_automaton_kmp(spec)
        assert aut.max_word_length == ref.max_word_length == digit_depth
        assert np.array_equal(aut.succ, ref.succ)


@pytest.mark.parametrize(
    "base,block",
    [("3", (2,)), (3.0, (2,)), (2, (1,)), ("1.6180339887", (1, 0)), (PHI, (1, 0)),
     ("1.8392867552", (1, 1, 0)), (TRIBONACCI, (1, 1, 0)), (1.0 + math.sqrt(2), (2, 0))],
)
def test_terminated_beta_is_its_finite_follower_graph(base, block):
    spec = BetaShift(base, digit_depth=8)
    assert spec.expansion().quasi_greedy_block == block
    aut = automaton_for(spec)
    assert len(aut.states) == len(block) and aut.max_word_length is None
    assert oracles.moves(aut)[(len(block) - 1, block[-1] + 1)] == 0  # the last state wraps around
    # words longer than digit_depth, against the lexicographic definition on
    # the periodic quasi-greedy expansion
    n = spec.digit_depth + 1
    words = list(itertools.product(range(1, spec.alphabet + 1), repeat=n))
    want = [w for w in words if oracles.beta_admissible_direct(w, block * n)]
    assert [w for w in words if admissible(w, spec)] == want
    assert count_words(spec, n) == len(want)


def test_a_snapped_block_that_does_not_dominate_its_shifts_is_refused(monkeypatch):
    # no snapped base found near the Parry numbers gives such a block, so the expansion is stubbed:
    # (1, 0, 1, 1) repeated has the shift (1, 1, 1, 0, ...), which lies above it
    block = (1, 0, 1, 1)
    stub = BetaExpansion(greedy=(1, 0, 1, 2), terminated=True, snapped=True, quasi_greedy_block=block)
    monkeypatch.setattr(BetaShift, "expansion", lambda self: stub)
    with pytest.raises(ValueError) as info:
        automaton_for(BetaShift("1.8", digit_depth=40))
    assert str(info.value) == (
        "expansion of 1 for beta=1.8 does not dominate its shifts; "
        "the snapped block is not a Parry expansion, give beta more precisely"
    )


def test_the_rotation_rule_refuses_what_the_window_scan_refuses(monkeypatch):
    # every block of digits 0-3 of length 1-8 (87,380 blocks), as the snapped block of a 4-digit base
    def expansion(self):
        return BetaExpansion(block, terminated=True, snapped=True, quasi_greedy_block=block)

    monkeypatch.setattr(BetaShift, "expansion", expansion)
    spec = BetaShift("3.5", digit_depth=8)
    for n in range(1, 9):
        for block in itertools.product(range(4), repeat=n):
            try:
                build_automaton(spec)
            except ValueError:
                assert not oracles.shift_dominated_window(block * 2), block
            else:
                assert oracles.shift_dominated_window(block * 2), block


def _certified(aut, lam):
    """The automaton's bracket holds LAPACK's radius within LAPACK's own
    rounding (1e-14 relative) and is at most 1e-12 relative wide."""
    lo, hi = aut.radius_bracket
    return lo * (1 - 1e-14) <= lam <= hi * (1 + 1e-14) and 0.0 < hi - lo <= 1e-12 * hi


def test_forbidding_21_has_entropy_zero():
    # 1*2*: two radius-1 components chained into a Jordan block, which stalls
    # power iteration over the whole graph
    est = topological_entropy(ForbiddenWords(2, ((2, 1),)), 20)
    assert est.exact == 0.0 and est.method == "automaton-transfer-matrix"


def _gap_renewal(n):
    # two 2s are separated by n or n + 1 ones: slowly mixing, h -> 0 as n grows
    return ForbiddenWords(2, ((2, 2), (1,) * (n + 2), *((2,) + (1,) * k + (2,) for k in range(1, n))))


@pytest.mark.parametrize("n", (10, 40))
def test_gap_renewal_entropy_matches_lapack(n):
    spec = _gap_renewal(n)
    aut = automaton_for(spec)
    lam = oracles.perron_root_lapack(aut)
    assert _certified(aut, lam)
    assert abs(topological_entropy(spec, 12).exact - math.log(lam)) <= 1e-11 * math.log(lam)


def test_a_level_bracket_far_from_rounding_does_not_stop_the_iteration():
    # one 80-state component: from x = 1 the ratios at the root stay exactly 2
    # and those on the forced chain after 2^40 exactly 1 for about 40 steps, so
    # stopping after 32 level steps read [1, 2] and h = log 1.5
    spec = ForbiddenWords(2, tuple((2,) * 40 + (1,) * k + (2,) for k in range(40)))
    aut = automaton_for(spec)
    lam = oracles.perron_root_lapack(aut)
    assert aut.sink == 80 and _certified(aut, lam)
    assert abs(topological_entropy(spec, 4).exact - math.log(lam)) <= 1e-13 * math.log(lam)


def _stress_documents():
    rng = np.random.default_rng(47)
    for _ in range(42):
        alphabet = int(rng.integers(2, 4))
        shape = (int(rng.integers(1, 41)), int(rng.integers(2, 13)))
        yield ForbiddenWords(alphabet, tuple(map(tuple, rng.integers(1, alphabet + 1, shape).tolist())))
    # the CLI's symbol bound (4096) admits automata past 2000 states
    for seed, shape in (([43, 16, 250], (250, 16)), ([43, 18, 200], (200, 18))):
        words = np.random.default_rng(seed).integers(1, 3, shape).tolist()
        yield ForbiddenWords(2, tuple(map(tuple, words)))


def test_seeded_forbidden_documents_hold_the_lapack_radius():
    sizes = []
    for spec in _stress_documents():
        aut = automaton_for(spec)
        if aut.is_empty:
            continue
        sizes.append(aut.sink)
        lam = oracles.perron_root_lapack(aut)
        assert _certified(aut, lam), spec
        assert topological_entropy(spec, 4).exact == math.log(0.5 * sum(aut.radius_bracket))
    assert len(sizes) >= 40 and sorted(sizes)[-2:] == [2031, 2116]


def test_step_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match="did not converge in 3 steps"):
        topological_entropy(ForbiddenWords(2, ((2, 2),)), 10)
