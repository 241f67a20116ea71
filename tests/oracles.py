"""Independent brute-force oracles for the test suite.

Nothing here goes through the package's automata or power iterations: word
admissibility is checked straight from the definitions, counting enumerates,
matrix powers are exact, and the spectral-radius oracle uses repeated
squaring.  Agreement between these and the fast implementations is what the
oracle-equivalence tests assert.

The exception is the Krieger class-count reference (`subset_family_brute`,
`class_counts_brute`): it runs the frozenset subset recursion on the package's
presenting automaton to every requested depth, with no fixed-point stop, and
restricts with `reachable_brute`, a set breadth-first search over the
automaton's `delta` dict, so it checks the bitset core of `shiftkms.krieger`
on the same automaton without sharing its successor table or its BFS.  The
word enumerators read only the alphabet size from the presenting automaton.

`beta_automaton_kmp` is the earlier beta-shift builder: a chain of
`digit_depth` prefix states of the quasi-greedy expansion, where a smaller
digit falls back along the KMP prefix function.  The package's Parry follower
graph sends every smaller digit straight to state 0 and must give the same
automaton whenever the expansion does not terminate.

The graph references are `reachability_irreducible` (boolean powers),
`period_brute` (closed walks at node 0) and `scc_tarjan`, an iterative Tarjan
that checks the reachability-closure components of `shiftkms.spectral`.
`cycle_chord`, `block_cyclic` and `sparse_d256` build the matrices the
certified Perron tests run on.

`beta_expansion_mpmath` is the earlier expansion of 1: the Renyi map in
mpmath at a working precision of 64 + guard_bits + n log2(b) bits, with a
propagated error bound that raises `UncertainDigitError` when a product lands
inside it.  Only a terminated expansion gets a periodicity, its block length.
The package runs the map exactly on the rational base and must report the
same `BetaExpansion`.

`bracket_sequences_exact` is the column-sum bracket in exact integers: it
reads the column sums of A^n from `shiftkms.spectral.column_sum_sequence`,
so it checks the rescaled float recursion of
`spectral_radius_bracket_sequences` against exact counts.

The variational references (`exponential_draws_brute`,
`stationary_lazy_brute`, `variational_entropies_brute`) are the scan's earlier
algorithm: all samples drawn in one `default_rng(seed).standard_exponential`
call, normalized one matrix at a time, stationary vectors by lazy power
iteration stopped on a geometric bound of the steps still to come, and
entropies through masked `np.where` logarithms.  The package draws the same
stream block by block and must get the same bits, whatever the block size;
`stationary_mpmath` solves one chain at 50 digits to check both solvers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from shiftkms import BetaShift, ForbiddenWords, FullShift, SFT, spectral
from shiftkms.beta import BetaExpansion, UncertainDigitError
from shiftkms.subshift import Automaton, automaton_for


def sft_admissible_direct(word, matrix) -> bool:
    M = np.asarray(matrix)
    return all(M[a - 1, b - 1] for a, b in zip(word, word[1:]))


def forbidden_admissible_direct(word, forbidden) -> bool:
    w = tuple(word)
    for f in forbidden:
        k = len(f)
        if any(w[i : i + k] == tuple(f) for i in range(len(w) - k + 1)):
            return False
    return True


def beta_admissible_direct(word, dstar_digits) -> bool:
    """Lexicographic criterion: every suffix, in digits, is <= the expansion
    of 1 position by position until a strict inequality decides."""
    digits = [s - 1 for s in word]
    for start in range(len(digits)):
        suffix = digits[start:]
        for i, c in enumerate(suffix):
            if c > dstar_digits[i]:
                return False
            if c < dstar_digits[i]:
                break
    return True


def admissible_direct(word, spec) -> bool:
    """Definition-level admissibility check.

    For forbidden-word presentations this is the avoid-the-list test, which
    matches language membership only when every avoiding word extends forever
    (true for the lists used in these tests); forbidden_occurs_brute is the
    exact oracle for arbitrary lists.
    """
    if isinstance(spec, FullShift):
        return True
    if isinstance(spec, SFT):
        return sft_admissible_direct(word, spec.matrix)
    if isinstance(spec, ForbiddenWords):
        return forbidden_admissible_direct(word, spec.words)
    if isinstance(spec, BetaShift):
        dstar = spec.expansion().quasi_greedy_digits(spec.digit_depth)
        return beta_admissible_direct(word, dstar)
    raise TypeError(spec)


def forbidden_occurs_brute(word, forbidden, d, horizon=None) -> bool:
    """Exact language membership for a forbidden-factor shift: the word must
    avoid the list and extend forward past every dead end.  A horizon of one
    more than the total length of the list bounds the search."""
    w = tuple(word)
    if not forbidden_admissible_direct(w, forbidden):
        return False
    if horizon is None:
        horizon = sum(len(f) for f in forbidden) + 1

    def extends(prefix, remaining):
        if remaining == 0:
            return True
        return any(
            forbidden_admissible_direct(prefix + (c,), forbidden)
            and extends(prefix + (c,), remaining - 1)
            for c in range(1, d + 1)
        )

    return extends(w, horizon)


def enumerate_words(spec, n, d=None):
    """All admissible words of length n by filtering the full product."""
    if d is None:
        d = automaton_for(spec).alphabet
    return [w for w in itertools.product(range(1, d + 1), repeat=n) if admissible_direct(w, spec)]


def count_words_brute(spec, n) -> int:
    return len(enumerate_words(spec, n))


def predecessor_set_brute(word, l, spec):
    """Exhaustive predecessor search straight from the definitions."""
    d = automaton_for(spec).alphabet
    out = []
    for k in range(l + 1):
        for mu in itertools.product(range(1, d + 1), repeat=k):
            if admissible_direct(mu, spec) and admissible_direct(mu + tuple(word), spec):
                out.append(mu)
    return out


def past_classes_brute(spec, l, depth) -> int:
    """Number of l-past classes of depth-length words, by raw set comparison."""
    words = enumerate_words(spec, depth)
    keys = {tuple(predecessor_set_brute(w, l, spec)) for w in words}
    return len(keys)


def subset_family_brute(aut, depth) -> list[set[frozenset]]:
    """family[m] = set of readability subsets {q : w readable from q} over the
    admissible words w of length m, for m = 0..depth.

    The preimage of a subset is a pure function of it, so it is memoized;
    every depth is still built from the one before it.
    """
    by_sym = {}
    for (q, c), qn in aut.delta.items():
        by_sym.setdefault(c, []).append((q, qn))
    preimages = {}

    def preimages_of(B):
        if B not in preimages:
            pres = (frozenset(q for (q, qn) in edges if qn in B) for edges in by_sym.values())
            preimages[B] = {pre for pre in pres if pre}
        return preimages[B]

    family = [{frozenset(aut.states)}]
    for _ in range(depth):
        family.append(set().union(*(preimages_of(B) for B in family[-1])))
    return family


def reachable_brute(aut, l) -> frozenset:
    """States reachable from the start by words of length <= l, walking aut.delta."""
    out = {}
    for (q, _), qn in aut.delta.items():
        out.setdefault(q, set()).add(qn)
    seen = {aut.start}
    frontier = {aut.start}
    for _ in range(l):
        frontier = {qn for q in frontier for qn in out.get(q, ())} - seen
        if not frontier:
            break
        seen |= frontier
    return frozenset(seen)


def class_counts_brute(spec, n_max, depth):
    """(counts at depth, counts at depth - 1), each indexed by n = 0..n_max:
    the number of distinct restrictions B & R_n of the family's subsets B that
    hold the start state."""
    aut = automaton_for(spec)
    family = subset_family_brute(aut, depth)

    def count(subsets, R):
        return len({B & R for B in subsets if aut.start in B})

    Rs = [reachable_brute(aut, n) for n in range(n_max + 1)]
    return [count(family[depth], R) for R in Rs], [count(family[depth - 1], R) for R in Rs]


def beta_automaton_kmp(spec) -> Automaton:
    """Prefix-chain automaton of a beta-shift: state j is the length of the
    longest suffix of the word read so far that is a prefix of the first
    digit_depth quasi-greedy digits of 1, and a smaller digit falls back along
    the prefix function."""
    digits = spec.expansion().quasi_greedy_digits(spec.digit_depth)
    pi, k = [0] * len(digits), 0
    for i in range(1, len(digits)):
        while k and digits[i] != digits[k]:
            k = pi[k - 1]
        if digits[i] == digits[k]:
            k += 1
        pi[i] = k
    table = [[0] * spec.alphabet for _ in digits]
    delta = {}
    for j, dj in enumerate(digits):
        for c in range(spec.alphabet):
            if c == dj:
                table[j][c] = j + 1
            elif j:
                table[j][c] = table[pi[j - 1]][c]
            if c <= dj:
                delta[(j, c + 1)] = table[j][c]
    return Automaton(spec.alphabet, delta, start=0, max_word_length=len(digits))


def stationary_lazy_brute(Ps, tol=1e-13, max_iter=200_000):
    """Stationary rows of a batch of stochastic matrices by lazy power
    iteration pi <- (pi + pi P) / 2, which also converges on periodic chains.

    A chain stops once the steps still to come, bounded by the geometric tail
    step r / (1 - r) with r = step / previous step, add up to at most tol in
    l1: a small step alone is no bound, since a slowly mixing chain (r near 1)
    has far more still to move.
    """
    n, d, _ = Ps.shape
    pis = np.full((n, d), 1.0 / d)
    steps = np.full(n, np.nan)  # no step yet: every comparison with it is False
    live = np.arange(n)
    for _ in range(max_iter):
        if not len(live):
            return pis / pis.sum(axis=1, keepdims=True)
        nxt = 0.5 * (pis[live] + np.einsum("nd,nde->ne", pis[live], Ps[live]))
        prev, step = steps[live], np.abs(nxt - pis[live]).sum(axis=1)
        pis[live], steps[live] = nxt, step
        # step r / (1 - r) <= tol, multiplied out by prev - step > 0
        done = (step == 0) | (step < prev) & (step * step <= tol * (prev - step))
        live = live[~done]
    raise RuntimeError("stationary iteration did not converge")


def stationary_mpmath(P, dps=50):
    """Stationary row of one stochastic matrix by an mpmath LU solve of
    (P^T - I) pi = 0, its last row replaced by sum(pi) = 1, at dps digits."""
    d = len(P)
    with mpmath.workdps(dps):
        system = mpmath.matrix(np.asarray(P).T.tolist()) - mpmath.eye(d)
        for j in range(d):
            system[d - 1, j] = 1
        pi = mpmath.lu_solve(system, mpmath.matrix([0] * (d - 1) + [1]))
        return np.array([float(x) for x in pi])


def exponential_draws_brute(seed, n_samples, d):
    """(n_samples, d, d) standard exponential draws of default_rng(seed) in
    one call, sample idx taking variates idx d^2 .. (idx + 1) d^2 - 1."""
    return np.random.default_rng(seed).standard_exponential((n_samples, d, d))


def variational_entropies_brute(matrix, n_samples, seed):
    """(Ps, pis, entropies) of the variational scan's samples: all drawn at
    once from default_rng(seed), then each masked to the support of the
    matrix and row-normalized on its own."""
    mask = np.asarray(matrix) > 0
    Ps = np.zeros((n_samples, *mask.shape))
    for idx, draws in enumerate(exponential_draws_brute(seed, n_samples, mask.shape[0])):
        draws = draws * mask
        Ps[idx] = draws / draws.sum(axis=1, keepdims=True)
    pis = stationary_lazy_brute(Ps)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(Ps > 0, Ps * np.log(np.where(Ps > 0, Ps, 1.0)), 0.0)
    entropies = -(pis[:, :, None] * plogp).sum(axis=(1, 2))
    return Ps, pis, entropies


def reachability_irreducible(matrix) -> bool:
    """Irreducibility via boolean reachability powers (independent of Tarjan)."""
    M = np.asarray(matrix) > 0
    d = M.shape[0]
    if d == 1:
        return bool(M[0, 0])
    reach = M.copy()
    acc = M.copy()
    for _ in range(d - 1):
        reach = reach @ M
        acc |= reach
    return bool(acc.all())


def scc_tarjan(matrix) -> list[tuple[int, ...]]:
    """Strongly connected components of the support digraph by iterative
    Tarjan: sorted tuples, ordered by smallest member."""
    M = np.asarray(matrix) > 0
    d = M.shape[0]
    succ = [np.nonzero(M[i])[0].tolist() for i in range(d)]
    index = [-1] * d
    low = [0] * d
    on_stack = [False] * d
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(d):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    comps.sort(key=lambda c: c[0])
    return comps


def period_brute(matrix) -> int:
    """gcd of closed-walk lengths at node 0 via exact boolean powers."""
    M = np.asarray(matrix) > 0
    d = M.shape[0]
    g = 0
    P = np.eye(d, dtype=bool)
    for n in range(1, 3 * d * d + 1):
        P = (P.astype(int) @ M.astype(int)) > 0
        if P[0, 0]:
            g = math.gcd(g, n)
    return g if g else 1


def matrix_power_exact(matrix, r):
    """A^r over Python integers."""
    M = [[int(x) for x in row] for row in np.asarray(matrix)]
    d = len(M)
    out = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(r):
        out = [
            [sum(out[i][k] * M[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
    return out


def bracket_sequences_exact(matrix, n_max):
    """(min column sum of A^n)^(1/n) and (max column sum of A^n)^(1/n) for
    n = 1..n_max of a nonnegative integer matrix, from exact column sums;
    a vanishing sum gives 0.0."""
    lower, upper = [], []
    for n, s in enumerate(spectral.column_sum_sequence(matrix, n_max), start=1):
        smin, smax = min(s), max(s)
        lower.append(math.exp(math.log(smin) / n) if smin > 0 else 0.0)
        upper.append(math.exp(math.log(smax) / n) if smax > 0 else 0.0)
    return lower, upper


def spectral_radius_squaring(matrix, doublings=40) -> float:
    """r(A) as the 2^k-th root of the norm of A^(2^k), with rescaling."""
    M = np.asarray(matrix, dtype=float)
    log_scale = 0.0
    power = 1
    for _ in range(doublings):
        norm = float(np.abs(M).sum())
        M = (M / norm) @ (M / norm)
        log_scale = 2.0 * (log_scale + math.log(norm))
        power *= 2
        log_scale_root = (log_scale + math.log(float(np.abs(M).sum()))) / power
    return math.exp(log_scale_root)


def greedy_digits_fraction(p, q, n) -> list[int]:
    """Greedy expansion digits of 1 in a rational base p/q, exactly."""
    b = Fraction(p, q)
    x = Fraction(1)
    out = []
    for _ in range(n):
        y = b * x
        d = y.numerator // y.denominator
        out.append(d)
        x = y - d
        if x == 0:
            break
    return out


def beta_expansion_mpmath(beta, n_digits, snap_tol=1e-9, guard_bits=30) -> BetaExpansion:
    """Expansion of 1 in base beta by the Renyi map in mpmath floats."""
    if n_digits < 1:
        raise ValueError("n_digits must be >= 1")
    beta_float = float(mpmath.mpf(beta) if isinstance(beta, str) else mpmath.mpf(float(beta)))
    if beta_float <= 1.0:
        raise ValueError(f"beta must be > 1, got {beta_float}")
    prec = 64 + guard_bits + int(math.ceil(n_digits * math.log2(beta_float)))
    with mpmath.workprec(prec):
        b = mpmath.mpf(beta) if isinstance(beta, str) else mpmath.mpf(float(beta))
        err_bound = mpmath.mpf(2) ** (-(prec - 8))
        digits = []
        terminated = snapped = False
        termination_index = None
        x = mpmath.mpf(1)
        for k in range(1, n_digits + 1):
            y = b * x
            nearest = mpmath.nint(y)
            gap = abs(y - nearest)
            if gap == 0 or gap <= snap_tol:
                digits.append(int(nearest))
                terminated, snapped, termination_index = True, gap != 0, k
                break
            if gap <= err_bound:
                raise UncertainDigitError(f"digit {k}: b*x is within the error bound of an integer")
            d = int(mpmath.floor(y))
            digits.append(d)
            x = y - d
            err_bound *= b
    greedy = tuple(digits)
    block = None
    if terminated:
        block = greedy[:-1] + (greedy[-1] - 1,)
        if block[-1] < 0:
            raise UncertainDigitError("terminating expansion ended in digit 0; base is suspect")
    periodicity = (0, len(block)) if terminated else None
    return BetaExpansion(beta_float, greedy, terminated, termination_index, snapped, block, periodicity)


def random_irreducible_zero_one(rng, d, density=0.5):
    """Seeded random irreducible 0/1 matrix with no zero row or column."""
    while True:
        M = (rng.random((d, d)) < density).astype(int)
        if M.sum() == 0:
            continue
        if (M.sum(axis=0) == 0).any() or (M.sum(axis=1) == 0).any():
            continue
        if reachability_irreducible(M):
            return M


def cycle_chord(n):
    """n-cycle plus the chord 0 -> 2: aperiodic, with |lambda_2| / lambda near 1."""
    M = np.zeros((n, n), dtype=int)
    M[np.arange(n), (np.arange(n) + 1) % n] = 1
    M[0, 2] = 1
    return M


def block_cyclic(rng, period, block, density=0.3):
    """Seeded irreducible 0/1 matrix of the given period: block k maps only to block k + 1."""
    d = period * block
    while True:
        M = np.zeros((d, d), dtype=int)
        for k in range(period):
            nxt = (k + 1) % period
            M[k * block:(k + 1) * block, nxt * block:(nxt + 1) * block] = rng.random((block, block)) < density
        if M.sum(axis=0).min() > 0 and M.sum(axis=1).min() > 0 and len(scc_tarjan(M)) == 1:
            return M


def sparse_d256():
    """The sparse d = 256 matrix of density 12/256 drawn from default_rng([99, 121, 256])
    by rejection until irreducible with no zero row or column (the draws of the
    benchmark's Parry-chain probe)."""
    rng = np.random.default_rng([99, 121, 256])
    while True:
        M = (rng.random((256, 256)) < 12 / 256).astype(np.int64)
        if M.sum(axis=0).min() > 0 and M.sum(axis=1).min() > 0 and len(scc_tarjan(M)) == 1:
            return M
