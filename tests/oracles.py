"""Independent brute-force oracles for the test suite.

Nothing here goes through the package's automata or power iterations: word
admissibility is checked straight from the definitions, counting enumerates,
matrix powers are exact, and the spectral-radius oracle uses repeated
squaring.  Agreement between these and the fast implementations is what the
oracle-equivalence tests assert.

The exception is the Krieger class-count reference (`subset_family_brute`,
`class_counts_brute`): it runs the frozenset subset recursion on the package's
presenting automaton to every requested depth, with no fixed-point stop, and
restricts with `reachable_brute`, a set breadth-first search, both over
`moves`, the automaton's defined moves as a dict, so it checks the counting core
of `shiftkms.krieger` on the same automaton without sharing its table
arithmetic or its BFS.  The word enumerators read only the alphabet size from
the presenting automaton.

`class_counts_sorted_rows` is the earlier Krieger counting core, which
gathered every subset of a family again at every depth and deduplicated the
rows by sorting them packed; the package gathers each subset's preimages once
and must report the same counts, flags and fixed-point depth.
`count_vectors_push` is the earlier word-count recursion, which pushed each
state's count along its outgoing edges; the package pulls each count from its
predecessors and must give the same vectors.

`successor_table_dict` is the earlier automaton build: each presentation's
moves collected in a dict under the labels its build used, forbidden words by
Aho-Corasick with failure-link walks per (state, symbol) and a dead-end trim
that removes one layer per pass, then relabelled 0..N-1 in sorted label order
with the sink N.  The package writes its successor table directly and must
give the same table.

`beta_automaton_kmp` is the earlier beta-shift builder: a chain of
`digit_depth` prefix states of the quasi-greedy expansion, where a smaller
digit falls back along the KMP prefix function.  The package's Parry follower
graph sends every smaller digit straight to state 0 and must give the same
automaton whenever the expansion does not terminate.
`shift_dominated_window` is the earlier dominance check on a snapped block:
each shift of the block written out twice is compared with it digit by digit
up to the first difference.  The package compares each rotation of the block
with the block in tuple order and must refuse the same blocks.

The graph references are `reachability_irreducible` (boolean powers),
`period_brute` (closed walks at node 0, up to the first repeated row of the
walk counts) and `scc_tarjan`, an iterative Tarjan
that checks both component passes of `shiftkms.spectral`: the reachability
closure and the edge-list Tarjan labels.
`cycle_chord`, `block_cyclic` and `sparse_d256` build the matrices the
certified Perron tests run on.

`distinguished_temperatures_brute` is the reference for the extremal KMS
inverse temperatures of a reducible matrix (Schneider 1986): classes from
boolean reachability powers, radii from LAPACK's eigenvalues of each diagonal
block, and a class is distinguished when its radius is above that of every
class with a path into it; `random_reducible_zero_one` draws the reducible
matrices it is checked on.

`beta_expansion_mpmath` is the earlier expansion of 1: the Renyi map in
mpmath at a working precision of 64 + guard_bits + n log2(b) bits, with a
propagated error bound that raises its own `UncertainDigitError` when a
product lands inside it.  Only a terminated expansion gets a quasi-greedy
block, its period.  The package runs the map exactly on the rational base and
must report the same `BetaExpansion`.

`bracket_sequences_exact` is the paper's definition of the inner and outer
spectral radii, (min and max column sum of A^n)^(1/n), in exact integers: the
column sums 1^T A^n come from a row-vector recursion over Python integers (the
d^3 products of `matrix_power_exact` are too slow at d = 256), so it checks
the exact radii of `temperature_sign` against their definition without calling
the package.

`normalized_powers_stepwise` is the growth recursion as it ran before it went
in chunks: one matrix-vector product, sum, logarithm and division per step.
`reach_order_frontier` is the reachability BFS as numpy frontier rounds, all l
of them, `reach_order_numpy` the earlier `Automaton.reach_order`, one numpy
gather of the successor table per level until the levels run out, and `noda_eye` the Noda iteration that built each system as
sigma * np.eye(d) - B, run from the start vector it is given (it runs no
power steps of its own) and returning a start flagged as settled after 0 solves;
run with the flag False it is the rule that solved every start.  The package must match them exactly, except the
chunked recursion, which must match the stepwise one within rounding.

`perron_root_lapack` is the reference for an automaton's entropy: LAPACK's
eigenvalues of the dense transition-count matrix built from the successor
table `succ`.  LAPACK carries no certificate; on the 264-state forbidden
document its value lies about 1.5e-15 relative above the exact rational
Collatz-Wielandt bracket, so tests compare with it within 1e-14 relative.

The variational references (`exponential_draws_brute`,
`stationary_lazy_brute`, `variational_entropies_brute`) are the scan's earlier
algorithm: all samples drawn in one `default_rng(seed).standard_exponential`
call, normalized one matrix at a time, stationary vectors by lazy power
iteration stopped on a geometric bound of the steps still to come, and
entropies through masked `np.where` logarithms.  The package draws the same
stream block by block and must get the same bits, whatever the block size;
`stationary_mpmath` solves one chain at 50 digits to check both solvers.

`variational_entropies_allocating` is the scan's blocked loop as it was before
the scan reused its buffers: every block draws a fresh (k, d, d) array,
`block_entropies_allocating` masks and normalizes it with a bool mask and
takes the logs in a fresh array, and `stationary_batch_allocating` solves the
freshly built systems P^T - I.  It does the same arithmetic in the same order,
so the package's entropies must equal it bit for bit.

`cylinder_eigen` is the Parry cylinder weight in the closed eigenvector form
v_{w_1} u_{w_r} prod(a) / lam^(r-1); `equilibrium.cylinder` multiplies the
stationary entry by transition probabilities and must agree with it.

`h_iterate_stepwise` is the normalized iteration h as it ran before its closed
form: n steps of (t_r) -> (t_{r+1}) / sum(t_1), each renormalizing by the sum
of the level the step before left; `tracespace.h_iterate` divides each level
once by sum(t_n) and must agree with it and refuse where it refuses.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np

from shiftkms import BetaShift, ForbiddenWords, FullShift, SFT, spectral, tracespace
from shiftkms.beta import BetaExpansion
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
        return beta_admissible_direct(word, _quasi_greedy_digits(spec))
    raise TypeError(spec)


@functools.lru_cache(maxsize=None)
def _quasi_greedy_digits(spec):
    # brute-force enumeration asks once per word; BetaShift.expansion() is not memoized
    return quasi_greedy_digits(spec.expansion(), spec.digit_depth)


def quasi_greedy_digits(exp, n):
    """The first n quasi-greedy digits of 1, as `_beta_automaton` reads them: a
    terminated expansion's block repeated, or else the greedy digits."""
    return (exp.quasi_greedy_block * n if exp.terminated else exp.greedy)[:n]


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


def moves(aut) -> dict[tuple[int, int], int]:
    """The automaton's defined moves {(q, c): q'}, read off its successor table."""
    return {
        (q, c): qn
        for c, row in enumerate(aut.succ[:, : aut.sink].tolist(), start=1)
        for q, qn in enumerate(row)
        if qn != aut.sink
    }


def subset_family_brute(aut, depth) -> list[set[frozenset]]:
    """family[m] = set of readability subsets {q : w readable from q} over the
    admissible words w of length m, for m = 0..depth.

    The preimage of a subset is a pure function of it, so it is memoized;
    every depth is still built from the one before it.
    """
    by_sym = {}
    for (q, c), qn in moves(aut).items():
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
    """States reachable from the start by words of length <= l, walking its moves."""
    out = {}
    for (q, _), qn in moves(aut).items():
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


def class_counts_sorted_rows(aut, n_max, depth):
    """`krieger._class_counts` as it was before it memoized preimages: each
    family is a bool matrix of its distinct subsets, every row is gathered
    again at every depth, and the rows are deduplicated by sorting them packed;
    it stops at the first depth whose sorted rows equal the previous ones."""
    size = aut.sink + 1
    row = np.dtype((np.void, (size + 7) // 8))
    family = prev = np.ones((1, size), dtype=bool)
    family[0, aut.sink] = False
    packed = np.packbits(family, axis=1).view(row).ravel()
    fixed_point_depth = None
    for m in range(depth):
        pre = family[:, aut.succ].reshape(-1, size)
        nxt = np.sort(np.packbits(pre[pre.any(axis=1)], axis=1).view(row).ravel())
        distinct = np.ones(len(nxt), dtype=bool)
        distinct[1:] = nxt[1:] != nxt[:-1]
        nxt = nxt[distinct]
        if np.array_equal(nxt, packed):
            fixed_point_depth = m
            break
        prev, packed = family, nxt
        nxt_bytes = nxt.view(np.uint8).reshape(-1, row.itemsize)
        family = np.unpackbits(nxt_bytes, axis=1, count=size).view(bool)
    if not len(family):
        raise ValueError(f"no admissible words of length {depth}")

    order, sizes = aut.reach_order(n_max)

    def counts(fam):
        rows = fam[fam[:, aut.start]][:, order]
        if not len(rows):
            return (0,) * (n_max + 1)
        rows = rows[np.lexsort(rows.T[::-1])]
        differs = rows[1:] != rows[:-1]
        first = np.sort(np.where(differs.any(axis=1), differs.argmax(axis=1), len(order)))
        return tuple((1 + np.searchsorted(first, sizes)).tolist())

    at_depth = counts(family)
    before = at_depth if fixed_point_depth is not None else counts(prev)
    stabilized = tuple(depth - 1 >= max(n, 1) and b == c for n, (b, c) in enumerate(zip(before, at_depth)))
    return at_depth, stabilized, fixed_point_depth


def count_vectors_push(aut, n):
    """The word-count vectors for k = 1..n, entry q the number of admissible
    length-k words ending in state q, over the states only, in push form: each
    count is added into every target of its state's row of (target, number of
    symbols) pairs."""
    rows = [
        [(qn, k) for qn, k in Counter(targets).items() if qn != aut.sink]
        for targets in aut.succ.T[:-1].tolist()
    ]
    out, v = [], [int(q == aut.start) for q in aut.states]
    for _ in range(n):
        nxt = [0] * len(rows)
        for s, row in zip(v, rows):
            if s:
                for j, w in row:
                    nxt[j] += s * w
        v = nxt
        out.append(v)
    return out


def shift_dominated_window(digits) -> bool:
    """True iff the digits dominate each of their shifts lexicographically,
    each shift compared up to its first differing digit (give two periods of a
    repeated block)."""
    L = len(digits)
    for k in range(1, L):
        for i in range(L - k):
            if digits[k + i] != digits[i]:
                if digits[k + i] > digits[i]:
                    return False
                break
    return True


def beta_automaton_kmp(spec) -> Automaton:
    """Prefix-chain automaton of a beta-shift: state j is the length of the
    longest suffix of the word read so far that is a prefix of the first
    digit_depth quasi-greedy digits of 1, and a smaller digit falls back along
    the prefix function."""
    digits = quasi_greedy_digits(spec.expansion(), spec.digit_depth)
    pi, k = [0] * len(digits), 0
    for i in range(1, len(digits)):
        while k and digits[i] != digits[k]:
            k = pi[k - 1]
        if digits[i] == digits[k]:
            k += 1
        pi[i] = k
    n = len(digits)
    table = [[0] * spec.alphabet for _ in digits]
    succ = np.full((spec.alphabet, n + 2), n + 1, dtype=np.intp)  # state n is the horizon
    for j, dj in enumerate(digits):
        for c in range(spec.alphabet):
            if c == dj:
                table[j][c] = j + 1
            elif j:
                table[j][c] = table[pi[j - 1]][c]
        succ[: dj + 1, j] = table[j][: dj + 1]
    return Automaton(succ, max_word_length=n)


def _relabelled_table(alphabet, delta, start=0) -> np.ndarray:
    labels = {start, *(q for q, _ in delta), *delta.values()}
    index = {q: i for i, q in enumerate(sorted(labels))}
    succ = np.full((alphabet, len(index) + 1), len(index), dtype=np.intp)
    for (q, c), qn in delta.items():
        succ[c - 1, index[q]] = index[qn]
    return succ


def _forbidden_delta(d, words) -> dict[tuple[int, int], int]:
    goto = [{}]
    terminal = [False]
    for w in words:
        node = 0
        for s in w:
            if s not in goto[node]:
                goto.append({})
                terminal.append(False)
                goto[node][s] = len(goto) - 1
            node = goto[node][s]
        terminal[node] = True
    fail = [0] * len(goto)
    dead = list(terminal)
    queue = list(goto[0].values())
    while queue:
        nxt = []
        for u in queue:
            dead[u] = dead[u] or dead[fail[u]]
            for s, v in goto[u].items():
                f = fail[u]
                while f and s not in goto[f]:
                    f = fail[f]
                fail[v] = goto[f].get(s, 0)
                nxt.append(v)
        queue = nxt
    delta = {}
    for q in range(len(goto)):
        if dead[q]:
            continue
        for s in range(1, d + 1):
            f = q
            while f and s not in goto[f]:
                f = fail[f]
            target = goto[f].get(s, 0)
            if not dead[target]:
                delta[(q, s)] = target
    while True:
        live = {q for (q, _) in delta}
        if all(qn in live for qn in delta.values()):
            break
        delta = {e: qn for e, qn in delta.items() if qn in live}
    reachable, frontier = {0}, [0]
    while frontier:
        q = frontier.pop()
        new = {delta[(q, s)] for s in range(1, d + 1) if (q, s) in delta} - reachable
        reachable |= new
        frontier.extend(new)
    return {(q, s): qn for (q, s), qn in delta.items() if q in reachable}


def successor_table_dict(spec) -> np.ndarray:
    """The successor table of the presenting automaton, built through a dict of
    moves under each build's own labels and relabelled in sorted label order."""
    if isinstance(spec, FullShift):
        return _relabelled_table(spec.alphabet, {(0, c): 0 for c in range(1, spec.alphabet + 1)})
    if isinstance(spec, SFT):
        d = len(spec.matrix)
        delta = {(0, c): c for c in range(1, d + 1)}
        delta.update({(i + 1, c + 1): c + 1 for i, c in np.argwhere(spec.matrix).tolist()})
        return _relabelled_table(d, delta)
    if isinstance(spec, ForbiddenWords):
        return _relabelled_table(spec.alphabet, _forbidden_delta(spec.alphabet, spec.words))
    exp = spec.expansion()
    terminated = exp.terminated
    digits = exp.quasi_greedy_block if terminated else quasi_greedy_digits(exp, spec.digit_depth)
    delta = {}
    for j, dj in enumerate(digits):
        delta.update({(j, c + 1): 0 for c in range(dj)})
        delta[(j, dj + 1)] = (j + 1) % len(digits) if terminated else j + 1
    return _relabelled_table(spec.alphabet, delta)


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


def stationary_batch_allocating(Ps):
    """Stationary rows of a batch of stochastic matrices: one stacked solve of
    P^T - I with its last row replaced by ones, against e_d."""
    n, d, _ = Ps.shape
    systems = Ps.transpose(0, 2, 1) - np.eye(d)
    systems[:, -1, :] = 1.0
    rhs = np.zeros((n, d, 1))
    rhs[:, -1] = 1.0
    return np.linalg.solve(systems, rhs)[:, :, 0]


def block_entropies_allocating(Ps, mask):
    """Stationary entropies of the chains made from the (k, d, d) draws Ps,
    which are masked by the bool support mask and row-normalized in place."""
    Ps *= mask
    Ps /= Ps.sum(axis=2, keepdims=True)
    pis = stationary_batch_allocating(Ps)
    plogp = Ps + ~mask  # 1 off the support, where the log is 0
    np.log(plogp, out=plogp)
    plogp *= Ps
    return -np.einsum("nd,nd->n", pis, plogp.sum(axis=2))


def variational_entropies_allocating(matrix, n_samples, seed):
    """Entropies of the variational scan's samples, in blocks of 2^16 entries
    from one default_rng(seed) stream, each block in freshly allocated arrays."""
    mask = np.asarray(matrix) > 0
    d = mask.shape[0]
    rng = np.random.default_rng(seed)
    size = max(1, 2**16 // (d * d))
    blocks = []
    for start in range(0, n_samples, size):
        draws = rng.standard_exponential((min(size, n_samples - start), d, d))
        blocks.append(block_entropies_allocating(draws, mask))
    return np.concatenate(blocks)


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
    """gcd of closed-walk lengths at node 0 via the exact boolean rows e_0 A^n.

    There are finitely many 0/1 rows, so the rows repeat: once row n equals row
    m < n they cycle with period n - m, and the lengths still to come are those
    of rows m..n-1 plus multiples of n - m, which add only n - m to the gcd.
    """
    M = (np.asarray(matrix) > 0).astype(int)
    row, seen, walks, g = M[0], {}, [], 0
    for n in itertools.count(1):
        m = seen.setdefault(row.tobytes(), n)
        if m < n:
            if any(length >= m for length in walks):
                g = math.gcd(g, n - m)
            return g if g else 1
        if row[0]:
            walks.append(n)
            g = math.gcd(g, n)
        row = np.minimum(row @ M, 1)


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


def column_sums_exact(matrix, n_max):
    """1^T A^n for n = 1..n_max over Python integers, one row-vector step at a time."""
    M = [[int(x) for x in row] for row in np.asarray(matrix)]
    d = len(M)
    v, out = [1] * d, []
    for _ in range(n_max):
        v = [sum(v[i] * M[i][j] for i in range(d) if M[i][j]) for j in range(d)]
        out.append(v)
    return out


def bracket_sequences_exact(matrix, n_max):
    """(min column sum of A^n)^(1/n) and (max column sum of A^n)^(1/n) for
    n = 1..n_max of a nonnegative integer matrix, from exact column sums;
    a vanishing sum gives 0.0."""
    lower, upper = [], []
    for n, s in enumerate(column_sums_exact(matrix, n_max), start=1):
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


class UncertainDigitError(ValueError):
    """The mpmath reference cannot decide a digit at its working precision."""


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
        x = mpmath.mpf(1)
        for k in range(1, n_digits + 1):
            y = b * x
            nearest = mpmath.nint(y)
            gap = abs(y - nearest)
            if gap == 0 or gap <= snap_tol:
                digits.append(int(nearest))
                terminated, snapped = True, gap != 0
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
    return BetaExpansion(greedy, terminated, snapped, block)


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


def random_reducible_zero_one(rng):
    """Seeded reducible 0/1 matrix: 2-5 irreducible diagonal blocks of size 1-7,
    each entry above the blocks set with probability 0.4, under a random
    permutation of the nodes."""
    blocks = [random_irreducible_zero_one(rng, int(rng.integers(1, 8))) for _ in range(rng.integers(2, 6))]
    sizes = [len(b) for b in blocks]
    ends = np.cumsum(sizes)
    M = np.triu((rng.random((ends[-1], ends[-1])) < 0.4).astype(int))
    for b, end, size in zip(blocks, ends, sizes):
        M[end - size:end, end - size:end] = b
    perm = rng.permutation(ends[-1])
    return M[np.ix_(perm, perm)]


def distinguished_temperatures_brute(matrix) -> tuple[float, float]:
    """(log min, log max) of the radii of the distinguished classes: the classes
    whose radius exceeds, by more than 1e-9 relative, that of every class with
    a path into them."""
    A = np.asarray(matrix, dtype=float)
    M = (A > 0).astype(int)
    d = M.shape[0]
    reach = np.eye(d, dtype=int)  # paths of length 0..d
    for _ in range(d):
        reach = ((reach + reach @ M) > 0).astype(int)
    classes = {tuple(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in range(d)}
    radius = {c: float(np.max(np.abs(np.linalg.eigvals(A[np.ix_(c, c)])))) for c in classes}
    upstream = {c: [radius[b] for b in classes if b != c and reach[b[0], c[0]]] for c in classes}
    radii = [r for c, r in radius.items() if r > 0 and all(u < r * (1 - 1e-9) for u in upstream[c])]
    return math.log(min(radii)), math.log(max(radii))


def perron_root_lapack(aut) -> float:
    """Spectral radius of an automaton's transition-count matrix, entry [q, q']
    the number of symbols leading from q to q' in `succ`, by LAPACK's dense
    eigenvalues."""
    n = aut.sink
    B = np.zeros((n, n))
    for row in aut.succ[:, :n]:
        np.add.at(B, (np.arange(n)[row < n], row[row < n]), 1.0)
    return float(np.max(np.abs(np.linalg.eigvals(B))))


def normalized_powers_stepwise(A, x, n):
    """log(1^T A^k x) and A^k x / 1^T A^k x for k = 1..n, one rescaled step at
    a time, stopping at the first vanishing sum."""
    M = np.asarray(A, dtype=float)
    logs, vectors, acc = [], [], 0.0
    for _ in range(n):
        x = M @ x
        s = float(x.sum())
        if s <= 0.0:
            break
        acc += math.log(s)
        x = x / s
        logs.append(acc)
        vectors.append(x)
    return logs, vectors


def reach_order_frontier(aut, l):
    """(order, sizes) of Automaton.reach_order from l rounds of numpy frontiers."""
    seen = np.zeros(aut.sink + 1, dtype=bool)
    seen[[aut.start, aut.sink]] = True
    order, frontier, sizes = [aut.start], np.array([aut.start]), [1]
    for _ in range(l):
        hit = np.zeros_like(seen)
        hit[aut.succ[:, frontier]] = True
        frontier = np.flatnonzero(hit & ~seen)
        seen[frontier] = True
        order.extend(frontier.tolist())
        sizes.append(len(order))
    return order, sizes


def reach_order_numpy(aut, l):
    """(order, sizes) of Automaton.reach_order as it was before the automaton held one reach
    pass: a numpy gather of the frontier's columns of succ per level, deduplicated in a set."""
    seen = {aut.start, aut.sink}
    order, frontier, sizes = [aut.start], [aut.start], [1]
    while frontier and len(sizes) <= l:
        frontier = sorted(set(aut.succ[:, frontier].ravel().tolist()) - seen)
        seen.update(frontier)
        order.extend(frontier)
        sizes.append(len(order))
    return order, sizes + sizes[-1:] * (l + 1 - len(sizes))


def noda_eye(B, shift, x, settled):
    """spectral._noda with each system built as sigma * np.eye(d) - B, from the start vector x, which it
    returns after 0 solves when settled."""
    d = B.shape[0]
    best = None
    with np.errstate(all="ignore"):
        for solves in range(spectral._MAX_SOLVES):
            ratio = (B @ x) / x
            lo, hi = float(ratio.min()), float(ratio.max())
            if best is None and not 0.0 < lo <= hi < math.inf:
                raise spectral.ConvergenceError("bracket is not positive and finite", x, math.inf)
            if best is not None and not (np.all(x > 0.0) and hi - lo < best[2] - best[1]):
                return (*best, solves)
            best = (x, lo, hi)
            if lo == hi or settled:
                return (*best, solves)
            try:
                z = np.linalg.solve((hi if shift is None else shift) * np.eye(d) - B, x)
            except np.linalg.LinAlgError:
                return (*best, solves + 1)
            shift = None
            x = z / z.sum()
    raise spectral.ConvergenceError("no convergence", best[0], hi - lo)


def cylinder_eigen(m, word) -> float:
    """The Parry measure m of the cylinder of word, in the eigenvector form
    v_{w_1} u_{w_r} prod(a) / lam^(r-1)."""
    p = m.perron
    for a, b in zip(word, word[1:]):
        if not p.matrix[a - 1, b - 1]:
            return 0.0
    return float(p.v[word[0] - 1] * p.u[word[-1] - 1] / p.lam ** (len(word) - 1))


def h_iterate_stepwise(seq, n):
    """n steps of (t_r) -> (t_{r+1}) / sum(t_1), each refused when that sum vanishes."""
    if seq.depth < n:
        raise ValueError(f"sequence depth {seq.depth} is insufficient for {n} steps")
    levels = seq.levels
    for _ in range(n):
        s = float(levels[1].sum())
        if s <= 0.0:
            raise ValueError("renormalizer sum(t_1) vanished")
        levels = tuple(t / s for t in levels[1:])
    return tracespace._coherent(seq.matrix, levels, tol=seq.tol, require=False)
