"""One-sided subshift presentations, word admissibility, counting and entropy.

Four presentations are supported: the full shift, a 0/1 transition-matrix
shift, a shift given by finitely many forbidden factors, and the beta-shift of
a base b > 1.  Each compiles to a deterministic partial automaton whose
defined paths are exactly the admissible words, held as one successor table
that its builder writes directly, in time linear in the table: admissibility
is a single run, counting pulls each state's exact count from its
predecessors, and the Krieger passes read the same table.

Symbols are 1-based (alphabet {1, ..., d}).  Beta-shift digits {0, ..., d-1}
map to symbols by adding 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

from . import spectral
from .beta import beta_expansion_of_one

__all__ = [
    "FullShift",
    "SFT",
    "ForbiddenWords",
    "BetaShift",
    "Automaton",
    "EntropyEstimate",
    "build_automaton",
    "admissible",
    "count_words",
    "count_words_sequence",
    "topological_entropy",
    "exact_entropy",
    "beta_expansion_of_one",
]


@dataclass(frozen=True)
class FullShift:
    """Full shift on d symbols."""

    alphabet: int

    def __post_init__(self):
        object.__setattr__(self, "alphabet", spectral.as_count(self.alphabet, "alphabet", 1))

    @property
    def matrix(self) -> np.ndarray:
        return np.ones((self.alphabet, self.alphabet), dtype=int)


@dataclass(frozen=True, eq=False)
class SFT:
    """Shift of finite type with transition matrix A: word w is admissible iff
    A[w_i, w_{i+1}] = 1 for all consecutive pairs."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", spectral.no_zero_lines(spectral.as_zero_one(self.matrix)))


@dataclass(frozen=True)
class ForbiddenWords:
    """Subshift of sequences avoiding every listed word as a factor."""

    alphabet: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", spectral.as_count(self.alphabet, "alphabet", 1))
        words = tuple(map(tuple, self.words))
        for w in words:
            if len(w) == 0:
                raise ValueError("forbidden words must be nonempty")
            if not all(spectral.is_integral(s) and 1 <= s <= self.alphabet for s in w):
                raise ValueError(f"forbidden word {w} has symbols outside 1..{self.alphabet}")
        object.__setattr__(self, "words", tuple(tuple(map(int, w)) for w in words))


@dataclass(frozen=True)
class BetaShift:
    """Beta-shift: digit sequences admissible for the greedy beta-expansion.

    The base may be a float (used at its exact binary value) or a decimal
    string.  The presentation is Parry's follower graph on the quasi-greedy
    expansion of 1, computed to digit_depth digits.  When the expansion
    terminates (an integer or snapped Parry base) the graph is finite and
    answers for words of any length; otherwise digit_depth also caps the word
    lengths it can answer for.
    """

    beta: float | str
    digit_depth: int = 64

    def __post_init__(self):
        b = float(self.beta)
        if not 1.0 < b < math.inf:  # also false for nan
            raise ValueError(f"beta must be a finite number > 1, got {self.beta!r}")
        object.__setattr__(self, "digit_depth", spectral.as_count(self.digit_depth, "digit_depth", 1))

    @property
    def alphabet(self) -> int:
        return int(math.ceil(float(self.beta)))

    def expansion(self):
        return beta_expansion_of_one(self.beta, self.digit_depth)


class Automaton:
    """Deterministic partial automaton over symbols 1..d, held as one successor table.

    succ[c-1, q] is the state reached from state q on symbol c.  The states
    are 0..N-1 and the start is 0; the last column N is a sink: a move that is
    undefined leads to it, and it only leads to itself.  Each builder writes
    the table directly.  A word is in the presented language iff its run from
    the start never reaches the sink.  Every state has at least one outgoing
    transition (the build trims dead ends), except an optional horizon state
    in depth-capped presentations; max_word_length says how long a run is
    trustworthy.
    """

    start = 0

    def __init__(self, succ, max_word_length=None):
        self.succ = succ
        self.alphabet, self.sink = succ.shape[0], succ.shape[1] - 1
        self.states = range(self.sink)
        self.max_word_length = max_word_length
        self._count_vectors = []

    @property
    def is_empty(self) -> bool:
        return bool(np.all(self.succ[:, self.start] == self.sink))

    def run(self, word):
        """End state of the word, or None when it leaves the language (a
        symbol outside 1..d leaves it too)."""
        self.check_length(len(word))
        q = self.start
        for c in word:
            if not 0 < c <= self.alphabet:
                return None
            q = self.succ[c - 1, q]
        return None if q == self.sink else int(q)

    def check_length(self, n):
        if self.max_word_length is not None and n > self.max_word_length:
            raise ValueError(
                f"word length {n} exceeds the presentation depth "
                f"{self.max_word_length}; rebuild with a larger digit_depth"
            )

    def count_vectors(self, n):
        """For k = 1..n, the list whose entry q is the number of admissible
        length-k words ending in state q (exact ints), the sink's 0 last.

        The lists are kept on the automaton and only extended, so a longer
        call continues where the last one stopped; callers must not mutate them.
        """
        n = spectral.as_count(n, "n")
        self.check_length(n)
        out = self._count_vectors
        if len(out) < n:
            gather, plain, heavy = self._count_plan
            v = out[-1] if out else [int(q == self.start) for q in range(self.sink + 1)]
            for _ in range(n - len(out)):
                sums = [sum(get(v)) for get in plain]
                for i, k, get in heavy:
                    sums[i] += k * sum(get(v))
                v = list(gather(v + sums))
                out.append(v)
        return out[:n]

    @cached_property
    def _count_plan(self):
        """(gather, plain, heavy): the transition-count matrix as a plan that pulls each next count
        from v with the builtin `sum`.  plain[i] gets weight-1 predecessors, each (i, k, get) in heavy
        adds k times a sum of weight-k ones, and gather picks every count from v + sums (one copy for
        a lone weight-1 predecessor)."""
        n = self.sink
        sym, src = np.nonzero(self.succ[:, :-1] != n)
        # the distinct (target, source) edges, sorted, each with its number of symbols
        key = np.sort(self.succ[sym, src] * n + src)
        first = np.flatnonzero(np.diff(key, prepend=-1))
        target, source = np.divmod(key[first], n)
        preds = {}
        for t, s, k in zip(target.tolist(), source.tolist(), np.diff(first, append=len(key)).tolist()):
            preds.setdefault(t, {}).setdefault(k, []).append(s)
        index, plain, heavy = [n] * (n + 1), [], []  # no predecessor reads the sink's 0
        for t, by_weight in preds.items():
            ones = by_weight.pop(1, [])
            if not by_weight and len(ones) == 1:
                index[t] = ones[0]
                continue
            index[t] = n + 1 + len(plain)
            # the sink's 0s pad each getter, so that it returns a tuple even for one or no source
            heavy += [(len(plain), k, itemgetter(*s, n)) for k, s in by_weight.items()]
            plain.append(itemgetter(*ones, n, n))
        return itemgetter(*index), plain, heavy

    @cached_property
    def radius_bracket(self) -> tuple[float, float]:
        """Certified [lo, hi] around the Perron root of the transition-count matrix,
        from its edges ordered by source, then by symbol."""
        src, sym = np.nonzero(self.succ.T[:-1] != self.sink)
        return spectral.sparse_radius_bracket(self.sink, src, self.succ[sym, src])

    def reach_order(self, l):
        """(order, sizes): the states reachable from the start by words of
        length <= l in breadth-first discovery order, and sizes[k] = |R_k| for
        k = 0..l, so R_k (reachable in <= k steps) is the prefix order[:sizes[k]]."""
        l = spectral.as_count(l, "l")
        seen = {self.start, self.sink}
        order, frontier, sizes = [self.start], [self.start], [1]
        while frontier and len(sizes) <= l:
            frontier = sorted({r for q in frontier for r in self._successors[q]} - seen)
            seen.update(frontier)
            order.extend(frontier)
            sizes.append(len(order))
        return order, sizes + sizes[-1:] * (l + 1 - len(sizes))

    @cached_property
    def _successors(self) -> list[set[int]]:
        """Entry q: the states one move from q, the sink included when a move is undefined."""
        return [set(row) for row in self.succ.T[:-1].tolist()]


def _full_automaton(spec):
    return Automaton(np.tile(np.intp([0, 1]), (spec.alphabet, 1)))  # one state, then the sink


def _sft_automaton(spec):
    d = len(spec.matrix)
    # state c follows symbol c: every symbol moves from the start, none from the sink d + 1
    defined = np.hstack([np.ones((d, 1), dtype=int), spec.matrix.T, np.zeros((d, 1), dtype=int)])
    return Automaton(np.where(defined == 1, np.arange(1, d + 1, dtype=np.intp)[:, None], d + 1))


def _forbidden_automaton(d, words):
    # Aho-Corasick over the forbidden factors: the trie, completed to a DFA in
    # one breadth-first pass.  A node's row is its failure node's row with its
    # own trie edges written over it, and a child's failure node is the entry
    # of that row it overwrites.  A node is dead when a forbidden factor ends
    # its word (its own or its failure node's) or occurs in it (its parent's).
    trie, dead = [{}], [False]
    for w in words:
        node = 0
        for s in w:
            if s not in trie[node]:
                trie[node][s] = len(trie)
                trie.append({})
                dead.append(False)
            node = trie[node][s]
        dead[node] = True
    n = len(trie)
    table = np.zeros((n, d), dtype=np.intp)  # the root's missing moves stay at the root
    fail = [0] * n
    queue = [0]
    for u in queue:  # the queue grows while it is read
        dead[u] = dead[u] or dead[fail[u]]
        table[u] = table[fail[u]]
        for s, v in trie[u].items():
            fail[v], table[u, s - 1] = int(table[u, s - 1]), v
            dead[v] = dead[v] or dead[u]
            queue.append(v)
    # trim dead ends with one reverse worklist.  A live node reads its own word
    # from the root through live nodes, which extend as far as it does, so the
    # nodes left are the states reachable from the root; they keep their order
    alive = ~np.array(dead)
    moves = np.where(alive[table] & alive[:, None], table, n)
    outdeg = (moves < n).sum(axis=1)
    stuck = np.flatnonzero(alive & (outdeg == 0)).tolist()
    outdeg, preds = outdeg.tolist(), [[] for _ in range(n + 1)]  # preds[n]: the undefined moves
    for q, row in enumerate(moves.tolist()):
        for t in row:
            preds[t].append(q)
    for t in stuck:
        alive[t] = False
        for q in preds[t]:
            outdeg[q] -= 1
            if outdeg[q] == 0:
                stuck.append(q)
    moves = np.where(alive[table], table, n)
    alive[0] = True  # the start stays, with no moves once it is trimmed
    keep = np.flatnonzero(alive)
    rows = np.vstack([moves[keep], np.full(d, n)])  # the sink's row last
    return Automaton(np.searchsorted(np.append(keep, n), rows.T))  # node keep[i] is state i


def _shift_dominated(digits) -> bool:
    # the follower-state reduction is only valid when the expansion of 1
    # dominates all of its shifts lexicographically
    L = len(digits)
    for k in range(1, L):
        for i in range(L - k):
            if digits[k + i] != digits[i]:
                if digits[k + i] > digits[i]:
                    return False
                break
    return True


def _beta_automaton(spec: BetaShift):
    # Parry's follower graph on the quasi-greedy expansion d*(1) = d_0 d_1 ...:
    # from state j the digit d_j advances, a larger one is inadmissible and a
    # smaller one returns to state 0 (under shift dominance the word then lies
    # below every prefix of d*(1) it ends in).  A terminated expansion is the
    # block d_0 ... d_{m-1} repeated, so state m-1 wraps to 0 and the graph
    # presents the whole shift; otherwise the chain ends at a horizon state.
    exp = spec.expansion()
    if exp.terminated:
        digits, horizon = exp.quasi_greedy_block, None
    else:
        digits = exp.quasi_greedy_digits(spec.digit_depth)
        horizon = len(digits)
    # two periods decide dominance of a periodic word
    if not _shift_dominated(digits if horizon else digits * 2):
        raise ValueError(
            f"expansion of 1 for beta={spec.beta} does not dominate its shifts; "
            "the snapped block is not a Parry expansion, give beta more precisely"
        )
    m = len(digits)
    states = m + 1 if horizon else m  # the horizon state has no moves
    dj, j = np.array(digits, dtype=np.intp), np.arange(m)
    succ = np.full((spec.alphabet, states + 1), states, dtype=np.intp)
    succ[:, :m] = np.where(np.arange(spec.alphabet)[:, None] < dj, 0, states)
    succ[dj, j] = (j + 1) % states
    return Automaton(succ, max_word_length=horizon)


def build_automaton(spec) -> Automaton:
    if isinstance(spec, FullShift):
        return _full_automaton(spec)
    if isinstance(spec, SFT):
        return _sft_automaton(spec)
    if isinstance(spec, ForbiddenWords):
        return _forbidden_automaton(spec.alphabet, spec.words)
    if isinstance(spec, BetaShift):
        return _beta_automaton(spec)
    raise TypeError(f"not a subshift presentation: {spec!r}")


@lru_cache(maxsize=128)
def _cached_automaton_for(spec):
    return build_automaton(spec)


def automaton_for(spec) -> Automaton:
    """Build (and memoize per spec instance) the presenting automaton."""
    return _cached_automaton_for(spec)


def validate_word(word, d) -> tuple[int, ...]:
    """The word as a tuple of ints; ValueError on a symbol that is not an integral number in 1..d."""
    w = tuple(word)
    for s in w:
        if not (spectral.is_integral(s) and 1 <= s <= d):
            raise ValueError(f"symbol {s!r} outside alphabet 1..{d}")
    return tuple(map(int, w))


def admissible(word, spec) -> bool:
    """True iff the word occurs in the one-sided subshift.

    The empty word is admissible exactly when the subshift is nonempty.
    """
    aut = automaton_for(spec)
    w = validate_word(word, aut.alphabet)
    if aut.is_empty:
        return False
    return aut.run(w) is not None


def count_words(spec, n: int) -> int:
    """Exact number of admissible words of length n (theta_n); theta_0 = 1
    for a nonempty subshift."""
    n = spectral.as_count(n, "n")
    aut = automaton_for(spec)
    if aut.is_empty:
        return 0
    if n == 0:
        return 1
    return sum(aut.count_vectors(n)[-1])


def count_words_sequence(spec, n_max: int) -> list[int]:
    """theta_n for n = 1..n_max in one forward pass."""
    n_max = spectral.as_count(n_max, "n_max")
    return [sum(counts) for counts in automaton_for(spec).count_vectors(n_max)]


@dataclass(frozen=True)
class EntropyEstimate:
    """Word counts and entropy estimate of a presentation.

    theta[i] is the exact count of admissible words of length i+1 and
    log_rates[i] = log(theta[i]) / (i+1).  extrapolated combines the Fekete
    infimum with a trailing log-ratio.  exact is the entropy h and method its
    route (see topological_entropy).
    """

    theta: tuple[int, ...]
    log_rates: tuple[float, ...]
    extrapolated: float
    exact: float
    method: str


def _extrapolate(theta, log_rates) -> float:
    fekete = min(log_rates)
    n = len(theta)
    lag = max(w for w in (12, 6, 4, 2, 1) if w <= n - 1)
    ratio = (math.log(theta[n - 1]) - math.log(theta[n - 1 - lag])) / lag
    return min(fekete, ratio)


def exact_entropy(spec) -> tuple[float, str]:
    """(h, method): log of the largest component Perron root of a right-resolving presentation
    (Lind & Marcus 1995, Thm 4.3.3), of spec.matrix ("transfer-matrix") or the midpoint of the
    automaton's certified radius_bracket ("automaton-transfer-matrix"); log beta on a
    non-terminating beta's chain ("log-beta", Parry 1960).  ValueError if empty."""
    aut = automaton_for(spec)
    if aut.is_empty:
        raise ValueError("subshift is empty (theta_1 = 0)")
    if aut.max_word_length is not None:
        return math.log(float(spec.beta)), "log-beta"
    if isinstance(spec, (FullShift, SFT)):
        return math.log(spectral.spectral_radius(spec.matrix)), "transfer-matrix"
    return math.log(0.5 * sum(aut.radius_bracket)), "automaton-transfer-matrix"


def topological_entropy(spec, n_max: int) -> EntropyEstimate:
    """Word counts up to length n_max (n_max >= 2), their extrapolation and the
    entropy h with its method (see exact_entropy).  ValueError if empty."""
    n_max = spectral.as_count(n_max, "n_max", 2)
    exact, method = exact_entropy(spec)
    theta = count_words_sequence(spec, n_max)
    log_rates = tuple(math.log(t) / n for n, t in enumerate(theta, start=1))
    return EntropyEstimate(
        theta=tuple(theta),
        log_rates=log_rates,
        extrapolated=_extrapolate(theta, log_rates),
        exact=exact,
        method=method,
    )
