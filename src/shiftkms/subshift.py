"""One-sided subshift presentations, word admissibility, counting and entropy.

Four presentations are supported: the full shift, a 0/1 transition-matrix
shift, a shift given by finitely many forbidden factors, and the beta-shift of
a base b > 1.  Each compiles to a deterministic partial automaton whose
defined paths are exactly the admissible words, held as one successor table:
admissibility is a single run, counting is spectral's exact integer recursion
over its transition-count matrix, and the Krieger passes read the same table.

Symbols are 1-based (alphabet {1, ..., d}).  Beta-shift digits {0, ..., d-1}
map to symbols by adding 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    "sft_entropy_exact",
    "beta_expansion_of_one",
]


@dataclass(frozen=True)
class FullShift:
    """Full shift on d symbols."""

    alphabet: int

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValueError("alphabet size must be >= 1")

    @property
    def matrix(self) -> np.ndarray:
        return np.ones((self.alphabet, self.alphabet), dtype=int)


@dataclass(frozen=True, eq=False)
class SFT:
    """Shift of finite type with transition matrix A: word w is admissible iff
    A[w_i, w_{i+1}] = 1 for all consecutive pairs."""

    matrix: np.ndarray

    def __post_init__(self):
        M = spectral.as_zero_one(self.matrix)
        if spectral.has_zero_row(M) or spectral.has_zero_column(M):
            raise ValueError("SFT matrix must have no zero row and no zero column")
        object.__setattr__(self, "matrix", M)


@dataclass(frozen=True)
class ForbiddenWords:
    """Subshift of sequences avoiding every listed word as a factor."""

    alphabet: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValueError("alphabet size must be >= 1")
        normalized = tuple(tuple(int(s) for s in w) for w in self.words)
        for w in normalized:
            if len(w) == 0:
                raise ValueError("forbidden words must be nonempty")
            if any(s < 1 or s > self.alphabet for s in w):
                raise ValueError(f"forbidden word {w} has symbols outside 1..{self.alphabet}")
        object.__setattr__(self, "words", normalized)


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
    snap_tol: float = 1e-9

    def __post_init__(self):
        b = float(self.beta)
        if not 1.0 < b < math.inf:  # also false for nan
            raise ValueError(f"beta must be a finite number > 1, got {self.beta!r}")
        if self.digit_depth < 1:
            raise ValueError("digit_depth must be >= 1")

    @property
    def alphabet(self) -> int:
        return int(math.ceil(float(self.beta)))

    def expansion(self):
        return beta_expansion_of_one(self.beta, self.digit_depth, snap_tol=self.snap_tol)


class Automaton:
    """Deterministic partial automaton over symbols 1..d, held as one successor table.

    The states are relabelled 0..N-1 in the sorted order of the labels the
    build used (`delta` and `start` are given in the new labels), and N is a
    sink: succ[c-1, q] is the state reached from q on symbol c, N when that
    move is undefined, and the sink only leads to itself.  A word is in the
    presented language iff its run from the start never reaches the sink.
    Every state has at least one outgoing transition (the build trims dead
    ends), except an optional horizon state in depth-capped presentations;
    max_word_length says how long a run is trustworthy.
    """

    def __init__(self, alphabet, delta, start, max_word_length=None):
        labels = {start, *(q for q, _ in delta), *delta.values()}
        index = {q: i for i, q in enumerate(sorted(labels))}
        self.alphabet = alphabet
        self.delta = {(index[q], c): index[qn] for (q, c), qn in delta.items()}
        self.start = index[start]
        self.max_word_length = max_word_length
        self.states = range(len(index))
        self.sink = len(index)
        self.succ = np.full((alphabet, self.sink + 1), self.sink, dtype=np.intp)
        qs, cs = np.array(list(self.delta), dtype=np.intp).reshape(-1, 2).T
        self.succ[cs - 1, qs] = list(self.delta.values())
        self._count_vectors = []

    @property
    def is_empty(self) -> bool:
        return bool(np.all(self.succ[:, self.start] == self.sink))

    def run(self, word, state=None):
        """End state of the word, or None when it leaves the language (a
        symbol outside 1..d leaves it too)."""
        self.check_length(len(word))
        q = self.start if state is None else state
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
        length-k words ending in state q (exact ints).

        The lists are kept on the automaton and only extended, so a longer
        call continues where the last one stopped; callers must not mutate them.
        """
        self.check_length(n)
        out = self._count_vectors
        if len(out) < n:
            start = out[-1] if out else [int(q == self.start) for q in self.states]
            out.extend(spectral.integer_vector_powers(start, self._count_rows, n - len(out)))
        return out[:n]

    @cached_property
    def _count_rows(self):
        """Row q of the transition-count matrix: (target, number of symbols) pairs."""
        rows = [[] for _ in self.states]
        for (q, qn), k in Counter((q, qn) for (q, _), qn in self.delta.items()).items():
            rows[q].append((qn, k))
        return rows

    @cached_property
    def radius_bracket(self) -> tuple[float, float]:
        """Certified [lo, hi] around the Perron root of the count matrix of delta's moves."""
        src = [q for q, _ in self.delta]
        return spectral.sparse_radius_bracket(self.sink, src, list(self.delta.values()))

    def reach_order(self, l):
        """(order, sizes): the states reachable from the start by words of
        length <= l in breadth-first discovery order, and sizes[k] = |R_k| for
        k = 0..l, so R_k (reachable in <= k steps) is the prefix order[:sizes[k]]."""
        seen = np.zeros(self.sink + 1, dtype=bool)
        seen[[self.start, self.sink]] = True
        order, frontier, sizes = [self.start], np.array([self.start]), [1]
        for _ in range(l):
            hit = np.zeros_like(seen)
            hit[self.succ[:, frontier]] = True
            frontier = np.flatnonzero(hit & ~seen)
            seen[frontier] = True
            order.extend(frontier.tolist())
            sizes.append(len(order))
        return order, sizes


def _full_automaton(spec):
    delta = {(0, c): 0 for c in range(1, spec.alphabet + 1)}
    return Automaton(spec.alphabet, delta, start=0)


def _sft_automaton(spec):
    d = len(spec.matrix)
    delta = {(0, c): c for c in range(1, d + 1)}  # state c follows symbol c
    delta.update({(i + 1, c + 1): c + 1 for i, c in np.argwhere(spec.matrix).tolist()})
    return Automaton(d, delta, start=0)


def _forbidden_automaton(d, words):
    # Aho-Corasick over the forbidden factors; a node whose suffix set meets
    # the list is dead, and dead-end states are trimmed until every surviving
    # state extends forever.
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
    # complete transitions on live nodes, dropping edges into dead nodes
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
    # keep only states that are reachable and extend forever
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
    delta = {(q, s): qn for (q, s), qn in delta.items() if q in reachable}
    return Automaton(d, delta, start=0)


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
            "the snapped block is not a Parry expansion, lower snap_tol or give "
            "beta more precisely"
        )
    delta = {}
    for j, dj in enumerate(digits):
        delta.update({(j, c + 1): 0 for c in range(dj)})
        delta[(j, dj + 1)] = j + 1 if horizon else (j + 1) % len(digits)
    return Automaton(spec.alphabet, delta, start=0, max_word_length=horizon)


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
    w = tuple(int(s) for s in word)
    for s in w:
        if s < 1 or s > d:
            raise ValueError(f"symbol {s} outside alphabet 1..{d}")
    return w


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
    if n < 0:
        raise ValueError("n must be >= 0")
    aut = automaton_for(spec)
    if aut.is_empty:
        return 0
    if n == 0:
        return 1
    return sum(aut.count_vectors(n)[-1])


def count_words_sequence(spec, n_max: int) -> list[int]:
    """theta_n for n = 1..n_max in one forward pass."""
    aut = automaton_for(spec)
    if aut.is_empty:
        return [0] * n_max
    return [sum(counts) for counts in aut.count_vectors(n_max)]


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


def topological_entropy(spec, n_max: int) -> EntropyEstimate:
    """Word counts up to length n_max (n_max >= 2), their extrapolation and the entropy h.

    h is log of the largest component Perron root of a right-resolving presentation
    (Lind & Marcus 1995, Thm 4.3.3): of spec.matrix ("transfer-matrix") or the midpoint
    of the automaton's certified radius_bracket ("automaton-transfer-matrix"); log beta
    on a non-terminating beta's chain ("log-beta", Parry 1960).  ValueError if empty.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    theta = count_words_sequence(spec, n_max)
    if theta[0] == 0:
        raise ValueError("subshift is empty (theta_1 = 0)")
    log_rates = tuple(math.log(t) / n for n, t in enumerate(theta, start=1))
    extrapolated = _extrapolate(theta, log_rates)
    aut = automaton_for(spec)
    if aut.max_word_length is not None:
        exact, method = math.log(float(spec.beta)), "log-beta"
    elif isinstance(spec, (FullShift, SFT)):
        exact = math.log(spectral.spectral_radius(spec.matrix))
        method = "transfer-matrix"
    else:
        exact, method = math.log(0.5 * sum(aut.radius_bracket)), "automaton-transfer-matrix"
    return EntropyEstimate(
        theta=tuple(theta),
        log_rates=log_rates,
        extrapolated=extrapolated,
        exact=exact,
        method=method,
    )


def sft_entropy_exact(A) -> float:
    """log of the spectral radius of the transition matrix."""
    SFT(A)  # validates the matrix
    return math.log(spectral.spectral_radius(A))
