"""Past-equivalence classes, cover dimensions, the sofic verdict, entropy bracket.

Two admissible words of length m are l-past equivalent when the same words of
length <= l can precede them.  On a presenting automaton the predecessor set
of w is determined by which states can read w, restricted to states reachable
from the start in <= l steps; class counting therefore reduces to a backward
subset iteration and never enumerates words unless the words themselves are
requested.

`sofic_check` and `entropy_bracket` share one counting core.  It holds
each subset family as a set of packed subsets, gathers a subset's preimages
only when it first appears, and stops at the first depth whose family equals
the next one: the recursion is deterministic, so every deeper family is the
same and the counts are final for the presenting automaton.  The reports give
that depth as `fixed_point_depth` (None when the family still changes at the
requested depth).  A memo keyed by the automaton holds its one walk, which
every deeper request continues, so the krieger and bracket sections of one
`all` document gather each subset once; the counts are memoized per automaton
and arguments.
`omega_l` reads its stabilized flag off the core;
its classes, and `predecessor_set`, enumerate words, layer by layer through
one enumerator, and serve as the independent cross-check.  Every pass reads
the automaton's successor table `succ`.

The sofic verdict reads the presentation: an uncapped automaton is finite,
so its shift is sofic; a capped one presents a non-terminating beta expansion,
whose rational base is no Parry number, so it is not (Parry 1960; Bertrand 1977).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import as_count
from .subshift import Automaton, automaton_for, exact_entropy, validate_word

_CORRECTION_WINDOW = 5  # an open bracket's upper end: the least of the last 5 corrections


@dataclass(frozen=True)
class PastClass:
    representative: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]
    predecessors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PastPartition:
    """Partition of the admissible words of length `depth` by l-past equivalence.

    stabilized is True when the class count agrees with the one computed at
    depth-1; a non-stabilized count is only a lower bound for the cover
    dimension.
    """

    depth: int
    classes: tuple[PastClass, ...]
    class_count: int
    stabilized: bool


@dataclass(frozen=True)
class SoficReport:
    """sofic_detected is the verdict of the presentation: True exactly when it
    is uncapped.  counts, stabilized and fixed_point_depth are evidence only."""

    sofic_detected: bool
    counts: tuple[int, ...]
    stabilized: tuple[bool, ...]
    l_max: int
    depth: int
    fixed_point_depth: int | None


@dataclass(frozen=True)
class BracketReport:
    """Entropy bracket [lower, upper] for the noncommutative shift entropy.

    lower is the topological entropy h, `EntropyEstimate.exact`, and the
    correction sequence 2 log(dim Q_n)/n.  A sofic shift has bounded cover
    dimensions, so the correction limit vanishes and the bracket closes: on a
    full shift, an SFT, a forbidden-word shift or a terminated beta expansion.
    """

    lower: float
    upper: float
    correction_sequence: tuple[float, ...]
    dims: tuple[int, ...]
    dims_stabilized: tuple[bool, ...]
    sofic_detected: bool
    n_max: int
    depth: int
    fixed_point_depth: int | None

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _layers(aut: Automaton, m: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """layers[k] = the admissible words of length k with their end states, for
    k = 0..m; each layer is in lexicographic order, so together they are shortlex."""
    edges = [
        [(c, qn) for c, qn in enumerate(targets, start=1) if qn != aut.sink]
        for targets in aut.succ.T.tolist()
    ]
    layers = [[] if aut.is_empty else [((), aut.start)]]
    for _ in range(m):
        layers.append([(w + (c,), qn) for w, q in layers[-1] for c, qn in edges[q]])
    return layers


def _readable(aut: Automaton, words) -> np.ndarray:
    """Bool matrix whose entry [i, q] says whether words[i] can be read from state q."""
    q = np.tile(np.arange(aut.sink), (len(words), 1))
    for column in np.array(words, dtype=np.intp).T:
        q = aut.succ[column[:, None] - 1, q]
    return q != aut.sink


def predecessor_set(word, l: int, spec) -> list[tuple[int, ...]]:
    """All admissible mu with |mu| <= l and mu+word admissible, shortlex sorted.

    Includes the empty word.  The word itself must be nonempty and admissible.
    """
    l = as_count(l, "l")
    aut = automaton_for(spec)
    w = validate_word(word, aut.alphabet)
    if len(w) < 1:
        raise ValueError("word must be nonempty")
    aut.check_length(l + len(w))
    readable = _readable(aut, [w])[0]
    if not readable[aut.start]:
        raise ValueError(f"word {w} is not admissible")
    return [mu for layer in _layers(aut, l) for mu, q in layer if readable[q]]


def omega_l(spec, l: int, depth: int) -> PastPartition:
    """Group the admissible words of length `depth` by l-past equivalence.

    Classes are ordered by their lexicographically smallest member; each class
    carries the common predecessor set as a shortlex-sorted word list.
    """
    l = as_count(l, "l")
    depth = as_count(depth, "depth", max(l, 1))
    aut = automaton_for(spec)
    aut.check_length(l + depth)
    stabilized = _class_counts(aut, l, depth)[1][l]  # raises when there are no words of length depth
    layers = _layers(aut, depth)
    words = [w for w, _ in layers[depth]]
    # a word's class key is its readability restricted to R_l; every
    # predecessor of length <= l ends in R_l
    R = aut.reach_order(l)[0]
    groups: dict[bytes, tuple[np.ndarray, list[tuple[int, ...]]]] = {}
    for w, readable in zip(words, _readable(aut, words)):
        groups.setdefault(readable[R].tobytes(), (readable, []))[1].append(w)
    prefixes = [(mu, q) for layer in layers[: l + 1] for mu, q in layer]
    classes = []
    for readable, members in groups.values():
        preds = tuple(mu for mu, q in prefixes if readable[q])
        classes.append(PastClass(representative=members[0], words=tuple(members), predecessors=preds))
    classes.sort(key=lambda c: c.representative)
    return PastPartition(depth=depth, classes=tuple(classes), class_count=len(classes), stabilized=stabilized)


@lru_cache(maxsize=128)
def _walk(aut: Automaton) -> list:
    """aut's Krieger subset walk, [m, family(m), family(m - 1), the fixed point or None, the
    preimages], at family(0), whose one subset holds every state but the sink; _class_counts moves it."""
    first = {np.packbits(np.arange(aut.sink + 1) < aut.sink).tobytes()}
    return [0, first, first, None, {}]


@lru_cache(maxsize=128)
def _class_counts(aut: Automaton, n_max: int, depth: int):
    """(counts at `depth`, stabilized, fixed_point_depth), the first two as
    tuples, since the memoized result is shared by its callers.

    A family is a set of readability subsets packed into bytes (bit q for
    state q of aut.succ, the sink N last); the next one is the union of their
    nonempty preimages under each symbol, gathered once per subset, when it
    first appears.  The sink bit starts clear and stays clear, since the sink
    only leads to itself, so a move into the sink makes a subset unreadable
    there.  The memo `_walk(aut)` holds the walk; a request below its depth m,
    or at its fixed point, which that depth does not see, starts it again from
    family(0), with the preimages it holds.  counts[n], n = 0..n_max, is the
    number of distinct restrictions to R_n (states reachable in <= n steps) of
    the subsets that hold the start state, and stabilized[n] says that it equals
    the count at depth - 1, a depth that still has words of length >= max(n, 1).
    """
    size = aut.sink + 1
    row = np.dtype((np.void, (size + 7) // 8))  # a packed subset as one bytes item

    def unpack(subsets):
        packed = np.frombuffer(b"".join(subsets), dtype=np.uint8).reshape(-1, row.itemsize)
        return np.unpackbits(packed, axis=1, count=size).view(bool)

    walk = _walk(aut)
    if depth < walk[0] or depth == walk[3]:
        walk[:4] = _walk.__wrapped__(aut)[:4]  # family(0) again, with the preimages kept
    m, family, prev, fixed_point_depth, preimages = walk
    empty = bytes(row.itemsize)
    while fixed_point_depth is None and m < depth:
        new = [s for s in family if s not in preimages]
        if new:
            pre = np.take(unpack(new), aut.succ.ravel(), axis=1).reshape(-1, size)
            keys = np.packbits(pre, axis=1).view(row).reshape(len(new), -1).tolist()
            preimages.update((s, set(k) - {empty}) for s, k in zip(new, keys))
        nxt = set().union(*(preimages[s] for s in family))
        # the recursion is deterministic, so every deeper family is this one
        if nxt == family:
            fixed_point_depth = m
        else:
            prev, family, m = family, nxt, m + 1
    walk[:4] = m, family, prev, fixed_point_depth
    if not family:
        raise ValueError(f"no admissible words of length {depth}")

    order, sizes = aut.reach_order(n_max)

    def counts(fam):
        rows = fam[fam[:, aut.start]][:, order]
        if not len(rows):
            return (0,) * (n_max + 1)
        rows = rows[np.lexsort(rows.T[::-1])]
        differs = rows[1:] != rows[:-1]
        first = np.sort(np.where(differs.any(axis=1), differs.argmax(axis=1), len(order)))
        # distinct prefixes of length k = 1 + adjacent pairs first differing before k
        return tuple((1 + np.searchsorted(first, sizes)).tolist())

    at_depth = counts(unpack(family))
    before = at_depth if fixed_point_depth is not None else counts(unpack(prev))
    stabilized = tuple(depth - 1 >= max(n, 1) and b == c for n, (b, c) in enumerate(zip(before, at_depth)))
    return at_depth, stabilized, fixed_point_depth


def sofic_check(spec, l_max: int, depth: int) -> SoficReport:
    """The sofic verdict, True exactly on an uncapped presentation (see the
    module notes), with the class counts for l = 1..l_max at `depth` as evidence.
    """
    l_max = as_count(l_max, "l_max", 2)
    depth = as_count(depth, "depth", l_max)
    aut = automaton_for(spec)
    aut.check_length(l_max + depth)
    counts, stabilized, fixed = _class_counts(aut, l_max, depth)
    return SoficReport(
        sofic_detected=aut.max_word_length is None,
        counts=counts[1:],
        stabilized=stabilized[1:],
        l_max=l_max,
        depth=depth,
        fixed_point_depth=fixed,
    )


def entropy_bracket(spec, n_max: int, depth: int | None = None) -> BracketReport:
    """Bracket the noncommutative shift entropy between the subshift entropy and
    the dimension-corrected upper bound.

    upper = lower + min of 2 log(dim Q_n)/n over the last 5 n, except that a
    sofic shift closes the bracket exactly.  The default depth n_max + 10 is
    lowered on a capped presentation to what its cap leaves after n_max.
    """
    n_max = as_count(n_max, "n_max", 4)
    aut = automaton_for(spec)
    if depth is None:
        cap = aut.max_word_length
        depth = n_max + 10 if cap is None else max(n_max, min(n_max + 10, cap - n_max))
    depth = as_count(depth, "depth", n_max)
    aut.check_length(n_max + depth)
    lower = exact_entropy(spec)[0]
    dims, stabilized, fixed = _class_counts(aut, n_max, depth)
    dims = dims[1:]
    corrections = tuple(2.0 * math.log(dims[n - 1]) / n for n in range(1, n_max + 1))
    sofic = aut.max_word_length is None
    upper = lower if sofic else lower + min(corrections[-_CORRECTION_WINDOW:])
    return BracketReport(
        lower=lower,
        upper=upper,
        correction_sequence=corrections,
        dims=dims,
        dims_stabilized=stabilized[1:],
        sofic_detected=sofic,
        n_max=n_max,
        depth=depth,
        fixed_point_depth=fixed,
    )
