"""Nonnegative-matrix analytics: connectivity, period, spectral radius, Perron vectors.

A square nonnegative matrix is read as the weight matrix of a digraph with an
edge i -> j whenever A[i, j] > 0.  Components come from the boolean
reachability closure of that digraph and the period from the gcd of BFS level
differences over the level-to-level adjacency.  The Perron triple (lam, u, v)
comes from Noda iteration, inverse iteration shifted by the current
Collatz-Wielandt upper bound (one system array per run, only its diagonal
rewritten), which needs no special case for periodic matrices.  Each run
starts where at most d // 4 power steps on B + I from ones/d leave it (about
one dense solve's time at d = 256), and a pair of runs that misses acceptance
is solved again from ones/d.  The bracket min (A u)_i / u_i <= lam <=
max (A u)_i / u_i of the final u, widened for float rounding, is returned with
it as a certificate.  The SCC pass and periods are memoized per support, the
solve of every component per matrix content (validated once, when stored; the
key hashes a bounded sample of the bytes and compares them all); all callers
share them, their arrays are read-only, and a solve whose residual exceeds
max(PERRON_TOL, residual_noise_floor) is held as a failed one.  A count
matrix given by its edges gets such a bracket from power iteration on each
Tarjan component, with no dense matrix.  Growth sequences 1^T A^k x come from
one power recursion rescaled per chunk of steps.  Logarithms are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PERRON_TOL = 1e-13  # l1 eigen-residual bound of an accepted Perron solve, floored at residual_noise_floor
_MAX_SOLVES = 100  # per Noda run; warm-started runs take 1-10 solves on desk-scale input, 1-4 at d >= 64
_MAX_STEPS = 2**17  # per component; the slowest CLI input found (gap renewal, n = 88) takes 45 101
_STALE_STEPS = 32  # level steps that end the iteration once the bracket is at rounding level
_LOG_CHUNK = 300.0  # normalized_powers rescales before a sum can leave exp(+-300), far inside float64
_KEY_RUN = 512  # entries per sampled run of a memo key's hash: three runs, about 12 KB


def residual_noise_floor(d: int, lam: float = 1.0) -> float:
    """l1 eigen-residual a float64 solve can actually reach for a unit-sum
    eigenvector of a d x d matrix with Perron value lam; PERRON_TOL is floored
    here so honest desk-scale inputs are not rejected for exceeding machine
    noise.
    """
    return 16.0 * np.finfo(float).eps * d * max(lam, 1.0)


class ConvergenceError(RuntimeError):
    """The Perron solve missed the acceptance bound on its residual, or its
    Collatz-Wielandt bracket is not positive and finite.

    Carries the last iterate and its residual so the caller can inspect the
    near-answer.
    """

    def __init__(self, message, last_vector=None, residual=None):
        super().__init__(message)
        self.last_vector = last_vector
        self.residual = residual


class ReducibleMatrixError(ValueError):
    """An operation that requires irreducibility got a reducible matrix."""


def is_integral(value) -> bool:
    """True for an integral number, an int, a numpy integer or a float such as 2.0; a
    bool, a fraction or a string is none.  Symbols, sizes and counts obey it."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer or isinstance(value, (float, np.floating)) and value.is_integer()


def as_count(value, name: str, least: int = 0) -> int:
    """value as an int: the one rule of every count argument (a size, a depth, a word
    length, a number of samples, a seed).  A ValueError naming it unless it is integral and >= least."""
    if not is_integral(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def as_nonnegative(A) -> np.ndarray:
    """Validate and return A as a square float array with entries >= 0."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError("matrix must have dimension >= 1")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    if np.any(M < 0):
        raise ValueError("matrix entries must be nonnegative")
    return M


def as_zero_one(A) -> np.ndarray:
    """Validate and return A as a square integer array with entries in {0, 1}."""
    M = as_nonnegative(A)
    if not np.all((M == 0) | (M == 1)):
        raise ValueError("matrix entries must be 0 or 1")
    return M.astype(int)


def no_zero_lines(M: np.ndarray) -> np.ndarray:
    """Return a validated matrix M, or raise ValueError when it has a zero row or
    a zero column: the Cuntz-Krieger condition under which O_A exists."""
    if not (M.any(axis=1).all() and M.any(axis=0).all()):
        raise ValueError("matrix must have no zero row and no zero column")
    return M


def reachability(A) -> np.ndarray:
    """Boolean transitive closure of the support digraph (a bool array is the support itself):
    R[i, j] is True iff a path of length >= 1 leads from i to j.

    The 0/1 matrix is squared in float32 (exact below 2^24 nodes), capped at 1, until it
    stops changing or is all ones; after k rounds it holds every path of length up to 2^k.
    """
    R = (A if getattr(A, "dtype", None) == bool else as_nonnegative(A) > 0).astype(np.float32)
    while True:
        nxt = np.minimum(R + R @ R, 1.0)
        if nxt.all() or np.array_equal(nxt, R):
            return nxt > 0
        R = nxt


def strongly_connected_components(A) -> list[tuple[int, ...]]:
    """Strongly connected components of the support digraph (reachability closure).

    Returns a list of components, each a sorted tuple of 0-based node indices,
    ordered by smallest member for determinism.
    """
    R = reachability(A)
    mutual = (R & R.T) | np.eye(R.shape[0], dtype=bool)
    first = mutual.argmax(axis=1)  # smallest member of each node's component
    return [tuple(np.flatnonzero(mutual[i]).tolist()) for i in np.flatnonzero(first == np.arange(R.shape[0]))]


def _cycle_gcd(S: np.ndarray) -> int:
    """gcd of the cycle lengths of a strongly connected support digraph S (0 for a lone node without a
    self-loop): the gcd of a + 1 - b over the BFS levels a, b that an edge joins, read off the level-to-level
    edge counts P^T S P of the one-hot level matrix P (float32: a positive count stays positive)."""
    level = np.full(S.shape[0], -1)
    frontier, depth = np.arange(S.shape[0]) == 0, 0
    while frontier.any():
        level[frontier] = depth
        frontier = S[frontier].any(axis=0) & (level < 0)
        depth += 1
    P = (level[:, None] == np.arange(depth)).astype(np.float32)
    a, b = np.nonzero(P.T @ (S.astype(np.float32) @ P))
    return int(np.gcd.reduce(np.abs(a + 1 - b)))


@lru_cache(maxsize=16)
def _graph(d: int, support: bytes) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(component, period) per strongly connected component of the d x d support
    digraph with these packed row-major bits: one SCC pass and one level BFS per
    component, shared by every matrix with this support."""
    S = np.unpackbits(np.frombuffer(support, dtype=np.uint8), count=d * d).reshape(d, d).view(bool)
    return tuple((c, _cycle_gcd(S if len(c) == d else S[np.ix_(c, c)])) for c in strongly_connected_components(S))


def _period(M: np.ndarray) -> int:
    """The period of a validated matrix, 0 when it is reducible (a 1x1 zero matrix included)."""
    (_, cycle_gcd), *rest = _graph(M.shape[0], np.packbits(M > 0).tobytes())
    return 0 if rest else cycle_gcd


def irreducible(A) -> bool:
    """True iff the support digraph of A is strongly connected.

    A 1x1 matrix counts as irreducible only when its single entry is positive
    (the lone node needs a cycle).
    """
    return _period(as_nonnegative(A)) > 0


def period(A) -> int:
    """gcd of all cycle lengths of the support digraph.  Requires irreducibility."""
    p = _period(as_nonnegative(A))
    if not p:
        raise ReducibleMatrixError("period is defined here only for irreducible matrices")
    return p


def _warm_start(B: np.ndarray, steps: int) -> np.ndarray:
    """Start vector of a Noda run on an irreducible B: at most `steps` power steps
    x <- (B x + x) / sum from ones/d.

    Each step reads the Collatz-Wielandt width max - min of (B x)_i / x_i off the
    B x it computes anyway, and the steps end at the first one that fails to
    halve the width or whose bracket is not positive and finite (an underflowed
    x).  Returns the last x whose bracket was positive, finite and the narrowest
    so far, or ones/d itself when there is none.
    """
    x = best = np.full(B.shape[0], 1.0 / B.shape[0])
    width = math.inf
    with np.errstate(all="ignore"):  # an underflow or overflow shows in the bracket
        for _ in range(steps):
            y = B @ x
            ratio = y / x
            lo, hi = float(ratio.min()), float(ratio.max())
            if not (0.0 < lo <= hi < math.inf and hi - lo < 0.5 * width):
                break
            best, width = x, hi - lo
            y += x
            x = y / y.sum()
    return best


def _noda(B: np.ndarray, shift: float | None, x: np.ndarray):
    """Noda iteration x <- (sigma I - B)^-1 x / sum for the Perron vector of an
    irreducible B, from the given positive unit-sum x (_warm_start's).

    sigma is the Collatz-Wielandt upper bound max (B x)_i / x_i of the current
    x, above the Perron value, so every solve is positive; a given shift
    replaces it in the first solve.  The iteration stops when the bracket
    [min, max] of (B x)_i / x_i stops shrinking.  Returns (x, lo, hi, solves)
    for the x with the narrowest bracket, sum(x) = 1.
    """
    best, system, negated_diagonal = None, 0.0 - B, 0.0 - np.diagonal(B)  # + sigma there: bitwise sigma * I - B
    diagonal = np.einsum("ii->i", system)  # a writable view, also for the F-ordered B = M.T
    with np.errstate(all="ignore"):  # overflow or a lost sign shows in the bracket
        for solves in range(_MAX_SOLVES):
            ratio = (B @ x) / x
            lo, hi = float(ratio.min()), float(ratio.max())
            if best is None and not 0.0 < lo <= hi < math.inf:
                msg = f"Collatz-Wielandt bracket [{lo}, {hi}] is not positive and finite"
                raise ConvergenceError(msg, last_vector=x, residual=math.inf)
            if best is not None and not (np.all(x > 0.0) and hi - lo < best[2] - best[1]):
                return (*best, solves)
            best = (x, lo, hi)
            if lo == hi:
                return (*best, solves)
            np.add(negated_diagonal, hi if shift is None else shift, out=diagonal)
            try:
                z = np.linalg.solve(system, x)
            except np.linalg.LinAlgError:  # the shift met the Perron value exactly
                return (*best, solves + 1)
            shift = None
            x = z / z.sum()
    msg = f"Noda iteration did not converge in {_MAX_SOLVES} solves (bracket width {hi - lo:.3e})"
    raise ConvergenceError(msg, last_vector=best[0], residual=hi - lo)


@dataclass(frozen=True, eq=False)
class PerronData:
    """Perron eigendata of an irreducible nonnegative matrix.

    matrix is the validated float matrix the data belongs to and period the
    gcd of its cycle lengths.  u is the right eigenvector scaled so
    sum(u) = 1, v the left eigenvector scaled so sum(u * v) = 1; residual
    bounds the l1 eigen-residuals of u and of v rescaled to sum 1.  [lo, hi]
    is the Collatz-Wielandt bracket of u, widened outward for float rounding:
    it holds the Perron value, and lo <= lam <= hi.  iterations counts the
    linear solves of both vectors (not the power steps of their warm starts)
    in the pair of Noda runs that gave them.  Shared per matrix content by every
    caller, so matrix, u and v are read-only.
    """

    matrix: np.ndarray
    lam: float
    u: np.ndarray
    v: np.ndarray
    period: int
    iterations: int
    residual: float
    lo: float
    hi: float


@dataclass(frozen=True, eq=False)
class ComponentPerron:
    """Perron data of one strongly connected component (data None for a trivial 1-node component)."""

    indices: tuple[int, ...]
    radius: float
    data: PerronData | None


def _perron(M: np.ndarray, period: int) -> PerronData:
    """Perron data of an irreducible matrix of this period, each Noda run warm-started
    by at most d // 4 power steps, which take about the time of one dense solve at
    d = 256 and of two at d = 64 (where the interpreter dominates).  A pair that
    misses acceptance is solved again from ones/d, so the warm steps never lose a
    matrix that the plain start solves (on erratic, badly scaled input either
    start can be the one that stops at an inaccurate vector)."""
    steps = M.shape[0] // 4
    try:
        return _perron_pair(M, period, steps)
    except ConvergenceError:
        if not steps:
            raise
        return _perron_pair(M, period, 0)


def _perron_pair(M: np.ndarray, period: int, steps: int) -> PerronData:
    """Noda iteration for u, then for v on M.T, its first shift just above the
    certified bound on lam, each from _warm_start(., steps)."""
    d = M.shape[0]
    u, lo, hi, solves_u = _noda(M, None, _warm_start(M, steps))
    widen = (d + 1) * np.finfo(float).eps
    v, _, _, solves_v = _noda(M.T, hi * (1.0 + 2.0 * widen), _warm_start(M.T, steps))
    # the two-sided Rayleigh quotient, kept inside the float bracket of u
    lam = min(max(float(v @ M @ u) / float(v @ u), lo), hi)
    residual = max(float(np.abs(M @ u - lam * u).sum()), float(np.abs(M.T @ v - lam * v).sum()))
    accept = max(PERRON_TOL, residual_noise_floor(d, lam))
    if residual > accept:
        msg = f"Perron residual {residual:.3e} exceeds tolerance {accept:.3e}"
        raise ConvergenceError(msg, last_vector=u, residual=residual)
    v = v / float(u @ v)
    for x in (M, u, v):  # shared by every caller of the memo
        x.flags.writeable = False
    return PerronData(
        matrix=M,
        lam=lam,
        u=u,
        v=v,
        period=period,
        iterations=solves_u + solves_v,
        residual=residual,
        lo=lo * (1.0 - widen),
        hi=hi * (1.0 + widen),
    )


class _MatrixKey:
    """Memo key of a float64 matrix: its shape and C-order bytes.  The hash reads the shape and a
    bounded sample of the entries (the first and last _KEY_RUN and about _KEY_RUN strided ones), so
    a read hashes a few KB at any d; equality compares all the bytes, so no hit is false."""

    __slots__ = ("shape", "data", "_hash")

    def __init__(self, M: np.ndarray):
        self.shape, self.data = M.shape, M.tobytes()
        sample = self.data
        if M.size > 3 * _KEY_RUN:
            flat = np.frombuffer(sample)
            sample = b"".join(r.tobytes() for r in (flat[:_KEY_RUN], flat[-_KEY_RUN:], flat[:: M.size // _KEY_RUN]))
        self._hash = hash((self.shape, sample))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _MatrixKey) and self.shape == other.shape and self.data == other.data


@lru_cache(maxsize=16)
def _analysis(key: _MatrixKey) -> tuple[ComponentPerron | ConvergenceError, ...]:
    """Component Perron data of the float64 matrix of this key, validated here, so a memo hit
    needs none: the components and periods of its support from _graph and one Perron solve per
    component with a cycle.  A failed solve is held in its component's place, so reducibility is
    still seen first."""
    M = as_nonnegative(np.frombuffer(key.data).reshape(key.shape))  # a read-only view of the key
    out = []
    for comp, cycle_gcd in _graph(M.shape[0], np.packbits(M > 0).tobytes()):
        sub = M if len(comp) == M.shape[0] else M[np.ix_(comp, comp)]
        try:
            p = _perron(sub, cycle_gcd) if cycle_gcd else None  # 0: a lone node without a self-loop
            out.append(ComponentPerron(indices=comp, radius=p.lam if p else 0.0, data=p))
        except ConvergenceError as exc:
            out.append(exc)
    return tuple(out)


def _analysed(A) -> tuple[ComponentPerron | ConvergenceError, ...]:
    return _analysis(_MatrixKey(np.asarray(A, dtype=float)))


def _accepted(c: ComponentPerron | ConvergenceError) -> ComponentPerron:
    if isinstance(c, ConvergenceError):  # a fresh error: a held one would grow its traceback
        raise ConvergenceError(str(c), last_vector=c.last_vector, residual=c.residual)
    return c


def component_perron_data(A) -> list[ComponentPerron]:
    """Per-component Perron data for a possibly reducible matrix.

    Each strongly connected component is analysed on its own; a single node
    without a self-loop is reported with radius 0 and no eigendata.  Equal
    matrices share one memoized analysis with read-only arrays; a component
    whose solve failed or missed acceptance raises ConvergenceError.
    """
    return [_accepted(c) for c in _analysed(A)]


def perron_vectors(A) -> PerronData:
    """Perron value with normalized right/left eigenvectors of an irreducible matrix.

    One SCC pass and one period BFS per support, and one warm-started Noda
    iteration per vector per matrix content (see component_perron_data).

    Parameters
    ----------
    A : array_like
        Square nonnegative irreducible matrix.

    Raises
    ------
    ReducibleMatrixError
        For reducible input; use component_perron_data for the per-component mode.
    ConvergenceError
        When a residual exceeds max(PERRON_TOL, residual_noise_floor), or the
        Collatz-Wielandt bracket is not positive and finite (an overflowing Perron value).
    """
    only, *rest = _analysed(A)
    data = None if rest else _accepted(only).data
    if data is None:
        raise ReducibleMatrixError(
            "Perron data needs an irreducible matrix; "
            "component_perron_data analyses a reducible one per component"
        )
    return data


def spectral_radius(A) -> float:
    """Spectral radius of a nonnegative matrix: the maximum over the component
    Perron values, so on an irreducible matrix it is perron_vectors(A).lam."""
    M = as_nonnegative(A)
    if not np.any(M > 0):
        raise ValueError("spectral_radius requires a matrix that is not identically zero")
    return max(c.radius for c in component_perron_data(M))


def normalized_powers(A, x, n: int) -> tuple[list[float], list[np.ndarray]]:
    """log(1^T A^k x) and the unit-sum vectors A^k x / 1^T A^k x for k = 1..n, the one growth recursion
    of the package; the lists stop at the first vanishing sum.  Chunks of K steps from x / 1^T x are
    summed, logged and rescaled at once: as c_min 1^T y <= 1^T A y <= c_max 1^T y over the column sums
    c, K = _LOG_CHUNK / max |log c| keeps every sum within exp(+-_LOG_CHUNK); a zero column gives K = 1."""
    M, n, x = as_nonnegative(A), as_count(n, "n"), np.asarray(x, dtype=float)
    if x.shape != (M.shape[0],) or not (x.min() >= 0.0 and x.max() < math.inf):  # a nan minimum fails too
        raise ValueError(f"x must be a finite nonnegative vector of length {M.shape[0]}")
    s = float(x.sum())
    if n < 1 or s <= 0.0:
        return [], []
    with np.errstate(divide="ignore", over="ignore"):  # a zero or overflowing column sum gives K = 1
        spread = float(np.abs(np.log(M.sum(axis=0))).max())
    K = max(1, min(n, int(_LOG_CHUNK / spread))) if spread else n
    X = np.empty((n + 1, M.shape[0]))
    X[0] = np.divide(x, s)
    rows, logs, base = list(X), np.empty(n), math.log(s)
    for i in range(0, n, K):
        for k in range(i, min(i + K, n)):
            np.dot(M, rows[k], out=rows[k + 1])
        sums = X[i + 1:k + 2].sum(axis=1)
        live = sums[sums > 0.0]  # a vanished sum stays 0
        logs[i:i + live.size] = base + np.log(live)
        X[i + 1:i + live.size + 1] /= live[:, None]
        if live.size < sums.size:
            n = i + live.size
            break
        base = float(logs[k])
    return logs[:n].tolist(), rows[1:n + 1]


def _scc_labels(n: int, src: np.ndarray, dst: np.ndarray) -> list[int]:
    """label[v]: the root of v's component in the digraph on 0..n-1 with edges src -> dst, by an iterative
    Tarjan pass from a virtual node n; on dense 0/1 matrices `reachability` is 10-20x faster."""
    order = np.argsort(src, kind="stable")
    adj = [a.tolist() for a in np.split(dst[order], np.cumsum(np.bincount(src, minlength=n))[:-1])]
    index, low, label, stack, work = {n: -1}, {n: -1}, [-1] * (n + 1), [], [(n, iter(range(n)))]
    while work:
        v, targets = work[-1]
        w = next(targets, None)
        if w is None:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
                while low[v] == index[v] and label[v] < 0:
                    label[stack.pop()] = v
        elif w not in index:
            index[w] = low[w] = len(index)
            stack.append(w)
            work.append((w, iter(adj[w])))
        elif label[w] < 0:  # w is on the stack
            low[v] = min(low[v], index[w])
    return label[:n]


def sparse_radius_bracket(n: int, src, dst) -> tuple[float, float]:
    """Certified [lo, hi] around the spectral radius of the n x n count matrix with one unit per
    edge src[e] -> dst[e], from no dense matrix: per strongly connected component C with a cycle,
    the narrowest Collatz-Wielandt bracket of (B_C x)_i / x_i over power iteration on B_C + I,
    widened for rounding.  ValueError on a node id that is no integer in 0..n-1, ConvergenceError after _MAX_STEPS."""
    n = as_count(n, "n")
    src, dst = np.asarray(src), np.asarray(dst)
    ok = src.ndim == 1 and src.shape == dst.shape and {src.dtype.kind, dst.dtype.kind} <= {"i", "u", "f"}
    ids = np.concatenate((src, dst)) if ok else np.array([-1])  # no bool, string or object ids
    if not np.all((ids >= 0) & (ids < n)) or np.any(ids.astype(np.intp) != ids):  # nan and inf fail before the cast
        raise ValueError(f"edges must be two equal-length lists of nodes in 0..{n - 1}")
    src, dst = src.astype(np.intp), dst.astype(np.intp)
    labels = np.array(_scc_labels(n, src, dst), dtype=np.intp)
    lo = hi = 0.0  # no cycle: the count matrix is nilpotent
    for c in set(labels[src][labels[src] == labels[dst]].tolist()):
        nodes, edges = np.flatnonzero(labels == c), (labels[src] == c) & (labels[dst] == c)
        s, t = np.searchsorted(nodes, src[edges]), np.searchsorted(nodes, dst[edges])
        x, best, stale = np.ones(len(nodes)), (0.0, math.inf), 0
        widen = float(np.bincount(s).max() + 1) * np.finfo(float).eps  # the longest sum in y
        floor = max(PERRON_TOL, 4 * widen)  # relative width of a bracket at rounding level
        with np.errstate(all="ignore"):  # an underflowing x shows in the bracket
            for _ in range(_MAX_STEPS):
                y = np.bincount(s, weights=x[t], minlength=len(x))
                ratio = y / x
                c_lo, c_hi = float(ratio.min()), float(ratio.max())
                if not 0.0 < c_lo <= c_hi < math.inf:
                    msg = f"Collatz-Wielandt bracket [{c_lo}, {c_hi}] is not positive and finite"
                    raise ConvergenceError(msg, last_vector=x, residual=math.inf)
                stale = stale + 1 if c_hi - c_lo >= best[1] - best[0] else 0
                best = best if stale else (c_lo, c_hi)
                if c_lo == c_hi or stale >= _STALE_STEPS and best[1] - best[0] <= floor * best[1]:
                    break
                x = (y + x) / (y + x).max()
            else:
                msg = f"power iteration did not converge in {_MAX_STEPS} steps, bracket {list(best)}"
                raise ConvergenceError(msg, last_vector=x, residual=best[1] - best[0])
        lo, hi = max(lo, best[0] * (1.0 - widen)), max(hi, best[1] * (1.0 + widen))
    return lo, hi
