"""Nonnegative-matrix analytics: connectivity, period, spectral radius, Perron vectors.

A square nonnegative matrix is read as the weight matrix of a digraph with an
edge i -> j whenever A[i, j] > 0.  Components come from the boolean
reachability closure of that digraph and the period from the gcd of BFS level
differences along its edges.  The Perron triple (lam, u, v) comes from Noda
iteration, inverse iteration shifted by the current Collatz-Wielandt upper
bound, which needs no special case for periodic matrices; the bracket
min (A u)_i / u_i <= lam <= max (A u)_i / u_i of the final u, widened for
float rounding, is returned with it as a certificate.  The SCC pass and the
solve of every component are memoized per matrix content and shared by all
callers; their arrays are read-only, and a solve whose residual exceeds
max(PERRON_TOL, residual_noise_floor) is held as a failed one.  A count
matrix given by its edges gets such a bracket from power iteration on each
Tarjan component, with no dense matrix.  Growth sequences 1^T A^k x come from
one rescaled power recursion.  Logarithms are natural throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PERRON_TOL = 1e-13  # l1 eigen-residual bound of an accepted Perron solve, floored at residual_noise_floor
_MAX_SOLVES = 100  # Noda iteration converges superlinearly: 5-16 solves on desk-scale input
_MAX_STEPS = 2**17  # per component; the slowest CLI input found (gap renewal, n = 88) takes 45 101
_STALE_STEPS = 32  # level steps that end the iteration once the bracket is at rounding level


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


def has_zero_row(A) -> bool:
    M = np.asarray(A, dtype=float)
    return bool(np.any(M.sum(axis=1) == 0))


def has_zero_column(A) -> bool:
    M = np.asarray(A, dtype=float)
    return bool(np.any(M.sum(axis=0) == 0))


def reachability(A) -> np.ndarray:
    """Boolean transitive closure of the support digraph: R[i, j] is True iff
    a path of length >= 1 leads from i to j.

    The 0/1 matrix is squared in float32 (exact below 2^24 nodes), capped at
    1, until it stops changing; after k rounds it holds every path of length
    up to 2^k.
    """
    R = (as_nonnegative(A) > 0).astype(np.float32)
    while True:
        nxt = np.minimum(R + R @ R, 1.0)
        if np.array_equal(nxt, R):
            return R > 0
        R = nxt


def _closure_components(R: np.ndarray) -> list[tuple[int, ...]]:
    """Strongly connected components read off a reachability closure R."""
    mutual = (R & R.T) | np.eye(R.shape[0], dtype=bool)
    leaders = np.unique(mutual.argmax(axis=1))  # smallest member of each node's component
    return [tuple(np.flatnonzero(mutual[i]).tolist()) for i in leaders]


def strongly_connected_components(A) -> list[tuple[int, ...]]:
    """Strongly connected components of the support digraph (reachability closure).

    Returns a list of components, each a sorted tuple of 0-based node indices,
    ordered by smallest member for determinism.
    """
    return _closure_components(reachability(A))


def irreducible(A) -> bool:
    """True iff the support digraph of A is strongly connected.

    A 1x1 matrix counts as irreducible only when its single entry is positive
    (the lone node needs a cycle).
    """
    M = as_nonnegative(A)
    if M.shape[0] == 1:
        return bool(M[0, 0] > 0)
    return len(strongly_connected_components(M)) == 1


def _cycle_gcd(M: np.ndarray) -> int:
    """gcd of the cycle lengths of an irreducible support digraph: the gcd of
    level[i] + 1 - level[j] over its edges i -> j, levels from one BFS."""
    A = M > 0
    level = np.full(A.shape[0], -1)
    frontier, depth = np.arange(A.shape[0]) == 0, 0
    while frontier.any():
        level[frontier] = depth
        frontier = A[frontier].any(axis=0) & (level < 0)
        depth += 1
    i, j = np.nonzero(A)
    return int(np.gcd.reduce(np.abs(level[i] + 1 - level[j])))


def period(A) -> int:
    """gcd of all cycle lengths of the support digraph.  Requires irreducibility."""
    M = as_nonnegative(A)
    if not irreducible(M):
        raise ReducibleMatrixError("period is defined here only for irreducible matrices")
    return _cycle_gcd(M)


def aperiodic(A) -> bool:
    """True iff A is irreducible with cycle-length gcd 1."""
    return period(A) == 1


def _noda(B: np.ndarray, shift: float | None = None):
    """Noda iteration x <- (sigma I - B)^-1 x / sum for the Perron vector of an
    irreducible B, from x = ones/d.

    sigma is the Collatz-Wielandt upper bound max (B x)_i / x_i of the current
    x, above the Perron value, so every solve is positive; a given shift
    replaces it in the first solve.  The iteration stops when the bracket
    [min, max] of (B x)_i / x_i stops shrinking.  Returns (x, lo, hi, solves)
    for the x with the narrowest bracket, sum(x) = 1.
    """
    d = B.shape[0]
    x = np.full(d, 1.0 / d)
    best = None
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
            try:
                z = np.linalg.solve((hi if shift is None else shift) * np.eye(d) - B, x)
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
    linear solves of both vectors.  Shared per matrix content by every
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

    @property
    def beta(self) -> float:
        return math.log(self.lam)


@dataclass(frozen=True, eq=False)
class ComponentPerron:
    """Perron data of one strongly connected component (data None for a trivial 1-node component)."""

    indices: tuple[int, ...]
    radius: float
    data: PerronData | None


def _perron(M: np.ndarray) -> PerronData:
    """Perron data of an irreducible matrix: Noda iteration for u, then for v
    on M.T, its first shift just above the certified bound on lam."""
    d = M.shape[0]
    u, lo, hi, solves_u = _noda(M)
    widen = (d + 1) * np.finfo(float).eps
    v, _, _, solves_v = _noda(M.T, hi * (1.0 + 2.0 * widen))
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
        period=_cycle_gcd(M),
        iterations=solves_u + solves_v,
        residual=residual,
        lo=lo * (1.0 - widen),
        hi=hi * (1.0 + widen),
    )


@lru_cache(maxsize=16)
def _analysis(d: int, data: bytes) -> tuple[ComponentPerron | ConvergenceError, ...]:
    """Component Perron data of the d x d float64 matrix with these bytes:
    one SCC pass and one Perron solve per component with a cycle.  A failed
    solve is held in its component's place, so reducibility is still seen first."""
    M = np.frombuffer(data).reshape(d, d)  # a read-only view of the key
    out = []
    for comp in strongly_connected_components(M):
        sub = M if len(comp) == d else M[np.ix_(comp, comp)]
        try:
            p = _perron(sub) if sub.any() else None  # a lone node without a self-loop
            out.append(ComponentPerron(indices=comp, radius=p.lam if p else 0.0, data=p))
        except ConvergenceError as exc:
            out.append(exc)
    return tuple(out)


def _analysed(A) -> tuple[ComponentPerron | ConvergenceError, ...]:
    M = as_nonnegative(A)
    return _analysis(M.shape[0], M.tobytes())


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

    One SCC pass, one period BFS and one Noda iteration per vector, once per
    matrix content (see component_perron_data).

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
    """log(1^T A^k x) and the unit-sum vectors A^k x / 1^T A^k x for k = 1..n,
    the one growth recursion of the package: nothing overflows at any n.  The
    lists stop at the first vanishing sum, so they may be shorter than n."""
    M = as_nonnegative(A)
    logs, vectors = [], []
    acc = 0.0
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


def integer_vector_powers(start, rows, n: int) -> list[list[int]]:
    """start B^k for k = 1..n in arbitrary-precision integers, so the result is
    exact at any n.

    B is given by sparse rows of Python ints: rows[i] lists the pairs
    (j, B[i, j]) with a nonzero weight: an automaton's word counts run it.
    """
    out = []
    v = list(start)
    for _ in range(n):
        nxt = [0] * len(rows)
        for s, row in zip(v, rows):
            if s:
                for j, w in row:
                    nxt[j] += s * w
        v = nxt
        out.append(v)
    return out


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
    widened for rounding.  ValueError on an edge outside 0..n-1, ConvergenceError after _MAX_STEPS."""
    src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    if src.ndim != 1 or src.shape != dst.shape or ((src < 0) | (src >= n) | (dst < 0) | (dst >= n)).any():
        raise ValueError(f"edges must be two equal-length lists of nodes in 0..{n - 1}")
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
                c_lo, c_hi = float((y / x).min()), float((y / x).max())
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


def spectral_radius_bracket_sequences(A, n_max: int) -> tuple[list[float], list[float]]:
    """Lower/upper bracket sequences for r(A) from column sums of powers.

    Returns (min-column-sum(A^n))^(1/n) and (max-column-sum(A^n))^(1/n) for
    n = 1..n_max.  For irreducible A both sequences converge to r(A) and
    bracket it at every n.  The column sums come from normalized_powers on A^T
    from ones; entries after the powers vanish are 0.0.
    """
    M = as_nonnegative(A)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lower, upper = [0.0] * n_max, [0.0] * n_max
    for n, (log_n, s) in enumerate(zip(*normalized_powers(M.T, np.ones(M.shape[0]), n_max)), 1):
        smin, smax = float(s.min()), float(s.max())
        lower[n - 1] = math.exp((log_n + math.log(smin)) / n) if smin > 0.0 else 0.0
        upper[n - 1] = math.exp((log_n + math.log(smax)) / n)
    return lower, upper
