"""Nonnegative-matrix analytics: connectivity, period, spectral radius, Perron vectors.

A square nonnegative matrix is read as the weight matrix of a digraph with an
edge i -> j whenever A[i, j] > 0.  Spectral data is produced by deterministic
power iteration (all-ones start vector); path and column-sum counts use exact
integer arithmetic so they cannot silently overflow.  Logarithms are natural
throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
PERRON_TOL = 1e-13  # the strictest default acceptance of any thermodynamic result


def residual_noise_floor(d: int, lam: float = 1.0) -> float:
    """l1 eigen-residual a float64 power iteration can actually reach for a
    d x d matrix with Perron value lam; requested tolerances are floored here
    so honest desk-scale inputs are not rejected for exceeding machine noise.
    """
    return 16.0 * np.finfo(float).eps * d * max(lam, 1.0)


class ConvergenceError(RuntimeError):
    """Power iteration did not reach the requested residual.

    Carries the last iterate and its residual so the caller can inspect the
    near-answer or retry with a looser tolerance.
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


def strongly_connected_components(A) -> list[tuple[int, ...]]:
    """Strongly connected components of the support digraph (iterative Tarjan).

    Returns a list of components, each a sorted tuple of 0-based node indices,
    ordered by smallest member for determinism.
    """
    M = as_nonnegative(A)
    d = M.shape[0]
    succ = [np.nonzero(M[i] > 0)[0].tolist() for i in range(d)]
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
    """gcd of the cycle lengths of an irreducible support digraph (one BFS)."""
    d = M.shape[0]
    succ = [np.nonzero(M[i] > 0)[0].tolist() for i in range(d)]
    level = [-1] * d
    level[0] = 0
    queue = [0]
    g = 0
    while queue:
        nxt = []
        for u in queue:
            for w in succ[u]:
                if level[w] == -1:
                    level[w] = level[u] + 1
                    nxt.append(w)
                else:
                    g = math.gcd(g, level[u] + 1 - level[w])
        queue = nxt
    return abs(g) if g != 0 else 1


def period(A) -> int:
    """gcd of all cycle lengths of the support digraph.  Requires irreducibility."""
    M = as_nonnegative(A)
    if not irreducible(M):
        raise ReducibleMatrixError("period is defined here only for irreducible matrices")
    return _cycle_gcd(M)


def aperiodic(A) -> bool:
    """True iff A is irreducible with cycle-length gcd 1."""
    return period(A) == 1


def _power_iteration(B: np.ndarray, tol: float, max_iter: int):
    """Deterministic power iteration on a converging nonnegative matrix B.

    Start vector is all-ones/d.  Returns (lam, v, iterations, residual) with
    sum(v) = 1 and residual = l1 norm of B v - lam v at acceptance.
    """
    d = B.shape[0]
    v = np.full(d, 1.0 / d)
    lam = 0.0
    resid = math.inf
    for k in range(1, max_iter + 1):
        w = B @ v
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            lam = float(w.sum())
        if not 0.0 < lam < math.inf:
            raise ConvergenceError(
                f"iterate sum {lam} is not positive and finite", last_vector=v, residual=resid
            )
        resid = float(np.abs(w - lam * v).sum())
        if resid <= max(tol, residual_noise_floor(d, lam)):
            return lam, v, k, resid
        v = w / lam
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations (residual {resid:.3e})",
        last_vector=v,
        residual=resid,
    )


@dataclass(frozen=True, eq=False)
class PerronData:
    """Perron eigendata of an irreducible nonnegative matrix.

    matrix is the validated float matrix the data belongs to and period the
    gcd of its cycle lengths.  u is the right eigenvector scaled so
    sum(u) = 1, v the left eigenvector scaled so sum(u * v) = 1; residual
    bounds both l1 eigen-residuals.
    """

    matrix: np.ndarray
    lam: float
    u: np.ndarray
    v: np.ndarray
    period: int
    iterations: int
    residual: float

    @property
    def beta(self) -> float:
        return math.log(self.lam)


@dataclass(frozen=True, eq=False)
class ComponentPerron:
    """Perron data of one strongly connected component (data None for a trivial 1-node component)."""

    indices: tuple[int, ...]
    radius: float
    data: PerronData | None


def matrix_of(A):
    """The matrix behind A: the analysed matrix of Perron data, A itself otherwise."""
    return A.matrix if isinstance(A, PerronData) else A


def _accept(M: np.ndarray, lam: float, v: np.ndarray, residual: float, tol: float) -> None:
    # rescaling v inflates its absolute residual by ||v||_1, so the floor must
    # scale the same way before an honest input is rejected
    scale = max(1.0, float(np.abs(v).sum()))
    accept = max(tol, 4.0 * scale * residual_noise_floor(M.shape[0], lam))
    if residual > accept:
        raise ConvergenceError(
            f"Perron residual {residual:.3e} exceeds tolerance {accept:.3e}",
            last_vector=v,
            residual=residual,
        )


def _perron(M: np.ndarray, tol: float, max_iter: int) -> PerronData:
    """Perron data of a validated irreducible matrix.  Periodic matrices are
    iterated on M + I, which is primitive and shares the eigenvectors; the
    eigenvalue shift by 1 is exact."""
    d = M.shape[0]
    per = _cycle_gcd(M)
    if d == 1:
        lam, u, v_raw, iterations, res_u = float(M[0, 0]), np.array([1.0]), np.array([1.0]), 0, 0.0
    else:
        inner = min(tol, DEFAULT_TOL) / 8.0
        if per == 1:
            right, left, shift = M, M.T, 0.0
        else:
            right, left, shift = M + np.eye(d), M.T + np.eye(d), 1.0
        lam, u, it_u, res_u = _power_iteration(right, inner, max_iter)
        _, v_raw, it_v, _ = _power_iteration(left, inner, max_iter)
        lam -= shift
        iterations = it_u + it_v
    pairing = float(u @ v_raw)
    if pairing <= 0.0:
        raise ConvergenceError("left/right eigenvector pairing is not positive", last_vector=v_raw)
    v = v_raw / pairing
    res_v = float(np.abs(M.T @ v - lam * v).sum())
    residual = max(res_u, res_v)
    _accept(M, lam, v, residual, tol)
    if float(u.min()) <= 0.0 or float(v.min()) <= 0.0:
        raise ConvergenceError("Perron vectors must be strictly positive for irreducible input")
    return PerronData(
        matrix=M, lam=lam, u=u, v=v, period=per, iterations=iterations, residual=residual
    )


def perron_vectors(A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> PerronData:
    """Perron value with normalized right/left eigenvectors of an irreducible matrix.

    One SCC pass, one period BFS and one power iteration per vector.  Perron
    data passed as A is returned unchanged once it meets the acceptance for tol.

    Parameters
    ----------
    A : array_like or PerronData
        Square nonnegative irreducible matrix, or its Perron data.
    tol : float
        Acceptance bound for the l1 eigen-residuals of both vectors.
    max_iter : int
        Iteration budget for each power iteration.

    Raises
    ------
    ReducibleMatrixError
        For reducible input; use component_perron_data for the per-component mode.
    ConvergenceError
        When either iteration fails to meet tol within max_iter, or an
        iterate sum is zero or not finite (an overflowing Perron value).
    """
    if isinstance(A, PerronData):
        _accept(A.matrix, A.lam, A.v, A.residual, tol)
        return A
    M = as_nonnegative(A)
    if not irreducible(M):
        raise ReducibleMatrixError(
            "Perron data needs an irreducible matrix; "
            "component_perron_data analyses a reducible one per component"
        )
    return _perron(M, tol, max_iter)


def component_perron_data(
    A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> list[ComponentPerron]:
    """Per-component Perron data for a possibly reducible matrix.

    Each strongly connected component is analysed on its own; a single node
    without a self-loop is reported with radius 0 and no eigendata.
    """
    M = as_nonnegative(A)
    out = []
    for comp in strongly_connected_components(M):
        idx = np.array(comp)
        sub = M[np.ix_(idx, idx)]
        if len(comp) == 1 and sub[0, 0] == 0.0:
            out.append(ComponentPerron(indices=comp, radius=0.0, data=None))
        else:
            data = _perron(sub, tol, max_iter)
            out.append(ComponentPerron(indices=comp, radius=data.lam, data=data))
    return out


def spectral_radius(A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Spectral radius of a nonnegative matrix, or the Perron value of Perron data.

    The radius is the maximum over the component Perron values, so on an
    irreducible matrix it is perron_vectors(A).lam.
    """
    if isinstance(A, PerronData):
        return A.lam
    M = as_nonnegative(A)
    if not np.any(M > 0):
        raise ValueError("spectral_radius requires a matrix that is not identically zero")
    return max(c.radius for c in component_perron_data(M, tol=tol, max_iter=max_iter))


def integer_vector_powers(start, rows, n: int) -> list[list[int]]:
    """start B^k for k = 1..n in arbitrary-precision integers, so the result is
    exact at any n.

    B is given by sparse rows of Python ints: rows[i] lists the pairs
    (j, B[i, j]) with a nonzero weight.  Column sums of matrix powers and the
    word counts of a presenting automaton both run this one recursion.
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


def column_sum_sequence(A, n_max: int) -> list[list[int]]:
    """Column sums of A^n for n = 1..n_max of a nonnegative integer matrix, in
    arbitrary-precision integers, so the result is exact at any n."""
    M = as_nonnegative(A)
    if np.any(M != np.rint(M)):
        raise ValueError("matrix entries must be integers")
    # rows share one (j, weight) tuple per distinct entry: a 0/1 matrix holds d
    # of them, not one per nonzero entry
    pairs = {}
    rows = []
    for row in M:
        js = np.flatnonzero(row)
        rows.append([pairs.setdefault(p, p) for p in zip(js.tolist(), map(int, row[js].tolist()))])
    return integer_vector_powers([1] * len(rows), rows, n_max)


def column_sum_powers(A, r: int) -> list[int]:
    """Column sums of A^r for a 0/1 matrix, as exact Python integers.

    Component k is the number of paths of length r in the support digraph that
    end at node k.
    """
    M = as_zero_one(A)
    if r < 1:
        raise ValueError("r must be >= 1")
    return column_sum_sequence(M, r)[-1]


def spectral_radius_bracket_sequences(A, n_max: int) -> tuple[list[float], list[float]]:
    """Lower/upper bracket sequences for r(A) from column sums of powers.

    Returns (min-column-sum(A^n))^(1/n) and (max-column-sum(A^n))^(1/n) for
    n = 1..n_max.  For irreducible A both sequences converge to r(A) and
    bracket it at every n.  Integer matrices are handled exactly; general
    nonnegative matrices use a log-scaled float recursion.
    """
    M = as_nonnegative(A)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lower, upper = [], []
    if np.all(M == np.rint(M)):
        for n, s in enumerate(column_sum_sequence(M, n_max), start=1):
            smin, smax = min(s), max(s)
            lower.append(math.exp(math.log(smin) / n) if smin > 0 else 0.0)
            upper.append(math.exp(math.log(smax) / n) if smax > 0 else 0.0)
        return lower, upper
    s = np.ones(M.shape[0])
    log_scale = 0.0
    for n in range(1, n_max + 1):
        if float(s.sum()) > 0.0:
            s = s @ M
        total = float(s.sum())
        if total <= 0.0:
            lower.append(0.0)
            upper.append(0.0)
            continue
        log_scale += math.log(total)
        s = s / total
        smin, smax = float(s.min()), float(s.max())
        lower.append(math.exp((log_scale + math.log(smin)) / n) if smin > 0.0 else 0.0)
        upper.append(math.exp((log_scale + math.log(smax)) / n))
    return lower, upper
