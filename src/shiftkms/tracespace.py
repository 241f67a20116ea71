"""Trace-space model for Cuntz-Krieger data.

A trace on the homogeneous subalgebra is a coherent sequence of nonnegative
vectors (t_0, t_1, ...) with A t_{r+1} = t_r and sum(t_0) = 1.  The shift-type
operators act as s'((t_r)) = (A t_0, t_0, t_1, ...) and t'((t_r)) = (t_1, ...);
their normalized versions are power iterations whose fixed points are the
Perron eigen-sequences, and the growth rate of eps_n = 1^T A^n t recovers the
KMS inverse temperature log r(A).  A reducible matrix has one temperature per
distinguished component; temperature_sign gives the extremal two.

The dual growth sequence (the one along t' instead of s') has no general
closed form in this finite model and is not exposed; on eigen-sequences it is
exactly 1/eps_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import (
    ReducibleMatrixError,
    as_count,
    as_nonnegative,
    no_zero_lines,
    normalized_powers,
    perron_vectors,
)

TRACE_TOL = 1e-12  # how far from 1 the sum of a trace vector may be
COHERENCE_TOL = 1e-9
SIGN_TOL = 1e-9  # how far from 1 a growth limit must be to count as positive or negative
_LOG_RANGE = -math.log(np.finfo(float).tiny)  # exp(+-_LOG_RANGE) are normal floats


def as_trace_vector(t) -> np.ndarray:
    """Validate t as a nonnegative vector summing to 1 within TRACE_TOL."""
    v = np.asarray(t, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("trace vector must be a nonempty 1-d array")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("trace vector entries must be finite and nonnegative")
    if abs(float(v.sum()) - 1.0) > TRACE_TOL:
        raise ValueError(f"trace vector must sum to 1 within {TRACE_TOL}, got {v.sum()}")
    return v


@dataclass(frozen=True, eq=False)
class CoherentSequence:
    """Truncated coherent sequence (t_0, ..., t_R) over a fixed matrix.

    residuals[r] = l1 norm of A t_{r+1} - t_r; the truncation is the only
    finite model of the inverse limit, so residuals are kept visible instead
    of being assumed away.
    """

    matrix: np.ndarray
    levels: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    tol: float

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def coherent(self) -> bool:
        """residuals[r] <= tol * max(1, sum t_r): absolute up to mass 1, relative past it (lam < 1)."""
        return all(res <= self.tol * max(1.0, float(t.sum())) for res, t in zip(self.residuals, self.levels))


def coherent_sequence(A, levels) -> CoherentSequence:
    """Assemble and check a coherent sequence: a residual above COHERENCE_TOL is an error."""
    return _coherent(as_nonnegative(A), levels)


def _coherent(M: np.ndarray, levels, tol: float = COHERENCE_TOL, require: bool = True) -> CoherentSequence:
    """coherent_sequence over a validated matrix."""
    levs = tuple(np.asarray(t, dtype=float) for t in levels)
    if len(levs) < 1:
        raise ValueError("need at least one level")
    if any(t.shape != (M.shape[0],) for t in levs):
        raise ValueError("level length must match the matrix dimension")
    stacked = np.stack(levs)
    if not (stacked.min() >= 0.0 and stacked.max() < math.inf):  # a nan minimum fails too
        raise ValueError("levels must be finite and nonnegative")
    residuals = tuple(
        float(np.abs(M @ levs[r + 1] - levs[r]).sum()) for r in range(len(levs) - 1)
    )
    seq = CoherentSequence(matrix=M, levels=levs, residuals=residuals, tol=tol)
    if require and not seq.coherent:
        raise ValueError(f"sequence is not coherent within {tol} times max(1, sum t_r): residuals {residuals}")
    return seq


def s_prime(seq: CoherentSequence) -> CoherentSequence:
    """(t_0, ..., t_R) -> (A t_0, t_0, ..., t_{R-1}); same truncation depth."""
    levels = (seq.matrix @ seq.levels[0],) + seq.levels[:-1]
    return _coherent(seq.matrix, levels, seq.tol, require=False)


def t_prime(seq: CoherentSequence) -> CoherentSequence:
    """(t_0, ..., t_R) -> (t_1, ..., t_R); depth drops by one."""
    if seq.depth == 0:
        raise ValueError("cannot shift a depth-0 sequence")
    return _coherent(seq.matrix, seq.levels[1:], seq.tol, require=False)


def h_iterate(seq: CoherentSequence, n: int) -> CoherentSequence:
    """h^n of (t_r) -> (t_{r+1}) / sum(t_1), in closed form (t_{n+r}) / sum(t_n); refused when some
    sum(t_j), 1 <= j <= n, vanishes.  Fixed points (up to the truncation) are the eigen-sequences."""
    n = as_count(n, "n")
    if seq.depth < n:
        raise ValueError(f"sequence depth {seq.depth} is insufficient for {n} steps")
    stacked = np.stack(seq.levels)
    if n and stacked[1 : n + 1].sum(axis=1).min() <= 0.0:
        raise ValueError("renormalizer sum(t_1) vanished")
    return _coherent(seq.matrix, stacked[n:] / (float(stacked[n].sum()) if n else 1.0), tol=seq.tol, require=False)


def kms_eigen_sequence(A, R: int) -> CoherentSequence:
    """Eigen-sequence t_r = lam^(-r) u with u the Perron right eigenvector
    normalized to sum 1; the coherence residuals inherit the Perron residual
    and stay below 1e-12 * max(1, sum t_r)."""
    return _eigen_sequence(perron_vectors(A), R)


def _eigen_sequence(p, R: int) -> CoherentSequence:
    """t_r = lam^(-r) u for r = 0..R, coherent within 1e-12; a ValueError naming R when R < 0
    or an entry is no normal float (u sums to 1, so no entry exceeds max(1, lam^(-R)))."""
    R = as_count(R, "depth")
    rate = R * math.log(p.lam)
    if max(rate, 0.0) - math.log(float(p.u.min())) > _LOG_RANGE or -rate > _LOG_RANGE:
        raise ValueError(f"lam^(-depth) u leaves the normal float64 range at depth = {R} (lambda = {p.lam:.6g})")
    return _coherent(p.matrix, [p.u * p.lam ** (-r) for r in range(R + 1)], tol=1e-12, require=True)


def coherent_from_boundary(A, boundary, R: int) -> CoherentSequence:
    """Exactly coherent truncation built downward from a deep boundary level:
    t_R proportional to the boundary vector, t_r = A t_{r+1}, everything scaled
    so sum(t_0) = 1; a ValueError when no t_R in float64 range gets there."""
    M = as_nonnegative(A)
    R = as_count(R, "R")
    b = np.asarray(boundary, dtype=float)
    if b.shape != (M.shape[0],) or not (b.min() >= 0.0 and 0.0 < b.max() < math.inf):
        raise ValueError("boundary must be a finite nonnegative vector with positive sum")
    with np.errstate(over="ignore"):  # finite entries whose sum overflows are divided by the largest one first
        b = b / float(b.max()) if float(b.sum()) == math.inf else b
    b = b / float(b.sum())
    logs = [0.0] + normalized_powers(M, b, R)[0]  # log(1^T A^k b) for k = 0..R
    if len(logs) <= R or abs(logs[-1]) > _LOG_RANGE:  # the boundary dies, or t_R is no normal float
        raise ValueError(f"1^T A^R b vanishes or leaves the float64 range at R = {R}")
    # every level is bitwise A @ next; the second pass divides out the rounding of logs[-1]
    top = b / math.exp(logs[-1])
    for _ in range(2):
        levels = [top]
        for _ in range(R):
            levels.append(M @ levels[-1])
        top = top / float(levels[-1].sum())
    levels.reverse()
    return _coherent(M, levels, require=True)


@dataclass(frozen=True, eq=False)
class EpsilonSequence:
    """Growth data of eps_n = 1^T A^n t, kept in log space for stability."""

    log_values: tuple[float, ...]
    rates: tuple[float, ...]


def epsilon_sequence(A, t, n_max: int) -> EpsilonSequence:
    """log eps_n and (1/n) log eps_n for n = 1..n_max via a normalized recursion."""
    return _epsilon_sequence(A, as_trace_vector(t), n_max)


def _epsilon_sequence(A, v: np.ndarray, n_max: int) -> EpsilonSequence:
    """epsilon_sequence of a vector that as_trace_vector returned, which is not checked again as a trace."""
    n_max = as_count(n_max, "n_max", 1)
    log_values = normalized_powers(A, v, n_max)[0]
    if len(log_values) < n_max:
        raise ValueError("eps_n vanished; the matrix has a dead column for this trace")
    rates = tuple(lv / n for n, lv in enumerate(log_values, start=1))
    return EpsilonSequence(log_values=tuple(log_values), rates=rates)


def temperature_from_trace(A, t, n_max: int) -> float:
    """The last rate of epsilon_sequence, (1/n) log eps_n at n = n_max; converges to log r(A)
    for strictly positive traces on irreducible matrices."""
    v = as_trace_vector(t)
    if float(v.min()) <= 0.0:
        raise ValueError("temperature_from_trace requires a strictly positive trace")
    return _epsilon_sequence(A, v, n_max).rates[-1]


@dataclass(frozen=True, eq=False)
class KmsReport:
    """The KMS state of the gauge action for an irreducible nonnegative matrix, 0/1 or a
    lambda-matrix: beta = log lam and the Perron eigen-sequence.  uniqueness_flag is period == 1
    (A aperiodic), no count of states: A has one positive eigenvector at any period."""

    lam: float
    beta: float
    eigen_sequence: CoherentSequence
    uniqueness_flag: bool

    @property
    def v0(self) -> np.ndarray:
        """t_0 = u.  Kept only because perfbench's matrix-thermo checks read it."""
        return self.eigen_sequence.levels[0]


def kms_temperature(A, depth: int = 10) -> KmsReport:
    """KMS inverse temperature log r(A) of the gauge action for an irreducible nonnegative matrix.

    A, 0/1 or a lambda-matrix, has one state, with the Perron eigen-sequence.  It reads the one
    memoized Perron analysis of A, the one topological_entropy reads too, so beta equals its exact
    entropy.  Reducible A raises ValueError under the Cuntz-Krieger rule (no_zero_lines, which no
    irreducible matrix breaks) and ReducibleMatrixError otherwise: its extremal temperatures are
    temperature_sign's.
    """
    try:
        p = perron_vectors(A)  # its memo validates A
    except ReducibleMatrixError:
        no_zero_lines(as_nonnegative(A))
        raise ReducibleMatrixError(
            "matrix is reducible: it has no single KMS temperature; temperature_sign gives the "
            "extremal ones, which the CLI's kms reports"
        ) from None
    return KmsReport(
        lam=p.lam,
        beta=math.log(p.lam),
        eigen_sequence=_eigen_sequence(p, depth),
        uniqueness_flag=p.period == 1,
    )


bimodule_kms = kms_temperature  # kept only because perfbench's matrix-thermo chain calls this name


@dataclass(frozen=True, eq=False)
class TemperatureSign:
    """Sign classification of admissible KMS temperatures.

    lower/upper are the limits of (min/max column sum of A^n)^(1/n), obtained
    from per-component spectral radii taken over the nodes that reach each
    column.  The distinct values of column_growth are the radii of the
    distinguished components (radius above that of every component with a
    path into it), exactly the lam with a nonnegative A u = lam u (Schneider
    1986), so log lower and log upper are the extremal KMS inverse
    temperatures.
    """

    classification: str
    lower: float
    upper: float
    column_growth: tuple[float, ...]


def temperature_sign(A) -> TemperatureSign:
    """Classify the temperatures a matrix admits: positive, negative, tracial
    or mixed.

    The column growth of column k, lim (column sum k of A^n)^(1/n), is the
    largest component radius among the nodes that reach k (k included),
    carried along the edges until it stops growing; the radii come from the
    memoized component analysis, and no power of A is formed.  Classification
    compares the extreme growths against 1 within SIGN_TOL.
    """
    M = no_zero_lines(as_nonnegative(A))
    growth = np.zeros(M.shape[0])
    for c in spectral.component_perron_data(M):
        growth[list(c.indices)] = c.radius
    edges = M > 0
    while True:
        nxt = np.maximum(growth, np.where(edges, growth[:, None], 0.0).max(axis=0))
        if np.array_equal(nxt, growth):
            break
        growth = nxt
    lower, upper = float(growth.min()), float(growth.max())
    if lower > 1.0 + SIGN_TOL:
        cls = "positive"
    elif upper < 1.0 - SIGN_TOL:
        cls = "negative"
    elif abs(lower - 1.0) <= SIGN_TOL and abs(upper - 1.0) <= SIGN_TOL:
        cls = "tracial"
    else:
        cls = "mixed"
    return TemperatureSign(
        classification=cls, lower=lower, upper=upper, column_growth=tuple(float(g) for g in growth)
    )


def normalization_profile(seq: CoherentSequence) -> list[float]:
    """sum_k t_r(k) d_{r,k} = 1^T A^r t_r for r = 0..R over any nonnegative
    matrix, as exp(log(1^T A^r 1) + log(s_r . t_r)) with s_r the column-sum
    shares of A^r; constant (= sum t_0) on a coherent normalized sequence."""
    profile = [float(seq.levels[0].sum())] + [0.0] * seq.depth
    logs, shares = normalized_powers(seq.matrix.T, np.ones_like(seq.levels[0]), seq.depth)
    for r, (log_r, s) in enumerate(zip(logs, shares), start=1):
        dot = float(s @ seq.levels[r])
        profile[r] = math.exp(log_r + math.log(dot)) if dot > 0.0 else 0.0
    return profile
