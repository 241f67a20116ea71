"""Maximal-entropy Markov measures, the resolvent route from a KMS state to an
invariant one, measure entropy, and the variational check.

For an irreducible 0/1 matrix with Perron data (lam, u, v), the stochasticized
chain p_ij = a_ij u_j / (lam u_i) with stationary vector pi_i = u_i v_i is the
unique maximal-entropy measure of the shift; its cylinder weights also have
the closed eigenvector form v_{w_1} u_{w_r} prod(a) / lam^(r-1), and both
forms are implemented so they can be checked against each other.

The variational check draws all its samples from one stream,
default_rng(seed).standard_exponential, sample i taking variates i d^2 ..
(i + 1) d^2 - 1, so the draws do not depend on how the samples are grouped
and a k-sample scan is the prefix of any longer one.  The scan runs in blocks
of about _BLOCK_ENTRIES float64 entries: each block draws its samples, solves
for their stationary vectors in one stacked linear solve and takes logarithms
only on the support, so memory does not grow with the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import PERRON_TOL, PerronData, as_zero_one, perron_vectors
from .subshift import validate_word


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed identity failed numerically."""


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Stationary Markov measure supported on the transitions of a 0/1 matrix."""

    matrix: np.ndarray
    lam: float
    u: np.ndarray
    v: np.ndarray
    transitions: np.ndarray
    stationary: np.ndarray

    @property
    def entropy(self) -> float:
        return markov_entropy(self)


def parry_measure(A, tol: float = 1e-12) -> MarkovMeasure:
    """The maximal-entropy Markov measure of an irreducible 0/1 matrix.

    Raises InvariantViolation if the constructed chain misses row-stochasticity
    or stationarity beyond 1e-12.
    """
    M = as_zero_one(A)
    p = perron_vectors(M, tol=min(tol, PERRON_TOL))
    P = M * p.u[None, :] / (p.lam * p.u[:, None])
    # float hygiene: divide out the row sums (a relative correction at the
    # Perron-residual scale) so row-stochasticity is exact
    P = P / P.sum(axis=1, keepdims=True)
    pi = p.u * p.v
    _check_markov(M, P, pi)
    return MarkovMeasure(matrix=M, lam=p.lam, u=p.u, v=p.v, transitions=P, stationary=pi)


def _check_markov(M, P, pi, tol: float = 1e-12) -> None:
    row_err = float(np.abs(P.sum(axis=1) - 1.0).max())
    stat_err = float(np.abs(pi @ P - pi).sum())
    norm_err = abs(float(pi.sum()) - 1.0)
    support_ok = bool(np.all((P > 0) == (M > 0)))
    if row_err > tol or stat_err > tol or norm_err > tol or not support_ok:
        raise InvariantViolation(
            f"Markov measure invariants failed: rows {row_err:.2e}, "
            f"stationarity {stat_err:.2e}, normalization {norm_err:.2e}, "
            f"support match {support_ok}"
        )


def cylinder(m: MarkovMeasure, word) -> float:
    """Measure of the cylinder set of a nonempty word: pi_{w_1} prod p; zero
    exactly on inadmissible words."""
    w = _validate_cylinder_word(m, word)
    value = float(m.stationary[w[0] - 1])
    for a, b in zip(w, w[1:]):
        value *= float(m.transitions[a - 1, b - 1])
        if value == 0.0:
            return 0.0
    return value


def cylinder_eigen(m: MarkovMeasure, word) -> float:
    """The same cylinder weight in the eigenvector form
    v_{w_1} u_{w_r} prod(a) / lam^(r-1)."""
    w = _validate_cylinder_word(m, word)
    for a, b in zip(w, w[1:]):
        if not m.matrix[a - 1, b - 1]:
            return 0.0
    r = len(w)
    return float(m.v[w[0] - 1] * m.u[w[-1] - 1] / m.lam ** (r - 1))


def _validate_cylinder_word(m: MarkovMeasure, word):
    w = validate_word(word, m.matrix.shape[0])
    if not w:
        raise ValueError("cylinder words must be nonempty")
    return w


def markov_entropy(m: MarkovMeasure) -> float:
    """Entropy rate -sum_i pi_i sum_j p_ij log p_ij in nats (0 log 0 = 0)."""
    P = m.transitions
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    return float(-(m.stationary @ plogp.sum(axis=1))) + 0.0


@dataclass(frozen=True, eq=False)
class ResolventVector:
    """a_t = (t - lam)(t I - A^T)^(-1) 1 with its pairing against u."""

    t: float
    a: np.ndarray
    pairing: float


def resolvent_vector(A, perron: PerronData, t: float) -> ResolventVector:
    """Resolvent vector at t > lam; u^T a_t = 1 identically, and a_t aligns
    with the left Perron direction as t decreases to lam."""
    M = np.asarray(A, dtype=float)
    if t <= perron.lam:
        raise ValueError(f"t must exceed the spectral radius {perron.lam}, got {t}")
    d = M.shape[0]
    try:
        x = np.linalg.solve(t * np.eye(d) - M.T, np.ones(d))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"resolvent solve failed at t = {t}: {exc}") from None
    a = (t - perron.lam) * x
    return ResolventVector(t=t, a=a, pairing=float(perron.u @ a))


@dataclass(frozen=True, eq=False)
class VariationalReport:
    """Entropies of sampled compatible Markov measures against log r(A)."""

    top_entropy: float
    parry_entropy: float
    max_entropy: float
    max_sampled: float
    gap: float
    violations: int
    n_samples: int
    seed: int
    entropies: np.ndarray


# float64 entries of one block of (samples, d, d) arrays in the variational
# scan, 512 KB, so the two or three arrays a block holds at once fit a 2 MB
# L2 cache: at d = 64 blocks of 2^16 entries ran faster than blocks of 2^18
_BLOCK_ENTRIES = 2**16
VARIATIONAL_SLACK = 1e-9  # rounding allowance of a sampled entropy over log r(A)


def variational_scan(A, n_samples: int, seed: int = 0) -> VariationalReport:
    """Sample row-stochastic matrices supported exactly on A and compare their
    stationary entropies with log r(A).

    Every sampled entropy must stay below log r(A) + VARIATIONAL_SLACK (a
    violation raises InvariantViolation); the Parry measure is appended to the
    ensemble so the reported maximum attains the top value.  Sample i is draws
    i d^2 .. (i + 1) d^2 - 1 of default_rng(seed).standard_exponential, so the
    first k entropies equal those of a k-sample scan.  Samples are scanned in
    blocks of max(1, _BLOCK_ENTRIES // d^2); consecutive draws continue the one
    stream, so a sample's entropy does not depend on its block.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    M = as_zero_one(A)
    d = M.shape[0]
    parry = parry_measure(M, tol=PERRON_TOL)
    top = math.log(parry.lam)
    mask = M > 0
    rng = np.random.default_rng(seed)
    entropies = np.empty(n_samples)
    size = max(1, _BLOCK_ENTRIES // (d * d))
    for start in range(0, n_samples, size):
        k = min(size, n_samples - start)
        entropies[start : start + k] = _block_entropies(rng.standard_exponential((k, d, d)), mask)
    violations = int(np.sum(entropies > top + VARIATIONAL_SLACK))
    if violations:
        raise InvariantViolation(
            f"{violations} sampled measures exceeded log r(A) + {VARIATIONAL_SLACK}"
        )
    max_sampled = float(entropies.max())
    parry_entropy = parry.entropy
    max_entropy = max(max_sampled, parry_entropy)
    return VariationalReport(
        top_entropy=top,
        parry_entropy=parry_entropy,
        max_entropy=max_entropy,
        max_sampled=max_sampled,
        gap=top - max_entropy,
        violations=violations,
        n_samples=n_samples,
        seed=seed,
        entropies=entropies,
    )


def _block_entropies(Ps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Stationary entropies of the chains made from the (k, d, d) draws Ps,
    which are overwritten, masked to the support and row-normalized; the
    block's arrays are freed on return."""
    Ps *= mask
    Ps /= Ps.sum(axis=2, keepdims=True)
    pis = _stationary_batch(Ps)
    plogp = Ps + ~mask  # 1 off the support, where the log is 0
    np.log(plogp, out=plogp)
    plogp *= Ps
    return -np.einsum("nd,nd->n", pis, plogp.sum(axis=2))


def _stationary_batch(Ps: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Stationary rows of a batch of stochastic matrices by one stacked solve.

    Each system is (P^T - I) pi = 0 with its last row replaced by sum(pi) = 1.
    For an irreducible chain, periodic or not, it is nonsingular: the rows of
    P^T - I sum to zero and span the orthogonal complement of pi, so any d - 1
    of them do, and 1 . pi != 0.  A singular system (a reducible chain) or a
    stationarity residual max |pi P - pi|_1 above tol raises InvariantViolation.
    """
    n, d, _ = Ps.shape
    systems = Ps.transpose(0, 2, 1) - np.eye(d)
    systems[:, -1, :] = 1.0
    rhs = np.zeros((n, d, 1))
    rhs[:, -1] = 1.0
    try:
        pis = np.linalg.solve(systems, rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise InvariantViolation(
            f"stationary solve failed, a sampled chain is reducible: {exc}"
        ) from None
    residual = float(np.abs((pis[:, None, :] @ Ps)[:, 0, :] - pis).sum(axis=1).max())
    if not residual <= tol:
        raise InvariantViolation(f"stationary residual {residual:.2e} exceeds {tol:.0e}")
    return pis
