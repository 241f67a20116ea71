"""Maximal-entropy Markov measures, the resolvent route from a KMS state to an
invariant one, measure entropy, and the variational check.

For an irreducible 0/1 matrix with Perron data (lam, u, v), the stochasticized
chain p_ij = a_ij u_j / (lam u_i) with stationary vector pi_i = u_i v_i is the
unique maximal-entropy measure of the shift; `cylinder` reads its weights
as pi_{w_1} prod p, which equals the closed eigenvector form
v_{w_1} u_{w_r} prod(a) / lam^(r-1) that the tests check it against.

The variational check proves h(P) <= log lam for each sampled chain P on the
support through Parry's identity log lam - h(P) = sum_i pi_i KL(P_i || Q_i),
Q the Parry chain and pi stationary for P (Parry, Trans. AMS 112, 1964): every
sample carries its divergence and the identity's residual is checked, so a
few dozen samples illustrate what each one proves.  The samples come from one
stream, default_rng(seed).standard_exponential, sample i taking variates
i d^2 .. (i + 1) d^2 - 1, so the draws do not depend on how the samples are
grouped and a k-sample scan is the prefix of any longer one.  The scan runs in
blocks of _BLOCK_ENTRIES float64 entries in one draw and one work buffer per
scan: each block draws its samples, solves for their stationary vectors in one
stacked linear solve and takes logarithms in place, so memory does not grow
with the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import PerronData, as_count, as_zero_one, perron_vectors
from .subshift import validate_word


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed identity failed numerically."""


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Stationary Markov measure on the transitions of a 0/1 matrix, from its Perron solve."""

    perron: PerronData
    transitions: np.ndarray
    stationary: np.ndarray

    @property
    def entropy(self) -> float:
        """Entropy rate -sum_i pi_i sum_j p_ij log p_ij in nats (0 log 0 = 0)."""
        P = self.transitions
        plogp = P * np.log(P + (P == 0))  # 1 off the support, where the log is 0
        return float(-(self.stationary @ plogp.sum(axis=1))) + 0.0


def parry_measure(A) -> MarkovMeasure:
    """The maximal-entropy Markov measure of an irreducible 0/1 matrix, built once per
    Perron solve, with read-only arrays.  Raises InvariantViolation if the constructed
    chain misses row-stochasticity or stationarity beyond MARKOV_TOL."""
    return _parry(perron_vectors(as_zero_one(A)))


@lru_cache(maxsize=16)  # not held on the solve: a reference cycle would outlive a memo clear
def _parry(p: PerronData) -> MarkovMeasure:
    P = p.matrix * p.u[None, :] / (p.lam * p.u[:, None])
    # float hygiene: divide out the row sums (a relative correction at the
    # Perron-residual scale) so row-stochasticity is exact
    P = P / P.sum(axis=1, keepdims=True)
    pi = p.u * p.v
    _check_markov(p.matrix, P, pi)
    P.flags.writeable = pi.flags.writeable = False
    return MarkovMeasure(perron=p, transitions=P, stationary=pi)


def _check_markov(M, P, pi) -> None:
    row_err = float(np.abs(P.sum(axis=1) - 1.0).max())
    stat_err = float(np.abs(pi @ P - pi).sum())
    norm_err = abs(float(pi.sum()) - 1.0)
    support_ok = bool(np.all((P > 0) == (M > 0)))
    if row_err > MARKOV_TOL or stat_err > MARKOV_TOL or norm_err > MARKOV_TOL or not support_ok:
        raise InvariantViolation(
            f"Markov measure invariants failed: rows {row_err:.2e}, "
            f"stationarity {stat_err:.2e}, normalization {norm_err:.2e}, "
            f"support match {support_ok}"
        )


def cylinder(m: MarkovMeasure, word) -> float:
    """Measure of the cylinder set of a nonempty word: pi_{w_1} prod p; zero
    exactly on inadmissible words."""
    w = validate_word(word, m.perron.matrix.shape[0])
    if not w:
        raise ValueError("cylinder words must be nonempty")
    value = float(m.stationary[w[0] - 1])
    for a, b in zip(w, w[1:]):
        value *= float(m.transitions[a - 1, b - 1])
        if value == 0.0:
            return 0.0
    return value


@dataclass(frozen=True, eq=False)
class ResolventVector:
    """a_t = (t - lam)(t I - A^T)^(-1) 1 with its pairing against u."""

    t: float
    a: np.ndarray
    pairing: float


def resolvent_vector(perron: PerronData, t: float) -> ResolventVector:
    """Resolvent vector of perron.matrix at a finite t > lam; u^T a_t = 1 identically,
    and a_t aligns with the left Perron direction as t decreases to lam."""
    if not perron.lam < t < math.inf:  # also false for nan
        raise ValueError(f"t must be finite and exceed the spectral radius {perron.lam}, got {t}")
    d = perron.matrix.shape[0]
    try:
        x = np.linalg.solve(t * np.eye(d) - perron.matrix.T, np.ones(d))
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
    identity_residual: float
    entropies: np.ndarray
    divergences: np.ndarray


# float64 entries of the variational scan's draw and work buffers, 256 KB
# each.  Timed with the buffers reused on a 2-vCPU VM (4 MB L2), 2^15 ran
# 7-11 % faster than 2^16 at d = 8 and as fast from d = 16 to 256; neither
# 2^14 nor 2^17 was faster beyond the host's noise
_BLOCK_ENTRIES = 2**15
VARIATIONAL_SLACK = 1e-9  # rounding allowance of a sampled entropy over log r(A)
MARKOV_TOL = 1e-12  # row-stochasticity, stationarity and normalization error of a Parry measure
STATIONARY_TOL = 1e-13  # stationarity residual of a sampled chain's solved pi
# |log r(A) - h - sum pi KL| past the Perron bracket's log(hi / lo): STATIONARY_TOL times
# half the log-spread of a positive float64 u (745) is 3.7e-11; 0/1 matrices reach 7.9e-14
IDENTITY_TOL = 1e-10


def variational_scan(A, n_samples: int, seed: int = 0) -> VariationalReport:
    """Sample row-stochastic matrices P supported exactly on A and certify
    h(P) <= log r(A) for each by the identity log r(A) - h(P) = sum pi KL(P || Q).

    A sampled entropy above log r(A) + VARIATIONAL_SLACK is a violation, and an
    identity residual above IDENTITY_TOL + log(hi / lo) of the Perron bracket a
    failed proof; either raises InvariantViolation.  The residual is
    (pi P - pi) . log u - pi . log s, s the Parry row sums before normalizing:
    IDENTITY_TOL covers the first term and rounding, and each s_i lies in
    [lo / lam, hi / lam].  The Parry measure is appended to the ensemble so the
    reported maximum attains the top value.  The first k entropies are those of
    a k-sample scan, and a sample's entropy does not depend on its block of
    max(1, _BLOCK_ENTRIES // d^2) samples.
    """
    n_samples = as_count(n_samples, "n_samples", 1)
    seed = as_count(seed, "seed")
    parry = parry_measure(A)
    perron = parry.perron
    d = perron.matrix.shape[0]
    top = math.log(perron.lam)
    parry_entropy = parry.entropy  # before the scan's buffers exist: it allocates d x d arrays too
    mask = perron.matrix > 0
    log_q = np.log(parry.transitions + ~mask)  # 0 off the support, where P is 0
    rng = np.random.default_rng(seed)
    entropies, divergences = scan = np.empty((2, n_samples))
    size = min(n_samples, max(1, _BLOCK_ENTRIES // (d * d)))
    draws, work = np.empty((size, d, d)), np.empty((size, d, d))
    for start in range(0, n_samples, size):
        k = min(size, n_samples - start)
        rng.standard_exponential(out=draws[:k])
        scan[:, start : start + k] = _block_entropies(draws[:k], work[:k], mask, log_q)
    violations = int(np.sum(entropies > top + VARIATIONAL_SLACK))
    if violations:
        raise InvariantViolation(
            f"{violations} sampled measures exceeded log r(A) + {VARIATIONAL_SLACK}"
        )
    # the Parry entry's divergence from itself is 0
    residual = max(float(np.abs(top - entropies - divergences).max()), abs(top - parry_entropy))
    tol = IDENTITY_TOL + math.log(perron.hi / perron.lo)
    if not residual <= tol:
        raise InvariantViolation(
            f"identity log r(A) - h(P) = sum_i pi_i KL(P_i || Q_i) missed by {residual:.2e}, past {tol:.2e}"
        )
    max_sampled = float(entropies.max())
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
        identity_residual=residual,
        entropies=entropies,
        divergences=divergences,
    )


def _block_entropies(Ps: np.ndarray, work: np.ndarray, mask: np.ndarray, log_q: np.ndarray):
    """Stationary entropies h of the chains made from the (k, d, d) draws Ps,
    which are masked to the support and row-normalized in place, and their
    divergences sum_i pi_i KL(P_i || Q_i) from the chain with log Q = log_q;
    the system solve and then the log terms overwrite the (k, d, d) buffer work."""
    Ps *= mask
    Ps /= Ps.sum(axis=2, keepdims=True)
    pis = _stationary_batch(Ps, work)
    np.add(Ps, ~mask, out=work)  # 1 off the support, where the log is 0
    np.log(work, out=work)
    work *= Ps
    h = -np.einsum("nd,nd->n", pis, work.sum(axis=2)) + 0.0  # no -0.0 on a zero-entropy chain
    return h, -np.einsum("nd,nd->n", pis, np.einsum("nij,ij->ni", Ps, log_q)) - h


def _stationary_batch(Ps: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Stationary rows of a batch of stochastic matrices by one stacked solve.

    Each system is (P^T - I) pi = 0 with its last row replaced by sum(pi) = 1,
    built transposed in the buffer work.  For an irreducible chain, periodic
    or not, it is nonsingular: the rows of P^T - I sum to zero and span the
    orthogonal complement of pi, so any d - 1 of them do, and 1 . pi != 0.  A
    singular system (a reducible chain) or a residual max |pi P - pi|_1 above
    STATIONARY_TOL raises InvariantViolation.
    """
    n, d, _ = Ps.shape
    np.copyto(work, Ps)
    work[:, range(d), range(d)] -= 1.0
    work[:, :, -1] = 1.0
    rhs = np.zeros((n, d, 1))
    rhs[:, -1] = 1.0
    try:
        pis = np.linalg.solve(work.transpose(0, 2, 1), rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise InvariantViolation(
            f"stationary solve failed, a sampled chain is reducible: {exc}"
        ) from None
    residual = float(np.abs((pis[:, None, :] @ Ps)[:, 0, :] - pis).sum(axis=1).max())
    if not residual <= STATIONARY_TOL:
        raise InvariantViolation(f"stationary residual {residual:.2e} exceeds {STATIONARY_TOL:.0e}")
    return pis
