"""Maximal-entropy Markov measures, the resolvent route from a KMS state to an
invariant one, measure entropy, and the variational check.

For an irreducible 0/1 matrix with Perron data (lam, u, v), the stochasticized
chain p_ij = a_ij u_j / (lam u_i) with stationary vector pi_i = u_i v_i is the
unique maximal-entropy measure of the shift; its cylinder weights also have
the closed eigenvector form v_{w_1} u_{w_r} prod(a) / lam^(r-1), and both
forms are implemented so they can be checked against each other.

The variational check draws sample i from its own stream, SeedSequence([seed,
i]) -> PCG64 -> standard_exponential, so the draws do not depend on how the
samples are grouped; all PCG64 states are derived in one vectorized pass (the
per-sample construction is the test oracle).  The scan then runs in blocks of
about _BLOCK_ENTRIES float64 entries: each block draws its samples, solves for
their stationary vectors in one stacked linear solve and takes logarithms only
on the support, so memory does not grow with the number of samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import PERRON_TOL, PerronData, as_zero_one, matrix_of, perron_vectors
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
    or stationarity beyond 1e-12.  A may be a matrix or its Perron data.
    """
    M = as_zero_one(matrix_of(A))
    p = perron_vectors(A, tol=min(tol, PERRON_TOL))
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


def variational_scan(A, n_samples: int, seed: int = 0, slack: float = 1e-9) -> VariationalReport:
    """Sample row-stochastic matrices supported exactly on A and compare their
    stationary entropies with log r(A).

    Every sampled entropy must stay below log r(A) + slack (a violation raises
    InvariantViolation); the Parry measure is appended to the ensemble so the
    reported maximum attains the top value.  A may be a matrix or its Perron
    data; the one Perron solve is handed on to parry_measure.  Samples are
    scanned in blocks of max(1, _BLOCK_ENTRIES // d^2); a sample's entropy
    does not depend on its block.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    M = as_zero_one(matrix_of(A))
    d = M.shape[0]
    parry = parry_measure(perron_vectors(A, tol=PERRON_TOL))
    top = math.log(parry.lam)
    mask = M > 0
    states = _stream_states(seed, n_samples)
    rng = np.random.default_rng(0)
    entropies = np.empty(n_samples)
    size = max(1, _BLOCK_ENTRIES // (d * d))
    for start in range(0, n_samples, size):
        entropies[start : start + size] = _block_entropies(rng, states[start : start + size], mask)
    violations = int(np.sum(entropies > top + slack))
    if violations:
        raise InvariantViolation(
            f"{violations} sampled measures exceeded log r(A) + {slack}"
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


def _block_entropies(rng, states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Stationary entropies of the chains drawn from states and supported on
    mask; the block's arrays are freed on return."""
    Ps = _draw_exponentials(rng, states, mask.shape[0])
    Ps *= mask
    Ps /= Ps.sum(axis=2, keepdims=True)
    pis = _stationary_batch(Ps)
    plogp = Ps + ~mask  # 1 off the support, where the log is 0
    np.log(plogp, out=plogp)
    plogp *= Ps
    return -np.einsum("nd,nd->n", pis, plogp.sum(axis=2))


_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _stream_states(seed: int, n: int) -> np.ndarray:
    """(n, 4) uint64: row i is SeedSequence([seed, i]).generate_state(4, uint64),
    the words PCG64 seeds itself from.  SeedSequence's pool mixing runs on
    uint32 arrays, one lane per i, where products wrap."""
    words = [int(seed) >> k & 0xFFFFFFFF for k in range(0, max(int(seed).bit_length(), 1), 32)]
    entropy = [np.full(n, w, np.uint32) for w in words] + [np.arange(n, dtype=np.uint32)]
    hash_const = 0x43B0D7E5

    def hashmix(x, mult=0x931E8875):
        nonlocal hash_const
        x = x ^ np.uint32(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        x = x * np.uint32(hash_const)
        return x ^ x >> np.uint32(16)

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ r >> np.uint32(16)

    pool = [hashmix(x) for x in (entropy + [np.zeros(n, np.uint32)] * 3)[:4]]  # zero-padded pool
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for x, dst in itertools.product(entropy[4:], range(4)):  # entropy past the pool size
        pool[dst] = mix(pool[dst], hashmix(x))
    hash_const = 0x8B51F9DD
    out = np.stack([hashmix(pool[i % 4], mult=0x58F38DED) for i in range(8)], axis=1)
    return out.astype("<u4").view("<u8")


def _draw_exponentials(rng, states: np.ndarray, d: int) -> np.ndarray:
    """Ps[k] = standard_exponential((d, d)) of the PCG64 seeded from row k of
    _stream_states.  PCG64's seeding (two 128-bit LCG steps) runs on Python
    ints, and the generator rng loads each state in turn."""
    Ps = np.empty((len(states), d, d))
    for P, (s_hi, s_lo, i_hi, i_lo) in zip(Ps, states.tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, "inc": inc}
        rng.bit_generator.state = dict(bit_generator="PCG64", state=state, has_uint32=0, uinteger=0)
        rng.standard_exponential(out=P)
    return Ps


def _exponential_draws(seed: int, n: int, d: int) -> np.ndarray:
    """Ps[i] = standard_exponential((d, d)) of PCG64(SeedSequence([seed, i])),
    i < n: the draws of every block of the scan, joined."""
    return _draw_exponentials(np.random.default_rng(0), _stream_states(seed, n), d)


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
