"""Reference checks of every public result a benchmark op returns.

The references are computed independently of the package: eigenvalues from
LAPACK, word counts from exact integer matrix powers or brute-force
enumeration, primitivity from boolean matrix powers, and the Renyi bounds of
beta-shift word counts in exact rational arithmetic.  Each check returns a
list of problems; an empty list means the result passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

LAMBDA_RTOL = 1e-9  # Perron root against max |eigvals|
MARKOV_TOL = 1e-12  # row-stochasticity and stationarity of the Parry chain
SEQUENCE_TOL = 1e-9  # normalization profile, eigen-vector residuals, trace rate
BRUTE_FORCE_N = 8  # word lengths counted by enumeration for forbidden-word shifts


def _bool_matmul(A, B):
    # float products of 0/1 matrices are exact path counts far below 2^53
    return (A.astype(float) @ B.astype(float)) > 0


def irreducible(M) -> bool:
    """Support digraph strongly connected: (I + A)^(d-1) has no zero entry."""
    A = np.asarray(M) > 0
    d = A.shape[0]
    if d == 1:
        return bool(A[0, 0])
    R = A | np.eye(d, dtype=bool)
    steps = 1
    while steps < d - 1:
        R = _bool_matmul(R, R)
        steps *= 2
    return bool(R.all())


def primitive(M) -> bool:
    """Wielandt: an irreducible A is primitive iff A^((d-1)^2 + 1) > 0."""
    A = np.asarray(M) > 0
    e = (A.shape[0] - 1) ** 2 + 1
    result, base = None, A
    while e:
        if e & 1:
            result = base if result is None else _bool_matmul(result, base)
        e >>= 1
        if e:
            base = _bool_matmul(base, base)
    return bool(result.all())


def spectral_radius(M) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float))).max())


def path_counts(M, n_max: int) -> list[int]:
    """theta_n = 1^T M^(n-1) 1 for n = 1..n_max, in exact integers."""
    rows = [[int(x) for x in row] for row in np.asarray(M)]
    d = len(rows)
    v = [1] * d
    out = [d]
    for _ in range(n_max - 1):
        v = [sum(rows[i][k] * v[k] for k in range(d) if rows[i][k]) for i in range(d)]
        out.append(sum(v))
    return out


def forbidden_counts(alphabet: int, words, n_max: int) -> list[int]:
    """Number of length-n words of the one-sided shift avoiding ``words``, by enumeration.

    A word belongs to the language when it has no forbidden factor and
    extends to an infinite sequence without one; extendability is decided on
    the blocks of length m - 1 (m the longest forbidden word) from which an
    infinite forbidden-free path starts.
    """
    banned = [tuple(w) for w in words]
    k = max(len(b) for b in banned) - 1
    symbols = range(1, alphabet + 1)

    def free(w):
        return not any(w[i:i + len(b)] == b for b in banned for i in range(len(w) - len(b) + 1))

    live = {s for s in itertools.product(symbols, repeat=k) if free(s)}
    while True:
        keep = {s for s in live if any(free(s + (c,)) and (s + (c,))[1:] in live for c in symbols)}
        if keep == live:
            break
        live = keep

    def extendable(w):
        if len(w) >= k:
            return w[len(w) - k:] in live
        return any(free(w + e) and w + e in live for e in itertools.product(symbols, repeat=k - len(w)))

    return [
        sum(1 for w in itertools.product(symbols, repeat=n) if free(w) and extendable(w))
        for n in range(1, n_max + 1)
    ]


def _close(value, ref, rtol) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _markov_problems(M, P, pi) -> list[str]:
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    problems = []
    row_err = float(np.abs(P.sum(axis=1) - 1.0).max())
    stat_err = float(np.abs(pi @ P - pi).sum())
    if row_err > MARKOV_TOL:
        problems.append(f"parry rows sum to 1 only within {row_err:.2e}")
    if stat_err > MARKOV_TOL:
        problems.append(f"parry stationarity error {stat_err:.2e}")
    if abs(float(pi.sum()) - 1.0) > MARKOV_TOL:
        problems.append("parry stationary vector does not sum to 1")
    if not np.array_equal(P > 0, np.asarray(M) > 0):
        problems.append("parry transitions are not supported exactly on the matrix")
    return problems


def _matrix_report_problems(M, results) -> list[str]:
    problems = []
    kms, ent = results["kms"], results["entropy"]
    ref = spectral_radius(M)
    if not (isinstance(ent["exact"], float) and kms["beta"] == ent["exact"]):
        problems.append(f"kms.beta {kms['beta']!r} differs from entropy.exact {ent['exact']!r}")
    if not _close(kms["lambda"], ref, LAMBDA_RTOL):
        problems.append(f"kms.lambda {kms['lambda']!r} vs max|eigvals| {ref!r}")
    if kms["uniqueness"] != primitive(M):
        problems.append("kms.uniqueness disagrees with primitivity")
    if list(ent["theta"]) != path_counts(M, len(ent["theta"])):
        problems.append("entropy.theta differs from 1^T M^(n-1) 1")
    parry = results["parry"]
    problems += _markov_problems(M, parry["transitions"], parry["stationary"])
    if results["variational"]["violations"] != 0:
        problems.append("variational scan reports violations")
    return problems


def _bracket_problems(results) -> list[str]:
    br = results["bracket"]
    return [] if br["lower"] <= br["upper"] else [f"bracket lower {br['lower']} > upper {br['upper']}"]


def renyi_problems(beta, theta) -> list[str]:
    """beta^n <= theta_n <= beta^(n+1) / (beta - 1) for every n (exact rationals)."""
    b = Fraction(beta)
    upper_factor = b / (b - 1)
    power = Fraction(1)
    for n, t in enumerate(theta, start=1):
        power *= b
        if not (power <= t <= power * upper_factor):
            return [f"theta_{n} = {t} outside the Renyi bounds of base {beta}"]
    return []


def check_cli_report(doc, report, terminated=None) -> list[str]:
    """Problems with one ``shiftkms all`` report on the spec document ``doc``.

    For a beta document, ``terminated`` is the package's own
    ``BetaShift(...).expansion().terminated``: a closed bracket is allowed only
    when it is true.
    """
    results = report["results"]
    kind = doc["type"]
    if kind == "sft":
        return _matrix_report_problems(np.array(doc["matrix"]), results) + _bracket_problems(results)
    if kind == "full":
        M = np.ones((doc["alphabet"], doc["alphabet"]), dtype=np.int64)
        return _matrix_report_problems(M, results) + _bracket_problems(results)
    if kind == "forbidden":
        theta = results["entropy"]["theta"]
        n = min(BRUTE_FORCE_N, len(theta))
        problems = _bracket_problems(results)
        if list(theta[:n]) != forbidden_counts(doc["alphabet"], doc["words"], n):
            problems.append("entropy.theta differs from brute-force enumeration")
        return problems
    if kind == "nonnegative":
        kms = results["kms"]
        ref = spectral_radius(doc["matrix"])
        problems = []
        if not _close(kms["lambda"], ref, LAMBDA_RTOL):
            problems.append(f"bimodule lambda {kms['lambda']!r} vs max|eigvals| {ref!r}")
        if kms["beta"] != math.log(kms["lambda"]):
            problems.append("bimodule beta is not log(lambda)")
        return problems
    if kind == "beta":
        problems = renyi_problems(doc["beta"], results["entropy"]["theta"]) + _bracket_problems(results)
        if results["bracket"]["width"] == 0.0 and not terminated:
            problems.append("closed bracket on an expansion that did not terminate")
        return problems
    return [f"unknown document type {kind!r}"]


def check_chain(op, out) -> list[str]:
    """Problems with the results of one matrix-thermo chain (see workloads.run_chain)."""
    M = op.matrix
    ref = spectral_radius(M)
    problems = []
    kms = out["kms"]
    if not _close(kms.lam, ref, LAMBDA_RTOL):
        problems.append(f"kms lambda {kms.lam!r} vs max|eigvals| {ref!r}")
    if kms.beta != math.log(kms.lam):
        problems.append("kms beta is not log(lambda)")
    if kms.uniqueness_flag != primitive(M):
        problems.append("kms uniqueness flag disagrees with primitivity")
    parry = out["parry"]
    problems += _markov_problems(M, parry.transitions, parry.stationary)
    if abs(parry.entropy - math.log(ref)) > SEQUENCE_TOL:
        problems.append(f"parry entropy {parry.entropy!r} vs log r(A) {math.log(ref)!r}")
    sign = out["sign"]
    if sign.classification != "positive" or not (
        _close(sign.lower, ref, LAMBDA_RTOL) and _close(sign.upper, ref, LAMBDA_RTOL)
    ):
        problems.append(f"temperature sign {sign.classification} [{sign.lower}, {sign.upper}] vs r(A) {ref}")
    levels = out["sequence"].levels
    for r, t in enumerate(levels):
        if float(np.abs(M @ t - ref * t).sum()) > SEQUENCE_TOL * ref * float(t.sum()):
            problems.append(f"eigen-sequence level {r} is not a Perron eigenvector")
            break
    if any(abs(p - 1.0) > SEQUENCE_TOL for p in out["profile"]):
        problems.append("normalization profile is not constant 1")
    n = out["rate_n"]
    B = np.linalg.matrix_power(np.asarray(M, dtype=float) / ref, n)
    rate_ref = math.log(ref) + math.log(float(B.sum(axis=0) @ op.trace)) / n
    if abs(out["rate"] - rate_ref) > SEQUENCE_TOL:
        problems.append(f"temperature_from_trace {out['rate']!r} vs reference {rate_ref!r}")
    bim = out["bimodule"]
    wref = spectral_radius(op.weighted)
    if not _close(bim.lam, wref, LAMBDA_RTOL):
        problems.append(f"bimodule lambda {bim.lam!r} vs max|eigvals| {wref!r}")
    if abs(float(bim.v0.sum()) - 1.0) > SEQUENCE_TOL or float(
        np.abs(op.weighted @ bim.v0 - bim.lam * bim.v0).sum()
    ) > SEQUENCE_TOL * bim.lam:
        problems.append("bimodule v0 is not a normalized Perron eigenvector")
    return problems
