"""Seeded inputs of the three workloads.

Every workload is a sequence of passes.  A pass has a fixed composition of
op kinds and a run executes whole passes, so the mix of a run, and with it
every latency percentile, does not depend on the seed; the seed only chooses
the concrete documents and matrices.  The composition puts the median and
the p75 of each workload inside a group of ops of similar cost.  No document or
matrix repeats within a sweep of a run, and the package's value-keyed caches
(the automaton memo and the beta-expansion memo) are emptied before every
op, so each op starts as cold as in a fresh CLI process.  A run repeats its
ops in two sweeps and keeps the best time of each op (``run.py``).

- ``sft-all``: ``shiftkms all`` with default flags on matrix-presented shifts.
- ``beta-all``: ``shiftkms all --max-n 100 --depth 110`` on beta documents with
  ``digit_depth`` 230.
- ``matrix-thermo``: a fixed chain of library calls on one 0/1 matrix
  (random, d = 64..256, and block-cyclic periodic ones).

Each workload also has known-defect probes: inputs that the package gets
wrong at the time the benchmark was defined.  They run once per run, outside
the measured loop, and are reported apart from the measured ops.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from checks import irreducible

BETA_FLAGS = ("--max-n", "100", "--depth", "110")
BETA_DIGIT_DEPTH = 230
BETA_LOW, BETA_HIGH = 1.05, 3.95
BETA_STRATA = 6
# one pass visits every stratum once and takes 12-20 s on a 2-vCPU VM; a run
# is one pass (PASS_LIMITS), so its 8 ops are always the same mix.  An op's
# cost rises with the base, so the median of a pass is the mean of its
# stratum-1 and stratum-2 ops
BETA_STRATUM_ORDER = (0, 5, 2, 3, 1, 4)
# Density of the random 0/1 matrices.  Sparser ones have slowly mixing
# compatible chains, on which one variational scan takes seconds, and at
# d = 256 about 1 in 150 of density 12/d fails the Parry stationarity check
# (a known-defect probe below shows it); at this density the cost of an op
# is set by its dimension.
SFT_DENSITY = 0.6
CHAIN_DEPTH = 10  # R of kms_eigen_sequence, as in the CLI default
CHAIN_TRACE_N = 300  # n_max of temperature_from_trace
# Cycle+chord lengths probed for the Perron defect.  n = 30 and 100 exhaust
# the power-iteration budget.  n = 12 converges after ~1 s of iterations to a
# residual near the acceptance tolerance, so rounding decides whether it
# passes: relabelled copies of it (and of n = 8 and 14) fail at random, which
# is why no cycle+chord matrix is among the measured ops.
DEFECT_CYCLES = (12, 30, 100)


@dataclass(frozen=True, eq=False)
class CliOp:
    """One in-process ``shiftkms all`` invocation on a generated document."""

    label: str
    doc: dict
    flags: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class ChainOp:
    """The matrix-thermo library chain on one 0/1 matrix.

    trace is the strictly positive trace for temperature_from_trace and
    weighted the positively weighted copy given to bimodule_kms.
    """

    label: str
    matrix: np.ndarray
    trace: np.ndarray
    weighted: np.ndarray


def _pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def random_sft(rng, d: int, density: float) -> np.ndarray:
    """Irreducible 0/1 matrix with i.i.d. Bernoulli(density) entries (rejection)."""
    while True:
        M = (rng.random((d, d)) < density).astype(np.int64)
        if M.sum(axis=0).min() > 0 and M.sum(axis=1).min() > 0 and irreducible(M):
            return M


def block_cyclic(rng, period: int, block: int) -> np.ndarray:
    """Irreducible 0/1 matrix of the given period: blocks map cyclically to the next."""
    d = period * block
    while True:
        M = np.zeros((d, d), dtype=np.int64)
        for k in range(period):
            nxt = (k + 1) % period
            M[k * block:(k + 1) * block, nxt * block:(nxt + 1) * block] = rng.random((block, block)) < 0.3
        if M.sum(axis=0).min() > 0 and M.sum(axis=1).min() > 0 and irreducible(M):
            return M


def cycle_chord(n: int) -> np.ndarray:
    """n-cycle plus the chord 0 -> 2: aperiodic, with |lambda_2|/lambda near 1."""
    M = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        M[i, (i + 1) % n] = 1
    M[0, 2] = 1
    return M


def chain_op(rng, label: str, M: np.ndarray) -> ChainOp:
    d = M.shape[0]
    t = rng.random(d) + 0.1
    weights = 0.5 + 1.5 * rng.random((d, d))
    return ChainOp(label=label, matrix=M, trace=t / t.sum(), weighted=M * weights)


def run_chain(op: ChainOp, sk) -> dict:
    """The matrix-thermo op: every call goes through the package namespace ``sk``."""
    M = op.matrix
    out = {
        "kms": sk.kms_temperature(M),
        "parry": sk.parry_measure(M),
        "sign": sk.temperature_sign(M),
        "sequence": sk.kms_eigen_sequence(M, CHAIN_DEPTH),
    }
    out["profile"] = sk.normalization_profile(out["sequence"])
    out["rate"] = sk.temperature_from_trace(M, op.trace, CHAIN_TRACE_N)
    out["rate_n"] = CHAIN_TRACE_N
    out["bimodule"] = sk.bimodule_kms(op.weighted)
    return out


def _decimal_string(value: Decimal, places: int) -> str:
    return format(value.quantize(Decimal(1).scaleb(-places)), "f")


def _snapped_bases():
    """Golden ratio and tribonacci constant at 40 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        golden = (1 + Decimal(5).sqrt()) / 2
        x = Decimal("1.84")
        for _ in range(60):  # Newton on x^3 - x^2 - x - 1
            x -= (x * x * x - x * x - x - 1) / (3 * x * x - 2 * x - 1)
        return golden, x


GOLDEN, TRIBONACCI = _snapped_bases()


class _Unique:
    """Rejects a document or matrix already produced in this run.

    Only digests are kept, so the memory of the benchmark does not grow with
    the number of ops and peak_rss_mb stays the program's.
    """

    def __init__(self):
        self.seen = set()

    def __call__(self, item) -> bool:
        if isinstance(item, np.ndarray):
            blob = str(item.shape).encode() + item.tobytes()
        else:
            blob = json.dumps(item, sort_keys=True).encode()
        key = hashlib.sha256(blob).digest()
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def _forbidden_doc(rng) -> dict:
    alphabet = int(rng.integers(2, 4))
    words = []
    for _ in range(int(rng.integers(1, 4))):
        while True:
            w = [int(s) for s in rng.integers(1, alphabet + 1, int(rng.integers(2, 5)))]
            if len(set(w)) > 1:  # constant sequences stay admissible, so the shift is nonempty
                break
        words.append(w)
    return {"type": "forbidden", "alphabet": alphabet, "words": words}


def _nonnegative_doc(rng, d: int = 16) -> dict:
    while True:
        W = np.round((rng.random((d, d)) < 0.5) * (0.5 + 1.5 * rng.random((d, d))), 4)
        if irreducible(W):
            return {"type": "nonnegative", "matrix": W.tolist()}


def sft_all_passes(seed: int):
    unique = _Unique()
    index = 0
    while True:
        rng = _pass_rng(seed, index)
        ops = []
        if index == 0:
            golden = {"type": "sft", "matrix": [[1, 1], [1, 0]]}
            unique(golden)
            ops.append(CliOp("golden-mean", golden))
        # 16 ops, ~3 s on a 2-vCPU VM: 4 cheap documents and d = 8, then
        # d = 16 x9 (the median and the p75: at d = 16 the cost of an op
        # varies least from matrix to matrix), 32 and 64
        for kind in (
            "sft64", "forbidden", "sft16", "sft16", "nonnegative", "sft16", "sft32", "sft16",
            "full", "sft16", "sft8", "sft16", "forbidden", "sft16", "sft16", "sft16",
        ):
            while True:
                if kind.startswith("sft"):
                    doc = {"type": "sft", "matrix": random_sft(rng, int(kind[3:]), SFT_DENSITY).tolist()}
                elif kind == "forbidden":
                    doc = _forbidden_doc(rng)
                elif kind == "nonnegative":
                    doc = _nonnegative_doc(rng)
                else:
                    doc = {"type": "full", "alphabet": 2 + 2 * index}
                if unique(doc):
                    break
            ops.append(CliOp(kind, doc))
        yield ops
        index += 1


def beta_all_passes(seed: int):
    unique = _Unique()
    width = (BETA_HIGH - BETA_LOW) / BETA_STRATA
    index = 0
    while True:
        rng = _pass_rng(seed, index)
        ops = []
        for pos, stratum in enumerate(BETA_STRATUM_ORDER):
            while True:
                base = f"{BETA_LOW + width * (stratum + rng.random()):.4f}"
                doc = {"type": "beta", "beta": base, "digit_depth": BETA_DIGIT_DEPTH}
                if BETA_LOW < float(base) < BETA_HIGH and unique(doc):
                    break
            ops.append(CliOp(f"beta-stratum{stratum:02d}", doc, BETA_FLAGS))
            if pos in (1, 3):  # a snapped Parry base after each of two strata pairs
                name, value = ("golden", GOLDEN) if pos == 1 else ("tribonacci", TRIBONACCI)
                doc = {"type": "beta", "beta": _decimal_string(value, 10 + index), "digit_depth": BETA_DIGIT_DEPTH}
                unique(doc)
                ops.append(CliOp(f"beta-{name}", doc, BETA_FLAGS))
        yield ops
        index += 1


def matrix_thermo_passes(seed: int):
    unique = _Unique()
    index = 0
    while True:
        rng = _pass_rng(seed, index)
        ops = []
        # 10 ops, ~1.7 s on a 2-vCPU VM: two block-cyclic ones, then d = 64 x4
        # (the median), 128 x3 (the p75) and 256
        for kind in ("rand256", "rand64", "cyclic2", "rand128", "rand64", "rand128", "cyclic3", "rand64",
                     "rand128", "rand64"):
            while True:
                if kind.startswith("rand"):
                    M = random_sft(rng, int(kind[4:]), SFT_DENSITY)
                else:
                    M = block_cyclic(rng, int(kind[6:]), 16)
                if unique(M):
                    break
            ops.append(chain_op(rng, kind, M))
        yield ops
        index += 1


def known_defects(workload: str) -> list:
    """Inputs the package is known to get wrong; empty when there are none."""
    if workload == "beta-all":
        return [
            # the all-zero tail of 1.01 is taken for a period: false closed bracket
            CliOp("defect-beta-1.01", {"type": "beta", "beta": "1.01", "digit_depth": BETA_DIGIT_DEPTH}, BETA_FLAGS),
            # the tribonacci document of the README exits 1: word length exceeds digit_depth 64
            CliOp("defect-readme-tribonacci", {"type": "beta", "beta": 1.8392867552, "digit_depth": 64}),
        ]
    if workload == "matrix-thermo":
        rng = np.random.default_rng(0)
        probes = [chain_op(rng, f"defect-chord{n}", cycle_chord(n)) for n in DEFECT_CYCLES]
        # a sparse d = 256 matrix whose Parry chain misses the absolute 1e-12
        # stationarity tolerance (error 1.06e-12): parry_measure raises
        sparse = random_sft(np.random.default_rng([99, 121, 256]), 256, 12 / 256)
        return probes + [chain_op(rng, "defect-parry-d256", sparse)]
    return []


def warmup(workload: str):
    """One small op outside the corpus: loads lazy imports before timing."""
    rng = np.random.default_rng(0)
    if workload == "beta-all":
        return CliOp("warmup", {"type": "beta", "beta": "1.41421", "digit_depth": 40}, ("--max-n", "10", "--depth", "12"))
    if workload == "matrix-thermo":
        return chain_op(rng, "warmup", random_sft(rng, 20, 0.3))
    return CliOp("warmup", {"type": "sft", "matrix": random_sft(rng, 6, 0.5).tolist()})


WORKLOADS = {
    "sft-all": sft_all_passes,
    "beta-all": beta_all_passes,
    "matrix-thermo": matrix_thermo_passes,
}

# Fewest and most passes per run.  Between them a run takes as many passes as
# fit in its first sweep's time budget; the limits keep the op count of sft-all
# and matrix-thermo in [40, 70), where the tail is always the p75.
PASS_LIMITS = {
    "sft-all": (3, 4),
    "beta-all": (1, 1),
    "matrix-thermo": (4, 5),
}
