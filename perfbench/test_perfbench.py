"""Tests of the benchmark's own code: generators, reference checks, tracer.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shiftkms  # noqa: E402
from shiftkms import cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI_FLAGS = {
    "max_n": 30, "depth": 12, "tol": 1e-12, "samples": 200, "seed": 0,
    "reducible_mode": False, "no_timestamp": True,
}


def _serialize(op) -> bytes:
    if isinstance(op, workloads.CliOp):
        return json.dumps([op.label, op.doc, op.flags], sort_keys=True).encode()
    return op.label.encode() + op.matrix.tobytes() + op.trace.tobytes() + op.weighted.tobytes()


def _first_passes(name, seed, n=2):
    return list(itertools.islice(workloads.WORKLOADS[name](seed), n))


def _input_key(op) -> bytes:
    if isinstance(op, workloads.CliOp):
        return json.dumps(op.doc, sort_keys=True).encode()
    return str(op.matrix.shape).encode() + op.matrix.tobytes()


def _reachable_all(M) -> bool:
    """Depth-first search from every node reaches every node."""
    d = len(M)
    for start in range(d):
        seen, todo = {start}, [start]
        while todo:
            for j in np.nonzero(M[todo.pop()])[0]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) < d:
            return False
    return True


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_byte_deterministic(name):
    a = b"".join(_serialize(op) for ops in _first_passes(name, 5) for op in ops)
    b = b"".join(_serialize(op) for ops in _first_passes(name, 5) for op in ops)
    c = b"".join(_serialize(op) for ops in _first_passes(name, 6) for op in ops)
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_no_input_repeats_within_a_run(name):
    blobs = [_input_key(op) for ops in _first_passes(name, 7, 4) for op in ops]
    assert len(blobs) == len(set(blobs))


def test_random_sfts_are_irreducible_without_zero_rows_or_columns():
    matrices = [np.array(op.doc["matrix"]) for ops in _first_passes("sft-all", 3) for op in ops if op.doc["type"] == "sft"]
    matrices += [op.matrix for ops in _first_passes("matrix-thermo", 3) for op in ops]
    assert len(matrices) > 10
    for M in matrices:
        assert M.sum(axis=0).min() > 0 and M.sum(axis=1).min() > 0
        assert checks.irreducible(M) and _reachable_all(M)


def test_best_of_sweeps_keeps_the_fastest_time_and_every_problem():
    sweeps = [
        [("a", 0.3, []), ("b", 0.2, ["bad"])],
        [("a", 0.1, []), ("b", 0.4, ["bad", "worse"])],
    ]
    assert run.best_of_sweeps(sweeps) == [("a", 0.1, []), ("b", 0.2, ["bad", "worse"])]


def test_reference_helpers():
    golden = np.array([[1, 1], [1, 0]])
    assert checks.path_counts(golden, 6) == [2, 3, 5, 8, 13, 21]
    assert checks.primitive(golden) and not checks.primitive(np.array([[0, 1], [1, 0]]))
    assert not checks.irreducible(np.array([[1, 1], [0, 1]]))
    # 1 2 cannot be continued once 2 1 and 1 2 2 are forbidden
    assert checks.forbidden_counts(2, [[2, 1], [2, 2, 1], [1, 2, 2]], 4) == [2, 2, 2, 2]
    assert run.tail_latency(list(range(30))) == (22, 75, 7)
    assert run.tail_latency(list(range(60))) == (44, 75, 15)
    assert run.tail_latency(list(range(8))) == (5, 75, 2)
    assert run.tail_latency(list(range(200))) == (189, 95, 10)


def _sft_report(matrix):
    doc = {"type": "sft", "matrix": matrix}
    return doc, cli.run("all", cli.parse_spec(doc), CLI_FLAGS)


def _beta_report(base):
    doc = {"type": "beta", "beta": base, "digit_depth": 40}
    report = cli.run("all", cli.parse_spec(doc), dict(CLI_FLAGS, max_n=10))
    return doc, report, shiftkms.BetaShift(base, digit_depth=40).expansion().terminated


def test_sft_check_rejects_perturbed_lambda():
    doc, report = _sft_report([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert checks.check_cli_report(doc, report) == []
    bad = copy.deepcopy(report)
    bad["results"]["kms"]["lambda"] *= 1 + 1e-6
    assert any("kms.lambda" in p for p in checks.check_cli_report(doc, bad))
    bad = copy.deepcopy(report)
    bad["results"]["entropy"]["theta"][4] += 1
    assert any("theta" in p for p in checks.check_cli_report(doc, bad))


def test_beta_check_rejects_theta_outside_renyi_bounds():
    doc, report, terminated = _beta_report("1.7")
    assert checks.check_cli_report(doc, report, terminated) == []
    for factor in (3, 0.5):
        bad = copy.deepcopy(report)
        bad["results"]["entropy"]["theta"][4] = int(bad["results"]["entropy"]["theta"][4] * factor)
        assert any("Renyi" in p for p in checks.check_cli_report(doc, bad, terminated))


def test_beta_check_rejects_closed_bracket_on_non_terminated_base():
    doc, report, terminated = _beta_report("1.7")
    assert not terminated
    bad = copy.deepcopy(report)
    bad["results"]["bracket"]["upper"] = bad["results"]["bracket"]["lower"]
    bad["results"]["bracket"]["width"] = 0.0
    assert any("closed bracket" in p for p in checks.check_cli_report(doc, bad, terminated))
    assert checks.check_cli_report(doc, bad, True) == []


def test_chain_check_rejects_perturbed_lambda():
    rng = np.random.default_rng(1)
    op = workloads.chain_op(rng, "test", workloads.random_sft(rng, 12, 0.4))
    out = workloads.run_chain(op, shiftkms)
    assert checks.check_chain(op, out) == []
    bad = dict(out, kms=dataclasses.replace(out["kms"], lam=out["kms"].lam * (1 + 1e-6)))
    assert any("kms lambda" in p for p in checks.check_chain(op, bad))


def test_tracer_spans_every_namespace_and_self_times_fit_the_wall():
    from tracing import Tracer

    rng = np.random.default_rng(2)
    op = workloads.chain_op(rng, "test", workloads.random_sft(rng, 10, 0.4))
    original = shiftkms.spectral.perron_vectors
    tracer = Tracer()
    tracer.install()
    try:
        for namespace in (shiftkms, shiftkms.spectral, shiftkms.tracespace, shiftkms.equilibrium, cli):
            assert namespace.perron_vectors is not original
            assert namespace.perron_vectors.__wrapped__ is original
        t0 = run.time.perf_counter()
        workloads.run_chain(op, shiftkms)
        wall = run.time.perf_counter() - t0
        passes = tracer.counters["spectral.scc_passes"]
        with tracer.suspended():
            shiftkms.spectral.strongly_connected_components(op.matrix)
        assert tracer.counters["spectral.scc_passes"] == passes
    finally:
        tracer.active = False  # later tests in this process run untraced
    assert sum(tracer.self_s.values()) <= wall
    assert tracer.calls["tracespace"] > 0 and tracer.calls["equilibrium"] > 0
    assert tracer.counters["spectral.perron_solves"] >= 4
    assert tracer.counters["spectral.scc_passes"] >= 1
    assert tracer.counters["spectral.residual_noise_floor_calls"] > 0
    metrics = tracer.metrics(run.src_lines(shiftkms), wall, wall, 0)
    assert metrics["spectral.scc_passes"][0] == tracer.counters["spectral.scc_passes"]
