"""Benchmark of shiftkms: end-to-end metrics per workload, or a per-layer trace.

Usage, from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload sft-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with one client: the next op
starts only after the previous one has finished.  Ops are timed one by one;
writing an op's input document, emptying the package's memos and checking
its result happen outside the timed region.  A run makes ``SWEEPS`` sweeps
over the same ops (``workloads.py``), whole passes of them for about
``--seconds`` of timed op time in all, and an op's time is its best of the
sweeps.  Before each timed op the process moves to the CPU that is fastest
at that moment (``pin_fastest_cpu``): on a shared host the speed of each
CPU changes within seconds.
Every result is checked against an independent reference (``checks.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics: two sweeps over the ops run
untraced, a third replays them with every layer wrapped (``tracing.py``),
and ``trace.overhead_s`` is the traced time minus the untraced best-of-two.
The last line is one JSON object with the keys correct, attempted, failed
and metrics; ``attempted`` and ``failed`` count the measured ops.
Known-defect probes (``workloads.known_defects``) run once per run outside
the loop; they are reported on their own lines and in ``error_rate``.

``--workload all`` runs every workload in its own process and prints each
one's report.  The exit code is 0 when the run completed, 2 when the package
sources are missing or the workload is unknown.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One client on desk-scale matrices: a single BLAS thread keeps timings steady.
# The pin has to be in place before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import mpmath  # noqa: E402  (numpy and its users load after the pin)
import numpy as np  # noqa: E402

from checks import check_chain, check_cli_report  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import PASS_LIMITS, WORKLOADS, CliOp, known_defects, run_chain, warmup  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 2  # fresh interpreters for setup_s before the first sweep and after each one
# Every op of a run is timed this many times, a whole sweep apart, and its
# best time counts.  The host's speed changes within seconds (other tenants
# share its cores), and of two times taken a sweep apart one is mostly taken
# while it is fast.
SWEEPS = 2
SETUP_CODE = "import time, shiftkms.cli; print(time.monotonic())"
CHILD_TIMEOUT_S = 170


def _import_package():
    """Import shiftkms from this checkout's src/, or return None when it is absent."""
    if not (SRC / "shiftkms" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import shiftkms
    import shiftkms.cli  # noqa: F401  (the CLI layer is traced too)

    if Path(shiftkms.__file__).resolve().parent != (SRC / "shiftkms").resolve():
        return None
    return shiftkms


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# the CPUs this process may run on; empty where there is no affinity call
ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_fastest_cpu():
    """Move this process to the CPU of ALLOWED_CPUS that runs a short probe fastest.

    The children it starts inherit the choice.  Does nothing with fewer than
    two CPUs.
    """
    if len(ALLOWED_CPUS) < 2:
        return
    best = None
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        probe = min(_spin_s() for _ in range(2))
        if best is None or probe < best[0]:
            best = (probe, cpu)
    os.sched_setaffinity(0, {best[1]})


def _spin_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i
    return time.perf_counter() - t0


def measure_setup_s() -> list[float]:
    """Seconds from launching a fresh interpreter until ``import shiftkms.cli`` is done.

    CLOCK_MONOTONIC is shared by all processes, so the child's clock reading
    after the import is compared with the parent's reading before the launch.
    """
    out = []
    for _ in range(SETUP_RUNS):
        pin_fastest_cpu()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: tells a slow host from a slow program."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(times)


def provenance(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "seed": seed,
        "host_loop_ms": host_speed_ms(),
    }


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or the pinned value."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{BLAS_THREADS} (pinned; library not queried)"


class Runner:
    """Executes ops one at a time and checks their results outside the timed region.

    With ``check`` false a result only has to come back without an error: a
    later sweep repeats inputs whose results the first sweep checked.
    """

    def __init__(self, sk, workdir: Path, tracer=None):
        self.sk = sk
        self.workdir = workdir
        self.tracer = tracer
        self.check = True
        self.count = 0
        self.report_bytes = 0

    def execute(self, op):
        """Run and check one op: (latency_s, problems), problems empty on success.

        The package's memos are emptied first, so the op starts as cold as in
        a fresh process however often it is repeated.
        """
        self.count += 1
        _clear_caches(self.sk)
        if isinstance(op, CliOp):
            src = self.workdir / f"op{self.count}.json"
            dst = self.workdir / f"op{self.count}.out.json"
            src.write_text(json.dumps(op.doc), encoding="utf-8")
            argv = ["all", str(src), *op.flags, "--no-timestamp", "--output", str(dst)]
            stderr = io.StringIO()
            pin_fastest_cpu()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = self.sk.cli.main(argv)
            except (Exception, SystemExit) as exc:  # an escaping exception fails the op
                return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - t0
            if code != 0:
                return latency, [f"exit {code}: {stderr.getvalue().strip()}"]
            self.report_bytes += dst.stat().st_size
            report = json.loads(dst.read_text(encoding="utf-8"))
            src.unlink()
            dst.unlink()
            return latency, self._checked(lambda: self._check_cli(op, report))
        pin_fastest_cpu()
        t0 = time.perf_counter()
        try:
            out = run_chain(op, self.sk)
        except Exception as exc:  # an escaping exception fails the op
            return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - t0
        return latency, self._checked(lambda: check_chain(op, out))

    def _checked(self, check):
        if not self.check:
            return []
        if self.tracer is None:
            return check()
        with self.tracer.suspended():
            return check()

    def _check_cli(self, op, report):
        terminated = None
        if op.doc["type"] == "beta":
            spec = self.sk.BetaShift(op.doc["beta"], digit_depth=op.doc.get("digit_depth", 64))
            terminated = spec.expansion().terminated
        return check_cli_report(op.doc, report, terminated)


def measured_loop(runner, passes, budget_s, limits=(1, 1), keep_ops=False):
    """Run whole passes, between limits[0] and limits[1] of them, within budget_s.

    A pass has a fixed mix of op kinds, so running whole passes keeps the mix,
    and with it every order statistic, the same from run to run.  Past the
    fewest passes, another one starts only when one more mean pass still fits
    in the budget.  Returns the number of passes run and a list of
    (op, latency, problems); ops are kept for a replay only when asked, so
    that untraced runs hold no inputs beyond the current one (a later sweep
    generates them again from the seed).
    """
    records = []
    total = 0.0
    fewest, most = limits
    count = 0
    for ops in passes:
        if count >= most or (count >= fewest and total + total / count > budget_s):
            break
        for op in ops:
            latency, problems = runner.execute(op)
            total += latency
            records.append((op if keep_ops else op.label, latency, problems))
        count += 1
    return count, records


def best_of_sweeps(sweeps):
    """Per op, its best latency over the sweeps and every problem any sweep found."""
    merged = []
    for runs in zip(*sweeps):
        problems = [p for r in runs for p in r[2]]
        merged.append((runs[0][0], min(r[1] for r in runs), list(dict.fromkeys(problems))))
    return merged


def _clear_caches(sk):
    """Empty every memo of the package, so a replay starts as cold as the first run."""
    for name, module in list(sys.modules.items()):
        if name == sk.__name__ or name.startswith(sk.__name__ + "."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def tail_latency(latencies):
    """(value, percentile, beyond): the highest percentile with at least 10 samples beyond it.

    Percentiles are nearest-rank and taken from TAIL_PERCENTILES; with fewer
    than 40 samples none qualifies, and the tail is the p75, with fewer
    samples beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], p, n - rank
    rank = math.ceil(0.75 * n)
    return xs[rank - 1], 75, n - rank


def src_lines(sk) -> dict:
    root = Path(sk.__file__).resolve().parent
    return {layer: len((root / f"{layer}.py").read_text(encoding="utf-8").splitlines()) for layer in LAYERS}


def run_workload(name, seed, seconds, trace, sk, workdir):
    """Run one workload; returns (result dict for the last line, summary lines)."""
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds} trace={trace}"]
    lines.append("provenance " + json.dumps(provenance(seed)))
    setup = None if trace else measure_setup_s()
    runner = Runner(sk, workdir)
    runner.execute(warmup(name))

    if trace:
        passes, first = measured_loop(runner, WORKLOADS[name](seed), seconds / 3, PASS_LIMITS[name], keep_ops=True)
        runner.check = False
        records = best_of_sweeps([first, measured_loop(runner, [[r[0] for r in first]], float("inf"))[1]])
    else:
        passes, first = measured_loop(runner, WORKLOADS[name](seed), seconds / SWEEPS, PASS_LIMITS[name])
        sweeps = [first]
        setup += measure_setup_s()
        runner.check = False
        for _ in range(SWEEPS - 1):
            sweeps.append(measured_loop(runner, WORKLOADS[name](seed), float("inf"), (passes, passes))[1])
            setup += measure_setup_s()
        records = best_of_sweeps(sweeps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced_s = sum(r[1] for r in records)
    runner.check = True
    probes = [(op, *runner.execute(op)) for op in known_defects(name)]

    if trace:
        tracer = Tracer()
        tracer.install()
        traced_runner = Runner(sk, workdir, tracer)
        records = measured_loop(traced_runner, [[r[0] for r in records]], float("inf"))[1]
        traced_s = sum(r[1] for r in records)

    attempted = len(records)
    failed = sum(1 for r in records if r[2])
    probe_failed = sum(1 for p in probes if p[2])
    for op, _, problems in records:
        if problems:
            lines.append(f"FAILED {getattr(op, 'label', op)}: {'; '.join(problems)}")
    for op, latency, problems in probes:
        verdict = "FAILED " + "; ".join(problems) if problems else "passed"
        lines.append(f"known-defect probe {op.label} ({latency:.3f} s): {verdict}")
    lines.append(
        f"error_rate {(failed + probe_failed) / (attempted + len(probes)):.4f} "
        f"({failed + probe_failed} failed of {attempted + len(probes)} ops: "
        f"{attempted} measured, {len(probes)} known-defect probes)"
    )

    if trace:
        layer_metrics = tracer.metrics(src_lines(sk), traced_s, untraced_s, traced_runner.report_bytes)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        self_sum = sum(tracer.self_s.values())
        builds, lookups = tracer.automaton_base()
        lines.append(f"automaton_hit_ratio base: {builds} builds of {lookups} lookups")
        lines.append(f"layer self-times sum to {self_sum:.4f} s of {traced_s:.4f} s traced wall time")
        consistent = self_sum <= traced_s
    else:
        latencies = [r[1] for r in records]
        ok = attempted - failed
        tail, pct, beyond = tail_latency(latencies)
        metrics = {
            "ok_ops_per_s": {"value": ok / untraced_s, "unit": "ops/s"},
            "latency_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1000.0 * tail, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        lines.append(f"op times are the best of {SWEEPS} sweeps over {attempted} ops ({passes} passes)")
        lines.append(f"latency_tail_ms is p{pct:.4g} of {attempted} samples ({beyond} beyond it)")
        lines.append(f"setup_s is the median of {len(setup)} fresh imports: " + ", ".join(f"{s:.4f}" for s in setup))
        consistent = True
    for key, m in metrics.items():
        lines.append(f"  {key} = {m['value']} {m['unit']}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sk = _import_package()
    if sk is None:
        print(f"error: no shiftkms package sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace, sk, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
