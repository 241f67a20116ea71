"""Command-line front end: parse spec documents, dispatch analyses, emit JSON reports.

Input documents are JSON, UTF-8, lowercase keys, 1-based symbols:

    {"type": "full", "alphabet": 3}
    {"type": "sft", "matrix": [[1, 1], [1, 0]]}
    {"type": "forbidden", "alphabet": 2, "words": [[1, 1]]}
    {"type": "beta", "beta": 1.8392867552, "digit_depth": 64}
    {"type": "nonnegative", "matrix": [[0, 2], [3, 0]]}

Exit codes: 0 success, 1 bad input, 2 violated internal invariant or failed
numerical solver.  Every sized input is bounded by the MAX_* constants below;
a value past its bound is bad input, named in the message.  Sections pass
the document's matrix, whose Perron analysis spectral memoizes per content,
so it is solved once and shared by every section.  A reducible transition
matrix gets the bracket of its extremal KMS inverse temperatures from
temperature_sign in `kms`; `all` skips the sections that need Perron data,
and asked for alone they are bad input.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from . import __version__, equilibrium, krieger, subshift, tracespace
from .beta import exact_base
from .equilibrium import InvariantViolation
from .spectral import ConvergenceError, ReducibleMatrixError, as_nonnegative, component_perron_data, perron_vectors
from .subshift import SFT, BetaShift, ForbiddenWords, FullShift, is_integral


# Bounds on sized inputs.  A matrix document's dimension, an alphabet and
# ceil(beta) share one bound: on a d-symbol SFT the Krieger passes gather
# (d, d, d + 2) bool arrays, 17 MB at d = 256.
MAX_DIMENSION = 256
MAX_DIGIT_DEPTH = 4096
# bits of the base's denominator q times digit_depth: the exact Renyi map
# grows its numbers to q^digit_depth.  A float base (q <= 2^52, 53 bits) is
# admitted at every digit_depth; at the bound the expansion takes 0.4 s on a
# 2-vCPU VM, 40 decimals (q = 10^40) at digit_depth 4096 would take 0.9 s
MAX_BETA_BITS = 2**18
MAX_WORD_LENGTH = 1000  # --max-n and --depth
MAX_SAMPLES = 100_000
# samples times d^3, the work of the variational scan's stationary solves:
# 1000 samples at d = 256 take 2.1-2.4 s on a 2-vCPU VM.  The scan reuses
# two buffers of fixed size, so its memory does not grow with the samples
MAX_SCAN_WORK = 2**34
# symbols over all forbidden words (S), and alphabet times S: the Aho-Corasick
# automaton has up to S + 1 states and the Krieger passes gather d-wide arrays
# over them
MAX_FORBIDDEN_SYMBOLS = 4096
MAX_FORBIDDEN_ENTRIES = 2**16


class InputError(ValueError):
    """Malformed or inapplicable input document."""


def _at_most(name, value, bound):
    if not value <= bound:
        raise InputError(f"{name} must be at most {bound}, got {value!r}")
    return value


def parse_spec(document):
    """Parse a spec document (JSON text or dict) into a presentation object.

    Returns a subshift presentation, or the tuple ("nonnegative", matrix) for
    a general lambda-matrix input.  Violations name the offending field.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InputError(f"document is not valid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    kind = doc.get("type")
    if kind is None:
        raise InputError("missing field 'type'")
    try:
        if kind == "full":
            return FullShift(_alphabet(doc))
        if kind == "sft":
            return SFT(_matrix(doc))
        if kind == "forbidden":
            alphabet = _alphabet(doc)
            return ForbiddenWords(alphabet, _words(doc, alphabet))
        if kind == "beta":
            digit_depth = _at_most("field 'digit_depth'", _integer(doc, "digit_depth", 64), MAX_DIGIT_DEPTH)
            beta = _need(doc, "beta")
            _at_most("field 'beta'", float(beta), MAX_DIMENSION)
            spec = BetaShift(beta=beta, digit_depth=digit_depth)  # rejects beta <= 1 before exact_base parses it
            bits = exact_base(beta).denominator.bit_length() * digit_depth
            _at_most("the denominator bits of field 'beta' times digit_depth", bits, MAX_BETA_BITS)
            return spec
        if kind == "nonnegative":
            return ("nonnegative", as_nonnegative(_matrix(doc)))
    except InputError:
        raise
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid '{kind}' document: {exc}") from None
    raise InputError(f"unknown spec type {kind!r}")


def _need(doc, field):
    if field not in doc:
        raise InputError(f"missing field '{field}'")
    return doc[field]


def _alphabet(doc):
    return _at_most("field 'alphabet'", _integer(doc, "alphabet"), MAX_DIMENSION)


def _matrix(doc):
    M = np.asarray(_need(doc, "matrix"))
    _at_most("the dimension of field 'matrix'", max(M.shape, default=0), MAX_DIMENSION)
    return M


def _integer(doc, field, default=None):
    """A JSON integer field."""
    value = _need(doc, field) if default is None else doc.get(field, default)
    if not is_integral(value):
        raise InputError(f"field '{field}' must be an integer, got {value!r}")
    return int(value)


def _words(doc, alphabet):
    """The forbidden words: lists of JSON integer symbols, bounded in total length."""
    words = _need(doc, "words")
    if not isinstance(words, list) or not all(isinstance(w, list) for w in words):
        raise InputError("field 'words' must be a list of lists of symbols")
    size = sum(map(len, words))
    _at_most("the total length of field 'words'", size, MAX_FORBIDDEN_SYMBOLS)
    _at_most("alphabet times the total length of field 'words'", alphabet * size, MAX_FORBIDDEN_ENTRIES)
    if not all(is_integral(s) for w in words for s in w):
        raise InputError("field 'words' must hold integer symbols")
    return tuple(tuple(map(int, w)) for w in words)


def _echo(spec):
    if isinstance(spec, FullShift):
        return {"type": "full", "alphabet": spec.alphabet}
    if isinstance(spec, SFT):
        return {"type": "sft", "matrix": spec.matrix.tolist()}
    if isinstance(spec, ForbiddenWords):
        return {"type": "forbidden", "alphabet": spec.alphabet, "words": [list(w) for w in spec.words]}
    if isinstance(spec, BetaShift):
        return {
            "type": "beta",
            "beta": spec.beta if isinstance(spec.beta, str) else float(spec.beta),
            "digit_depth": spec.digit_depth,
        }
    kind, matrix = spec
    return {"type": kind, "matrix": np.asarray(matrix).tolist()}


def _section_entropy(spec, flags, warnings):
    est = subshift.topological_entropy(spec, flags["max_n"])
    return {
        "theta": list(est.theta),
        "log_rates": list(est.log_rates),
        "extrapolated": est.extrapolated,
        "exact": est.exact,
        "method": est.method,
        "n_max": flags["max_n"],
    }


def _section_kms(spec, flags, warnings):
    if isinstance(spec, tuple):
        report = tracespace.bimodule_kms(spec[1], depth=flags["depth"])
        return {
            "kind": "bimodule",
            "lambda": report.lam,
            "beta": report.beta,
            "v0": report.v0.tolist(),
            "sequence": [v.tolist() for v in report.sequence],
        }
    report = tracespace.kms_temperature(spec.matrix, depth=flags["depth"])
    return {
        "kind": "cuntz-krieger",
        "lambda": report.lam,
        "beta": report.beta,
        "uniqueness": report.uniqueness_flag,
        "eigen_levels": [t.tolist() for t in report.eigen_sequence.levels],
        "eigen_residuals": list(report.eigen_sequence.residuals),
    }


def _section_reducible_kms(spec, flags, warnings):
    sign = tracespace.temperature_sign(spec.matrix)
    bracket = [math.log(sign.lower), math.log(sign.upper)]  # the extremal KMS inverse temperatures
    return {"kind": "cuntz-krieger", "lambda": None, "beta": None, "uniqueness": False, "bracket": bracket}


def _section_parry(spec, flags, warnings):
    m = equilibrium.parry_measure(spec.matrix)
    return {
        "lambda": m.lam,
        "transitions": m.transitions.tolist(),
        "stationary": m.stationary.tolist(),
        "entropy": m.entropy,
    }


def _section_krieger(spec, flags, warnings):
    l_max = max(2, min(flags["max_n"], flags["depth"] - 2))
    report = krieger.sofic_check(spec, l_max, depth=flags["depth"])
    if not all(report.stabilized):
        warnings.append("krieger: stabilization not reached for some l; counts are lower bounds")
    return {
        "counts": list(report.counts),
        "stabilized": list(report.stabilized),
        "sofic_detected": report.sofic_detected,
        "l_max": report.l_max,
        "depth": report.depth,
        "fixed_point_depth": report.fixed_point_depth,
    }


def _section_bracket(spec, flags, warnings):
    n_max = flags["max_n"]
    depth = flags["depth"] if flags["depth"] >= n_max else None
    report = krieger.entropy_bracket(spec, n_max, depth=depth)
    if depth is None:
        warnings.append(f"bracket: depth raised to {report.depth} to cover n_max")
    return {
        "lower": report.lower,
        "upper": report.upper,
        "width": report.width,
        "corrections": list(report.correction_sequence),
        "dims": list(report.dims),
        "sofic_detected": report.sofic_detected,
        "n_max": report.n_max,
        "depth": report.depth,
        "fixed_point_depth": report.fixed_point_depth,
    }


def _section_variational(spec, flags, warnings):
    report = equilibrium.variational_scan(spec.matrix, n_samples=flags["samples"], seed=flags["seed"])
    return {
        "top_entropy": report.top_entropy,
        "parry_entropy": report.parry_entropy,
        "max_entropy": report.max_entropy,
        "max_sampled": report.max_sampled,
        "gap": report.gap,
        "violations": report.violations,
        "n_samples": report.n_samples,
        "seed": report.seed,
    }


def _section_resolvent(spec, flags, warnings):
    perron = perron_vectors(spec.matrix)
    offsets = (0.5, 0.1, 0.01, 1e-4)
    v_dir = perron.v / perron.v.sum()
    rows = []
    for off in offsets:
        rv = equilibrium.resolvent_vector(perron, perron.lam + off)
        a_dir = rv.a / rv.a.sum()
        rows.append(
            {
                "t": rv.t,
                "a": rv.a.tolist(),
                "pairing": rv.pairing,
                "alignment_l1": float(np.abs(a_dir - v_dir).sum()),
            }
        )
    return {"lambda": perron.lam, "schedule": rows}


# parsed document types each section applies to; a tuple is a lambda-matrix
SUBSHIFT = (FullShift, SFT, ForbiddenWords, BetaShift)
TRANSITION_MATRIX = (FullShift, SFT)
ANY_MATRIX = (FullShift, SFT, tuple)
# sections that need the Perron data of an irreducible matrix
NEEDS_PERRON = ("parry", "variational", "resolvent")

# command -> (document types, section builder), in report order
SECTIONS = {
    "entropy": (SUBSHIFT, _section_entropy),
    "kms": (ANY_MATRIX, _section_kms),
    "parry": (TRANSITION_MATRIX, _section_parry),
    "krieger": (SUBSHIFT, _section_krieger),
    "bracket": (SUBSHIFT, _section_bracket),
    "variational": (TRANSITION_MATRIX, _section_variational),
    "resolvent": (TRANSITION_MATRIX, _section_resolvent),
}
COMMANDS = (*SECTIONS, "all")


def run(command: str, spec, flags) -> dict:
    """Execute one command and assemble the deterministic report."""
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    _at_most("--max-n", flags["max_n"], MAX_WORD_LENGTH)
    _at_most("--depth", flags["depth"], MAX_WORD_LENGTH)
    _at_most("--samples", flags["samples"], MAX_SAMPLES)
    # computed once, where a section reads it; a transition matrix has no zero
    # row, so it is irreducible iff it is one component
    reducible = (
        isinstance(spec, TRANSITION_MATRIX)
        and command in ("all", "kms", *NEEDS_PERRON)
        and len(component_perron_data(spec.matrix)) > 1
    )
    plan = []  # (name, section builder, the warning that skips it or None), in report order
    for name, (types, section) in SECTIONS.items():
        if command not in (name, "all"):
            continue
        skip = None
        if not isinstance(spec, types):
            if command != "all":
                raise InputError(f"command '{name}' is not applicable to this input")
            skip = f"{name}: not applicable to this input, skipped"
        elif reducible and name in NEEDS_PERRON:
            if command != "all":
                raise InputError(f"command '{name}' needs an irreducible matrix; this one is reducible")
            skip = f"{name}: needs an irreducible matrix, skipped in reducible mode"
        elif reducible and name == "kms":
            section = _section_reducible_kms
        plan.append((name, section, skip))
    # the flags of the sections that will run are checked before the first runs
    running = {name for name, _, skip in plan if skip is None}
    if "krieger" in running and flags["depth"] < 2:
        raise InputError(f"--depth must be at least 2 for the krieger section, got {flags['depth']}")
    if "variational" in running:
        if flags["seed"] < 0:
            raise InputError(f"--seed must be nonnegative for the variational section, got {flags['seed']}")
        d = len(spec.matrix)
        _at_most(f"--samples times d^3 (d = {d})", flags["samples"] * d**3, MAX_SCAN_WORK)
    warnings: list[str] = []
    results = {}
    for name, section, skip in plan:
        if skip is None:
            results[name] = section(spec, flags, warnings)
        else:
            warnings.append(skip)
    report = {
        "tool": "shiftkms",
        "version": __version__,
        "command": command,
        "input_echo": _echo(spec),
        "provenance": {
            "seed": flags["seed"],
            "max_n": flags["max_n"],
            "depth": flags["depth"],
            "samples": flags["samples"],
        },
        "warnings": warnings,
        "results": results,
    }
    if not flags["no_timestamp"]:
        report["provenance"]["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
    return report


class _Parser(argparse.ArgumentParser):
    # usage problems are bad input (exit 1); exit 2 is reserved for invariant
    # and solver failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(
        prog="shiftkms",
        description="KMS temperatures, subshift entropy and Parry measures from spec documents",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="path of a JSON spec document, or - for stdin")
    parser.add_argument("--max-n", type=int, default=30, dest="max_n")
    parser.add_argument("--depth", type=int, default=12)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {
        "max_n": args.max_n,
        "depth": args.depth,
        "samples": args.samples,
        "seed": args.seed,
        "no_timestamp": args.no_timestamp,
    }
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        spec = parse_spec(text)
        report = run(args.command, spec, flags)
        text_out = json.dumps(report, indent=2, allow_nan=False)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: numerical solver failed: {exc}", file=sys.stderr)
        return 2
    except (InputError, ReducibleMatrixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text_out + "\n")
    else:
        print(text_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
