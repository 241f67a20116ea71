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
so it is solved once and shared by every section.  `kms` gives an irreducible
matrix of either kind one state shape, with `kind` naming the document, and a
reducible one the bracket of its extremal KMS inverse temperatures from
temperature_sign; `all` skips the sections that need Perron data, and asked
for alone they are bad input.  Each section's fields are listed once, in report
order, in its `_fields` call.
A report is one line of compact JSON; `python -m json.tool` indents it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from itertools import chain
from operator import attrgetter

import numpy as np

from . import __version__, equilibrium, krieger, subshift, tracespace
from .beta import exact_base
from .equilibrium import InvariantViolation
from .spectral import ConvergenceError, as_count, as_nonnegative, irreducible, is_integral, perron_vectors
from .subshift import SFT, BetaShift, ForbiddenWords, FullShift


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
# samples times d^3, the work of the variational scan's stationary solves: at
# d = 256 the default 64 samples take 0.11 s on a 2-vCPU VM, 1000 take 1.6-1.7 s.
# The scan reuses two buffers of fixed size, so its memory does not grow with the samples
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
        except RecursionError:
            raise InputError("document nests deeper than the JSON reader allows") from None
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
            spec = BetaShift(beta=beta, digit_depth=digit_depth)
            bits = exact_base(beta).denominator.bit_length() * digit_depth
            _at_most("the denominator bits of field 'beta' times digit_depth", bits, MAX_BETA_BITS)
            return spec
        if kind == "nonnegative":
            return ("nonnegative", as_nonnegative(_matrix(doc)))
    except InputError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"invalid '{kind}' document: {exc}") from None
    raise InputError(f"unknown spec type {kind!r}")


def _need(doc, field):
    if field not in doc:
        raise InputError(f"missing field '{field}'")
    return doc[field]


def _alphabet(doc):
    return _at_most("field 'alphabet'", _integer(doc, "alphabet"), MAX_DIMENSION)


def _matrix(doc):
    """The matrix field; numpy reads "1", true and a bool among numbers as numbers, so its entries are read."""
    value = _need(doc, "matrix")
    M = np.asarray(value)
    _at_most("the dimension of field 'matrix'", max(M.shape, default=0), MAX_DIMENSION)
    if M.dtype.kind in "bSU" or M.ndim == 2 and not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(value))):
        raise InputError("field 'matrix' must hold numbers, not booleans or strings")
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


def _plain(value):
    """A report value as JSON: an array as nested lists, a tuple as a list of plain values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _fields(report, *names):
    """{key: plain value} of the report's fields, in the order given.  A name is an
    attribute of the report, or a (key, dotted attribute path) pair."""
    pairs = (name if isinstance(name, tuple) else (name, name) for name in names)
    return {key: _plain(attrgetter(path)(report)) for key, path in pairs}


def _echo(spec):
    if isinstance(spec, FullShift):
        return {"type": "full", "alphabet": spec.alphabet}
    if isinstance(spec, SFT):
        return {"type": "sft", "matrix": _plain(spec.matrix)}
    if isinstance(spec, ForbiddenWords):
        return {"type": "forbidden", "alphabet": spec.alphabet, "words": _plain(spec.words)}
    if isinstance(spec, BetaShift):
        return {
            "type": "beta",
            "beta": spec.beta if isinstance(spec.beta, str) else float(spec.beta),
            "digit_depth": spec.digit_depth,
        }
    kind, matrix = spec
    return {"type": kind, "matrix": _plain(matrix)}


def _section_entropy(spec, flags, warnings):
    est = subshift.topological_entropy(spec, flags["max_n"])
    return {**_fields(est, "theta", "log_rates", "extrapolated", "exact", "method"), "n_max": flags["max_n"]}


def _section_kms(spec, flags, warnings):
    kind, matrix = ("bimodule", spec[1]) if isinstance(spec, tuple) else ("cuntz-krieger", spec.matrix)
    if not irreducible(matrix):
        sign = tracespace.temperature_sign(matrix)
        bracket = [math.log(sign.lower), math.log(sign.upper)]  # the extremal KMS inverse temperatures
        return {"kind": kind, "lambda": None, "beta": None, "uniqueness": False, "bracket": bracket}
    report = tracespace.kms_temperature(matrix, depth=flags["depth"])
    return {"kind": kind, **_fields(
        report, ("lambda", "lam"), "beta", ("uniqueness", "uniqueness_flag"),
        ("eigen_levels", "eigen_sequence.levels"), ("eigen_residuals", "eigen_sequence.residuals"),
    )}


def _section_parry(spec, flags, warnings):
    return _fields(equilibrium.parry_measure(spec.matrix), ("lambda", "lam"), "transitions", "stationary", "entropy")


def _section_krieger(spec, flags, warnings):
    l_max = min(flags["max_n"], max(2, flags["depth"] - 2))
    report = krieger.sofic_check(spec, l_max, depth=flags["depth"])
    if not all(report.stabilized):
        warnings.append("krieger: stabilization not reached for some l; counts are lower bounds")
    return _fields(report, "counts", "stabilized", "sofic_detected", "l_max", "depth", "fixed_point_depth")


def _section_bracket(spec, flags, warnings):
    n_max = flags["max_n"]
    depth = flags["depth"] if flags["depth"] >= n_max else None
    report = krieger.entropy_bracket(spec, n_max, depth=depth)
    if depth is None:
        warnings.append(f"bracket: depth raised to {report.depth} to cover n_max")
    return _fields(
        report, "lower", "upper", "width", ("corrections", "correction_sequence"), "dims", "sofic_detected",
        "n_max", "depth", "fixed_point_depth",
    )


def _section_variational(spec, flags, warnings):
    report = equilibrium.variational_scan(spec.matrix, n_samples=flags["samples"], seed=flags["seed"])
    return _fields(
        report, "top_entropy", "parry_entropy", "max_entropy", "max_sampled", "gap", "identity_residual", "violations",
        "n_samples", "seed",
    )


def _section_resolvent(spec, flags, warnings):
    perron = perron_vectors(spec.matrix)
    v_dir = perron.v / perron.v.sum()
    rows = []
    for off in (0.5, 0.1, 0.01, 1e-4):
        rv = equilibrium.resolvent_vector(perron, perron.lam + off)
        a_dir = rv.a / rv.a.sum()
        rows.append({**_fields(rv, "t", "a", "pairing"), "alignment_l1": float(np.abs(a_dir - v_dir).sum())})
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
    reducible = (
        isinstance(spec, TRANSITION_MATRIX)
        and command in ("all", *NEEDS_PERRON)
        and not irreducible(spec.matrix)
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
        plan.append((name, section, skip))
    # the cli's own flag rules, before the first section runs: every flag is a count, checked once
    # for every command; a section's own minimum, such as n_samples >= 1, is checked in that section
    for key, bound in (("max_n", MAX_WORD_LENGTH), ("depth", MAX_WORD_LENGTH),
                       ("samples", MAX_SAMPLES), ("seed", math.inf)):
        flag = "--" + key.replace("_", "-")
        _at_most(flag, as_count(flags[key], flag), bound)
    running = {name for name, _, skip in plan if skip is None}
    if "krieger" in running and flags["depth"] < 2:
        raise InputError(f"--depth must be at least 2 for the krieger section, got {flags['depth']}")
    if "variational" in running:
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
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        spec = parse_spec(text)
        report = run(args.command, spec, vars(args))
        text_out = json.dumps(report, allow_nan=False, separators=(",", ":"))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text_out + "\n")
        else:
            print(text_out)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: numerical solver failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
