import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import shiftkms
from shiftkms import BetaShift, ForbiddenWords, FullShift, SFT, cli, equilibrium, krieger, subshift
from shiftkms.cli import (
    MAX_BETA_BITS,
    MAX_DIGIT_DEPTH,
    MAX_DIMENSION,
    MAX_FORBIDDEN_ENTRIES,
    MAX_FORBIDDEN_SYMBOLS,
    MAX_SAMPLES,
    MAX_SCAN_WORK,
    MAX_WORD_LENGTH,
    InputError,
    main,
    parse_spec,
    run,
)
from shiftkms.equilibrium import InvariantViolation
from shiftkms.spectral import ConvergenceError

import oracles
import report_digest

GOLDEN_DOC = '{"type": "sft", "matrix": [[1, 1], [1, 0]]}'

DEFAULT_FLAGS = {
    "max_n": 30,
    "depth": 12,
    "samples": 50,
    "seed": 0,
    "no_timestamp": True,
}


def test_parse_spec_examples():
    spec = parse_spec(GOLDEN_DOC)
    assert isinstance(spec, SFT)
    spec = parse_spec('{"type": "beta", "beta": 1.8392867552, "digit_depth": 64}')
    assert isinstance(spec, BetaShift)
    assert spec.digit_depth == 64
    spec = parse_spec('{"type": "forbidden", "alphabet": 2, "words": [[1, 1]]}')
    assert isinstance(spec, ForbiddenWords)
    spec = parse_spec('{"type": "full", "alphabet": 3}')
    assert isinstance(spec, FullShift)
    kind, M = parse_spec('{"type": "nonnegative", "matrix": [[0, 2], [3, 0]]}')
    assert kind == "nonnegative" and M.shape == (2, 2)


def test_parse_spec_diagnostics_name_the_field():
    with pytest.raises(InputError, match="type"):
        parse_spec("{}")
    with pytest.raises(InputError, match="matrix"):
        parse_spec('{"type": "sft"}')
    with pytest.raises(InputError, match="zero row"):
        parse_spec('{"type": "sft", "matrix": [[0, 0], [1, 1]]}')
    # the last two are rejected before Fraction(beta) builds 10^999999999
    for beta in ("0.5", '"1e-999999999"', '"0e999999999"'):
        with pytest.raises(InputError, match="beta must be a finite number > 1"):
            parse_spec('{"type": "beta", "beta": %s}' % beta)
    with pytest.raises(InputError, match="symbols outside"):
        parse_spec('{"type": "forbidden", "alphabet": 2, "words": [[3]]}')
    with pytest.raises(InputError, match="JSON"):
        parse_spec("{not json")
    with pytest.raises(InputError, match="^document must be a JSON object$"):
        parse_spec("[1]")
    with pytest.raises(InputError, match="unknown"):
        parse_spec('{"type": "mystery"}')
    for bad in ("2.7", "true", '"3"'):
        with pytest.raises(InputError, match="alphabet"):
            parse_spec('{"type": "full", "alphabet": %s}' % bad)
        with pytest.raises(InputError, match="alphabet"):
            parse_spec('{"type": "forbidden", "alphabet": %s, "words": [[1]]}' % bad)
        depth = bad.replace("2.7", "64.5")
        with pytest.raises(InputError, match="digit_depth"):
            parse_spec('{"type": "beta", "beta": 1.7, "digit_depth": %s}' % depth)


def test_parse_spec_fields_and_symbols_share_the_integer_rule():
    # a document given as a dict may hold numpy numbers: an integral one counts, as in a word
    assert parse_spec({"type": "full", "alphabet": np.int64(3)}) == FullShift(3)
    spec = parse_spec({"type": "forbidden", "alphabet": 2, "words": [[np.int64(1), np.float64(2.0)]]})
    assert spec.words == ((1, 2),)
    for bad in (np.bool_(True), np.float64(2.5)):
        with pytest.raises(InputError, match="alphabet"):
            parse_spec({"type": "full", "alphabet": bad})
        with pytest.raises(InputError, match="integer symbols"):
            parse_spec({"type": "forbidden", "alphabet": 2, "words": [[bad]]})


def test_cross_command_consistency():
    # a Perron solve on ones(26, 26) gives 25.999999999999993, not 26: both
    # sections read that one solve
    for doc in (GOLDEN_DOC, '{"type": "full", "alphabet": 26}', '{"type": "full", "alphabet": 28}'):
        spec = parse_spec(doc)
        kms = run("kms", spec, DEFAULT_FLAGS)["results"]["kms"]
        entropy = run("entropy", spec, DEFAULT_FLAGS)["results"]["entropy"]
        assert kms["beta"] == entropy["exact"], doc


def test_run_is_deterministic():
    spec = parse_spec(GOLDEN_DOC)
    a = json.dumps(run("all", spec, DEFAULT_FLAGS))
    b = json.dumps(run("all", spec, DEFAULT_FLAGS))
    assert a == b


def test_run_report_round_trips():
    spec = parse_spec(GOLDEN_DOC)
    report = run("parry", spec, DEFAULT_FLAGS)
    again = json.loads(json.dumps(report))
    assert again == report
    assert abs(report["results"]["parry"]["entropy"] - math.log((1 + 5**0.5) / 2)) < 1e-9


def test_run_bimodule_route(tmp_path, capsys):
    spec = parse_spec('{"type": "nonnegative", "matrix": [[0, 2], [3, 0]]}')
    section = run("kms", spec, DEFAULT_FLAGS)["results"]["kms"]
    assert section["kind"] == "bimodule"
    assert abs(section["beta"] - 0.5 * math.log(6)) < 1e-12
    assert section["uniqueness"] is False
    # lam < 1: the levels grow as lam^(-r), and coherence is read relative to their mass
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[0, 0.3], [0.5, 0]]}')
    assert main(["kms", str(doc), "--no-timestamp"]) == 0
    kms = json.loads(capsys.readouterr().out)["results"]["kms"]
    assert list(kms) == KMS_KEYS["irreducible"] and kms["kind"] == "bimodule"


def test_run_rejects_inapplicable_command():
    spec = parse_spec('{"type": "beta", "beta": 1.7, "digit_depth": 32}')
    with pytest.raises(InputError):
        run("parry", spec, DEFAULT_FLAGS)
    with pytest.raises(InputError, match="^unknown command 'nope'$"):
        run("nope", spec, DEFAULT_FLAGS)


def test_run_all_skips_inapplicable_with_warning():
    spec = parse_spec('{"type": "beta", "beta": 1.7, "digit_depth": 64}')
    flags = dict(DEFAULT_FLAGS, max_n=10, depth=12)
    report = run("all", spec, flags)
    assert "entropy" in report["results"]
    assert "parry" not in report["results"]
    assert any("parry" in w for w in report["warnings"])


def test_run_all_counts_the_krieger_classes_once(monkeypatch):
    # the krieger and bracket sections ask for the same class counts at these flags
    krieger._class_counts.cache_clear()
    calls = []
    reach_order = subshift.Automaton.reach_order

    def counted(self, l):
        calls.append(l)
        return reach_order(self, l)

    monkeypatch.setattr(subshift.Automaton, "reach_order", counted)
    spec = parse_spec('{"type": "beta", "beta": "1.2345", "digit_depth": 230}')
    report = run("all", spec, dict(DEFAULT_FLAGS, max_n=100, depth=110))
    assert "krieger" in report["results"] and "bracket" in report["results"]
    assert calls == [100]


def test_run_all_runs_one_reach_pass(monkeypatch):
    # the entropy, krieger and bracket sections read the automaton's one breadth-first pass
    passes = []
    reach = subshift.Automaton._reach.func

    def counted(self):
        passes.append(self.sink)
        return reach(self)

    counted_reach = functools.cached_property(counted)
    counted_reach.__set_name__(subshift.Automaton, "_reach")
    monkeypatch.setattr(subshift.Automaton, "_reach", counted_reach)
    spec = parse_spec('{"type": "beta", "beta": "1.2345"}')
    report = run("all", spec, DEFAULT_FLAGS)["results"]
    assert {"entropy", "krieger", "bracket"} <= set(report)
    assert passes == [65]  # the chain of digit_depth 64 + 1 states, with its sink 65


def test_run_all_gathers_each_subset_once(monkeypatch):
    # the krieger section walks the subset family to depth 12 and the bracket
    # section asks for depth 40 of the same walk, which has reached its fixed point
    spec = SFT(oracles.random_irreducible_zero_one(np.random.default_rng(45), 12, 0.4))
    gathered, take = [], np.take

    def counted(a, indices, axis=None):
        gathered.append(len(a))
        return take(a, indices, axis=axis)

    monkeypatch.setattr(np, "take", counted)
    report = run("all", spec, DEFAULT_FLAGS)["results"]
    monkeypatch.undo()
    assert (report["krieger"]["depth"], report["bracket"]["depth"]) == (12, 40)
    stop = report["bracket"]["fixed_point_depth"]
    assert stop == report["krieger"]["fixed_point_depth"] < 12
    family = oracles.subset_family_brute(subshift.automaton_for(spec), stop)
    assert sum(gathered) == len(set().union(*family))


def test_main_builds_no_parser(monkeypatch, tmp_path, capsys):
    # main parses with the parser built once, at import
    def refused():
        raise AssertionError("the parser is built again")

    monkeypatch.setattr(cli, "_build_parser", refused)
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["entropy", str(doc), "--no-timestamp", "--max-n", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["entropy"]["theta"] == [2, 3, 5, 8, 13]


SECTION_KEYS = {
    "entropy": ["theta", "log_rates", "extrapolated", "exact", "method", "n_max"],
    "parry": ["lambda", "transitions", "stationary", "entropy"],
    "krieger": ["counts", "stabilized", "sofic_detected", "l_max", "depth", "fixed_point_depth"],
    "bracket": [
        "lower", "upper", "width", "corrections", "dims", "sofic_detected", "n_max", "depth", "fixed_point_depth"
    ],
    "variational": [
        "top_entropy", "parry_entropy", "max_entropy", "max_sampled", "gap", "identity_residual", "violations",
        "n_samples", "seed",
    ],
    "resolvent": ["lambda", "schedule"],
}
# one key list for every irreducible matrix, 0/1 or a lambda-matrix
KMS_KEYS = {
    "irreducible": ["kind", "lambda", "beta", "uniqueness", "eigen_levels", "eigen_residuals"],
    "reducible": ["kind", "lambda", "beta", "uniqueness", "bracket"],
}
# (document, the sections of its `all` report, the route of its kms section)
KEY_ORDER_DOCS = [
    (GOLDEN_DOC, list(cli.SECTIONS), "irreducible"),
    ('{"type": "nonnegative", "matrix": [[0, 2], [3, 0]]}', ["kms"], "irreducible"),
    ('{"type": "nonnegative", "matrix": [[0, 0.3], [0.5, 0]]}', ["kms"], "irreducible"),
    ('{"type": "sft", "matrix": [[1, 1, 1], [1, 1, 0], [0, 0, 1]]}', ["entropy", "kms", "krieger", "bracket"],
     "reducible"),
    ('{"type": "nonnegative", "matrix": [[1, 1], [0, 2]]}', ["kms"], "reducible"),
    ('{"type": "beta", "beta": "1.7", "digit_depth": 230}', ["entropy", "krieger", "bracket"], None),
]


@pytest.mark.parametrize("doc, sections, kms_route", KEY_ORDER_DOCS, ids=range(len(KEY_ORDER_DOCS)))
def test_every_section_lists_its_keys_in_report_order_as_json_values(doc, sections, kms_route):
    spec = parse_spec(doc)
    keys = dict(SECTION_KEYS, kms=KMS_KEYS.get(kms_route))
    for command in cli.COMMANDS:
        if command not in (*sections, "all"):
            with pytest.raises(InputError):
                run(command, spec, DEFAULT_FLAGS)
            continue
        report = run(command, spec, DEFAULT_FLAGS)
        # a tuple, an array or a numpy integer left in the report breaks the round trip
        assert json.loads(json.dumps(report)) == report
        results = report["results"]
        assert list(results) == (sections if command == "all" else [command])
        for name, section in results.items():
            assert list(section) == keys[name], (command, name)
        for row in results.get("resolvent", {}).get("schedule", []):
            assert list(row) == ["t", "a", "pairing", "alignment_l1"]


def test_report_digest_lines_are_reproducible():
    documents = [report_digest.DOCUMENTS[i] for i in (1, 6, 12)]
    lines = list(report_digest.digest_lines(documents))
    assert len(lines) == 3 * len(cli.COMMANDS) * len(report_digest.FLAG_SETS)
    assert list(report_digest.digest_lines(documents)) == lines
    fields = [line.split(" ") for line in lines]
    assert all(len(f) == 6 and (f[5] == "-") == (f[3] != "0") for f in fields)
    assert any(f[3] == "0" for f in fields) and any(f[3] != "0" for f in fields)


def test_timestamp_toggle():
    spec = parse_spec(GOLDEN_DOC)
    with_ts = run("entropy", spec, dict(DEFAULT_FLAGS, no_timestamp=False))
    without = run("entropy", spec, DEFAULT_FLAGS)
    assert "timestamp" in with_ts["provenance"]
    assert "timestamp" not in without["provenance"]


def test_main_success_and_output_file(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    out = tmp_path / "report.json"
    code = main(["kms", str(doc), "--no-timestamp", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["results"]["kms"]["beta"] - math.log((1 + 5**0.5) / 2)) < 1e-10


def test_main_writes_one_line_of_compact_json(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    argv = ["all", str(doc), "--no-timestamp"]
    flags = vars(cli._build_parser().parse_args(argv))
    expected = json.dumps(run("all", parse_spec(GOLDEN_DOC), flags), allow_nan=False, separators=(",", ":")) + "\n"
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == expected and stdout.count("\n") == 1
    out = tmp_path / "report.json"
    assert main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == stdout


def test_main_stdout_identical_across_runs(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["variational", str(doc), "--no-timestamp", "--samples", "20"]) == 0
    first = capsys.readouterr().out
    assert main(["variational", str(doc), "--no-timestamp", "--samples", "20"]) == 0
    second = capsys.readouterr().out
    assert first == second


ZERO_ENTROPY_DOCS = [
    '{"type": "sft", "matrix": [[0, 1], [1, 0]]}',
    '{"type": "sft", "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}',
    '{"type": "sft", "matrix": [[1]]}',
    '{"type": "full", "alphabet": 1}',
]


@pytest.mark.parametrize("command", ["variational", "all"])
@pytest.mark.parametrize("doc", ZERO_ENTROPY_DOCS)
def test_zero_entropy_reports_print_no_negative_zero(doc, command, tmp_path, capsys):
    # each sampled chain of a zero-entropy shift has h = 0, printed as 0.0 like parry_entropy
    path = tmp_path / "spec.json"
    path.write_text(doc)
    assert main([command, str(path), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"-0\.0\b", out) is None, out
    section = json.loads(out)["results"]["variational"]
    assert section["max_sampled"] == section["max_entropy"] == section["parry_entropy"] == 0.0


def test_main_bad_input_exits_one(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"type": "sft", "matrix": [[1, 0], [1, 0]]}')
    assert main(["kms", str(doc)]) == 1
    assert main(["entropy", str(tmp_path / "missing.json")]) == 1
    doc.write_text(GOLDEN_DOC)
    assert main(["parry", str(doc)]) == 0


BIG_INT = "1" + "0" * 400  # 10**400, past the float range


@pytest.mark.parametrize(
    "doc, output, message",
    [
        ('{"type": "sft", "matrix": [[%s]]}' % BIG_INT, None, "invalid 'sft' document: int too large to convert to float"),
        ('{"type": "nonnegative", "matrix": [[%s]]}' % BIG_INT, None,
         "invalid 'nonnegative' document: int too large to convert to float"),
        ('{"type": "beta", "beta": %s}' % BIG_INT, None, "invalid 'beta' document: int too large to convert to float"),
        ('{"type": "beta", "beta": "1_5"}', None,
         "invalid 'beta' document: beta must be a plain decimal string, got '1_5'"),
        ('{"type": "sft", "matrix": %s}' % ("[" * 100000 + "]" * 100000), None,
         "document nests deeper than the JSON reader allows"),
        ("[" * 100000, None, "document nests deeper than the JSON reader allows"),
        (GOLDEN_DOC, "missing/report.json", "[Errno 2] No such file or directory: '{output}'"),
    ],
    ids=[
        "sft-overflow", "nonnegative-overflow", "beta-overflow", "beta-underscore", "deep-matrix", "deep-bare",
        "unwritable-output",
    ],
)
def test_main_bad_input_prints_one_error_line(doc, output, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    argv = ["all", str(path), "--no-timestamp"]
    if output:
        output = str(tmp_path / output)
        argv += ["--output", output]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(output=output)}\n")
    assert output is None or not os.path.exists(output)


def test_main_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command", "-"])
    assert exc.value.code == 1


def test_main_negative_seed_exits_one(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["variational", str(doc), "--seed", "-3"]) == 1
    assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -3\n")


@pytest.mark.parametrize("flag", ["--max-n", "--depth", "--samples", "--seed"])
@pytest.mark.parametrize(
    "command, text",
    [("entropy", GOLDEN_DOC), ("kms", '{"type": "nonnegative", "matrix": [[1, 2], [3, 1]]}'), ("all", GOLDEN_DOC)],
    ids=["entropy", "kms-lambda", "all"],
)
def test_main_every_flag_is_a_count_for_every_command(command, text, flag, tmp_path, capsys):
    # a lambda-matrix runs no krieger or variational section, whose flag rules once were the only ones
    doc = tmp_path / "spec.json"
    doc.write_text(text)
    assert main([command, str(doc), flag, "-2", "--no-timestamp"]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} must be >= 0, got -2\n")
    key = flag[2:].replace("-", "_")
    with pytest.raises(ValueError, match=f"{flag} must be an integer"):
        run(command, parse_spec(text), dict(DEFAULT_FLAGS, **{key: 1.5}))


def test_main_all_rejects_all_negative_flags_on_a_lambda_matrix(tmp_path, capsys):
    # this exited 0 and echoed the three negatives into provenance
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[1, 2], [3, 1]]}')
    assert main(["all", str(doc), "--max-n", "-1", "--samples", "-3", "--seed", "-2"]) == 1
    assert capsys.readouterr() == ("", "error: --max-n must be >= 0, got -1\n")


@pytest.mark.parametrize("mutation", ["entropy", "lambda"])
def test_main_variational_off_the_identity_exits_two(mutation, tmp_path, monkeypatch, capsys):
    # one sampled entropy 1e-6 low, or a lambda 1e-6 high: no sample exceeds log lambda
    if mutation == "entropy":
        entropies = equilibrium._block_entropies

        def perturbed(*args):
            h, kl = entropies(*args)
            h[0] -= 1e-6
            return h, kl

        monkeypatch.setattr(equilibrium, "_block_entropies", perturbed)
    else:
        parry = equilibrium.parry_measure

        def raised(A):
            m = parry(A)
            return dataclasses.replace(m, perron=dataclasses.replace(m.perron, lam=m.perron.lam * (1 + 1e-6)))

        monkeypatch.setattr(equilibrium, "parry_measure", raised)
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["variational", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invariant violation: identity log r(A) - h(P)")


def test_cli_bracket_on_beta_document(tmp_path, capsys):
    doc = tmp_path / "beta.json"
    doc.write_text('{"type": "beta", "beta": "1.7", "digit_depth": 80}')
    code = main(["bracket", str(doc), "--no-timestamp", "--max-n", "20", "--depth", "30"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    section = report["results"]["bracket"]
    assert section["dims"] == [n + 1 for n in range(1, 21)]
    assert not section["sofic_detected"]
    assert section["width"] > 0


def test_cli_krieger_and_bracket_agree_on_soficity_at_shallow_depth():
    results = run("all", FullShift(3), dict(DEFAULT_FLAGS, depth=4))["results"]
    assert results["krieger"]["sofic_detected"] and results["bracket"]["sofic_detected"]
    assert results["bracket"]["width"] == 0


def test_cli_beta_document_runs_all_at_default_flags():
    # 1.7 does not terminate, so digit_depth 64 caps the words: the bracket
    # depth defaults to 64 - 30 = 34, not max_n + 10 = 40
    spec = parse_spec('{"type": "beta", "beta": "1.7"}')
    for command in ("all", "bracket"):
        report = run(command, spec, DEFAULT_FLAGS)
        assert report["results"]["bracket"]["depth"] == 34
        assert "bracket: depth raised to 34 to cover n_max" in report["warnings"]
        assert not report["results"]["bracket"]["sofic_detected"]
    # an uncapped presentation keeps max_n + 10
    report = run("bracket", FullShift(2), DEFAULT_FLAGS)
    assert report["results"]["bracket"]["depth"] == 40
    assert report["warnings"] == ["bracket: depth raised to 40 to cover n_max"]


def test_cli_krieger_depth_error_names_the_flag(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["krieger", str(doc), "--depth", "1"]) == 1
    err = capsys.readouterr().err
    assert "--depth" in err and "l_max" not in err
    with pytest.raises(InputError, match="--depth"):
        run("all", FullShift(2), dict(DEFAULT_FLAGS, depth=1))


def test_cli_krieger_at_depth_two_warns_that_counts_are_lower_bounds():
    report = run("krieger", parse_spec(GOLDEN_DOC), dict(DEFAULT_FLAGS, depth=2))
    assert report["warnings"] == ["krieger: stabilization not reached for some l; counts are lower bounds"]


def test_main_invariant_violation_exits_two(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)

    def boom(*args, **kwargs):
        raise InvariantViolation("synthetic dominance failure")

    monkeypatch.setattr("shiftkms.cli.equilibrium.variational_scan", boom)
    assert main(["variational", str(doc)]) == 2


def test_main_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)

    def stuck(*args, **kwargs):
        raise ConvergenceError("synthetic stall")

    monkeypatch.setattr("shiftkms.cli.tracespace.kms_temperature", stuck)
    assert main(["kms", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "synthetic stall" in captured.err


def test_main_stalled_automaton_power_iteration_exits_two(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "forbidden", "alphabet": 2, "words": [[2, 2]]}')
    monkeypatch.setattr("shiftkms.spectral._MAX_STEPS", 3)
    assert main(["entropy", str(doc), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "did not converge in 3 steps" in captured.err


def test_all_reports_the_exact_entropy_of_a_264_state_automaton():
    words = np.random.default_rng(30).integers(1, 3, (40, 12)).tolist()
    spec = ForbiddenWords(2, tuple(map(tuple, words)))
    assert subshift.automaton_for(spec).sink == 264
    report = json.loads(json.dumps(run("all", spec, DEFAULT_FLAGS)))["results"]
    assert report["entropy"]["method"] == "automaton-transfer-matrix"
    assert report["entropy"]["exact"] is not None
    assert report["entropy"]["exact"] == report["bracket"]["lower"] == report["bracket"]["upper"]


def test_main_non_finite_lambda_exits_two(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[1e308, 1e308], [1e308, 1e308]]}')
    assert main(["kms", str(doc), "--no-timestamp"]) == 2
    assert capsys.readouterr().out == ""


def test_main_reducible_lambda_with_an_overflowing_block_exits_two(tmp_path, capsys):
    # the bracket of a reducible lambda-matrix needs the radius of each block; this one's overflows
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[1e308, 1e308, 0], [1e308, 1e308, 0], [1, 1, 1]]}')
    for command in ("kms", "all"):
        assert main([command, str(doc), "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: numerical solver failed")


@pytest.mark.parametrize(
    "matrix, argv", [([[0, 0.3], [0.5, 0]], ["--depth", "1000"]), ([[1e-300]], [])], ids=["depth1000", "tiny"]
)
def test_main_bimodule_sequence_past_the_float_range_exits_one(matrix, argv, tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps({"type": "nonnegative", "matrix": matrix}))
    assert main(["all", str(doc), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "depth" in captured.err


def test_main_kms_levels_past_the_float_range_exit_one(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "full", "alphabet": 256}')
    assert main(["kms", str(doc), "--depth", "1000", "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "depth = 1000" in captured.err
    assert main(["kms", str(doc), "--depth", "100", "--no-timestamp"]) == 0
    levels = json.loads(capsys.readouterr().out)["results"]["kms"]["eigen_levels"]
    assert len(levels) == 101 and min(min(t) for t in levels) > 0


def test_main_overflowing_lambda_prints_only_the_error(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[1e308, 1e308], [1e308, 1e308]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kms", str(doc), "--no-timestamp"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"type": "full", "alphabet": 2}'))
    assert main(["entropy", "-", "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["results"]["entropy"]["exact"] - math.log(2)) < 1e-15


# one oversized value per bounded field of a document (bounds in shiftkms.cli)
OVERSIZED_DOCS = [
    ("alphabet", {"type": "full", "alphabet": 100_000_000}),
    ("alphabet", {"type": "forbidden", "alphabet": 257, "words": [[1]]}),
    ("matrix", {"type": "sft", "matrix": np.ones((257, 257)).tolist()}),
    ("matrix", {"type": "nonnegative", "matrix": np.ones((257, 257)).tolist()}),
    ("beta", {"type": "beta", "beta": 256.5}),
    ("beta", {"type": "beta", "beta": "1e400"}),
    ("beta", {"type": "beta", "beta": "nan"}),
    # 400 decimals: the exact Renyi map would run on numbers of 5.4 million bits
    ("beta", {"type": "beta", "beta": "1." + "1234567890" * 40, "digit_depth": 4096}),
    ("digit_depth", {"type": "beta", "beta": 1.7, "digit_depth": 4097}),
    ("words", {"type": "forbidden", "alphabet": 2, "words": [[1, 2]] * 2048 + [[1]]}),
    ("words", {"type": "forbidden", "alphabet": 256, "words": [[1, 2, 3, 4]] * 65}),
]


@pytest.mark.parametrize("field,doc", OVERSIZED_DOCS, ids=[f for f, _ in OVERSIZED_DOCS])
def test_parse_spec_rejects_oversized_field(field, doc):
    with pytest.raises(InputError, match=f"field '{field}'"):
        parse_spec(doc)


# one oversized value per bounded flag; the variational scan's work is
# samples x d^3, so at d = 64 samples stop at 2^34 / 64^3
OVERSIZED_FLAGS = [
    ("--max-n", "entropy", FullShift(2), {"max_n": 1001}),
    ("--depth", "entropy", FullShift(2), {"depth": 1001}),
    ("--samples", "entropy", FullShift(2), {"samples": 100_001}),
    ("--samples", "variational", FullShift(64), {"samples": 65537}),
    ("--samples", "all", FullShift(64), {"samples": 65537}),
]


@pytest.mark.parametrize("name,command,spec,flags", OVERSIZED_FLAGS, ids=[f[0] for f in OVERSIZED_FLAGS])
def test_run_rejects_oversized_flag(name, command, spec, flags):
    with pytest.raises(InputError, match=re.escape(name)):
        run(command, spec, dict(DEFAULT_FLAGS, **flags))


def test_bounds_themselves_are_accepted():
    assert parse_spec({"type": "full", "alphabet": MAX_DIMENSION}).alphabet == MAX_DIMENSION
    square = np.ones((MAX_DIMENSION, MAX_DIMENSION)).tolist()
    assert parse_spec({"type": "sft", "matrix": square}).matrix.shape[0] == MAX_DIMENSION
    spec = parse_spec({"type": "beta", "beta": MAX_DIMENSION, "digit_depth": MAX_DIGIT_DEPTH})
    assert spec.alphabet == MAX_DIMENSION and spec.digit_depth == MAX_DIGIT_DEPTH
    # every float base at every digit_depth: its denominator is at most 2^52
    assert 53 * MAX_DIGIT_DEPTH <= MAX_BETA_BITS
    assert parse_spec({"type": "beta", "beta": 1.0 + 2.0**-52, "digit_depth": MAX_DIGIT_DEPTH})
    # 10^20 has 67 bits, so 20 decimals are admitted at MAX_BETA_BITS // 67 digits and no more
    twenty = "1.50000000000000000001"
    assert parse_spec({"type": "beta", "beta": twenty, "digit_depth": MAX_BETA_BITS // 67})
    with pytest.raises(InputError, match="field 'beta'"):
        parse_spec({"type": "beta", "beta": twenty, "digit_depth": MAX_BETA_BITS // 67 + 1})
    flags = dict(DEFAULT_FLAGS, max_n=MAX_WORD_LENGTH, depth=MAX_WORD_LENGTH, samples=MAX_SAMPLES)
    assert run("entropy", FullShift(2), flags)["results"]["entropy"]["n_max"] == MAX_WORD_LENGTH
    # the samples x d^3 bound only applies where the scan runs
    assert run("entropy", FullShift(64), dict(DEFAULT_FLAGS, samples=65537))["results"]
    assert MAX_SCAN_WORK // 64**3 == 65536
    # and it admits the default samples at the largest dimension
    assert MAX_SCAN_WORK // MAX_DIMENSION**3 >= cli._build_parser().get_default("samples")


@pytest.mark.parametrize(
    "max_n, message", [("1", "l_max must be >= 2"), ("-1", "--max-n must be >= 0")], ids=["1", "-1"]
)
def test_krieger_max_n_below_two_is_bad_input(max_n, message, tmp_path, capsys):
    # a negative flag is no count for any command; 0 and 1 are, and the section owns l_max >= 2
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["krieger", str(doc), "--max-n", max_n]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    # from 2 on, l_max is max_n capped at depth - 2 and never below 2
    for n, depth, l_max in ((2, 12, 2), (5, 12, 5), (30, 12, 10), (30, 3, 2)):
        report = run("krieger", parse_spec(GOLDEN_DOC), dict(DEFAULT_FLAGS, max_n=n, depth=depth))
        assert report["results"]["krieger"]["l_max"] == l_max


@pytest.mark.parametrize(
    "flag, value, message",
    [("--max-n", "3", "n_max must be >= 4"), ("--samples", "0", "n_samples must be >= 1")],
)
def test_main_all_checks_a_library_minimum_in_its_own_section(flag, value, message, tmp_path, capsys):
    # sections before the one that owns the rule run; the report is never written
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["all", str(doc), flag, value, "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_main_all_runs_at_default_flags_on_d128(tmp_path):
    matrix = oracles.random_irreducible_zero_one(np.random.default_rng(128), 128, 0.6)
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps({"type": "sft", "matrix": matrix.tolist()}))
    assert main(["all", str(doc), "--no-timestamp", "--output", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("flag, value", [("--depth", "1"), ("--seed", "-3")])
def test_main_all_rejects_flags_before_any_section_runs(flag, value, tmp_path, monkeypatch):
    calls = []
    for name, (types, section) in cli.SECTIONS.items():

        def counted(*args, _name=name, _section=section):
            calls.append(_name)
            return _section(*args)

        monkeypatch.setitem(cli.SECTIONS, name, (types, counted))
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["all", str(doc), flag, value]) == 1
    assert calls == []
    # a section's minimum is only checked where the section runs; a negative flag is no count for any command
    counted = flag != "--seed"
    assert main(["entropy", str(doc), flag, value, "--output", str(tmp_path / "out.json")]) == (0 if counted else 1)
    assert calls == (["entropy"] if counted else [])


def test_forbidden_bounds_themselves_are_accepted():
    words = [[1, 2, 3, 4]] * (MAX_FORBIDDEN_SYMBOLS // 4)
    assert len(parse_spec({"type": "forbidden", "alphabet": 16, "words": words}).words) == 1024
    words = [[1, 2, 3, 4]] * (MAX_FORBIDDEN_ENTRIES // 256 // 4)
    assert len(parse_spec({"type": "forbidden", "alphabet": 256, "words": words}).words) == 64


def test_forbidden_symbols_must_be_json_integers():
    for bad in ("[[1.5, 2]]", "[[true, 2]]", '[["1", 2]]', "[[null]]", "[1, 2]", "3", '"12"'):
        with pytest.raises(InputError, match="field 'words'"):
            parse_spec('{"type": "forbidden", "alphabet": 2, "words": %s}' % bad)
    spec = parse_spec('{"type": "forbidden", "alphabet": 2, "words": [[2.0, 1]]}')
    assert spec.words == ((2, 1),) and type(spec.words[0][0]) is int


def test_main_bad_forbidden_symbol_exits_one(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "forbidden", "alphabet": 2, "words": [[true, 2]]}')
    assert main(["all", str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "field 'words'" in captured.err


@pytest.mark.parametrize(
    "doc",
    [
        '{"type": "sft", "matrix": [["1", "1"], ["1", "0"]]}',
        '{"type": "sft", "matrix": [[true, true], [true, false]]}',
        '{"type": "sft", "matrix": [[1, true], [1, 0]]}',
        '{"type": "nonnegative", "matrix": [["0.5", 1], [1, 0]]}',
    ],
    ids=["strings", "booleans", "a-boolean", "nonnegative-string"],
)
def test_matrix_entries_must_be_json_numbers(doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    assert main(["kms", str(path), "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "field 'matrix'" in captured.err


def test_main_refuses_a_matrix_entry_of_two(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"type": "sft", "matrix": [[1, 2], [1, 0]]}')
    assert main(["all", str(path), "--no-timestamp"]) == 1
    assert capsys.readouterr() == ("", "error: invalid 'sft' document: matrix entries must be 0 or 1\n")


def test_matrix_entries_of_any_number_type_are_accepted():
    assert parse_spec('{"type": "sft", "matrix": [[1, 1.0], [1, 0]]}').matrix.tolist() == [[1, 1], [1, 0]]
    spec = parse_spec({"type": "sft", "matrix": [[np.int8(1), np.float64(1)], [1, 0]]})
    assert spec.matrix.tolist() == [[1, 1], [1, 0]]
    kind, M = parse_spec({"type": "nonnegative", "matrix": np.ones((2, 2), dtype=np.float32)})
    assert M.tolist() == [[1, 1], [1, 1]]


LAMBDA_DOC = '{"type": "nonnegative", "matrix": [[0, 2], [3, 0]]}'


REDUCIBLE_DOC = '{"type": "sft", "matrix": [[1, 1], [0, 1]]}'


@pytest.mark.parametrize(
    "doc",
    [GOLDEN_DOC, LAMBDA_DOC, REDUCIBLE_DOC, '{"type": "nonnegative", "matrix": [[1, 1], [0, 2]]}'],
    ids=["sft", "lambda", "reducible-sft", "reducible-lambda"],
)
def test_main_kms_negative_depth_exits_one(doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    assert main(["kms", str(path), "--depth", "-1", "--no-timestamp"]) == 1
    assert capsys.readouterr() == ("", "error: --depth must be >= 0, got -1\n")


def test_all_in_reducible_mode_skips_the_perron_sections(tmp_path, capsys):
    report = run("all", parse_spec(REDUCIBLE_DOC), DEFAULT_FLAGS)
    assert list(report["results"]) == ["entropy", "kms", "krieger", "bracket"]
    assert report["results"]["kms"]["bracket"]
    for name in ("parry", "variational", "resolvent"):
        assert sum(w.startswith(f"{name}:") for w in report["warnings"]) == 1
    doc = tmp_path / "spec.json"
    doc.write_text(REDUCIBLE_DOC)
    assert main(["all", str(doc), "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == json.loads(json.dumps(report["results"]))


@pytest.mark.parametrize("command", cli.NEEDS_PERRON)
def test_perron_command_alone_on_a_reducible_matrix_is_bad_input(command, tmp_path, capsys, monkeypatch):
    # the check that makes `all` skip the section names the command, before its flags are read
    monkeypatch.setitem(cli.SECTIONS, command, (cli.TRANSITION_MATRIX, None))
    with pytest.raises(InputError, match=f"command '{command}' needs an irreducible matrix"):
        run(command, parse_spec(REDUCIBLE_DOC), dict(DEFAULT_FLAGS, seed=-1))
    doc = tmp_path / "spec.json"
    doc.write_text(REDUCIBLE_DOC)
    assert main([command, str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"command '{command}'" in captured.err


def test_kms_reducible_mode_reports_the_extremal_temperatures(tmp_path, capsys):
    # the only lambda with a nonnegative A u = lambda u is 2: the class {3}
    # (radius 1) has the class {1, 2} (radius 2) upstream of it
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "sft", "matrix": [[1, 1, 1], [1, 1, 0], [0, 0, 1]]}')
    assert main(["kms", str(doc), "--no-timestamp"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["warnings"] == [] and captured.err == ""
    assert report["results"]["kms"] == {
        "kind": "cuntz-krieger",
        "lambda": None,
        "beta": None,
        "uniqueness": False,
        "bracket": [math.log(2), math.log(2)],
    }


@pytest.mark.parametrize(
    "matrix, bracket",
    [([[1, 1], [0, 2]], [0.0, math.log(2)]), ([[0.5, 1, 0], [0, 2, 0], [0, 1, 3]], [math.log(0.5), math.log(3)])],
)
def test_kms_on_a_reducible_lambda_matrix_reports_the_extremal_temperatures(matrix, bracket, tmp_path, capsys):
    # a reducible nonnegative document takes the route of a reducible SFT (Schneider 1986;
    # an Huef, Laca, Raeburn and Sims 2015): the distinguished radii of [[0.5, 1, 0], [0, 2, 0],
    # [0, 1, 3]] are 0.5 and 3, since the class {2} (radius 2) has the class {3} upstream of it
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps({"type": "nonnegative", "matrix": matrix}))
    for command in ("kms", "all"):
        assert main([command, str(doc), "--no-timestamp"]) == 0
        captured = capsys.readouterr()
        kms = json.loads(captured.out)["results"]["kms"]
        assert captured.err == "" and kms.pop("bracket") == pytest.approx(bracket, abs=1e-12)
        assert kms == {"kind": "bimodule", "lambda": None, "beta": None, "uniqueness": False}


def test_kms_on_a_lambda_matrix_with_a_zero_row_names_the_cuntz_krieger_condition(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[1, 1], [0, 0]]}')
    for command in ("kms", "all"):
        assert main([command, str(doc), "--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: matrix must have no zero row and no zero column\n"


def test_kms_reducible_mode_bracket_matches_the_distinguished_classes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        matrix = oracles.random_reducible_zero_one(rng)
        report = run("kms", SFT(matrix), DEFAULT_FLAGS)
        assert report["warnings"] == []
        lower, upper = report["results"]["kms"]["bracket"]
        expected = oracles.distinguished_temperatures_brute(matrix)
        assert abs(lower - expected[0]) <= 1e-12 and abs(upper - expected[1]) <= 1e-12


def test_main_rejects_bad_tol_before_any_section(tmp_path, capsys):
    # --tol and --reducible-mode are gone: passing one is a usage error, not a silent no-op
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    for argv in (["--tol", "1e-12"], ["--reducible-mode"]):
        with pytest.raises(SystemExit) as exc:
            main(["all", str(doc), *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and argv[0] in captured.err


# Exact fields of `all` on the README documents and a forbidden-word document
# whose automaton states are relabelled.
GOLDEN_FIELDS = [
    ('{"type": "full", "alphabet": 3}', {
        "theta": [3**n for n in range(1, 25)],
        "counts": [1] * 10, "stabilized": [True] * 10, "krieger_fixed": 0, "krieger_sofic": True,
        "dims": [1] * 24, "bracket_fixed": 0, "bracket_sofic": True}),
    (GOLDEN_DOC, {
        "theta": [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765,
                  10946, 17711, 28657, 46368, 75025, 121393],
        "counts": [2] * 10, "stabilized": [True] * 10, "krieger_fixed": 1, "krieger_sofic": True,
        "dims": [2] * 24, "bracket_fixed": 1, "bracket_sofic": True}),
    ('{"type": "forbidden", "alphabet": 2, "words": [[1, 1]]}', {
        "theta": [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765,
                  10946, 17711, 28657, 46368, 75025, 121393],
        "counts": [2] * 10, "stabilized": [True] * 10, "krieger_fixed": 1, "krieger_sofic": True,
        "dims": [2] * 24, "bracket_fixed": 1, "bracket_sofic": True}),
    ('{"type": "beta", "beta": 1.8392867552, "digit_depth": 64}', {
        "theta": [2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705, 3136, 5768, 10609, 19513, 35890,
                  66012, 121415, 223317, 410744, 755476, 1389537, 2555757],
        "counts": [2] + [3] * 9, "stabilized": [True] * 10, "krieger_fixed": 2, "krieger_sofic": True,
        "dims": [2] + [3] * 23, "bracket_fixed": 2, "bracket_sofic": True}),
    ('{"type": "nonnegative", "matrix": [[0, 2], [3, 0]]}', {}),
    ('{"type": "forbidden", "alphabet": 3, "words": [[1, 2], [3, 3, 1]]}', {
        "theta": [3, 8, 20, 50, 125, 313, 784, 1964, 4920, 12325, 30875, 77344, 193752, 485362,
                  1215865, 3045825, 7630000, 19113672, 47881056, 119945321, 300471235, 752701000,
                  1885567500, 4723475586],
        "counts": [3] + [4] * 9, "stabilized": [True] * 10, "krieger_fixed": 2, "krieger_sofic": True,
        "dims": [3] + [4] * 23, "bracket_fixed": 2, "bracket_sofic": True}),
]


@pytest.mark.parametrize("doc,expected", GOLDEN_FIELDS, ids=range(len(GOLDEN_FIELDS)))
def test_all_exact_fields_are_pinned(doc, expected):
    results = run("all", parse_spec(doc), dict(DEFAULT_FLAGS, max_n=24))["results"]
    got = {}
    if "entropy" in results:
        krieger, bracket = results["krieger"], results["bracket"]
        got = {
            "theta": results["entropy"]["theta"],
            "counts": krieger["counts"],
            "stabilized": krieger["stabilized"],
            "krieger_fixed": krieger["fixed_point_depth"],
            "krieger_sofic": krieger["sofic_detected"],
            "dims": bracket["dims"],
            "bracket_fixed": bracket["fixed_point_depth"],
            "bracket_sofic": bracket["sofic_detected"],
        }
    assert got == expected


def test_readme_tribonacci_document_runs_all_at_default_flags():
    # a terminated expansion is presented by its finite follower graph, so no
    # word length is capped by digit_depth
    doc = '{"type": "beta", "beta": 1.8392867552, "digit_depth": 64}'
    flags = dict(DEFAULT_FLAGS, max_n=100, depth=110)
    for report in (run("all", parse_spec(doc), DEFAULT_FLAGS), run("all", parse_spec(doc), flags)):
        bracket = report["results"]["bracket"]
        assert bracket["sofic_detected"] and bracket["width"] == 0
        assert bracket["fixed_point_depth"] == report["results"]["krieger"]["fixed_point_depth"] == 2


def test_cli_import_leaves_mpmath_out():
    # beta digits are exact integer arithmetic; mpmath is a test dependency only
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftkms.__file__)))
    code = "import sys, shiftkms.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_python_dash_m_runs_main(monkeypatch, capsys):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftkms.__file__)))
    argv = [sys.executable, "-m", "shiftkms", "all", "-", "--no-timestamp"]
    out = subprocess.run(argv, input=GOLDEN_DOC, env=env, capture_output=True, text=True, timeout=120)
    monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_DOC))
    assert main(["all", "-", "--no-timestamp"]) == 0
    assert (out.returncode, out.stdout, out.stderr) == (0, capsys.readouterr().out, "")


def test_all_on_every_document_type_leaves_numpy_ma_out(tmp_path):
    # np.unique imports numpy.ma on first use: about 1.3 MB of peak RSS and 18 ms
    docs = (
        '{"type": "full", "alphabet": 3}',
        GOLDEN_DOC,
        '{"type": "forbidden", "alphabet": 3, "words": [[1, 2], [3, 3, 1]]}',
        '{"type": "beta", "beta": "1.7", "digit_depth": 64}',
        '{"type": "nonnegative", "matrix": [[0, 2], [3, 1]]}',
    )
    paths = []
    for i, doc in enumerate(docs):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(doc)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftkms.__file__)))
    code = (
        "import sys\nfrom shiftkms.cli import main\n"
        "codes = [main(['all', p, '--no-timestamp', '--output', p + '.out']) for p in sys.argv[1:]]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    argv = [sys.executable, "-c", code, *map(str, paths)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] False"
