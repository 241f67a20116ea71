import json
import math
import warnings

import numpy as np
import pytest

from shiftkms import BetaShift, ForbiddenWords, FullShift, SFT
from shiftkms.cli import InputError, main, parse_spec, run
from shiftkms.equilibrium import InvariantViolation
from shiftkms.spectral import ConvergenceError

GOLDEN_DOC = '{"type": "sft", "matrix": [[1, 1], [1, 0]]}'

DEFAULT_FLAGS = {
    "max_n": 30,
    "depth": 12,
    "tol": 1e-12,
    "samples": 50,
    "seed": 0,
    "reducible_mode": False,
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
    with pytest.raises(InputError, match="beta"):
        parse_spec('{"type": "beta", "beta": 0.5}')
    with pytest.raises(InputError, match="symbols outside"):
        parse_spec('{"type": "forbidden", "alphabet": 2, "words": [[3]]}')
    with pytest.raises(InputError, match="JSON"):
        parse_spec("{not json")
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


def test_cross_command_consistency():
    spec = parse_spec(GOLDEN_DOC)
    kms = run("kms", spec, DEFAULT_FLAGS)["results"]["kms"]
    entropy = run("entropy", spec, DEFAULT_FLAGS)["results"]["entropy"]
    assert kms["beta"] == entropy["exact"]


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


def test_run_bimodule_route():
    spec = parse_spec('{"type": "nonnegative", "matrix": [[0, 2], [3, 0]]}')
    section = run("kms", spec, DEFAULT_FLAGS)["results"]["kms"]
    assert section["kind"] == "bimodule"
    assert abs(section["beta"] - 0.5 * math.log(6)) < 1e-12


def test_run_rejects_inapplicable_command():
    spec = parse_spec('{"type": "beta", "beta": 1.7, "digit_depth": 32}')
    with pytest.raises(InputError):
        run("parry", spec, DEFAULT_FLAGS)


def test_run_all_skips_inapplicable_with_warning():
    spec = parse_spec('{"type": "beta", "beta": 1.7, "digit_depth": 64}')
    flags = dict(DEFAULT_FLAGS, max_n=10, depth=12)
    report = run("all", spec, flags)
    assert "entropy" in report["results"]
    assert "parry" not in report["results"]
    assert any("parry" in w for w in report["warnings"])


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


def test_main_stdout_identical_across_runs(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["variational", str(doc), "--no-timestamp", "--samples", "20"]) == 0
    first = capsys.readouterr().out
    assert main(["variational", str(doc), "--no-timestamp", "--samples", "20"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_main_bad_input_exits_one(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"type": "sft", "matrix": [[1, 0], [1, 0]]}')
    assert main(["kms", str(doc)]) == 1
    assert main(["entropy", str(tmp_path / "missing.json")]) == 1
    doc.write_text(GOLDEN_DOC)
    assert main(["parry", str(doc), "--reducible-mode"]) == 0


def test_main_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command", "-"])
    assert exc.value.code == 1


def test_main_negative_seed_exits_one(tmp_path):
    doc = tmp_path / "spec.json"
    doc.write_text(GOLDEN_DOC)
    assert main(["variational", str(doc), "--seed", "-3"]) == 1


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


def test_main_non_finite_lambda_exits_two(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[1e308, 1e308], [1e308, 1e308]]}')
    assert main(["kms", str(doc), "--no-timestamp"]) == 2
    assert capsys.readouterr().out == ""


def test_main_overflowing_lambda_prints_only_the_error(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text('{"type": "nonnegative", "matrix": [[1e308, 1e308], [1e308, 1e308]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kms", str(doc), "--no-timestamp"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_main_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"type": "full", "alphabet": 2}'))
    assert main(["entropy", "-", "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["results"]["entropy"]["exact"] - math.log(2)) < 1e-15
