"""End-to-end CLI behavior: exit codes, payload routing, --out/--quiet."""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelgen import program_model
from symbiosis_kit import cli
from symbiosis_kit.model import COLLECTIONS, FIELDS
from symbiosis_kit.serializer import serialize

CLEAN_MODEL = """
stakeholder s { name: "S" }
universe u { facets: a }
objective BO1 { object: "x" scope: u.* "everywhere" purpose: "p" viewpoint: s context: "c" }
"""


@pytest.fixture
def clean_sym(tmp_path):
    path = tmp_path / "clean.sym"
    path.write_text(CLEAN_MODEL, encoding="utf-8")
    return path


@pytest.fixture
def error_sym(tmp_path):
    path = tmp_path / "broken.sym"
    path.write_text(CLEAN_MODEL + "objective BO2 { refines: GHOST }", encoding="utf-8")
    return path


# -- check ---------------------------------------------------------------------


def test_check_clean_model(corpus, capsys):
    assert cli.main(["check", str(corpus / "jpmorgan.sym")]) == 0
    out, err = capsys.readouterr()
    assert out == ""  # no diagnostics: empty payload
    assert "checked 1 file(s): 0 error(s), 0 warning(s)" in err


def test_check_warnings_exit_zero_unless_strict(corpus, capsys):
    path = str(corpus / "heartland_broken.sym")
    assert cli.main(["check", path]) == 0
    out, err = capsys.readouterr()
    assert "V009" in out and "V004" in out
    assert "0 error(s), 3 warning(s)" in err
    assert cli.main(["check", "--strict", path]) == 1


def test_check_errors_exit_one(error_sym, capsys):
    assert cli.main(["check", str(error_sym)]) == 1
    out, err = capsys.readouterr()
    assert "V002" in out
    assert "GHOST" in out


@pytest.mark.parametrize(
    "old, new, location, digit",
    [
        # an objective's priority: Arabic-Indic three, which `check` once read as 3
        ("  depends_on: BO1.1\n", '  depends_on: BO1.1\n  priority: \u0663\n  priority_justification: "x"\n', "51:13", "\u0663"),
        ("  created: 2014-01-15", "  created: \u0662\u0660\u0661\u0664-\u0660\u0661-\u0661\u0665", "208:12", "\u0662"),
    ],
    ids=["priority", "created"],
)
def test_non_ascii_digits_are_p001(corpus, tmp_path, capsys, old, new, location, digit):
    text = (corpus / "jpmorgan.sym").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "digits.sym"
    edited = text.replace(old, new, 1)
    path.write_text(edited, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 1
    out, _ = capsys.readouterr()
    assert f"P001 error {path}:{location} - unexpected character {digit!r}\n" in out
    assert cli.main(["fmt", str(path)]) == 1
    assert path.read_text(encoding="utf-8") == edited


def _with_model(command, model, corpus):
    """Arguments running `command` on `model`; other inputs are clean corpus files."""
    clean = str(corpus / "jpmorgan.sym")
    log = ["--measurements", str(corpus / "logs" / "jpmorgan_2014-01.jsonl")]
    return {
        "check": ["check", model],
        "render": ["render", model],
        "graph": ["graph", model],
        "eval": ["eval", model, *log, "--metric", "all", "--period", "2014-01"],
        "report": ["report", model, *log, "--from", "2014-01", "--to", "2014-01"],
        "impact-old": ["impact", model, clean],
        "impact-new": ["impact", clean, model],
        "fmt": ["fmt", model],
    }[command]


MODEL_COMMANDS = ["check", "render", "graph", "eval", "report", "impact-old", "impact-new", "fmt"]


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_missing_model_is_usage_error(corpus, tmp_path, capsys, command):
    path = str(tmp_path / "absent.sym")
    assert cli.main(_with_model(command, path, corpus)) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == f"error: cannot read {path!r}: [Errno 2] No such file or directory: {path!r}\n"


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_model_that_is_not_utf8_is_usage_error(corpus, tmp_path, capsys, command):
    path = tmp_path / "latin1.sym"
    path.write_bytes(b'stakeholder S { name: "\xff" }')
    assert cli.main(_with_model(command, str(path), corpus)) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err
    assert path.read_bytes() == b'stakeholder S { name: "\xff" }'


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "jpmorgan.sym"],
        ["graph", "jpmorgan.sym"],
        ["report", "jpmorgan.sym", "--measurements", "logs/jpmorgan_2014-01.jsonl", "--from", "2014-01", "--to", "2014-01"],
        ["fmt", "jpmorgan.sym"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_usage_error(corpus, tmp_path, capsys, argv):
    target = str(tmp_path / "missing" / "x")
    argv = [str(corpus / arg) if arg.endswith((".sym", ".jsonl")) else arg for arg in argv]
    before = (corpus / "jpmorgan.sym").read_bytes()
    assert cli.main(argv + ["--out", target]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.endswith(f"error: cannot write {target!r}: [Errno 2] No such file or directory: {target!r}\n")
    assert "Traceback" not in err
    assert (corpus / "jpmorgan.sym").read_bytes() == before


@pytest.mark.parametrize("field", ["priority", "band", "domain", "function"])
def test_check_of_a_number_beyond_the_float_range_is_p001_not_a_traceback(tmp_path, capsys, field):
    from test_parser import TOO_LARGE

    path = tmp_path / "huge.sym"
    path.write_text(TOO_LARGE[field], encoding="utf-8")
    assert cli.main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "P001" in out and "number too large" in out
    assert "Traceback" not in err
    assert cli.main(["fmt", str(path)]) == 1
    assert path.read_text(encoding="utf-8") == TOO_LARGE[field]


def test_check_of_a_model_and_include_with_byte_order_marks(tmp_path, capsys):
    (tmp_path / "part.sym").write_text('\ufeffstakeholder t { name: "T" }\n', encoding="utf-8")
    main = tmp_path / "main.sym"
    main.write_text("\ufeff" + CLEAN_MODEL.lstrip() + 'include "part.sym"\n', encoding="utf-8")
    assert cli.main(["check", str(main)]) == 0
    out, err = capsys.readouterr()
    # CLEAN_MODEL's one finding, at the same place as without the marks
    assert out == f"V004 warning {main}:3:11 BO1 leaf objective 'BO1' is not measured by any measurement goal\n"
    assert "checked 1 file(s): 0 error(s), 1 warning(s)" in err


def test_check_json_format(corpus, capsys):
    assert cli.main(["check", "--format", "json", str(corpus / "heartland_broken.sym")]) == 0
    out, _ = capsys.readouterr()
    rows = json.loads(out)
    assert {r["code"] for r in rows} == {"V004", "V009"}
    assert all(r["severity"] == "warning" for r in rows)


def test_check_multiple_files_accumulate(corpus, capsys):
    code = cli.main(
        ["check", str(corpus / "heartland_broken.sym"), str(corpus / "heartland_fixed.sym")]
    )
    assert code == 0
    _, err = capsys.readouterr()
    assert "checked 2 file(s): 0 error(s), 6 warning(s)" in err


def test_out_writes_payload_file(corpus, tmp_path, capsys):
    target = tmp_path / "diags.txt"
    assert cli.main(["check", "--out", str(target), str(corpus / "heartland_broken.sym")]) == 0
    out, _ = capsys.readouterr()
    assert out == ""
    assert "V009" in target.read_text(encoding="utf-8")


def test_quiet_suppresses_notes(corpus, capsys):
    assert cli.main(["check", "--quiet", str(corpus / "jpmorgan.sym")]) == 0
    _, err = capsys.readouterr()
    assert err == ""


# -- render ----------------------------------------------------------------------


def test_render_single_id_matches_golden(corpus, repo_root, capsys):
    assert cli.main(["render", str(corpus / "jpmorgan.sym"), "--id", "BO1"]) == 0
    out, _ = capsys.readouterr()
    golden = (repo_root / "corpus" / "golden" / "jpmorgan_render_BO1.txt").read_text(encoding="utf-8")
    assert out == golden


def test_render_all_sections(clean_sym, capsys):
    assert cli.main(["render", str(clean_sym)]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("## BO1\n")
    assert "One of our primary business objectives" in out


def test_render_unknown_id(corpus, capsys):
    assert cli.main(["render", str(corpus / "jpmorgan.sym"), "--id", "NOPE"]) == 1
    _, err = capsys.readouterr()
    assert "not a renderable" in err


def test_render_of_an_empty_id_is_an_unknown_id(corpus, capsys):
    assert cli.main(["render", str(corpus / "jpmorgan.sym"), "--id", ""]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: '' is not a renderable objective or goal\n"


def test_render_refuses_invalid_model(error_sym, capsys):
    assert cli.main(["render", str(error_sym), "--id", "BO1"]) == 1
    _, err = capsys.readouterr()
    assert "validation errors" in err


# -- graph ---------------------------------------------------------------------


def test_graph_dot_default(clean_sym, capsys):
    assert cli.main(["graph", str(clean_sym)]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("digraph traceability {")
    assert '"BO1" [shape=box];' in out


def test_graph_json(corpus, capsys):
    assert cli.main(["graph", str(corpus / "jpmorgan.sym"), "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert {"id": "BO1", "kind": "objective"} in payload["nodes"]


# -- eval ----------------------------------------------------------------------


def test_eval_single_metric_text(corpus, capsys):
    code = cli.main(
        [
            "eval", str(corpus / "jpmorgan.sym"),
            "--measurements", str(corpus / "logs" / "jpmorgan_2014-01.jsonl"),
            "--metric", "ME1.1.1.1.1", "--period", "2014-01",
        ]
    )
    assert code == 0
    out, _ = capsys.readouterr()
    assert "ME1.1.1.1.1 2014-01: value 100.0 band 'ok'" in out
    assert "affected objectives: BO1.1.1, BO1.1, BO1" in out


def test_eval_json(corpus, capsys):
    code = cli.main(
        [
            "eval", str(corpus / "jpmorgan.sym"),
            "--measurements", str(corpus / "logs" / "jpmorgan_2014-01.jsonl"),
            "--metric", "all", "--period", "2014-01", "--format", "json",
        ]
    )
    assert code == 0
    out, _ = capsys.readouterr()
    results = json.loads(out)["results"]
    assert len(results) == 6
    by_id = {r["metric"]: r for r in results}
    assert by_id["ME1.1.1.1.1"]["value"] == 100.0
    assert by_id["ME1.1.1.1.1"]["band"] == "ok"


def _eval_blocks(out: str, fmt: str) -> dict[str, object]:
    """eval output by metric id: the JSON result, or the text lines."""
    if fmt == "json":
        return {r["metric"]: r for r in json.loads(out)["results"]}
    blocks: dict[str, object] = {}
    for line in out.splitlines():
        if not line.startswith(" "):
            metric_id = line.split()[0]
            blocks[metric_id] = []
        blocks[metric_id].append(line)
    return blocks


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_rejects_a_value_beyond_the_float_range(corpus, tmp_path, capsys, fmt):
    log = tmp_path / "overflow.jsonl"
    clean = corpus / "logs" / "jpmorgan_2014-01.jsonl"
    good = clean.read_text(encoding="utf-8")
    bad = '{"timestamp": "2014-01-15", "base": "bm_sections_total", "value": 1e400}\n'
    # finite values whose SUM overflows: ME1.1.1.1.6 fails, the rest do not move
    big = "".join(
        f'{{"timestamp": "2014-01-{day}", "base": "bm_incidents_human", "value": 1e308}}\n'
        for day in (10, 11)
    )
    log.write_text(good + bad + big, encoding="utf-8")
    argv = ["--metric", "all", "--period", "2014-01", "--format", fmt]
    assert cli.main(["eval", str(corpus / "jpmorgan.sym"), "--measurements", str(clean), *argv]) == 0
    expected = _eval_blocks(capsys.readouterr()[0], fmt)
    code = cli.main(["eval", str(corpus / "jpmorgan.sym"), "--measurements", str(log), *argv])
    assert code == 0
    out, err = capsys.readouterr()
    bad_line = len(good.splitlines()) + 1
    diags = [line for line in err.splitlines() if line.startswith("I")]
    assert len(diags) == 1
    assert diags[0].startswith(f"I001 error {log}:{bad_line}:1 ")
    assert "finite number" in diags[0]
    assert not re.search(r"\b-?(inf|Infinity|nan|NaN)\b", out)
    got = _eval_blocks(out, fmt)
    overflowed = got.pop("ME1.1.1.1.6")
    expected.pop("ME1.1.1.1.6")
    assert got == expected
    message = "sum of base measurement 'bm_incidents_human' overflows the float range"
    if fmt == "json":
        assert overflowed["failure"] == message
        assert overflowed["value"] is None
    else:
        assert overflowed[0] == f"ME1.1.1.1.6 2014-01: FAILED ({message})"


def test_eval_text_prints_large_bindings_as_logged(corpus, tmp_path, capsys):
    log = tmp_path / "large.jsonl"
    log.write_text(
        '{"timestamp": "2014-01-15", "base": "bm_days_since_review", "value": 1e300}\n'
        '{"timestamp": "2014-01-15", "base": "bm_tailoring_score", "value": 12345678901234567890}\n',
        encoding="utf-8",
    )
    argv = ["eval", str(corpus / "jpmorgan.sym"), "--measurements", str(log), "--metric", "all", "--period", "2014-01"]
    assert cli.main(argv) == 0
    bindings = [line.strip() for line in capsys.readouterr()[0].splitlines() if "bindings:" in line]
    assert "bindings: bm_days_since_review=1e+300" in bindings
    assert "bindings: bm_tailoring_score=1.2345678901234567e+19" in bindings


def test_eval_of_a_log_that_is_not_utf8_is_usage_error(corpus, tmp_path, capsys):
    log = tmp_path / "utf16.jsonl"
    log.write_bytes(b"\xff\xfe" + '{"timestamp": "2014-01-05"}'.encode("utf-16-le"))
    clean = corpus / "logs" / "jpmorgan_2014-01.jsonl"
    argv = ["--measurements", str(clean), str(log), "--metric", "all", "--period", "2014-01"]
    assert cli.main(["eval", str(corpus / "jpmorgan.sym"), *argv]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: cannot read measurements: 'utf-8' codec can't decode byte 0xff")
    assert err.rstrip("\n").endswith(f" in {log}")
    assert "Traceback" not in err


def test_eval_of_a_log_with_a_byte_order_mark_keeps_its_first_record(corpus, tmp_path, capsys):
    clean = corpus / "logs" / "jpmorgan_2014-01.jsonl"
    marked = tmp_path / "marked.jsonl"
    marked.write_bytes(b"\xef\xbb\xbf" + clean.read_bytes())
    argv = ["--metric", "all", "--period", "2014-01", "--format", "json"]
    assert cli.main(["eval", str(corpus / "jpmorgan.sym"), "--measurements", str(clean), *argv]) == 0
    expected = capsys.readouterr()
    assert cli.main(["eval", str(corpus / "jpmorgan.sym"), "--measurements", str(marked), *argv]) == 0
    assert capsys.readouterr() == expected


def test_eval_unknown_metric(corpus, capsys):
    code = cli.main(
        [
            "eval", str(corpus / "jpmorgan.sym"),
            "--measurements", str(corpus / "logs" / "jpmorgan_2014-01.jsonl"),
            "--metric", "NOPE", "--period", "2014-01",
        ]
    )
    assert code == 1
    _, err = capsys.readouterr()
    assert "unknown metric" in err


def test_eval_off_schedule_period_yields_no_results(corpus, capsys):
    code = cli.main(
        [
            "eval", str(corpus / "jpmorgan.sym"),
            "--measurements", str(corpus / "logs" / "jpmorgan_2014-01.jsonl"),
            "--metric", "all", "--period", "2014-W01",
        ]
    )
    assert code == 1
    _, err = capsys.readouterr()
    assert err.startswith(
        "note: skipping ME1.1.1.1.1: period '2014-W01' is weekly; "
        "metric 'ME1.1.1.1.1' runs on monthly / quarterly\n"
    )
    assert err.endswith("error: no results\n")


def test_eval_of_year_zero_is_a_usage_error_without_a_traceback(corpus, capsys):
    code = cli.main(
        [
            "eval", str(corpus / "jpmorgan.sym"),
            "--measurements", str(corpus / "logs" / "jpmorgan_2014-09.jsonl"),
            "--metric", "all", "--period", "0000",
        ]
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: invalid year '0000': year 0 is out of range\n"


# -- report ---------------------------------------------------------------------


def _q1_args(corpus):
    logs = [str(corpus / "logs" / f"jpmorgan_2014-0{m}.jsonl") for m in (1, 2, 3)]
    return ["report", str(corpus / "jpmorgan.sym"), "--measurements", *logs]


def test_report_text(corpus, capsys):
    assert cli.main(_q1_args(corpus) + ["--from", "2014-Q1", "--to", "2014-Q1"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("measurement report")
    assert "metric ME1.1.1.1.1" in out
    assert "2014-Q1" in out


def test_report_rejects_bad_period(corpus, capsys):
    assert cli.main(_q1_args(corpus) + ["--from", "2014-13", "--to", "2014-14"]) == 2

    assert cli.main(_q1_args(corpus) + ["--from", "2014-01", "--to", "2014-Q3"]) == 2
    _, err = capsys.readouterr()
    assert "granularity" in err


def test_report_of_year_zero_is_a_usage_error_without_a_traceback(corpus, capsys):
    assert cli.main(_q1_args(corpus) + ["--from", "0000-Q1", "--to", "0000-Q2"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: invalid quarter '0000-Q1': year 0 is out of range\n"


def test_report_names_an_impossible_month_before_comparing_granularities(corpus, capsys):
    """An endpoint that is no period is reported as such, not given a granularity."""
    assert cli.main(_q1_args(corpus) + ["--from", "2014-13", "--to", "2014-Q1"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: invalid month '2014-13': month must be in 1..12\n"


def test_report_refuses_a_range_of_more_than_twenty_thousand_keys(corpus, capsys):
    log = str(corpus / "logs" / "jpmorgan_2014-09.jsonl")
    argv = ["report", str(corpus / "jpmorgan.sym"), "--measurements", log, "--from", "2014-09", "--to", "9999-12"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: period range '2014-09'..'9999-12' is too large\n"


def test_report_skips_metrics_not_run_at_the_range_granularity(corpus, capsys):
    assert cli.main(_q1_args(corpus) + ["--from", "2014", "--to", "2014"]) == 1
    out, err = capsys.readouterr()
    assert not out
    notes = [
        f"note: skipping ME1.1.1.1.{n}: period '2014' is yearly; metric 'ME1.1.1.1.{n}' runs on monthly / quarterly\n"
        for n in range(1, 7)
    ]
    assert err == "".join(notes) + "error: no results\n"


def test_report_rejects_unknown_format(corpus):
    assert cli.main(_q1_args(corpus) + ["--from", "2014-Q1", "--to", "2014-Q1", "--format", "pdf"]) == 2


# -- eval is report over one period ---------------------------------------------


def _eval_and_report(corpus, capsys, model, logs, period):
    """(exit code, stdout, stderr) of `eval --period P` and of `report --from P --to P`."""
    common = [str(corpus / model), "--measurements", *map(str, logs), "--metric", "all", "--format", "json"]
    runs = []
    for argv in (["eval", *common, "--period", period], ["report", *common, "--from", period, "--to", period]):
        code = cli.main(argv)
        runs.append((code, *capsys.readouterr()))
    return runs


def _jpmorgan_logs(corpus):
    return sorted((corpus / "logs").glob("jpmorgan_*.jsonl"))


@pytest.mark.parametrize(
    ("model", "period"),
    [("jpmorgan.sym", "2014-09"), ("jpmorgan.sym", "2014-Q3"), ("anthem.sym", "2015"), ("anthem.sym", "2015-02")],
)
def test_eval_results_are_those_of_a_one_period_report(corpus, capsys, model, period):
    logs = _jpmorgan_logs(corpus) if model == "jpmorgan.sym" else [corpus / "logs" / "anthem_2015.jsonl"]
    (code, out, err), (report_code, report_out, report_err) = _eval_and_report(corpus, capsys, model, logs, period)
    assert code == report_code == 0
    assert err == report_err
    results = json.loads(out)["results"]
    assert results
    assert results == [result for metric in json.loads(report_out)["metrics"] for result in metric["results"]]


@pytest.mark.parametrize("period", ["2014-13", "0000"])
def test_eval_and_report_refuse_a_bad_period_key_alike(corpus, capsys, period):
    evaluated, reported = _eval_and_report(corpus, capsys, "jpmorgan.sym", _jpmorgan_logs(corpus), period)
    assert evaluated == reported
    code, out, err = evaluated
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_and_report_skip_off_schedule_metrics_alike(corpus, capsys):
    evaluated, reported = _eval_and_report(corpus, capsys, "jpmorgan.sym", _jpmorgan_logs(corpus), "2014-W01")
    assert evaluated == reported
    code, out, err = evaluated
    assert (code, out) == (1, "")
    notes = [
        f"note: skipping ME1.1.1.1.{n}: period '2014-W01' is weekly; metric 'ME1.1.1.1.{n}' runs on monthly / quarterly\n"
        for n in range(1, 7)
    ]
    assert err == "".join(notes) + "error: no results\n"


# -- impact ---------------------------------------------------------------------


def test_impact_text_and_json(clean_sym, tmp_path, capsys):
    new = tmp_path / "new.sym"
    new.write_text(CLEAN_MODEL.replace('object: "x"', 'object: "y"'), encoding="utf-8")
    assert cli.main(["impact", str(clean_sym), str(new)]) == 0
    out, _ = capsys.readouterr()
    assert "MODIFIED objective BO1" in out
    assert '"x" -> "y"' in out

    assert cli.main(["impact", str(clean_sym), str(new), "--json"]) == 0
    out, _ = capsys.readouterr()
    (change,) = json.loads(out)["changes"]
    assert change["change"]["change"] == "modified"


def test_impact_has_no_format_option(clean_sym, capsys):
    # --json is the one way to ask impact for JSON
    assert cli.main(["impact", str(clean_sym), str(clean_sym), "--format", "json"]) == 2
    _, err = capsys.readouterr()
    assert "--format" in err


def test_impact_refuses_invalid_input(clean_sym, error_sym):
    assert cli.main(["impact", str(clean_sym), str(error_sym)]) == 1


# -- fmt ------------------------------------------------------------------------


def test_fmt_in_place(clean_sym, capsys):
    assert cli.main(["fmt", str(clean_sym)]) == 0
    text = clean_sym.read_text(encoding="utf-8")
    assert text.startswith("# .sym model (canonical form)\n")
    _, err = capsys.readouterr()
    assert "formatted" in err
    # idempotent
    assert cli.main(["fmt", str(clean_sym)]) == 0
    assert clean_sym.read_text(encoding="utf-8") == text


def test_fmt_in_place_writes_lf_line_endings(clean_sym):
    clean_sym.write_bytes(CLEAN_MODEL.replace("\n", "\r\n").encode("utf-8"))
    assert cli.main(["fmt", str(clean_sym), "--quiet"]) == 0
    raw = clean_sym.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").startswith("# .sym model (canonical form)\n")


def test_fmt_out_leaves_original_untouched(clean_sym, tmp_path, capsys):
    target = tmp_path / "canon.sym"
    assert cli.main(["fmt", str(clean_sym), "--out", str(target)]) == 0
    assert clean_sym.read_text(encoding="utf-8") == CLEAN_MODEL
    assert target.read_text(encoding="utf-8").startswith("# .sym model")


def test_fmt_in_place_refuses_a_model_with_includes(tmp_path, capsys):
    root = tmp_path / "a.sym"
    root.write_text('include "b.sym"\ninclude "empty.sym"\nstakeholder s { name: "S" }\n', encoding="utf-8")
    (tmp_path / "b.sym").write_text('stakeholder t { name: "T" }\n', encoding="utf-8")
    (tmp_path / "empty.sym").write_text("# no declarations\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli.main(["fmt", str(root)]) == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    out, err = capsys.readouterr()
    assert out == ""
    real = os.path.realpath(tmp_path)
    assert f"{root} includes {real}/b.sym, {real}/empty.sym; refusing" in err
    # --out onto the root or an included file would flatten away the includes
    for own in ("a.sym", "b.sym"):
        assert cli.main(["fmt", str(root), "--out", str(tmp_path / own)]) == 1
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert f"{tmp_path / own} is a file of {root}, which has includes; refusing" in capsys.readouterr().err
    # --out still writes the whole model, flattened
    target = tmp_path / "flat.sym"
    assert cli.main(["fmt", str(root), "--out", str(target)]) == 0
    text = target.read_text(encoding="utf-8")
    assert "stakeholder s" in text and "stakeholder t" in text and "include" not in text


EXPONENT_MODEL = """
stakeholder s { name: "S" }
universe u { facets: a }
objective BO1 { object: "x" scope: u.* purpose: "p" viewpoint: s context: "c" }
goal MG1 { object: "o" purpose: "p" focus: "f" scope: "s" criteria: "c" viewpoint: s context: "c" measures: BO1 }
question Q1 { goal: MG1 text: "t" status: answered }
base a { description: "d" mode: direct aggregation: sum }
metric M1 {
  description: "d" goal: MG1 answers: Q1 uses: a method: "m"
  function: a * 10000000000000000
  domain: [0, 0.00001]
  band: [0, 0.00001] -> ok { log s }
  schedule: monthly / monthly stakeholders: s
}
"""


def test_fmt_out_may_name_the_model_itself_when_it_has_no_includes(clean_sym):
    assert cli.main(["fmt", str(clean_sym), "--out", str(clean_sym)]) == 0
    assert clean_sym.read_text(encoding="utf-8").startswith("# .sym model (canonical form)\n")


# A child that may write no file beyond 4,096 bytes, with the signal for a
# larger one ignored so that the write fails with EFBIG instead.
_FMT_UNDER_A_SIZE_LIMIT = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from symbiosis_kit import cli
sys.exit(cli.main(["fmt", sys.argv[1]]))
"""


def test_a_failed_fmt_in_place_leaves_the_model_as_it_was(corpus, tmp_path):
    pytest.importorskip("resource")
    model = tmp_path / "j.sym"
    shutil.copyfile(corpus / "jpmorgan.sym", model)
    before = model.read_bytes()
    assert len(before) > 4096
    env = dict(_module_env(), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _FMT_UNDER_A_SIZE_LIMIT, str(model)], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 2, done.stderr
    assert f"cannot write {str(model)!r}: [Errno 27]" in done.stderr
    assert model.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["j.sym"]


def test_fmt_in_place_keeps_the_mode_bits_and_a_symlink(tmp_path):
    pytest.importorskip("resource")
    model = tmp_path / "m.sym"
    model.write_text(CLEAN_MODEL, encoding="utf-8")
    model.chmod(0o640)
    link = tmp_path / "link.sym"
    link.symlink_to("m.sym")
    assert cli.main(["fmt", str(link), "--quiet"]) == 0
    assert link.is_symlink() and os.readlink(link) == "m.sym"
    assert model.read_text(encoding="utf-8").startswith("# .sym model (canonical form)\n")
    assert model.stat().st_mode & 0o7777 == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.sym", "m.sym"]


def test_fmt_writes_numbers_with_an_exponent_that_check_reads(tmp_path, capsys):
    path = tmp_path / "exponent.sym"
    path.write_text(EXPONENT_MODEL, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    assert cli.main(["fmt", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert "function: (a * 1e+16)" in text and "domain: [0, 1e-05]" in text
    capsys.readouterr()
    assert cli.main(["check", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert "0 error(s), 0 warning(s)" in err
    assert cli.main(["fmt", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == text


def test_fmt_refuses_broken_files(tmp_path, capsys):
    path = tmp_path / "bad.sym"
    original = "objective BO1 { ??? }"
    path.write_text(original, encoding="utf-8")
    assert cli.main(["fmt", str(path)]) == 1
    assert path.read_text(encoding="utf-8") == original
    _, err = capsys.readouterr()
    assert "refusing" in err


# -- deep metric functions ----------------------------------------------------------


def _with_function(corpus, tmp_path, function: str) -> Path:
    text = (corpus / "jpmorgan.sym").read_text(encoding="utf-8")
    old = "function: (bm_completed / bm_took) * 100"
    assert old in text
    path = tmp_path / "deep.sym"
    path.write_text(text.replace(old, "function: " + function), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "function",
    ["(" * 5000 + "bm_completed" + ")" * 5000, "-" * 5000 + "bm_completed", " + ".join(["bm_completed"] * 2000)],
    ids=["parentheses", "minuses", "flat-sum"],
)
def test_too_deep_function_is_p008_not_a_traceback(corpus, tmp_path, capsys, function):
    path = _with_function(corpus, tmp_path, function)
    assert cli.main(["check", str(path)]) == 1
    out, _ = capsys.readouterr()
    assert "P008" in out
    assert cli.main(["fmt", str(path), "--out", str(tmp_path / "canon.sym")]) == 1
    assert not (tmp_path / "canon.sym").exists()
    logs = str(corpus / "logs" / "jpmorgan_2014-01.jsonl")
    assert cli.main(["eval", str(path), "--measurements", logs, "--metric", "ME1", "--period", "2014-01"]) == 1


def test_function_at_the_depth_limit_round_trips(corpus, tmp_path, capsys):
    path = _with_function(corpus, tmp_path, " + ".join(["bm_completed"] * 201))
    canon = tmp_path / "canon.sym"
    assert cli.main(["check", str(path)]) == 0
    assert cli.main(["fmt", str(path), "--out", str(canon)]) == 0
    assert "(" * 200 + "bm_completed" in canon.read_text(encoding="utf-8")
    assert cli.main(["check", str(canon)]) == 0
    capsys.readouterr()
    code = cli.main(
        [
            "eval", str(canon),
            "--measurements", str(corpus / "logs" / "jpmorgan_2014-01.jsonl"),
            "--metric", "ME1.1.1.1.1", "--period", "2014-01",
        ]
    )
    assert code == 0
    out, _ = capsys.readouterr()
    assert "ME1.1.1.1.1 2014-01: FAILED" in out  # 201 x completed leaves the [0, 100] domain


# -- long include chains and long log integers --------------------------------------


def test_check_of_a_thousand_file_include_chain_is_one_p009_not_a_traceback(tmp_path):
    for i in range(1000):
        (tmp_path / f"f{i}.sym").write_text(f'include "f{i + 1}.sym"\n' if i < 999 else "", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "symbiosis_kit", "check", str(tmp_path / "f0.sym")],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()] == ["P009"]
    assert done.stdout.startswith(f"P009 error {tmp_path / 'f99.sym'}:1:9 - include nesting deeper than 100 files")


@pytest.mark.parametrize("literal", [b'"a\x00b.sym"', b'"a\\\x00b.sym"'], ids=["raw NUL", "escaped NUL"])
def test_check_of_an_include_path_holding_nul_is_p007_not_a_traceback(tmp_path, literal):
    path = tmp_path / "nul.sym"
    path.write_bytes(b"include " + literal + b"\n")
    done = subprocess.run(
        [sys.executable, "-m", "symbiosis_kit", "check", str(path)],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    target = repr(f"{tmp_path}/a\x00b.sym")
    assert done.stdout == f"P007 error {path}:1:9 - cannot read include {target}: embedded null byte\n"


def test_check_of_a_file_name_that_is_not_utf8_writes_the_name_as_its_bytes(tmp_path, capsysbinary):
    path = tmp_path / os.fsdecode(b"\xff.sym")
    path.write_text("objective { }\n", encoding="utf-8")
    assert cli.main(["check", str(path)]) == 1
    out, _ = capsysbinary.readouterr()
    assert out.startswith(b"P001 error " + os.fsencode(path) + b":1:11 ")
    assert cli.main(["check", "--format", "json", str(path)]) == 1
    out, _ = capsysbinary.readouterr()
    assert b'"file": "' + os.fsencode(tmp_path) + b'/\\udcff.sym"' in out


def test_a_log_integer_beyond_the_digit_limit_is_one_fixed_i001(corpus, tmp_path, capsys):
    log = tmp_path / "long.jsonl"
    log.write_text(f'{{"timestamp": "2014-01-15", "base": "bm_sections_total", "value": {"9" * 5000}}}\n', encoding="utf-8")
    argv = ["--measurements", str(log), "--metric", "ME1.1.1.1.1", "--period", "2014-01"]
    assert cli.main(["eval", str(corpus / "jpmorgan.sym"), *argv]) == 0
    _, err = capsys.readouterr()
    assert err.splitlines()[0] == f"I001 error {log}:1:1 - malformed log line: integer with more than 4300 digits"


# -- top level --------------------------------------------------------------------


def test_unknown_subcommand_is_usage(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_no_command_is_usage(capsys):
    assert cli.main([]) == 2
    _, err = capsys.readouterr()
    assert "usage:" in err


# -- dispatch ---------------------------------------------------------------------
# A command line that starts with a command's name is parsed by that command's
# parser alone; `build_parser()`, the full tree, answers every other one. The
# tree is the reference: `main` must print its bytes and exit with its code
# wherever it refuses or answers with help, and dispatch its namespace wherever
# it accepts. `{M}`, `{L}` and `{O}` stand for a model, a log and an output path.

_VALID = {
    "check": ["check", "{M}"],
    "render": ["render", "{M}"],
    "graph": ["graph", "{M}"],
    "eval": ["eval", "{M}", "--measurements", "{L}", "--metric", "all", "--period", "2014-09"],
    "report": ["report", "{M}", "--measurements", "{L}", "--from", "2014-09", "--to", "2014-09"],
    "impact": ["impact", "{M}", "{M}"],
    "fmt": ["fmt", "{M}", "--out", "{O}"],
}

DISPATCH_TABLE = [
    [], ["-h"], ["bogus"], ["chec"], ["--quiet", "check", "{M}"],
    *([name, "-h"] for name in _VALID),
    *([name] for name in _VALID),
    *(argv + extra for argv in _VALID.values() for extra in ([], ["--format", "pdf"], ["--bogus"], ["extra"])),
    _VALID["eval"][:-2],
    _VALID["report"][:-2],
    ["check", "{M}", "--form", "json"],
    ["graph", "{M}", "--out={O}"],
    ["check", "--format", "json", "--strict", "{M}"],
    ["eval", "--period", "2014-09", "{M}", "--metric", "all", "--measurements", "{L}"],
    ["report", "--to", "2014-09", "--format", "json", "{M}", "--from", "2014-09", "--measurements", "{L}"],
    ["impact", "--json", "{M}", "--quiet", "{M}"],
    ["check", "--", "{M}"],
]


def _placed(argv: list[str], root: Path) -> list[str]:
    """`argv` with its placeholders replaced by paths under `root`, where it writes a clean model and an empty log."""
    (root / "model.sym").write_text(CLEAN_MODEL, encoding="utf-8")
    (root / "log.jsonl").write_text("", encoding="utf-8")
    paths = {"M": root / "model.sym", "L": root / "log.jsonl", "O": root / "out"}
    return [arg.format(**paths) for arg in argv]


def _capture(call) -> tuple[object, bytes, bytes]:
    """`call()`, with the bytes it wrote to stdout (payloads go to its buffer) and to stderr."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call()
    out.flush()
    err.flush()
    return result, out.buffer.getvalue(), err.buffer.getvalue()


def _tree(argv: list[str]) -> tuple[argparse.Namespace | None, int, bytes, bytes]:
    """What the full tree makes of `argv`: the namespace it accepts (None when it
    refuses, answers with help or names no command), the exit code, stdout and stderr."""
    parser = cli.build_parser()

    def parse():
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return None, int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return None, 2
        return args, 0

    (args, code), out, err = _capture(parse)
    return args, code, out, err


@contextlib.contextmanager
def _recording():
    """The command table with each function wrapped to record the namespace it runs with."""
    seen = []

    def recorded(func):
        def run(args, plumbing):
            seen.append(args)
            func(args, plumbing)

        return run

    table = {name: command._replace(func=recorded(command.func)) for name, command in cli.COMMANDS.items()}
    with mock.patch.dict(cli.COMMANDS, table):
        yield seen


def _assert_dispatch_agrees_with_the_tree(argv: list[str]) -> None:
    with _recording() as seen:
        args, code, out, err = _tree(argv)
        got = _capture(lambda: cli.main(argv))
    if args is None:
        assert got == (code, out, err)
        assert seen == []
    else:
        assert seen == [args]
        assert got[0] in (0, 1, 2)
    assert b"Traceback" not in got[2]


@pytest.mark.parametrize("argv", DISPATCH_TABLE, ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_agrees_with_the_full_tree(tmp_path, argv):
    _assert_dispatch_agrees_with_the_tree(_placed(argv, tmp_path))


def _table_tokens() -> list[str]:
    specs = [spec for command in cli.COMMANDS.values() for spec in cli._SHARED + command.args]
    options = [flag for flags, _ in specs for flag in flags if flag.startswith("-")]
    choices = [choice for _, kwargs in specs for choice in kwargs.get("choices", ())]
    return sorted({*cli.COMMANDS, *options, *choices})


_TOKENS = _table_tokens() + [
    "{M}", "{L}", "{O}", "--out={O}", "all", "2014-09", "2014-Q3", "2014",
    "-h", "--", "-", "-x", "--form", "--bogus", "bogus", "",
]


@settings(max_examples=150, deadline=None)
@given(
    argv=st.one_of(
        st.lists(st.sampled_from(_TOKENS), max_size=8),
        st.tuples(st.sampled_from(list(cli.COMMANDS)), st.lists(st.sampled_from(_TOKENS), max_size=8)).map(
            lambda drawn: [drawn[0], *drawn[1]]
        ),
    )
)
def test_any_command_line_exits_0_1_or_2_without_a_traceback_as_the_tree_says(tmp_path_factory, argv):
    _assert_dispatch_agrees_with_the_tree(_placed(argv, tmp_path_factory.mktemp("argv")))


def test_a_command_builds_one_parser_and_no_sub_parsers(clean_sym):
    real = argparse.ArgumentParser
    with (
        mock.patch.object(real, "add_subparsers", autospec=True, side_effect=real.add_subparsers) as add_subparsers,
        mock.patch.object(real, "__init__", autospec=True, side_effect=real.__init__) as made,
    ):
        assert _capture(lambda: cli.main(["check", str(clean_sym)]))[0] == 0
    assert (made.call_count, add_subparsers.call_count) == (1, 0)


def test_top_level_help_lists_the_seven_commands_in_order():
    real = argparse.ArgumentParser
    with mock.patch.object(real, "add_subparsers", autospec=True, side_effect=real.add_subparsers) as add_subparsers:
        code, out, _ = _capture(lambda: cli.main(["--help"]))
    assert (code, add_subparsers.call_count) == (0, 1)
    listed = re.findall(r"^    (\w+) ", out.decode(), re.MULTILINE)
    assert listed == ["check", "render", "graph", "eval", "report", "impact", "fmt"]


def _module_env() -> dict[str, str]:
    """The environment for running `python -m symbiosis_kit` on this checkout's package."""
    import symbiosis_kit

    src = str(Path(symbiosis_kit.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_cli(corpus):
    env = _module_env()
    done = subprocess.run(
        [sys.executable, "-m", "symbiosis_kit", "check", str(corpus / "jpmorgan.sym")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "checked 1 file(s): 0 error(s), 0 warning(s)" in done.stderr
    done = subprocess.run(
        [sys.executable, "-m", "symbiosis_kit"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 2
    assert "usage:" in done.stderr


def _graph_to_stdout(corpus, stdout) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "symbiosis_kit", "graph", str(corpus / "jpmorgan.sym")],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=_module_env(), timeout=60,
    )


def _assert_stdout_write_failed(done: subprocess.CompletedProcess, reason: str) -> None:
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: cannot write to stdout: ")
    assert reason in done.stderr and done.stderr.count("\n") == 1


def test_a_payload_to_a_closed_pipe_is_a_usage_error_without_a_traceback(corpus):
    # the read end is closed before the child starts, so its first write gets EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _graph_to_stdout(corpus, write_end)
    finally:
        os.close(write_end)
    _assert_stdout_write_failed(done, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_payload_to_a_full_device_is_a_usage_error_without_a_traceback(corpus):
    with open("/dev/full", "wb") as full:
        done = _graph_to_stdout(corpus, full)
    _assert_stdout_write_failed(done, "No space left on device")


def _check(path, stderr) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "symbiosis_kit", "check", str(path)],
        stdout=subprocess.PIPE, stderr=stderr, env=_module_env(), timeout=60,
    )


def _check_to_closed_pipe(path) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _check(path, write_end)
    finally:
        os.close(write_end)


def _check_to_full_device(path) -> subprocess.CompletedProcess:
    with open("/dev/full", "wb") as full:
        return _check(path, full)


@pytest.mark.parametrize(
    "check_with_broken_stderr",
    [
        _check_to_closed_pipe,
        pytest.param(
            _check_to_full_device,
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform"),
        ),
    ],
    ids=["closed-pipe", "full-device"],
)
@pytest.mark.parametrize("model, code", [("clean", 0), ("errors", 1), ("unreadable", 2)])
def test_a_note_that_cannot_be_written_does_not_change_the_exit_code(
    corpus, error_sym, tmp_path, check_with_broken_stderr, model, code
):
    path = {"clean": corpus / "jpmorgan.sym", "errors": error_sym, "unreadable": tmp_path / "missing.sym"}[model]
    normal = _check(path, subprocess.PIPE)
    assert normal.returncode == code and normal.stderr
    done = check_with_broken_stderr(path)
    assert (done.returncode, done.stdout) == (code, normal.stdout)


def test_console_script_is_installed():
    assert shutil.which("symbiosis") is not None


# -- the collector pause -------------------------------------------------------


@contextlib.contextmanager
def _collector(enabled: bool):
    """The cyclic garbage collector switched on or off, and back as it was after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("outcome, code", [("ok", 0), ("fail", 1), ("usage", 2), ("raise", None)])
def test_a_command_runs_with_the_collector_paused_and_main_leaves_it_as_it_was(
    monkeypatch, capsys, enabled, outcome, code
):
    seen = []

    def command(args, io):
        seen.append(gc.isenabled())
        if outcome == "fail":
            io.fail("error: stop")
        if outcome == "raise":
            raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "check", cli.COMMANDS["check"]._replace(func=command))
    argv = ["check", "m.sym", *(["--format", "yaml"] if outcome == "usage" else [])]
    with _collector(enabled):
        if code is None:
            with pytest.raises(RuntimeError, match="boom"):
                cli.main(argv)
        else:
            assert cli.main(argv) == code
        assert gc.isenabled() is enabled
    assert seen == ([] if outcome == "usage" else [False])


def _clean_program(objectives: int):
    """A `program_model` program with its empty required texts filled and one band over each
    metric's domain, so that every command gets past validation."""
    model = program_model(random.Random(objectives), objectives)
    nodes = {}
    for kind, fields in FIELDS.items():
        texts = [f.attribute for f in fields if f.required and f.value_kind == "str"]
        nodes[COLLECTIONS[kind]] = {
            node_id: node._replace(**{text: "x" for text in texts if not getattr(node, text)})
            for node_id, node in model.collection(kind).items()
        }
    nodes["metrics"] = {
        m_id: metric._replace(bands=(metric.bands[0]._replace(interval=metric.effective_domain()),))
        for m_id, metric in nodes["metrics"].items()
    }
    return model._replace(**nodes)


def _program_commands(tmp_path, objectives: int) -> dict[str, list[str]]:
    """Each command's argv on a program of `objectives` objectives, an edit of every fourth
    objective, and a log of six records and three malformed lines per metric."""
    model = _clean_program(objectives)
    old, new, log = (tmp_path / f"program{objectives}{suffix}" for suffix in (".sym", "_new.sym", ".jsonl"))
    old.write_text(serialize(model), encoding="utf-8")
    edited = {k: v._replace(context="edited") if int(k[2:]) % 4 == 0 else v for k, v in model.objectives.items()}
    new.write_text(serialize(model._replace(objectives=edited)), encoding="utf-8")
    lines = []
    for m_id, metric in model.metrics.items():
        count, direct = metric.uses
        for month in (2, 5, 9):
            lines.append(json.dumps({"timestamp": f"2014-{month:02}-03", "fields": dict(model.bases[count].filters)}))
            lines.append(json.dumps({"timestamp": f"2014-{month:02}-17", "base": direct, "value": month}))
        lines += [f"garbage {m_id}", json.dumps({"timestamp": "2014-13-01", "base": direct, "value": 1}), "[" * 40]
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    logs = ["--measurements", str(log)]
    return {
        "check": ["check", str(old)],
        "render": ["render", str(old)],
        "graph": ["graph", str(old)],
        "fmt": ["fmt", str(old), "--out", str(tmp_path / "fmt.sym")],
        "impact": ["impact", str(old), str(new)],
        "eval": ["eval", str(old), *logs, "--metric", "all", "--period", "2014-Q3"],
        "report": ["report", str(old), *logs, "--from", "2014-Q1", "--to", "2014-Q4", "--format", "json"],
    }


def test_a_command_leaves_as_many_reference_cycles_at_four_times_the_input(tmp_path, capsys):
    """The collector pause is safe while no command makes cycles that grow with its input: then
    `gc.collect()` after a command finds the same unreachable objects (argparse's parser, for
    one) on a program of 63 and of 255 objectives and their logs."""
    small, large = _program_commands(tmp_path, 63), _program_commands(tmp_path, 255)
    found = {}
    with _collector(False):
        gc.collect()
        for name in small:
            counts = []
            for argv in (small[name], small[name], large[name]):  # the first call warms up imports and caches
                assert cli.main(argv) == 0, capsys.readouterr().err[-500:]
                counts.append(gc.collect())
            found[name] = counts[1:]
    capsys.readouterr()
    assert all(at_63 == at_255 for at_63, at_255 in found.values()), found
