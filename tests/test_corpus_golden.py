"""Golden-file conformance: every stored output regenerates byte-identically.

Commands run through cli.main from the repository root with relative paths, so
the file columns inside diagnostics match what the goldens were frozen with.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import CORPUS_ROOT, corpus_manifest
from symbiosis_kit import cli

JPMORGAN_Q_LOGS = [f"corpus/logs/jpmorgan_2014-{m:02d}.jsonl" for m in range(1, 10)]
# Every jpmorgan log: 2014-Q4 has one for November only.
JPMORGAN_LOGS = JPMORGAN_Q_LOGS + ["corpus/logs/jpmorgan_2014-11.jsonl"]
# The base edit: bm_took counts the new hires who missed the training instead.
ATTENDED = 'attendance = "attended"'
ABSENT = 'attendance = "absent"'


def test_manifest_files_exist():
    for entry in corpus_manifest():
        assert Path(entry.model).is_file(), entry.model
        for path in entry.logs + entry.golden:
            assert Path(path).is_file(), path


def _regen(monkeypatch, tmp_path: Path, argv: list[str]) -> bytes:
    out = tmp_path / "out.bin"
    monkeypatch.chdir(CORPUS_ROOT.parent)
    code = cli.main(argv + ["--out", str(out), "--quiet"])
    assert code == 0, argv
    return out.read_bytes()


def _golden(name: str) -> bytes:
    return (CORPUS_ROOT / "golden" / name).read_bytes()


@pytest.mark.parametrize("node_id", ["BO1", "BO1.1", "BO1.1.1", "MG1.1.1.1"])
def test_render_goldens(monkeypatch, tmp_path, node_id):
    got = _regen(
        monkeypatch, tmp_path, ["render", "corpus/jpmorgan.sym", "--id", node_id]
    )
    assert got == _golden(f"jpmorgan_render_{node_id}.txt")


@pytest.mark.parametrize(
    "model",
    ["jpmorgan", "anthem", "heartland_broken", "heartland_fixed"],
)
def test_check_goldens(monkeypatch, tmp_path, model):
    got = _regen(monkeypatch, tmp_path, ["check", f"corpus/{model}.sym"])
    assert got == _golden(f"{model}_check.txt")


@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json"), ("svg", "svg")])
def test_jpmorgan_report_goldens(monkeypatch, tmp_path, fmt, ext):
    argv = (
        ["report", "corpus/jpmorgan.sym", "--measurements"]
        + JPMORGAN_Q_LOGS
        + ["--from", "2014-Q1", "--to", "2014-Q3", "--format", fmt]
    )
    assert _regen(monkeypatch, tmp_path, argv) == _golden(f"jpmorgan_report_2014.{ext}")


@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
def test_anthem_report_goldens(monkeypatch, tmp_path, fmt, ext):
    argv = [
        "report", "corpus/anthem.sym",
        "--measurements", "corpus/logs/anthem_2015.jsonl",
        "--from", "2015-01", "--to", "2015-03", "--format", fmt,
    ]
    assert _regen(monkeypatch, tmp_path, argv) == _golden(f"anthem_report_2015.{ext}")


@pytest.mark.parametrize("model", ["jpmorgan", "anthem"])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_goldens(monkeypatch, tmp_path, model, fmt):
    got = _regen(monkeypatch, tmp_path, ["graph", f"corpus/{model}.sym", "--format", fmt])
    assert got == _golden(f"{model}_graph.{fmt}")


@pytest.mark.parametrize("flags,ext", [([], "txt"), (["--json"], "json")])
def test_heartland_impact_goldens(monkeypatch, tmp_path, flags, ext):
    argv = ["impact", "corpus/heartland_broken.sym", "corpus/heartland_fixed.sym", *flags]
    assert _regen(monkeypatch, tmp_path, argv) == _golden(f"heartland_impact.{ext}")


JPMORGAN_Q4_EVAL = ["eval", "corpus/jpmorgan.sym", "--measurements", *JPMORGAN_LOGS, "--metric", "all", "--period", "2014-Q4"]


def test_jpmorgan_2014_q4_eval_golden_warns_of_the_months_without_logs(monkeypatch, tmp_path):
    got = _regen(monkeypatch, tmp_path, JPMORGAN_Q4_EVAL)
    assert got == _golden("jpmorgan_eval_2014-Q4.txt")
    assert got.count(b"  warning: collection period 2014-10 inside 2014-Q4 has no records") == 6
    assert got.count(b"  warning: collection period 2014-12 inside 2014-Q4 has no records") == 6


def test_jpmorgan_2014_q4_eval_json_golden(monkeypatch, tmp_path):
    got = _regen(monkeypatch, tmp_path, JPMORGAN_Q4_EVAL + ["--format", "json"])
    assert got == _golden("jpmorgan_eval_2014-Q4.json")


def test_jpmorgan_2014_q4_report_golden_notes_the_months_without_logs(monkeypatch, tmp_path):
    argv = ["report", "corpus/jpmorgan.sym", "--measurements", *JPMORGAN_LOGS, "--from", "2014-Q4", "--to", "2014-Q4"]
    got = _regen(monkeypatch, tmp_path, argv)
    assert got == _golden("jpmorgan_report_2014-Q4.txt")
    assert got.count(b"  note 2014-Q4: collection period 2014-10 inside 2014-Q4 has no records") == 6
    assert got.count(b"  note 2014-Q4: collection period 2014-12 inside 2014-Q4 has no records") == 6


@pytest.mark.parametrize("flags,ext", [([], "txt"), (["--json"], "json")])
def test_jpmorgan_base_edit_impact_goldens(monkeypatch, tmp_path, flags, ext):
    text = (CORPUS_ROOT / "jpmorgan.sym").read_text(encoding="utf-8")
    assert text.count(ATTENDED) == 1
    edited = tmp_path / "jpmorgan_base_edit.sym"
    edited.write_text(text.replace(ATTENDED, ABSENT), encoding="utf-8")
    argv = ["impact", "corpus/jpmorgan.sym", str(edited), *flags]
    assert _regen(monkeypatch, tmp_path, argv) == _golden(f"jpmorgan_base_edit_impact.{ext}")


def _run_under_hash_seed(seed: str, argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(CORPUS_ROOT.parent / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "symbiosis_kit", *argv],
        cwd=CORPUS_ROOT.parent, env=env, capture_output=True, timeout=120,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["impact", "corpus/jpmorgan.sym", "corpus/anthem.sym", "--json"],
        ["report", "corpus/jpmorgan.sym", "--measurements", *JPMORGAN_Q_LOGS,
         "--from", "2014-Q1", "--to", "2014-Q3", "--format", "json"],
    ],
    ids=["impact", "report"],
)
def test_outputs_do_not_depend_on_the_hash_seed(argv):
    """Set and dict orders vary with PYTHONHASHSEED; no output may follow them."""
    runs = [_run_under_hash_seed(seed, argv) for seed in ("0", "1")]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    if argv[0] == "report":
        assert runs[0][1] == _golden("jpmorgan_report_2014.json")
