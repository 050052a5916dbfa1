"""Tests of the benchmark itself: generators, output checks and tracer.

Run from the repository root: `python3 -m pytest bench/tests -q`.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os

import pytest

import checks
import gen
import tracing
import workloads
from symbiosis_kit import cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
JPM = os.path.join(ROOT, "corpus", "jpmorgan.sym")
QUARTERS = list(gen.QUARTER_MONTHS)


def _run(argv: list[str], out) -> workloads.Outcome:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", str(out)])
    return workloads.Outcome(code, out.read_bytes(), err.getvalue(), None)


def _tree(directory) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, directory)] = handle.read()
    return out


def _generate(directory, seed: int) -> None:
    gen.jpmorgan_logs(str(directory), seed, 60, malformed=5)
    program = gen.program(str(directory), seed, 80, parts=2)
    gen.edited_program(str(directory), seed, program, parts=2)
    gen.program_logs(str(directory), seed, 240)
    gen.infinite_value_log(str(directory))


def test_generators_are_deterministic_per_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory, seed in zip(dirs, (7, 7, 8)):
        directory.mkdir()
        _generate(directory, seed)
    first, again, other = (_tree(d) for d in dirs)
    assert first == again
    assert first != other
    # The seed changes values and placement, not sizes.
    assert sorted(first) == sorted(other)
    assert sum(v.count(b"\n") for v in first.values()) == sum(v.count(b"\n") for v in other.values())


# -- a small program case, run once through the real CLI ----------------------------


@pytest.fixture(scope="module")
def program_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("program")
    program = gen.program(str(work), 3, 80, parts=2)
    edit = gen.edited_program(str(work), 3, program, parts=2)
    facts = gen.program_logs(str(work), 3, 240)
    logs = ["--measurements", *facts.files]
    out = work / "payload"
    return {
        "program": program,
        "edit": edit,
        "facts": facts,
        "spec": workloads._program_spec(program),
        "eval": _run(["eval", program.root, *logs, "--metric", "all", "--period", "2014-09", "--format", "json"], out),
        "report": _run(["report", program.root, *logs, "--from", "2014-Q1", "--to", "2014-Q4", "--format", "json"], out),
        "impact": _run(["impact", program.root, edit.path, "--json"], out),
        "check": _run(["check", program.root, "--format", "json"], out),
        "fmt": _run(["fmt", program.root], out),
        "work": work,
    }


def _results(case, name):
    data = json.loads(case[name].payload)
    if name == "eval":
        return data["results"]
    return [r for entry in data["metrics"] for r in entry["results"]]


def _check_results(case, name, results):
    periods = ["2014-09"] if name == "eval" else QUARTERS
    keys = [(m, p) for m in sorted(case["spec"]) for p in periods]
    return checks.check_results(results, case["facts"], case["spec"], case["program"].metric_chain, keys)


def _impact_facts(case):
    return workloads._edit_facts(case["program"], case["edit"])


def _check_impact(case, payload: bytes):
    f = _impact_facts(case)
    return checks.check_impact(payload, f["changes"], f["removed"], f["orphans"], f["upstream"])


def _refmt(work):
    def refmt(payload: bytes) -> bytes:
        src = work / "refmt.sym"
        src.write_bytes(payload)
        return _run(["fmt", str(src)], work / "refmt_out").payload

    return refmt


def test_checks_accept_the_outputs_of_a_correct_run(program_case):
    case = program_case
    assert _check_results(case, "eval", _results(case, "eval")) == []
    assert _check_results(case, "report", _results(case, "report")) == []
    assert _check_impact(case, case["impact"].payload) == []
    assert checks.check_no_diagnostics(case["check"].payload) == []
    assert checks.check_fmt(case["fmt"].payload, case["program"].nodes, _refmt(case["work"])) == []


def _first(results, predicate):
    return next(i for i, r in enumerate(results) if predicate(r))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("eval", lambda r: r[0]["bindings"].update({k: v + 1 for k, v in list(r[0]["bindings"].items())[:1]})),
        ("eval", lambda r: r[_first(r, lambda x: x["value"] is not None)].update(value=1.5)),
        ("eval", lambda r: r[_first(r, lambda x: x["band"])].update(band="elsewhere")),
        ("report", lambda r: r[_first(r, lambda x: x["failure"])].update(failure=None, value=50.0)),
        ("eval", lambda r: r[0]["affected_objectives"].reverse()),
        ("eval", lambda r: r.pop()),
        ("report", lambda r: r[0]["density_warnings"].append("collection period 2014-02 inside 2014-Q1")),
        ("report", lambda r: r.insert(0, r.pop())),
    ],
)
def test_result_check_rejects_a_corrupted_result(program_case, name, corrupt):
    results = copy.deepcopy(_results(program_case, name))
    corrupt(results)
    assert _check_results(program_case, name, results)


def test_impact_check_rejects_a_missing_orphan_or_change(program_case):
    data = json.loads(program_case["impact"].payload)
    removed = next(r for r in data["changes"] if r["change"]["id"] == program_case["edit"].removed_objective)
    removed["downstream_orphans"].pop()
    assert _check_impact(program_case, json.dumps(data).encode())
    data = json.loads(program_case["impact"].payload)
    data["changes"].pop()
    assert _check_impact(program_case, json.dumps(data).encode())


def test_fmt_and_check_checks_reject_wrong_payloads(program_case):
    payload = program_case["fmt"].payload
    assert checks.check_fmt(payload, program_case["program"].nodes, lambda p: p + b"\n")
    assert checks.check_fmt(payload, program_case["program"].nodes + 1, lambda p: p)
    assert checks.check_no_diagnostics(b'[{"code": "V004"}]\n')


# -- the logs case over the corpus model ---------------------------------------------


@pytest.fixture(scope="module")
def logs_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("logs")
    facts = gen.jpmorgan_logs(str(work), 5, 80, malformed=6)
    logs = ["--measurements", *facts.files]
    out = work / "payload"
    return {
        "facts": facts,
        "text": _run(["report", JPM, *logs, "--from", "2014-Q1", "--to", "2014-Q4"], out),
        "eval": _run(["eval", JPM, *logs, "--metric", "all", "--period", "2014-09", "--format", "json"], out),
    }


def _check_text(case, text: str):
    spec = gen.JPM_METRICS
    return checks.check_text_report(text, case["facts"], spec, lambda m: gen.JPM_CHAIN, QUARTERS)


def test_text_report_check(logs_case):
    text = logs_case["text"].payload.decode()
    assert _check_text(logs_case, text) == []
    assert "collection period 2014-10 inside 2014-Q4" in text
    dropped = "\n".join(line for line in text.splitlines() if "collection period 2014-10" not in line)
    assert _check_text(logs_case, dropped)
    row = next(
        line for line in text.splitlines() if line.startswith("  2014-Q") and line.split(" | ")[1].strip() != "-"
    )
    value = row.split(" | ")[1].strip()
    assert _check_text(logs_case, text.replace(row, row.replace(f" | {value}", " | 0.125", 1)))


def test_i_diagnostic_check(logs_case):
    stderr = logs_case["eval"].stderr
    malformed = logs_case["facts"].malformed
    assert checks.check_i_diagnostics(stderr, malformed) == []
    first = next(line for line in stderr.splitlines() if line.startswith("I0"))
    assert checks.check_i_diagnostics(stderr.replace(first + "\n", ""), malformed)


def test_infinite_value_check():
    log, line = "logs/x.jsonl", gen.INFINITE_VALUE_LINE
    diag = f"I001 error {log}:{line}:1 - malformed log line: 'value' must be a finite number\n"
    assert checks.check_infinite_value(0, b"ME1 2014-09: FAILED\n", diag, log, line) == []
    assert checks.check_infinite_value(0, b"bindings: bm_incidents_human=inf\n", diag, log, line)
    assert checks.check_infinite_value(0, b"ok\n", "", log, line)
    assert checks.check_infinite_value(None, b"", diag, log, line)


# -- the tracer ------------------------------------------------------------------------


def _originals():
    out = {}
    for module, path, _, _ in tracing.WRAPS:
        owner, attr = tracing._resolve(module, path)
        out[(module, path)] = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return out


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
        log = gen.infinite_value_log(str(tmp_path))
        with contextlib.suppress(Exception):  # today this command raises inside the CLI
            _run(["eval", JPM, "--measurements", log, "--metric", "all", "--period", "2014-09"], tmp_path / "o")
    finally:
        tracer.restore()
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def _traced_commands(tmp_path, seed):
    facts = gen.jpmorgan_logs(str(tmp_path), seed, 40, malformed=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run(["check", JPM], tmp_path / "a")
        _run(["eval", JPM, "--measurements", *facts.files, "--metric", "all", "--period", "2014-09"], tmp_path / "b")
    finally:
        tracer.restore()
    return tracer


def test_spans_nest_by_call_structure(tmp_path):
    tracer = _traced_commands(tmp_path, 1)
    spans = {s[0]: s for s in tracer.spans}
    names = {span_id: s[1].split(":")[1] for span_id, s in spans.items()}
    expected_parent = {
        "tokenize": "parse_file",
        "parse_file": "main",
        "validate": "main",
        "ingest_many": "main",
        "ingest_lines": "ingest_many",
        "evaluate_period": "main",
        "aggregate": "evaluate_period",
        "evaluate_metric": "evaluate_period",
        "objective_ancestors_ordered": "evaluate_period",
        "route_result": "main",
        "build_graph": "main",
    }
    seen = set()
    for span_id, name, start, end, parent, command in spans.values():
        short = names[span_id]
        seen.add(short)
        if short == "main":
            assert parent is None
            continue
        assert names[parent] == expected_parent[short]
        _, _, p_start, p_end, _, p_command = spans[parent]
        assert p_start <= start <= end <= p_end
        assert command == p_command
    assert seen == set(expected_parent) | {"main"}
    assert sorted({s[5] for s in spans.values()}) == [1, 2]


def test_traced_counts_repeat(tmp_path):
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(_traced_commands(tmp_path / name, 4).take())
    first, second = runs
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["periods.period_contains_calls"] > 0
    assert first["pipeline.lines_rejected"] == 2
