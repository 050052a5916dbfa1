"""Output checks: each compares a command's output with generator facts.

A check returns a list of problems; an empty list means the output is
correct. Nothing here calls the program: expected bindings, values, bands,
warnings, ancestor chains and impact sets all come from what the generators
wrote (see gen.py), or from properties the method must have.
"""

from __future__ import annotations

import json
import re
from typing import Callable

from gen import QUARTER_MONTHS, LogFacts, band_of

# metric id -> (bases it uses, its function over a bindings dict)
MetricSpec = dict[str, tuple[tuple[str, ...], Callable[[dict[str, float]], float]]]

_I_DIAG = re.compile(r"^(I\d{3}) error (.+):(\d+):\d+ ")
_NON_FINITE = re.compile(r"\b-?(inf|Infinity|nan|NaN)\b")


def expected_result(
    facts: LogFacts, spec: MetricSpec, metric_id: str, period: str
) -> tuple[dict[str, float], float | None, str | None, list[str]]:
    """Bindings, value, failure kind and density warnings a correct run gives.

    The failure kind is the start of the program's message for it: a
    missing DIRECT binding, a division by zero, or a value outside the
    default [0, 100] domain.
    """
    uses, function = spec[metric_id]
    bindings = {}
    for base in uses:
        value = facts.binding(base, period)
        if value is not None:
            bindings[base] = value
    warnings = [
        f"collection period {month} inside {period} has no records for metric {metric_id}"
        for month in QUARTER_MONTHS.get(period, [])
        if not any(facts.has_data(base, month) for base in uses)
    ]
    if len(bindings) < len(uses):
        return bindings, None, "no value bound for base measurement", warnings
    try:
        value = function(bindings)
    except ZeroDivisionError:
        return bindings, None, "division by zero", warnings
    if band_of(value) is None:
        return bindings, None, "value", warnings  # "value ... falls outside the metric domain"
    return bindings, value, None, warnings


def check_results(
    results: list[dict],
    facts: LogFacts,
    spec: MetricSpec,
    chain: Callable[[str], tuple[str, ...]],
    expected_keys: list[tuple[str, str]],
) -> list[str]:
    """Check evaluation results (eval or report JSON) one by one."""
    problems = []
    got_keys = [(r.get("metric"), r.get("period")) for r in results]
    if got_keys != expected_keys:
        problems.append(f"results cover {len(got_keys)} (metric, period) pairs, not the {len(expected_keys)} expected")
    for result in results:
        metric_id, period = result["metric"], result["period"]
        where = f"{metric_id} {period}"
        bindings, value, failure, warnings = expected_result(facts, spec, metric_id, period)
        if result["bindings"] != bindings:
            problems.append(f"{where}: bindings {result['bindings']} != tallies {bindings}")
        if failure is None:
            if result["value"] != value or result["failure"] is not None:
                problems.append(f"{where}: value {result['value']!r} != recomputed {value!r}")
            if result["band"] != band_of(value):
                problems.append(f"{where}: band {result['band']!r} != {band_of(value)!r}")
        elif result["value"] is not None or not (result["failure"] or "").startswith(failure):
            problems.append(f"{where}: expected a failure starting {failure!r}, got {result['failure']!r}")
        elif failure == "value" and "outside the metric domain" not in result["failure"]:
            problems.append(f"{where}: expected an out-of-domain failure, got {result['failure']!r}")
        if result["affected_objectives"] != list(chain(metric_id)):
            problems.append(f"{where}: affected objectives {result['affected_objectives']} != {list(chain(metric_id))}")
        if result["density_warnings"] != warnings:
            problems.append(f"{where}: density warnings {result['density_warnings']} != {warnings}")
        if failure is not None and not any(d.get("action") == "notify" for d in result.get("directives", [])):
            problems.append(f"{where}: a failed evaluation routes no notify directive")
    return problems


def check_i_diagnostics(stderr: str, expected: set[tuple[str, int, str]]) -> list[str]:
    """The I-diagnostics on stderr are exactly the injected malformed lines."""
    got = set(_i_diags(stderr))
    if got == expected:
        return []
    return [f"I-diagnostics differ: missing {sorted(expected - got)[:3]}, unexpected {sorted(got - expected)[:3]}"]


def parse_text_report(text: str) -> dict[str, dict]:
    """Rows and footnotes per metric of a text report."""
    metrics: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("metric "):
            current = metrics.setdefault(line[7:], {"rows": {}, "notes": []})
        elif current is not None and line.startswith("  note "):
            period, _, note = line[7:].partition(": ")
            current["notes"].append((period, note))
        elif current is not None and " | " in line:
            cells = [cell.strip() for cell in line.split(" | ")]
            if cells[0] != "period":
                current["rows"][cells[0]] = cells
    return metrics


def check_text_report(
    text: str, facts: LogFacts, spec: MetricSpec, chain: Callable[[str], tuple[str, ...]], periods: list[str]
) -> list[str]:
    """Values, bands, chains and notes of a text report."""
    problems = []
    parsed = parse_text_report(text)
    if sorted(parsed) != sorted(spec):
        problems.append(f"report lists metrics {sorted(parsed)}, expected {sorted(spec)}")
    for metric_id, entry in sorted(parsed.items()):
        if metric_id not in spec:
            continue
        if sorted(entry["rows"]) != sorted(periods):
            problems.append(f"{metric_id}: rows for {sorted(entry['rows'])}, expected {periods}")
        notes = []
        for period in periods:
            _, value, failure, warnings = expected_result(facts, spec, metric_id, period)
            row = entry["rows"].get(period)
            if row is None:
                continue
            want = (str(value), band_of(value)) if failure is None else ("-", "FAILED")
            if (row[1], row[2]) != want:
                problems.append(f"{metric_id} {period}: row shows {row[1:3]}, expected {list(want)}")
            if row[4] != ", ".join(chain(metric_id)):
                problems.append(f"{metric_id} {period}: affected objectives {row[4]!r}")
            notes.extend((period, w) for w in warnings)
        got = [n for n in entry["notes"] if n[1].startswith("collection period ")]
        if got != notes:
            problems.append(f"{metric_id}: density notes {got} != {notes}")
    return problems


def check_no_diagnostics(payload: bytes) -> list[str]:
    """A model that validates cleanly gives an empty `check --format json` list."""
    try:
        diags = json.loads(payload)
    except ValueError as exc:
        return [f"check payload is not JSON: {exc}"]
    return [] if diags == [] else [f"expected no diagnostics, got {len(diags)}: {diags[:2]}"]


BLOCK_LINE = re.compile(r"^(stakeholder|universe|objective|strategy|goal|question|base|metric) \S+ \{$", re.M)


def check_fmt(payload: bytes, blocks: int, refmt: Callable[[bytes], bytes]) -> list[str]:
    """fmt keeps every block and its output is a fixpoint."""
    problems = []
    found = len(BLOCK_LINE.findall(payload.decode("utf-8")))
    if found != blocks:
        problems.append(f"fmt output has {found} blocks, the model has {blocks}")
    if refmt(payload) != payload:
        problems.append("fmt output is not a fixpoint: formatting it again changes it")
    return problems


def check_impact(
    payload: bytes,
    changes: dict[str, list[str]],
    removed: str | None,
    orphans: list[str],
    upstream: list[str],
) -> list[str]:
    """The change list matches the edit; only the removal orphans, exactly its subtree."""
    try:
        reports = json.loads(payload)["changes"]
    except (ValueError, KeyError) as exc:
        return [f"impact payload is unreadable: {exc}"]
    problems = []
    got = sorted((r["change"]["change"], f"{r['change']['node_kind']} {r['change']['id']}") for r in reports)
    want = sorted((kind, node) for kind, nodes in changes.items() for node in nodes)
    if got != want:
        problems.append(f"impact lists changes {got}, expected {want}")
    for report in reports:
        node = report["change"]["id"]
        if node == removed and report["change"]["change"] == "removed":
            if report["downstream_orphans"] != orphans:
                missing = sorted(set(orphans) - set(report["downstream_orphans"]))
                extra = sorted(set(report["downstream_orphans"]) - set(orphans))
                problems.append(f"removing {node} orphans wrong nodes: missing {missing[:5]}, extra {extra[:5]}")
            if report["downstream_review"]:
                problems.append(f"removing {node} leaves nodes to review: {report['downstream_review'][:5]}")
            if report["upstream_review"] != upstream:
                problems.append(f"removing {node}: upstream {report['upstream_review']} != {upstream}")
        elif report["downstream_orphans"]:
            problems.append(f"{node}: unexpected orphans {report['downstream_orphans'][:5]}")
    return problems


def check_infinite_value(code: int | None, payload: bytes, stderr: str, log: str, line: int) -> list[str]:
    """The correct outcome of eval over a log that reports 1e400."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if (log, line, "I001") not in _i_diags(stderr):
        problems.append(f"no I001 diagnostic for {log}:{line}")
    if _NON_FINITE.search(payload.decode("utf-8", "replace")):
        problems.append("payload holds a non-finite number")
    return problems


def _i_diags(stderr: str) -> list[tuple[str, int, str]]:
    out = []
    for line in stderr.splitlines():
        match = _I_DIAG.match(line)
        if match:
            out.append((match[2], int(match[3]), match[1]))
    return out
