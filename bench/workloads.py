"""The three workloads: their inputs, their commands and the check of each.

Every workload runs all five user-facing commands (report, eval, check, fmt,
impact), so each reports every end-to-end metric, but each puts its weight
on different layers:

- logs-heavy: the jpmorgan case study over 11,000 generated log lines.
  Ingest and the per-(metric, period, base) record scans dominate; the
  model-side commands run on a 34-node model and cost milliseconds.
- model-heavy: a generated program of 511 objectives (1,323 blocks over
  four included files) and an edited copy. Lexer, parser, validator,
  serializer and impact do the work; eval and report select one metric over
  a 240-line log, so the pipeline does almost none.
- program-wide: a generated program of 255 objectives and 128 metrics over
  a 240-line log, evaluated for every metric. The cost is per evaluation
  (graph ancestors, record rescans, density checks), not per log line.

Sizes are fixed; the seed picks values, dates, positions and edits.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
import gen

# Counted by hand from corpus/jpmorgan.sym: 4 stakeholders, 3 universes,
# 3 objectives, 2 strategies, 1 goal, 6 questions, 9 bases, 6 metrics; edges:
# 2 refines, 2 depends_on, 2 strategy_of, 1 measures, 6 asks, 6 answers, 9 uses.
JPM_NODES = 34
JPM_EDGES = 28

LOGS_LINES_PER_MONTH = 1000  # 11 months: 11,000 lines
MODEL_OBJECTIVES = 511
MODEL_LOG_LINES = 240
PROGRAM_OBJECTIVES = 255
PROGRAM_LOG_LINES = 240
CHEAP_REPEATS = 10  # model-side commands on the 34-node case study model
EVAL_REPEATS = 3  # the single-period eval of logs-heavy, for more samples per run


@dataclass
class Outcome:
    code: int | None
    payload: bytes
    stderr: str
    error: str | None  # the exception a command raised, if any


@dataclass
class Op:
    """One CLI command of a round.

    `metric` names the end-to-end metric its wall time feeds. A known-fault
    op feeds none: it fails today because of a program fault, and is
    counted as failed until its outcome is correct.
    """

    metric: str | None
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    repeat: int = 1
    known_fault: bool = False


@dataclass
class Workload:
    model: str  # the model setup_s loads
    nodes: int  # graph size the generator expects for it
    edges: int
    ops: list[Op] = field(default_factory=list)


def _results_check(facts, spec, chain, keys, malformed) -> Callable[[Outcome], list[str]]:
    """Check an eval or report JSON payload plus the I-diagnostics on stderr."""

    def check(out: Outcome) -> list[str]:
        data = json.loads(out.payload)
        if "results" in data:
            results = data["results"]
        else:
            results = [r for entry in data["metrics"] for r in entry["results"]]
        return checks.check_results(results, facts, spec, chain, keys) + checks.check_i_diagnostics(
            out.stderr, malformed
        )

    return check


def _keys(metric_ids: list[str], periods: list[str]) -> list[tuple[str, str]]:
    return [(m, p) for m in sorted(metric_ids) for p in periods]


QUARTERS = list(gen.QUARTER_MONTHS)


def _model_side_ops(model: str, edited: str, blocks: int, edit: dict, refmt, repeat: int) -> list[Op]:
    """check, fmt and impact; every graph node of a model is one block of its text."""
    return [
        Op("check_s", ["check", model, "--format", "json"], lambda o: checks.check_no_diagnostics(o.payload), repeat),
        Op("fmt_s", ["fmt", model], lambda o: checks.check_fmt(o.payload, blocks, refmt), repeat),
        Op(
            "impact_s",
            ["impact", model, edited, "--json"],
            lambda o: checks.check_impact(o.payload, edit["changes"], edit["removed"], edit["orphans"], edit["upstream"]),
            repeat,
        ),
    ]


def logs_heavy(root: str, work: str, seed: int, refmt) -> Workload:
    model = os.path.join(root, "corpus", "jpmorgan.sym")
    facts = gen.jpmorgan_logs(work, seed, LOGS_LINES_PER_MONTH)
    edited = os.path.join(work, "jpm_edited.sym")
    changes = gen.jpmorgan_edit(model, edited)
    infinite = gen.infinite_value_log(work)
    spec = gen.JPM_METRICS
    chain = lambda metric_id: gen.JPM_CHAIN  # noqa: E731
    metrics = list(spec)
    logs = ["--measurements", *facts.files]
    months = list(gen.MONTHS)

    def quarterly(out: Outcome) -> list[str]:
        return checks.check_text_report(out.payload.decode("utf-8"), facts, spec, chain, QUARTERS) + (
            checks.check_i_diagnostics(out.stderr, facts.malformed)
        )

    wl = Workload(model, JPM_NODES, JPM_EDGES)
    wl.ops = [
        Op(
            "report_s",
            ["report", model, *logs, "--from", "2014-01", "--to", "2014-12", "--format", "json"],
            _results_check(facts, spec, chain, _keys(metrics, months), facts.malformed),
        ),
        Op("report_s", ["report", model, *logs, "--from", "2014-Q1", "--to", "2014-Q4"], quarterly),
        Op(
            "eval_s",
            ["eval", model, *logs, "--metric", "all", "--period", "2014-09", "--format", "json"],
            _results_check(facts, spec, chain, _keys(metrics, ["2014-09"]), facts.malformed),
            repeat=EVAL_REPEATS,
        ),
        *_model_side_ops(
            model,
            edited,
            JPM_NODES,
            {"changes": changes, "removed": None, "orphans": [], "upstream": []},
            refmt,
            CHEAP_REPEATS,
        ),
        Op(
            None,
            ["eval", model, "--measurements", infinite, "--metric", "all", "--period", "2014-09"],
            lambda o: checks.check_infinite_value(o.code, o.payload, o.stderr, infinite, gen.INFINITE_VALUE_LINE),
            known_fault=True,
        ),
    ]
    return wl


def _program_spec(program: gen.ProgramFacts) -> checks.MetricSpec:
    return {m: (gen.TEMPLATES[t][0], gen.TEMPLATES[t][2]) for m, t in program.metric_template.items()}


def _edit_facts(program: gen.ProgramFacts, edit: gen.EditFacts) -> dict:
    removed = int(edit.removed_objective[2:])
    return {
        "changes": edit.changes,
        "removed": edit.removed_objective,
        "orphans": edit.orphans,
        "upstream": sorted(program.chain(removed // 2)),
    }


def model_heavy(root: str, work: str, seed: int, refmt) -> Workload:
    program = gen.program(work, seed, MODEL_OBJECTIVES, parts=4, name="model")
    edit = gen.edited_program(work, seed, program, parts=4)
    facts = gen.program_logs(work, seed, MODEL_LOG_LINES, name="model_log")
    spec = _program_spec(program)
    # One metric over two COUNT bases; which one is up to the seed.
    metric = random.Random(seed).choice(sorted(m for m, t in program.metric_template.items() if t == 0))
    one = {metric: spec[metric]}
    logs = ["--measurements", *facts.files]
    wl = Workload(program.root, program.nodes, program.edges)
    wl.ops = [
        *_model_side_ops(program.root, edit.path, program.nodes, _edit_facts(program, edit), refmt, 1),
        Op(
            "eval_s",
            ["eval", program.root, *logs, "--metric", metric, "--period", "2014-09", "--format", "json"],
            _results_check(facts, one, program.metric_chain, _keys([metric], ["2014-09"]), set()),
        ),
        Op(
            "report_s",
            ["report", program.root, *logs, "--metric", metric, "--from", "2014-Q1", "--to", "2014-Q4", "--format", "json"],
            _results_check(facts, one, program.metric_chain, _keys([metric], QUARTERS), set()),
        ),
    ]
    return wl


def program_wide(root: str, work: str, seed: int, refmt) -> Workload:
    program = gen.program(work, seed, PROGRAM_OBJECTIVES, parts=2, name="program")
    edit = gen.edited_program(work, seed, program, parts=2)
    facts = gen.program_logs(work, seed, PROGRAM_LOG_LINES)
    spec = _program_spec(program)
    logs = ["--measurements", *facts.files]
    wl = Workload(program.root, program.nodes, program.edges)
    wl.ops = [
        Op(
            "eval_s",
            ["eval", program.root, *logs, "--metric", "all", "--period", "2014-09", "--format", "json"],
            _results_check(facts, spec, program.metric_chain, _keys(list(spec), ["2014-09"]), set()),
        ),
        Op(
            "report_s",
            ["report", program.root, *logs, "--from", "2014-Q1", "--to", "2014-Q4", "--format", "json"],
            _results_check(facts, spec, program.metric_chain, _keys(list(spec), QUARTERS), set()),
        ),
        *_model_side_ops(program.root, edit.path, program.nodes, _edit_facts(program, edit), refmt, 1),
    ]
    return wl


WORKLOADS = {"logs-heavy": logs_heavy, "model-heavy": model_heavy, "program-wide": program_wide}
