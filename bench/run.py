"""Benchmark runner for symbiosis-kit.

    python3 bench/run.py --workload logs-heavy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. The runner puts `src/` on the import path
itself (the same as PYTHONPATH=src), generates the workload's inputs from the
seed under `.bench_work/`, and drives the real CLI in-process through
`symbiosis_kit.cli.main`, with payloads written to files through `--out`.
It repeats whole rounds of the workload's commands until `--seconds` have
passed, checks every output against the generators' facts, and prints one
JSON object as the last line of stdout:

    {"correct": true, "attempted": 252, "failed": 7, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (median wall time per
command kind, set-up time, peak RSS). With `--trace 1` untraced and traced
rounds alternate; the metrics are per-layer self times and counts from the
traced rounds, plus the tracing overhead, and the spans are written to
`.bench_out/`. `--workload all` runs every workload in its own process.

Exit codes: 0 after a complete run, 2 when the checkout lacks the program
or the corpus, or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from calibration import NOMINAL_S, calibrate
from tracing import UNITS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

END_TO_END = {
    "report_s": "s",
    "eval_s": "s",
    "check_s": "s",
    "fmt_s": "s",
    "impact_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Run in a fresh interpreter: the fixed cost every command on a model pays.
SETUP_CODE = """
import json, sys, time
from calibration import NOMINAL_S, calibrate
before = calibrate()
start = time.perf_counter()
import symbiosis_kit
from symbiosis_kit import build_graph, parse_file, validate
model, diags = parse_file(sys.argv[1])
diags = diags + validate(model)
graph = build_graph(model)
elapsed = time.perf_counter() - start
scale = NOMINAL_S / ((before + calibrate()) / 2)
print(json.dumps({"seconds": elapsed * scale, "nodes": len(graph.nodes), "edges": len(graph.edges), "diagnostics": len(diags)}))
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(model: str, nodes: int, edges: int) -> tuple[float, list[str]]:
    """Median scaled set-up time over fresh interpreters, and graph-size problems."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, model],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["seconds"])
        if (result["nodes"], result["edges"], result["diagnostics"]) != (nodes, edges, 0):
            problems.append(
                f"graph of {model}: {result['nodes']} nodes, {result['edges']} edges, "
                f"{result['diagnostics']} diagnostics; expected {nodes}, {edges}, 0"
            )
    return statistics.median(times), sorted(set(problems))


class Runner:
    """Runs the ops of one workload and keeps their times, hashes and problems."""

    def __init__(self, cli, workload, work: str) -> None:
        self.cli = cli
        self.workload = workload
        self.work = work
        self.samples: dict[int, list[float]] = {i: [] for i in range(len(workload.ops))}  # scaled
        self.raw: dict[int, list[float]] = {i: [] for i in range(len(workload.ops))}
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.round_seconds: list[float] = []

    def execute(self, argv: list[str], out_path: str) -> tuple[float, workloads.Outcome]:
        if os.path.exists(out_path):
            os.remove(out_path)
        # Each command starts from an emptied garbage collector, as in a fresh
        # CLI process, not from whatever the previous command left.
        gc.collect()
        err = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv + ["--out", out_path])
            except Exception as exc:  # a crash is an outcome to count, not to stop on
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        payload = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as handle:
                payload = handle.read()
        return elapsed, workloads.Outcome(code, payload, err.getvalue(), error)

    def round(self) -> float:
        """Run every op once (with its repeats); return its scaled command time.

        The reference loop runs before each op and after the last; each op's
        times are scaled by the mean of the loops on either side of it.
        """
        start = time.perf_counter()
        scaled = 0.0
        before = calibrate()
        for index, op in enumerate(self.workload.ops):
            out_path = os.path.join(self.work, f"payload_{index}")
            kept = []
            for _ in range(op.repeat):
                self.attempted += 1
                elapsed, outcome = self.execute(op.argv, out_path)
                if self._judge(index, op, outcome):
                    kept.append(elapsed)
            after = calibrate()
            scale = NOMINAL_S / ((before + after) / 2)
            self.raw[index].extend(kept)
            self.samples[index].extend(t * scale for t in kept)
            scaled += sum(kept) * scale
            before = after
        self.round_seconds.append(time.perf_counter() - start)
        return scaled

    def _judge(self, index: int, op, outcome) -> bool:
        """Count and check one outcome; True when its time is a sample."""
        ok = outcome.error is None and outcome.code == 0
        if op.known_fault:
            # Judged on every run: it counts as failed until its outcome is right.
            if not ok or op.check(outcome):
                self.failed += 1
            return False
        if not ok:
            self.failed += 1
            self.problems.append(f"{' '.join(op.argv[:2])}: exit {outcome.code}, {outcome.error}")
            return False
        digest = hashlib.sha256(outcome.payload + outcome.stderr.encode()).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            self.problems.extend(f"{op.argv[0]}: {p}" for p in op.check(outcome))
        elif self.digests[index] != digest:
            self.problems.append(f"{op.argv[0]}: a repeated command gave different bytes")
        return True

    def command_metrics(self, raw: bool = False) -> dict[str, float]:
        """Per end-to-end metric: the median time of one of its commands over the run.

        Scaled to the nominal machine speed, or as measured with `raw`. A
        metric fed by several commands takes the mean of their medians.
        """
        samples = self.raw if raw else self.samples
        by_metric: dict[str, list[float]] = {}
        for index, op in enumerate(self.workload.ops):
            if op.metric is not None and samples[index]:  # a command that always failed has none
                by_metric.setdefault(op.metric, []).append(statistics.median(samples[index]))
        return {name: statistics.fmean(medians) for name, medians in by_metric.items()}


def _refmt(cli, work: str):
    """fmt applied to fmt's own output, for the fixpoint check."""

    def refmt(payload: bytes) -> bytes:
        src = os.path.join(work, "refmt_in.sym")
        dst = os.path.join(work, "refmt_out.sym")
        with open(src, "wb") as handle:
            handle.write(payload)
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["fmt", src, "--out", dst])
        with open(dst, "rb") as handle:
            return handle.read()

    return refmt


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and lines for people to read."""
    from symbiosis_kit import cli

    work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = workloads.WORKLOADS[name](ROOT, work, seed, _refmt(cli, work))
        runner = Runner(cli, workload, work)
        setup_s, setup_problems = measure_setup(workload.model, workload.nodes, workload.edges)
        runner.problems.extend(setup_problems)
        if trace:
            metrics, units, raw = _traced(runner, name, seed, seconds), UNITS, {}
        else:
            start = time.perf_counter()
            while not runner.round_seconds or time.perf_counter() - start < seconds:
                runner.round()
            metrics, units, raw = runner.command_metrics(), END_TO_END, runner.command_metrics(raw=True)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    lines = [
        f"{name:13} {key:32} {value:14.6f} {units[key]:6}" + (f" (as measured: {raw[key]:.6f})" if key in raw else "")
        for key, value in metrics.items()
    ]
    lines.append(
        f"{name:13} {len(runner.round_seconds)} rounds, attempted {runner.attempted}, "
        f"failed {runner.failed}, correct {not runner.problems}"
    )
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, lines


def _traced(runner: Runner, name: str, seed: int, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones."""
    tracer = Tracer()
    origin = time.perf_counter()
    plain, traced, layers = [], [], []
    while not traced or time.perf_counter() - origin < seconds:
        plain.append(runner.round())
        tracer.install()
        try:
            traced.append(runner.round())
        finally:
            tracer.restore()
        layers.append(tracer.take())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"), origin)
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    metrics["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1) * 100
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "symbiosis_kit", "cli.py")):
        _fail(f"no symbiosis_kit package under {SRC}; run from a checkout of the repository")
    if not os.path.isfile(os.path.join(ROOT, "corpus", "jpmorgan.sym")):
        _fail("corpus/jpmorgan.sym is missing; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return _run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _run_all(names: list[str], args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {proc.returncode}")
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
