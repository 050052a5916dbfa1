"""Garbage-collection probe for the benchmark's rounds.

    python3 tests/gc_probe.py --seed 89 --rounds 3 [--workload logs-heavy]

Run from the root of a checkout; it needs only the standard library. It
builds one workload (model-heavy unless `--workload` names another) with
`bench/workloads.py` and runs
`Runner.round` from `bench/run.py` as the benchmark does, with the
reference loop (`calibrate`) wrapped: before each loop it reads the
generation-2 counter, `gc.get_count()[2]`, and while the loop runs a
`gc.callbacks` hook counts the generation-2 (full) collections. Each round
prints one line of `op:counter/full`, for the loop after each command.

A full collection inside a loop makes that loop slower, which scales the
commands on both sides of it down, so a change that moves the collections
between loops moves the scaled times of commands it does not touch. On
model-heavy, a full collection runs in the loop after `impact`, `eval` and
`report` only (counters 7, 7, 9, 8 and 8 from the second round on). On
logs-heavy and program-wide the counters stay lower and no loop runs one.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import run  # noqa: E402  (bench/run.py)
import workloads  # noqa: E402  (bench/workloads.py)


def probe(seed: int, rounds: int, workload_name: str = "model-heavy") -> list[str]:
    """Run `rounds` rounds of a workload; one `op:counter/full` line per round."""
    from symbiosis_kit import cli

    work = os.path.join(ROOT, ".bench_work", f"gc-probe-{os.getpid()}")
    os.makedirs(work)
    calibrate = run.calibrate
    readings: list[tuple[int, int]] = []  # per loop: (counter before it, full collections in it)
    full = 0

    def count_full(phase: str, info: dict) -> None:
        nonlocal full
        if phase == "start" and info["generation"] == 2:
            full += 1

    def probed() -> float:
        nonlocal full
        counter, full = gc.get_count()[2], 0
        gc.callbacks.append(count_full)
        try:
            return calibrate()
        finally:
            gc.callbacks.remove(count_full)
            readings.append((counter, full))

    lines = []
    run.calibrate = probed
    try:
        workload = workloads.WORKLOADS[workload_name](ROOT, work, seed, run._refmt(cli, work))
        runner = run.Runner(cli, workload, work)
        for _ in range(rounds):
            readings.clear()
            runner.round()
            # The first loop runs before the first command.
            after = readings[1:]
            lines.append(" ".join(f"{op.argv[0]}:{c}/{f}" for op, (c, f) in zip(workload.ops, after)))
        for problem in runner.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    finally:
        run.calibrate = calibrate
        shutil.rmtree(work, ignore_errors=True)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), default="model-heavy")
    args = parser.parse_args(argv)
    for index, line in enumerate(probe(args.seed, args.rounds, args.workload), 1):
        print(f"round {index}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
