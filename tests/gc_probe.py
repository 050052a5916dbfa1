"""Garbage-collection probe for the benchmark's rounds.

    python3 tests/gc_probe.py --seed 89 --rounds 3 [--workload logs-heavy]

Run from the root of a checkout; it needs only the standard library. It
builds one workload (model-heavy unless `--workload` names another) with
`bench/workloads.py` and runs
`Runner.round` from `bench/run.py` as the benchmark does, with the
reference loop (`calibrate`) wrapped: before each loop it reads the
generation-2 counter, `gc.get_count()[2]`, and while the loop runs a
`gc.callbacks` hook counts the generation-2 (full) collections. Each round
prints one line of `op:counter/full` per loop: `start` for the loop that
opens the round, before the first command, then one for the loop after
each command.

A full collection inside a loop makes that loop slower, which scales the
commands on both sides of it down, so a change that moves the collections
between loops moves the scaled times of commands it does not touch. The
`start` loop runs on what the previous round left, and scales the first
command of each round. `cli.main` runs each command with the collector
paused, so a command brings no collection due for the loop after it: with
`--seed 23 --rounds 3`, the counter reads 0 before every loop after a
command on all three workloads and 3 before `start`, and no loop runs a
full collection. While commands ran with the collector on, it read 1-3
after each model-heavy command and 0-1 after each program-wide one.
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
    """Run `rounds` rounds of a workload; per round, one line of `op:counter/full` per loop."""
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
            # The first loop runs before the first command; each other loop, after a command.
            names = ["start"] + [op.argv[0] for op in workload.ops]
            lines.append(" ".join(f"{name}:{c}/{f}" for name, (c, f) in zip(names, readings)))
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
