"""Digests of every benchmark op's output, which `tests/test_same_bytes.py` compares.

    PYTHONPATH=src python3 tests/same_bytes.py

Run from the root of a checkout, it rewrites `tests/same_bytes.json` from the
program in that checkout. Rewrite the file only with a change that means to
change an output, and say which ops changed and why.

Each workload of `bench/workloads.py` is built at each seed of `SEEDS` in a
directory of its own, with `bench/gen.py`, `bench/checks.py` and
`bench/workloads.py` compiled in memory, so nothing is written under
`bench/`. Then each of its ops runs once, in order, through `cli.main` in this
process. Every op gets `--out`: without it, `fmt` would rewrite the model it
names in place, and on logs-heavy that is `corpus/jpmorgan.sym`. Per workload
and seed there are two digests. `inputs` hashes each generated file's name
and bytes. `outputs` hashes each op's exit code, stdout, stderr and payload,
each prefixed by its length, with the work directory and the repository root
replaced by `<work>` and `<root>`. So a mismatch says whether the generator
or the program changed, and the digests do not depend on where the checkout
or the work directory lies.

The file was written with Python 3.11. `bench/gen.py` draws with
integer-argument `random` calls (`choice`, `randint`, `randrange`, `sample`,
`shuffle`) and `random()`; Python promises the same draws across versions
only for `random()`. If another version generates other inputs, keep one
`inputs` digest per minor version, or make the generator draw from
`random()` alone; do not drop the output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DIGESTS = Path(__file__).with_suffix(".json")
SEEDS = (1, 131)


def bench_workloads() -> types.ModuleType:
    """`bench/workloads.py`, after the `gen` and `checks` it imports, each compiled in memory.

    Each module is in `sys.modules` under its own name only while the next ones import it
    (and `dataclass` looks it up); whatever was there before is put back.
    """
    names = ("gen", "checks", "workloads")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        for name in names:
            path = BENCH / f"{name}.py"
            module = sys.modules[name] = types.ModuleType(name)
            module.__file__ = str(path)
            exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
        return module
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module


def _framed(*parts: bytes) -> bytes:
    return b"".join(b"%d:%s" % (len(part), part) for part in parts)


def _inputs_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(path for path in work.rglob("*") if path.is_file()):
        digest.update(_framed(path.relative_to(work).as_posix().encode(), path.read_bytes()))
    return digest.hexdigest()


def _outputs_digest(ops: list, work: Path) -> str:
    from symbiosis_kit import cli

    # The longer path first, in case one holds the other.
    places = sorted(((str(work), b"<work>"), (str(ROOT), b"<root>")), key=lambda place: -len(place[0]))
    out = work / "payload"
    digest = hashlib.sha256()
    for op in ops:
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*op.argv, "--out", str(out)])
        parts = [str(code).encode(), stdout.getvalue().encode(), stderr.getvalue().encode()]
        parts.append(out.read_bytes() if out.exists() else b"")
        for path, placeholder in places:
            parts = [part.replace(path.encode(), placeholder) for part in parts]
        digest.update(_framed(*parts))
    return digest.hexdigest()


def digests(base: Path) -> dict[str, dict[str, str]]:
    """Per "<workload> seed <seed>": the digests of its generated inputs and of its ops' outputs."""
    workloads = bench_workloads()
    found = {}
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            work = base / f"{name}-{seed}"
            work.mkdir()
            workload = build(str(ROOT), str(work), seed, None)  # no refmt: the ops' checks do not run
            inputs = _inputs_digest(work)  # before the ops write their payloads there
            found[f"{name} seed {seed}"] = {"inputs": inputs, "outputs": _outputs_digest(workload.ops, work)}
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as base:
        found = digests(Path(base))
    DIGESTS.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(found)} entries to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
