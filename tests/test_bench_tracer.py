"""Every name the benchmark's tracer wraps still exists in the package.

`bench/tracing.py` replaces functions at module attributes such as
`pipeline.ingest_lines` or `graph.TraceabilityGraph.edges_from`. A change
that deletes or renames one of them breaks only a traced benchmark run, and
the tests under `bench/` are not part of this suite, so this test reads the
tracer's tables and checks them against the package. The tracer's source is
compiled in memory: nothing is written under `bench/`.
"""

from __future__ import annotations

import importlib
import types

from corpus import CORPUS_ROOT

_TRACING = CORPUS_ROOT.parent / "bench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(_TRACING)
    exec(compile(_TRACING.read_text(encoding="utf-8"), str(_TRACING), "exec"), vars(module))
    return module


def _target(module: str, path: str) -> object:
    """The object at `path` in `symbiosis_kit.<module>`; a class attribute as stored, not bound."""
    owner: object = importlib.import_module(f"symbiosis_kit.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_wrapped_name_is_a_callable_of_the_package():
    tracing = _tracing()
    assert tracing.WRAPS
    missing = [
        f"{module}.{path}" for module, path, _, _ in tracing.WRAPS if not callable(_target(module, path))
    ]
    assert missing == []


def test_every_counter_names_a_wrapped_entry():
    tracing = _tracing()
    wrapped = {f"{module}.{path}" for module, path, _, _ in tracing.WRAPS}
    assert sorted(set(tracing.COUNTERS) - wrapped) == []
