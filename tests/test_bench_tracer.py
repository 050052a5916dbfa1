"""Every name the benchmark's tracer wraps still exists in the package.

`bench/tracing.py` replaces functions at module attributes such as
`pipeline.ingest_lines` or `graph.TraceabilityGraph.edges_from`. A change
that deletes or renames one of them breaks only a traced benchmark run, and
the tests under `bench/` are not part of this suite, so this test reads the
tracer's tables and checks them against the package. It also checks that
the tracer's token and byte counts are those of the character loop and of
the text, and that `tokenize` spans nest in `parse_file`. The tracer's
source is compiled in memory: nothing is written under `bench/`.
"""

from __future__ import annotations

import importlib
import random
import types
from collections import Counter

from corpus import CORPUS_ROOT
from modelgen import program_model
from oracles import tokenize_by_characters
from symbiosis_kit import cli, parser
from symbiosis_kit.serializer import serialize

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


def test_tokenize_counts_are_the_token_count_and_the_utf8_bytes():
    count_tokenize = _tracing()._count_tokenize
    jpmorgan = (CORPUS_ROOT / "jpmorgan.sym").read_text(encoding="utf-8")
    for text in (jpmorgan, serialize(program_model(random.Random(1)))):
        counts: Counter = Counter()
        count_tokenize(counts, (text, "t.sym"), parser.tokenize(text, "t.sym"))
        assert counts == {
            "lexer.tokens": len(tokenize_by_characters(text)[0]),
            "parser.source_bytes": len(text.encode("utf-8")),
        }


def test_tokenize_spans_nest_in_parse_file(tmp_path):
    """`parse_file` calls `tokenize` through `parser.tokenize`, where the tracer wraps it."""
    jpmorgan = (CORPUS_ROOT / "jpmorgan.sym").read_text(encoding="utf-8")
    root = 'include "jpmorgan.sym"\n'
    (tmp_path / "jpmorgan.sym").write_text(jpmorgan, encoding="utf-8")
    (tmp_path / "root.sym").write_text(root, encoding="utf-8")
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        cli.parse_file(tmp_path / "root.sym")
    finally:
        tracer.restore()
    names = {span[0]: span[1] for span in tracer.spans}
    parents = [names[span[4]] for span in tracer.spans if span[1] == "lexer.tokenize:tokenize"]
    assert parents == ["parser.parse:parse_file"] * 2  # the root file's and its include's
    assert tracer.take()["lexer.tokens"] == sum(len(tokenize_by_characters(text)[0]) for text in (root, jpmorgan))
