"""Declaration spans worked out on first read, against the builder that made them eagerly.

A load records each declaration as (kind, node, file, offset) and makes no
span: `Model.spans` is a read-only mapping that works out every
declaration's span on its first read. `oracles.parse_token_by_token`
builds its model with a copy of the builder as it was when each span was
made as its declaration was read. Both must give the same spans, duplicate
declarations and nodes (by `repr`, so `-0.0` is told from `0.0`), whatever
is read first and in whatever order the spans are read, on generated
programs (LF and CRLF), dense texts, include trees and block-reuse loads.

The rest pins what the mapping promises a library user: a clean load makes
no span, one read makes each once, and a model still compares, copies,
pickles and validates with either kind of `spans`.
"""

from __future__ import annotations

import copy
import pickle
import random
import tempfile
import weakref
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from modelgen import program_model
from oracles import parse_token_by_token
from symbiosis_kit.diagnostics import SourceSpan
from symbiosis_kit.lexer import Source
from symbiosis_kit.model import NODE_KINDS, BusinessObjective, Model
from symbiosis_kit.parser import Spans, parse, parse_file
from symbiosis_kit.serializer import serialize
from symbiosis_kit.validator import validate
from test_lexer import _DENSE

# The blocks of three generated programs, each ending in its closing "}\n".
_PROGRAMS = [
    [block + "\n}\n" for block in serialize(program_model(random.Random(seed), objectives=15)).split("\n}\n")[:-1]]
    for seed in range(3)
]


def _index(spans, node_id: str):
    try:
        return spans[node_id]
    except KeyError:
        return None


# The first read of a model's spans, before the reads of each id in turn.
_FIRST_READS = {
    "index": _index,
    "get": lambda spans, node_id: spans.get(node_id),
    "contains": lambda spans, node_id: node_id in spans,
    "len": lambda spans, node_id: len(spans),
    "iter": lambda spans, node_id: list(spans),
    "items": lambda spans, node_id: list(spans.items()),
    "repr": lambda spans, node_id: repr(spans),
    "equality": lambda spans, node_id: spans == {},
}


def _assert_same_as_eager(loaded, expected, rng: random.Random) -> None:
    model, diags = loaded
    expected_model, expected_diags = expected
    assert diags == expected_diags
    ids = list(expected_model.spans) + ["no such id"]
    rng.shuffle(ids)
    if rng.random() < 0.5:
        assert model.duplicate_decls == expected_model.duplicate_decls
    _FIRST_READS[rng.choice(sorted(_FIRST_READS))](model.spans, ids[0])
    for node_id in ids:
        assert model.spans.get(node_id) == expected_model.spans.get(node_id)
    assert list(model.spans.items()) == list(expected_model.spans.items())
    assert dict(model.spans) == expected_model.spans
    assert model.duplicate_decls == expected_model.duplicate_decls
    for kind in NODE_KINDS:
        assert repr(model.collection(kind)) == repr(expected_model.collection(kind))


@st.composite
def _programs(draw) -> str:
    """A generated program, some of its blocks declared again further on, with LF or CRLF."""
    blocks = list(draw(st.sampled_from(_PROGRAMS)))
    for _ in range(draw(st.integers(0, 3))):
        block = blocks[draw(st.integers(0, len(blocks) - 1))]
        blocks.insert(draw(st.integers(0, len(blocks))), block)
    return "".join(blocks).replace("\n", draw(st.sampled_from(["\n", "\r\n"])))


@settings(max_examples=100, deadline=None)
@given(_programs(), st.randoms(use_true_random=False))
def test_programs_give_the_eager_spans(text, rng):
    _assert_same_as_eager(parse(text, "p.sym"), parse_token_by_token(text, "p.sym"), rng)


@settings(max_examples=300, deadline=None)
@given(st.lists(_DENSE, max_size=4).map(" objective ".join), st.randoms(use_true_random=False))
def test_dense_texts_give_the_eager_spans(text, rng):
    _assert_same_as_eager(parse(text, "d.sym"), parse_token_by_token(text, "d.sym"), rng)


@st.composite
def _include_trees(draw) -> dict[str, str]:
    """Up to four files, each included once by an earlier one, sharing a program's blocks;
    a few blocks are declared in two files."""
    blocks = draw(st.sampled_from(_PROGRAMS))
    count = draw(st.integers(1, 4))
    files: list[list[str]] = [[] for _ in range(count)]
    for block in blocks:
        files[draw(st.integers(0, count - 1))].append(block)
    for _ in range(draw(st.integers(0, 2))):
        files[draw(st.integers(0, count - 1))].append(blocks[draw(st.integers(0, len(blocks) - 1))])
    for child in range(1, count):
        parent = files[draw(st.integers(0, child - 1))]
        parent.insert(draw(st.integers(0, len(parent))), f'include "f{child}.sym"\n')
    eol = st.sampled_from(["\n", "\r\n"])
    return {f"f{index}.sym": "".join(pieces).replace("\n", draw(eol)) for index, pieces in enumerate(files)}


@settings(max_examples=100, deadline=None)
@given(_include_trees(), st.randoms(use_true_random=False))
def test_include_trees_give_the_eager_spans(files, rng):
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            Path(directory, name).write_text(text, encoding="utf-8", newline="")
        root = str(Path(directory, "f0.sym"))
        _assert_same_as_eager(parse_file(root), parse_token_by_token(files["f0.sym"], root), rng)


@settings(max_examples=100, deadline=None)
@given(_programs(), _programs(), st.randoms(use_true_random=False))
def test_block_reuse_loads_give_the_eager_spans(old, new, rng):
    table: dict = {}
    _assert_same_as_eager(parse(old, "p.sym", table), parse_token_by_token(old, "p.sym"), rng)
    _assert_same_as_eager(parse(new, "p.sym", table), parse_token_by_token(new, "p.sym"), rng)


# -- what a load asks of `Source.span` -------------------------------------------


def test_a_clean_load_makes_no_span_and_one_read_makes_each_once(monkeypatch):
    text = serialize(program_model(random.Random(1), objectives=255))
    asked: list[int] = []
    span = Source.span
    monkeypatch.setattr(Source, "span", lambda source, offset, length: asked.append(offset) or span(source, offset, length))
    model, diags = parse(text, "p.sym")
    assert diags == []
    table: dict = {}
    parse(text, "p.sym", table)
    parse(text.replace('"x"', '"y"', 1), "p.sym", table)  # `impact`'s two loads
    assert asked == []
    model.spans["BO1"]
    offsets = sorted(text.index(f" {node_id} {{\n") + 1 for node_id in model.kinds)
    assert asked == offsets  # each declaration once, in the order of the text
    assert dict(model.spans) and model.spans.get("BO2") and len(asked) == len(offsets)


class _Text(str):
    """A text that a weak reference can watch."""


def test_the_first_read_drops_the_file_texts():
    text = _Text(serialize(program_model(random.Random(1), objectives=15)))
    held = weakref.ref(text)
    model, _ = parse(text, "p.sym")
    del text
    assert held() is not None  # kept for the first read
    assert model.spans.get("BO1") == SourceSpan("p.sym", 11, 11, 3)
    assert held() is None


# -- the mapping in library use ----------------------------------------------------

_WITH_ERRORS = 'objective BO1 {\n  object: "o"\n  refines: BO9\n}\n\nobjective BO2 {\n  refines: BO1\n}\n'


def test_a_parsed_model_pickles_and_deep_copies_to_an_equal_model():
    for read_first in (False, True):
        model, _ = parse(_WITH_ERRORS, "e.sym")
        if read_first:
            dict(model.spans)
        for other in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert isinstance(other.spans, Spans)
            assert other == model and repr(other) == repr(model)
            assert dict(other.spans) == dict(model.spans) == {
                "BO1": SourceSpan("e.sym", 1, 11, 3),
                "BO2": SourceSpan("e.sym", 6, 11, 3),
            }


def test_a_model_takes_plain_dict_spans():
    model, _ = parse(_WITH_ERRORS, "e.sym")
    spans = {"BO1": SourceSpan("other.sym", 7, 1, 3)}
    replaced = model._replace(spans=spans)
    assert replaced.spans is spans and replaced.objectives == model.objectives
    built = Model(objectives=model.objectives, spans=spans)
    assert built == replaced
    assert model.spans != spans and dict(model.spans) != spans


def test_validation_reads_spans_of_either_kind():
    model, _ = parse(_WITH_ERRORS, "e.sym")
    diags = validate(model)
    assert [(d.code, d.node_id, d.span) for d in diags if d.code == "V002"] == [
        ("V002", "BO1", SourceSpan("e.sym", 1, 11, 3))
    ]
    assert validate(model._replace(spans=dict(model.spans))) == diags
    bare = validate(Model(objectives={"BO1": BusinessObjective("BO1", refines="BO9")}))
    assert [d.span for d in bare if d.code == "V002"] == [None]
