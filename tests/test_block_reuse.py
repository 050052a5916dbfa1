"""Block reuse: a load that starts with a filled block table equals a full parse.

`parse_file(new, table)`, after `parse_file(old, table)`, must give the model,
diagnostics, declaration spans, duplicate declarations and included files of
`parse_file(new)`, whatever the two texts hold.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS_ROOT
from modelgen import program_model, random_model
from symbiosis_kit import parser
from symbiosis_kit.diagnostics import render_all
from symbiosis_kit.model import COLLECTIONS, FIELDS, NODE_KINDS, NODE_TYPES, canonical_dump
from symbiosis_kit.serializer import serialize

INCLUDED = 'stakeholder inc {\n  name: "from the include"\n}\n'


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="")  # CR and CRLF kept as written
    return path


def _facts(path: Path, table: parser.BlockTable | None = None) -> tuple:
    model, diags = parser.parse_file(path, table)
    return (
        canonical_dump(model),
        render_all(diags),
        list(model.spans.items()),
        model.duplicate_decls,
        model.included,
    )


def _assert_reuse_is_a_full_parse(directory: Path, old_text: str, new_text: str) -> None:
    _write(directory / "inc.sym", INCLUDED)
    old = _write(directory / "old.sym", old_text)
    new = _write(directory / "new.sym", new_text)
    table: parser.BlockTable = {}
    parser.parse_file(old, table)
    assert _facts(new, table) == _facts(new)


# -- the corpus ------------------------------------------------------------------


@pytest.mark.parametrize(
    "old,new",
    [("heartland_broken", "heartland_fixed"), ("heartland_fixed", "heartland_broken")],
)
def test_heartland_versions(tmp_path, old, new):
    read = lambda name: (CORPUS_ROOT / f"{name}.sym").read_text(encoding="utf-8")  # noqa: E731
    _assert_reuse_is_a_full_parse(tmp_path, read(old), read(new))


def test_jpmorgan_against_an_edited_copy(tmp_path):
    text = (CORPUS_ROOT / "jpmorgan.sym").read_text(encoding="utf-8")
    start = text.index("metric ME1.1.1.1.6 {")
    edited = text[:start] + text[text.index("\n}\n", start) + 3 :]
    edited = edited.replace('name: "CISO"', 'name: "Chief Information Security Officer"')
    assert edited != text
    _assert_reuse_is_a_full_parse(tmp_path, text, edited)
    _assert_reuse_is_a_full_parse(tmp_path, edited, text)


def test_an_id_declared_under_two_kinds_with_another_block_edited(tmp_path):
    old = 'stakeholder X {\n  name: "x"\n}\ngoal X {\n}\nobjective BO1 {\n  object: "a"\n}\nobjective X {\n}\n'
    new = old.replace('object: "a"', 'object: "edited"')
    model, _ = parser.parse(new)
    assert [(node_id, span.line) for node_id, span in model.duplicate_decls] == [("X", 4), ("X", 9)]
    _assert_reuse_is_a_full_parse(tmp_path, old, new)


# -- random models with one field edited -------------------------------------------


def _edit_one_field(rng: random.Random, model, donor):
    """`model` with one field of one node set to that field of a node of the
    same kind in `donor`, or of a default node."""
    kind = rng.choice([k for k in NODE_KINDS if model.collection(k)])
    nodes = model.collection(kind)
    node_id = rng.choice(sorted(nodes))
    attribute = rng.choice(FIELDS[kind]).attribute
    pool = sorted(donor.collection(kind).values(), key=lambda n: n.id) + [NODE_TYPES[kind](id=node_id)]
    value = getattr(rng.choice(pool), attribute)
    node = nodes[node_id]._replace(**{attribute: value})
    return model._replace(**{COLLECTIONS[kind]: {**nodes, node_id: node}})


def test_random_models_with_one_field_edited(tmp_path):
    rng = random.Random(20191015)
    for _ in range(60):
        old = random_model(rng, max_nodes=20)
        new = _edit_one_field(rng, old, random_model(rng, max_nodes=20))
        _assert_reuse_is_a_full_parse(tmp_path, serialize(old), serialize(new))


# -- text mutants -----------------------------------------------------------------

BASE = (CORPUS_ROOT / "heartland_fixed.sym").read_text(encoding="utf-8")


def _mutants(text: str) -> dict[str, str]:
    closing = text.index("\n}\n")
    first_quote = text.index('"', text.index("{"))
    first_block = text[text.index("universe") : closing + 2]
    return {
        "stray closing line": text.replace("\n\n", "\n}\n\n", 1),
        "indented closing": text[:closing] + "\n  }\n" + text[closing + 3 :],
        "closing then comment": text.replace("\n}\n", "\n} # done\n"),
        "comment line after closing": text.replace("\n}\n", "\n}\n# done\n"),
        "unterminated string": text[:first_quote] + text[first_quote + 1 :].replace('"', "", 1),
        "include line": text.replace("\n\n", '\n\ninclude "inc.sym"\n\n', 1),
        "missing include": 'include "missing.sym"\n' + text,
        "duplicate id": text + "\n" + first_block,
        "CRLF endings": text.replace("\n", "\r\n"),
        "CRLF in one block": text[:closing].replace("\n", "\r\n") + text[closing:],
        "unknown character": text.replace("\n}\n", "\n  @\n}\n", 1),
        "unclosed block": text.rstrip("\n").removesuffix("}"),
    }


@pytest.mark.parametrize("mutant", sorted(_mutants(BASE)))
def test_text_mutants(tmp_path, mutant):
    text = _mutants(BASE)[mutant]
    assert text != BASE
    _assert_reuse_is_a_full_parse(tmp_path, BASE, text)
    _assert_reuse_is_a_full_parse(tmp_path, text, BASE)
    _assert_reuse_is_a_full_parse(tmp_path, text, text)


# -- a property over old and new texts ------------------------------------------

PIECES = (
    'objective BO1 {\n  object: "a"\n  purpose: "b"\n}',
    'objective BO2 {\n  refines: BO1\n  object: "brace { inside"\n}',
    'objective BO2 {\n  refines: BO1\n  object: "edited"\n}',
    'stakeholder s1 {\n  name: "one"\n}',
    'stakeholder s1 {\n  name: "one"\n}  ',
    'stakeholder s1 {\n  name: "one"\n} # trailing comment',
    'stakeholder s2 { name: "one line" }',
    "question Q1 {\n  goal: MG1\n  text: \"t\"\n  status: open\n}",
    "metric ME1 {\n  uses: b1\n  band: [0, 1] -> ok {\n    log s1\n}\n}",
    "metric ME1 {\n  uses: b1,\n}",
    'objective BO3 {\n  object: "open string\n}',
    "objective BO4 {\n  object: @\n}",
    "goal MG1 {\n  object: \"g\"",
    "}",
    "  }",
    "# a comment",
    "# }",
    'include "inc.sym"',
    "",
)


@st.composite
def _versions(draw) -> tuple[str, str]:
    pieces = st.lists(st.sampled_from(PIECES), max_size=10)
    old = draw(pieces)
    start = draw(st.integers(0, len(old)))
    stop = draw(st.integers(start, len(old)))
    new = old[:start] + draw(st.lists(st.sampled_from(PIECES), max_size=3)) + old[stop:]
    endings = st.sampled_from(["\n", "\n\n", "\r\n"])
    return draw(endings).join(old), draw(endings).join(new)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("reuse")


@settings(max_examples=300, deadline=None)
@given(_versions())
def test_reuse_equals_a_full_parse(scratch_dir, versions):
    _assert_reuse_is_a_full_parse(scratch_dir, *versions)


# -- the mechanism: only the changed run is lexed -----------------------------------


def test_second_load_lexes_only_the_changed_block(tmp_path, monkeypatch):
    model = program_model(random.Random(3), objectives=127)
    objective = model.objectives["BO9"]
    edited = model._replace(objectives={**model.objectives, "BO9": objective._replace(context="edited")})
    old = _write(tmp_path / "old.sym", serialize(model))
    new_text = serialize(edited)
    new = _write(tmp_path / "new.sym", new_text)
    lexed: list[int] = []
    tokenize = parser.tokenize
    monkeypatch.setattr(parser, "tokenize", lambda text, *rest: lexed.append(len(text)) or tokenize(text, *rest))
    table: parser.BlockTable = {}
    parser.parse_file(old, table)
    lexed.clear()
    reused = _facts(new, table)
    assert 0 < sum(lexed) < 0.05 * len(new_text)
    table.clear()
    lexed.clear()
    assert _facts(new, table) == reused
    assert lexed == [len(new_text)]
