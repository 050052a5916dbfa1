"""Canonical serializer: fixpoint and determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quote_by_translate, token_list
from symbiosis_kit.lexer import TokenKind, tokenize
from symbiosis_kit.model import Model, Stakeholder, canonical_dump
from symbiosis_kit.parser import parse
from symbiosis_kit.serializer import _quote, serialize


def roundtrip(text: str) -> str:
    model, diags = parse(text)
    assert not diags
    return serialize(model)


def test_corpus_model_reaches_fixpoint(jpmorgan):
    once = serialize(jpmorgan)
    again_model, diags = parse(once)
    assert not diags
    assert serialize(again_model) == once


def test_escape_heavy_strings_round_trip():
    src = (
        'objective BO1 {\n'
        '    object: "quote \\" backslash \\\\ newline \\n tab \\t"\n'
        '    purpose: "# not a comment"\n'
        '}\n'
    )
    once = roundtrip(src)
    assert roundtrip(once) == once
    model, _ = parse(once)
    assert model.objectives["BO1"].object == 'quote " backslash \\ newline \n tab \t'
    assert model.objectives["BO1"].purpose == "# not a comment"


def test_output_order_is_insertion_independent():
    a = roundtrip(
        'objective BO2 { object: "2" }\nobjective BO1 { object: "1" }\ngoal MG1 { measures: BO1 }'
    )
    b = roundtrip(
        'goal MG1 { measures: BO1 }\nobjective BO1 { object: "1" }\nobjective BO2 { object: "2" }'
    )
    assert a == b
    assert a.index("BO1") < a.index("BO2")


def test_header_and_lf_endings():
    out = roundtrip('objective BO1 { object: "x" }')
    assert out.startswith("# .sym model (canonical form)\n")
    assert "\r" not in out
    assert out.endswith("\n")


def test_optional_fields_omitted_when_absent():
    out = roundtrip('objective BO1 { object: "x" }')
    # structural links and extras disappear; template fields stay (even empty)
    assert "refines:" not in out
    assert "priority:" not in out
    assert "depends_on:" not in out
    assert 'purpose: ""' in out


def test_interval_notation_preserved():
    out = roundtrip("metric M { band: (0, 50] -> low { log t } }")
    assert "(0, 50]" in out

def test_unset_identifiers_and_lists_are_omitted_so_the_text_reparses():
    # An empty identifier or list has no written form: `goal: ` would not parse.
    model, diags = parse('question Q { text: "t" }\nstrategy S { step: "s" }\nuniverse U { }')
    assert not diags
    out = serialize(model)
    assert out == (
        "# .sym model (canonical form)\n\n"
        "universe U {\n}\n\n"
        'strategy S {\n  step: "s"\n  justification: ""\n}\n\n'
        'question Q {\n  text: "t"\n}\n'
    )
    reparsed, diags = parse(out)
    assert not diags
    assert (reparsed.questions, reparsed.strategies, reparsed.universes) == (
        model.questions,
        model.strategies,
        model.universes,
    )


def test_every_escape_and_other_text_is_quoted_as_written():
    text = 'a"b\\c\nd\te\rf # 控制 {x}'
    out = serialize(Model(stakeholders={"S": Stakeholder("S", text)}))
    assert '  name: "a\\"b\\\\c\\nd\\te\\rf # 控制 {x}"\n' in out
    reparsed, diags = parse(out)
    assert not diags
    assert reparsed.stakeholders["S"].name == text


# Text weighted toward the five characters `_quote` escapes, runs of them
# included, and toward the letters that follow a backslash in an escape.
_QUOTED_TEXT = st.text(st.sampled_from(list('\\"\n\t\rntr')) | st.characters(), max_size=40)


@settings(max_examples=500, deadline=None)
@given(_QUOTED_TEXT)
def test_quote_matches_the_translate_table_and_lexes_back(text):
    quoted = _quote(text)
    assert quoted == quote_by_translate(text)
    tokens, diags = tokenize(quoted)
    assert not diags
    assert [(t.kind, t.text) for t in token_list(tokens)] == [(TokenKind.STRING, text), (TokenKind.EOF, "")]


# Numbers that `fmt` prints with an exponent, and what it prints.
EXPONENT_NUMBERS = {
    "metric M { domain: [0, 0.00001] }": "domain: [0, 1e-05]",
    "metric M { function: a * 10000000000000000 }": "function: (a * 1e+16)",
    "metric M { domain: [-0.00001, 1e300] }": "domain: [-1e-05, 1e+300]",
    "metric M { function: 5e-324 * a }": "function: (5e-324 * a)",
}


@pytest.mark.parametrize("src", sorted(EXPONENT_NUMBERS))
def test_numbers_printed_with_an_exponent_read_back(src):
    model, diags = parse(src)
    assert not diags
    text = serialize(model)
    assert EXPONENT_NUMBERS[src] in text
    reparsed, diags = parse(text)
    assert not diags
    assert canonical_dump(reparsed) == canonical_dump(model)
