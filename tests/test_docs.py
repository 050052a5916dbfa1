"""The language reference lists the fields of the package's field table."""

import re

import pytest

from corpus import CORPUS_ROOT
from symbiosis_kit.model import FIELDS

GRAMMAR = (CORPUS_ROOT.parent / "docs" / "grammar.md").read_text(encoding="utf-8")


def _documented_fields(kind: str) -> list[str]:
    """The quoted names before `:` in the grammar block of a kind's section."""
    section = GRAMMAR.split(f"\n### {kind}\n", 1)[1].split("\n#", 1)[0]
    block = section.split("```ebnf\n", 1)[1].split("```", 1)[0]
    return re.findall(r'"(\w+)"\s*,\s*":"', block)


@pytest.mark.parametrize("kind", list(FIELDS))
def test_grammar_lists_each_kinds_fields_in_print_order(kind):
    assert _documented_fields(kind) == [row.name for row in FIELDS[kind]]
