"""The language reference lists the fields of the package's field table,
with the fields V010 requires, the node kinds V002 checks references against,
the traceability edges each field makes and the words a word-valued field accepts.
The README's CLI block lists every command of the CLI's command table with
its options and their choices."""

import re

import pytest

from corpus import CORPUS_ROOT
from symbiosis_kit import cli
from symbiosis_kit.model import FIELDS, WORD_KINDS

GRAMMAR = (CORPUS_ROOT.parent / "docs" / "grammar.md").read_text(encoding="utf-8")
README = (CORPUS_ROOT.parent / "README.md").read_text(encoding="utf-8")


def _section(kind: str) -> str:
    return GRAMMAR.split(f"\n### {kind}\n", 1)[1].split("\n#", 1)[0]


def _grammar_block(kind: str) -> str:
    return _section(kind).split("```ebnf\n", 1)[1].split("```", 1)[0]


def _documented_fields(kind: str) -> list[str]:
    """The quoted names before `:` in the grammar block of a kind's section."""
    return re.findall(r'"(\w+)"\s*,\s*":"', _grammar_block(kind))


def _documented_line(kind: str, label: str) -> str:
    """The text after `<label>: ` on the line of a kind's section that starts with it."""
    (line,) = re.findall(rf"^{label}: (.*)$", _section(kind), re.MULTILINE)
    return line


@pytest.mark.parametrize("kind", list(FIELDS))
def test_grammar_lists_each_kinds_fields_in_print_order(kind):
    assert _documented_fields(kind) == [row.name for row in FIELDS[kind]]


@pytest.mark.parametrize("kind", list(FIELDS))
def test_grammar_lists_each_kinds_required_fields_and_reference_targets(kind):
    required = re.findall(r"`(\w+)`", _documented_line(kind, "Required"))
    assert required == [row.name for row in FIELDS[kind] if row.required]
    references = re.findall(r"`(\w+)` → (\w+)", _documented_line(kind, "References"))
    assert references == [(row.name, row.target) for row in FIELDS[kind] if row.target]


@pytest.mark.parametrize("kind", list(FIELDS))
def test_grammar_lists_each_kinds_traceability_edges(kind):
    edges = re.findall(r"`(\w+)` → (\w+)", _documented_line(kind, "Edges"))
    assert edges == [(row.name, row.edge) for row in FIELDS[kind] if row.edge]


@pytest.mark.parametrize(
    "kind,row",
    [
        pytest.param(kind, row, id=f"{kind}.{row.name}")
        for kind, rows in FIELDS.items()
        for row in rows
        if row.value_kind in WORD_KINDS
    ],
)
def test_grammar_lists_the_words_of_each_word_valued_field(kind, row):
    (alternatives,) = re.findall(rf'"{row.name}"\s*,\s*":"\s*,\s*\(([^)]*)\)', _grammar_block(kind))
    assert re.findall(r'"(\w+)"', alternatives) == [member.value for member in WORD_KINDS[row.value_kind]]


def _cli_block_lines() -> list[str]:
    """The command lines of the ```sh block under the README's "## CLI" heading."""
    block = README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("symbiosis ")]


def test_readme_cli_block_has_one_line_per_command_in_table_order():
    assert [line.split()[1] for line in _cli_block_lines()] == list(cli.COMMANDS)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_readme_cli_block_lists_each_commands_options_and_choices(name):
    (line,) = [line for line in _cli_block_lines() if line.split()[1] == name]
    specs = cli._SHARED + cli.COMMANDS[name].args
    options = [flag for flags, _ in specs for flag in flags if flag.startswith("-")]
    assert sorted(re.findall(r"--[\w-]+", line)) == sorted(options)
    for flags, kwargs in specs:
        if "choices" in kwargs:
            assert f"{flags[0]} {'|'.join(kwargs['choices'])}" in line
