"""The language reference lists the fields of the package's field table,
with the fields V010 requires, the node kinds V002 checks references against,
the traceability edges each field makes and the words a word-valued field accepts.
The README's CLI block lists every command of the CLI's command table with
its options and their choices, and its Library example runs. The README's
cost list names the stages and bounds of `tests/test_linear_cost.py`. Every
diagnostic code the package emits is in the grammar's table of parse
diagnostics, the validator's list of rules and the README's code ranges,
and those name no other code."""

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


def test_readme_library_example_runs(monkeypatch):
    """The ```python block under "## Library" runs from the repository root and reports every metric."""
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    monkeypatch.chdir(CORPUS_ROOT.parent)
    scope: dict = {}
    exec(code, scope)
    assert scope["diags"] == [] and scope["skipped"] == []
    assert sorted(result.metric_id for result in scope["results"]) == sorted(scope["model"].metrics)
    assert scope["text"].startswith("measurement report\n")


def _cost_list() -> dict[str, float]:
    """Stage name -> bound, from the first list under the README's "## Cost model" heading."""
    section = README.split("\n## Cost model\n", 1)[1].split("\n## ", 1)[0]
    items = section.split("\n- ", 1)[1].split("\n\n", 1)[0]
    bounds = {}
    for line in ("- " + items).splitlines():
        name, bound = re.fullmatch(r"- `([^`]+)`: .*?\bat most (\d+(?:\.\d+)?)\b.*", line).groups()
        assert name not in bounds, name
        bounds[name] = float(bound)
    return bounds


def test_readme_cost_list_states_the_stages_and_bounds_of_the_linear_cost_gate():
    from test_linear_cost import LOADING, MAX_RATIO, MAX_READS, PIPELINE, STAGES

    pipeline: dict[str, float] = {}
    for name, bound in PIPELINE.items():
        # "<function> lines by <axis>" counts the line events of "<function> by <axis>"
        assert pipeline.setdefault(name.replace(" lines by ", " by ", 1), bound) == bound, name
    expected = {**{stage: MAX_RATIO for stage in LOADING + STAGES}, **pipeline, "MAX_READS": MAX_READS}
    assert _cost_list() == expected


# -- diagnostic codes ------------------------------------------------------------------

SOURCES = sorted((CORPUS_ROOT.parent / "src" / "symbiosis_kit").glob("*.py"))


def _emitted_codes(letter: str) -> set[str]:
    """Every quoted `<letter>NNN` code literal in the package's source."""
    return {code for path in SOURCES for code in re.findall(rf'"({letter}\d{{3}})"', path.read_text(encoding="utf-8"))}


def test_grammar_lists_every_parse_diagnostic_the_package_emits():
    table = GRAMMAR.split("\n## Parse diagnostics\n", 1)[1].split("\n#", 1)[0]
    assert set(re.findall(r"^\| (P\d{3}) \|", table, re.MULTILINE)) == _emitted_codes("P")


def test_validator_docstring_lists_every_validation_rule_the_package_emits():
    from symbiosis_kit import validator

    assert set(re.findall(r"^(V\d{3}) [EW] ", validator.__doc__, re.MULTILINE)) == _emitted_codes("V")


def test_readme_code_ranges_cover_exactly_the_codes_the_package_emits():
    ranges = re.findall(r"`([PVI])(\d{3})`-`\1(\d{3})`", README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0])
    stated = {f"{letter}{n:03d}" for letter, first, last in ranges for n in range(int(first), int(last) + 1)}
    assert sorted({letter for letter, _, _ in ranges}) == ["I", "P", "V"]
    assert stated == _emitted_codes("P") | _emitted_codes("V") | _emitted_codes("I")
