"""What importing the package and the CLI costs: only the modules the caller uses.

Each test runs its probe in a fresh interpreter, so modules that other tests
imported into this process do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that cost milliseconds and megabytes to import and that the package
# does not need; importing `xml.sax.saxutils` loads all the others.
_HEAVY = ("xml.sax", "http.client", "email", "ssl", "urllib.request")

# Modules that only evaluation, reports, `fmt` or `render` need.
_EVALUATION = ("pipeline", "periods", "report", "formulation", "evaluator")


def _probe(code: str, imports: str = "json, sys"):
    """Run `code` after `import <imports>` in a fresh interpreter; it prints one JSON value, returned here."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", f"import {imports}\n" + code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


# The modules loaded since `before`, listed before `json` is imported to print them.
_LOADED = "loaded = sorted(set(sys.modules) - before)\nimport json\nprint(json.dumps(loaded))\n"


def _package_modules(loaded: list[str]) -> set[str]:
    return {name.removeprefix("symbiosis_kit.") for name in loaded if name.startswith("symbiosis_kit.")}


def test_importing_the_cli_loads_no_network_modules():
    loaded = _probe("before = set(sys.modules)\nimport symbiosis_kit.cli\n" + _LOADED)
    assert "symbiosis_kit.cli" in loaded
    heavy = [name for name in loaded if any(name == h or name.startswith(h + ".") for h in _HEAVY)]
    assert heavy == []


def test_importing_the_cli_loads_no_evaluation_code():
    loaded = _package_modules(_probe("before = set(sys.modules)\nimport symbiosis_kit.cli\n" + _LOADED))
    assert "cli" in loaded
    assert loaded.isdisjoint(_EVALUATION)


def test_loading_a_model_imports_only_what_it_uses():
    loaded = _package_modules(
        _probe(
            "before = set(sys.modules)\n"
            "import symbiosis_kit\n"
            "from symbiosis_kit import parse_file, validate, build_graph\n" + _LOADED
        )
    )
    assert loaded == {"diagnostics", "expr", "model", "lexer", "parser", "validator", "graph"}
    assert loaded.isdisjoint(_EVALUATION + ("serializer",))


# Records are `NamedTuple`s: `dataclasses` pulls in `inspect`, and building
# the classes cost a fresh process about 35 ms before any work began.
_CLASS_MACHINERY = ("dataclasses", "inspect")


def test_loading_a_model_builds_no_dataclasses(corpus):
    loaded = _probe(
        "before = set(sys.modules)\n"
        "from symbiosis_kit import parse_file, validate, build_graph\n"
        f"model, diags = parse_file({str(corpus / 'jpmorgan.sym')!r})\n"
        "validate(model)\n"
        "build_graph(model)\n" + _LOADED
    )
    assert [name for name in _CLASS_MACHINERY if name in loaded] == []


def test_loading_a_model_imports_no_json(corpus):
    """Only a payload needs `json`, and its writer is imported by the function that writes it."""
    loaded = _probe(
        "before = set(sys.modules)\n"
        "from symbiosis_kit import parse_file, validate, build_graph\n"
        f"model, diags = parse_file({str(corpus / 'jpmorgan.sym')!r})\n"
        "validate(model)\n"
        "build_graph(model)\n" + _LOADED,
        imports="sys",
    )
    assert "symbiosis_kit.graph" in loaded
    assert [name for name in loaded if name == "json" or name.startswith(("json.", "symbiosis_kit.payload"))] == []


def test_importing_the_cli_imports_no_json():
    """`check`, `graph`, `fmt` and `render` without `--json` never need it; a payload writer imports it."""
    loaded = _probe("before = set(sys.modules)\nimport symbiosis_kit.cli\n" + _LOADED, imports="sys")
    assert "symbiosis_kit.cli" in loaded
    assert [name for name in loaded if name == "json" or name.startswith("json.")] == []


def test_importing_the_cli_builds_no_dataclasses():
    loaded = _probe("before = set(sys.modules)\nimport symbiosis_kit.cli\n" + _LOADED)
    assert [name for name in _CLASS_MACHINERY if name in loaded] == []


# The public names as they were when every module was imported eagerly.
_PUBLIC = {
    "ActionDirective", "Change", "ChangeKind", "Diagnostic", "EvaluationError", "EvaluationResult",
    "ImpactReport", "MissingBinding", "Model", "Severity", "SourceSpan", "TraceabilityGraph",
    "aggregate", "analyze", "ancestors", "build_graph", "canonical_dump", "classify", "descendants",
    "diff", "evaluate", "evaluate_period", "generate_report", "impact", "ingest", "parse",
    "parse_expression", "parse_file", "render_formulation", "route_result",
    "serialize", "validate", "__version__",
}


def test_every_export_is_its_submodules_object():
    exported, mismatched = _probe(
        "import importlib, symbiosis_kit\n"
        "names = [name for name in symbiosis_kit.__all__ if name != '__version__']\n"
        "print(json.dumps([symbiosis_kit.__all__, [name for name in names\n"
        "    if getattr(symbiosis_kit, name) is not\n"
        "       getattr(importlib.import_module('symbiosis_kit.' + symbiosis_kit._EXPORTS[name]), name)]]))\n"
    )
    assert set(exported) == _PUBLIC
    assert mismatched == []


def test_star_import_binds_every_export():
    missing = _probe(
        "from symbiosis_kit import *\n"
        "import symbiosis_kit\n"
        "print(json.dumps([name for name in symbiosis_kit.__all__ if name not in globals()]))\n"
    )
    assert missing == []


def test_unknown_attribute_raises_attribute_error():
    outcome = _probe(
        "import symbiosis_kit\n"
        "try:\n"
        "    symbiosis_kit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
        "else:\n"
        "    print(json.dumps(None))\n"
    )
    assert outcome == "module 'symbiosis_kit' has no attribute 'no_such_name'"


def test_dir_lists_the_exports():
    missing = _probe(
        "import symbiosis_kit\n"
        "print(json.dumps(sorted(set(symbiosis_kit.__all__) - set(dir(symbiosis_kit)))))\n"
    )
    assert missing == []


def test_a_submodule_can_still_be_imported_from_the_package():
    name = _probe("from symbiosis_kit import periods\nprint(json.dumps(periods.__name__))\n")
    assert name == "symbiosis_kit.periods"


def test_impact_stays_the_function_after_its_module_is_imported():
    for first in ("import symbiosis_kit.cli", "import symbiosis_kit.impact", "import symbiosis_kit"):
        same = _probe(
            f"{first}\n"
            "import symbiosis_kit.impact\n"
            "import symbiosis_kit\n"
            "from symbiosis_kit.impact import impact\n"
            "print(json.dumps([symbiosis_kit.impact is impact, callable(symbiosis_kit.impact)]))\n"
        )
        assert same == [True, True], first
