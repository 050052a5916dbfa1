"""symbiosis-kit: a toolchain for goal-driven security measurement programs.

Parse .sym model files, validate them against a fixed rule set, render
natural-language formulations, evaluate metrics over measurement logs,
generate deterministic reports, and analyze the impact of model changes.

Importing the package loads none of its modules. Each name in `__all__` is
looked up in `_EXPORTS` on first use (PEP 562), which imports only the
module that defines it and the modules that one imports: `parse_file`,
`validate` and `build_graph` need diagnostics, expr, model, lexer, parser,
validator and graph, and none of the evaluation modules (periods, evaluator,
pipeline, report) or the serializer and formulation. Nor do they load
`json`: a function that writes a payload imports the writer, and with it
`json`, when it runs, and `impact` imports `json` only to print a modified
field's values. Without a bytecode cache (`__pycache__` not writable, or
`PYTHONDONTWRITEBYTECODE` set) a process compiles every module it imports,
so a module not imported is compile time saved. Every record is a
`typing.NamedTuple`, so no command imports `dataclasses` or `inspect`.
`tests/test_startup.py` pins all of this.

`symbiosis_kit.impact` is the `impact` function, as listed in `__all__`,
also after the `symbiosis_kit.impact` submodule has been imported; get the
module with `importlib.import_module("symbiosis_kit.impact")`.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("diagnostics", ("Diagnostic", "Severity", "SourceSpan")),
        ("evaluator", ("EvaluationError", "MissingBinding", "classify", "evaluate")),
        ("formulation", ("render_formulation",)),
        ("graph", ("TraceabilityGraph", "ancestors", "build_graph", "descendants")),
        ("impact", ("Change", "ChangeKind", "ImpactReport", "analyze", "diff", "impact")),
        ("model", ("Model", "canonical_dump")),
        ("parser", ("parse", "parse_expression", "parse_file")),
        ("pipeline", ("ActionDirective", "EvaluationResult", "aggregate", "evaluate_period",
                      "evaluate_metrics", "ingest_many", "route_result")),
        ("report", ("generate_report",)),
        ("serializer", ("serialize",)),
        ("validator", ("validate",)),
    )
    for name in names
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, unlike `importlib.import_module`, is seen by `python -X importtime`.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """The package module: an exported name is never replaced by a submodule.

    The import system binds each submodule it loads to the attribute of the
    same name on its package, which for `impact` would hide the function.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if name in _EXPORTS and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
