"""Canonical .sym serialization: deterministic, reparses to an equal model.

A block prints the rows of its kind's field table (`model.FIELDS`) in order.
A row is printed when it is always printed or when its value differs from
the field's default in its node type; a repeated field prints one row per item.
"""

from __future__ import annotations

from datetime import date
from operator import attrgetter

from . import expr as _expr
from .model import (
    FIELDS,
    NODE_KINDS,
    NODE_TYPES,
    WORD_KINDS,
    InterpretationBand,
    Interval,
    Model,
    ReportingSchedule,
    ScopeRef,
    StrategyStep,
)

_HEADER = "# .sym model (canonical form)"


def _quote(text: str) -> str:
    # Backslash first, so that the escapes added after it stay as written.
    # Five `str.replace` calls cost about half of one dict-table `translate`.
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + text.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r") + '"'


def _scope(ref: ScopeRef) -> str:
    if ref.selection is None:
        text = f"{ref.universe}.*"
    else:
        text = f"{ref.universe}.{{{', '.join(ref.selection)}}}"
    if ref.description is not None:
        text += f" {_quote(ref.description)}"
    return text


def _step(step: StrategyStep) -> str:
    if step.spawns:
        return f"{_quote(step.text)} -> {', '.join(step.spawns)}"
    return _quote(step.text)


def _band(band: InterpretationBand) -> str:
    actions = "".join(f"\n    {a.kind.value} {a.target.notation()}" for a in band.actions)
    return f"{band.interval.notation()} -> {band.label} {{{actions}\n  }}"


# The text of one value (one item, for a repeated field) by value kind.
_PRINTERS = {
    "str": _quote,
    "ident": str,
    "ident_list": ", ".join,
    "str_list": lambda items: ", ".join(map(_quote, items)),
    "int": str,
    "date": date.isoformat,
    "scope": _scope,
    "step": _step,
    **dict.fromkeys(WORD_KINDS, attrgetter("value")),
    "filters": lambda filters: ", ".join(f"{name} = {_quote(value)}" for name, value in filters),
    "expr": _expr.to_text,
    "interval": Interval.notation,
    "band": _band,
    "schedule": ReportingSchedule.notation,
}


def _printing(kind: str) -> tuple:
    """(row prefix, attribute, printer, always printed, repeated, default) per field."""
    default = NODE_TYPES[kind](id="")
    return tuple(
        (
            f"  {f.name}: ",
            f.attribute,
            _PRINTERS[f.value_kind],
            f.always,
            f.repeated,
            getattr(default, f.attribute),
        )
        for f in FIELDS[kind]
    )


_PRINTING = {kind: _printing(kind) for kind in FIELDS}


def serialize(model: Model) -> str:
    """Emit the model in canonical form: fixed kind order, ids sorted, LF endings."""
    lines = [_HEADER]
    for kind in NODE_KINDS:
        rows = _PRINTING[kind]
        for node_id, node in sorted(model.collection(kind).items()):
            lines.append(f"\n{kind} {node_id} {{")
            for prefix, attribute, show, always, repeated, default in rows:
                value = getattr(node, attribute)
                if repeated:
                    lines.extend(prefix + show(item) for item in value)
                elif always or value != default:
                    lines.append(prefix + show(value))
            lines.append("}")
    return "\n".join(lines) + "\n"
