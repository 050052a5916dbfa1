"""Diagnostic records shared by the parser, validator and measurement pipeline."""

import re
from enum import Enum
from typing import NamedTuple

CODE_RE = re.compile(r"[PVI][0-9]{3}")


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class SourceSpan(NamedTuple):
    """Location of a finding: file, 1-based line/column and length in characters."""

    file: str
    line: int
    col: int
    length: int = 1

    def location(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class _DiagnosticFields(NamedTuple):
    code: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    node_id: str | None = None


class Diagnostic(_DiagnosticFields):
    """A coded finding with severity, message and optional location/node."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Diagnostic":
        diag = super().__new__(cls, *args, **kwargs)
        if not CODE_RE.fullmatch(diag.code):
            raise ValueError(f"bad diagnostic code: {diag.code!r}")
        return diag

    @classmethod
    def _make(cls, iterable) -> "Diagnostic":  # `_replace` builds through here: check it too
        return cls(*iterable)

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        loc = self.span.location() if self.span else "-"
        node = self.node_id if self.node_id else "-"
        return f"{self.code} {self.severity.value} {loc} {node} {self.message}"


def sort_key(diag: Diagnostic) -> tuple:
    span = diag.span
    return (
        diag.code,
        diag.node_id or "",
        span.file if span else "",
        span.line if span else 0,
        span.col if span else 0,
        diag.message,
    )


def render_all(diags: list[Diagnostic]) -> str:
    """One finding per line, in deterministic order. Empty string when clean."""
    ordered = sorted(diags, key=sort_key)
    return "".join(d.render() + "\n" for d in ordered)


def to_json(diags: list[Diagnostic]) -> str:
    """Machine-readable mirror of render_all, as a JSON array."""
    from .payload import dumps

    rows = []
    for d in sorted(diags, key=sort_key):
        rows.append(
            {
                "code": d.code,
                "severity": d.severity.value,
                "message": d.message,
                "file": d.span.file if d.span else None,
                "line": d.span.line if d.span else None,
                "col": d.span.col if d.span else None,
                "node": d.node_id,
            }
        )
    return dumps(rows)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diags)
