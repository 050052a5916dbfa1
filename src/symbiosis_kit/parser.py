"""Recursive-descent parser for .sym files.

Parsing is total: any input produces a (possibly partial) model plus a list of
coded diagnostics (P001-P008). With zero error diagnostics the model is fully
populated; reference resolution is the validator's job.
"""

from __future__ import annotations

import datetime as _dt
import os
from pathlib import Path

from . import expr as _expr
from .diagnostics import Diagnostic, Severity, SourceSpan
from .lexer import Token, TokenKind, tokenize
from .model import (
    Action,
    ActionKind,
    ActionTarget,
    Aggregation,
    Granularity,
    InterpretationBand,
    Interval,
    Model,
    QuestionStatus,
    ReportingSchedule,
    ScopeRef,
    SourceMode,
    StrategyStep,
    KIND_BASE,
    KIND_GOAL,
    KIND_METRIC,
    KIND_OBJECTIVE,
    KIND_QUESTION,
    KIND_STAKEHOLDER,
    KIND_STRATEGY,
    KIND_UNIVERSE,
    NODE_TYPES,
)

# Largest offset passed to _Parser.peek.
_LOOKAHEAD = 2

# Fields that may legitimately repeat within one block.
_REPEATABLE = {"band", "step"}

# Block field names that differ from the node attribute they fill.
_ATTRIBUTE_OF = {"for": "for_objective", "where": "filters", "step": "steps", "band": "bands"}

# Deepest metric function accepted: operator nesting (leaves count 0, each
# Neg or BinOp one more than its deepest child) and parenthesis nesting.
MAX_EXPR_DEPTH = 200

_GRANULARITIES = {g.value: g for g in Granularity}
_ACTION_KINDS = {k.value: k for k in ActionKind}


class ExpressionSyntaxError(ValueError):
    """Raised by parse_expression for standalone expression text."""


class _Builder:
    """Accumulates declarations across files; first declaration of an id wins."""

    def __init__(self) -> None:
        self.nodes: dict[str, list] = {kind: [] for kind in NODE_TYPES}
        self.spans: dict[tuple[str, str], SourceSpan] = {}
        self.duplicates: list[tuple[str, str, SourceSpan]] = []
        self.declared: dict[str, tuple[str, SourceSpan]] = {}

    def add(self, kind: str, node_id: str, node, span: SourceSpan) -> None:
        if node_id in self.declared:
            self.duplicates.append((kind, node_id, span))
            return
        self.declared[node_id] = (kind, span)
        self.nodes[kind].append(node)
        self.spans[(kind, node_id)] = span

    def build(self) -> Model:
        return Model(
            stakeholders={n.id: n for n in self.nodes[KIND_STAKEHOLDER]},
            universes={n.id: n for n in self.nodes[KIND_UNIVERSE]},
            objectives={n.id: n for n in self.nodes[KIND_OBJECTIVE]},
            strategies={n.id: n for n in self.nodes[KIND_STRATEGY]},
            goals={n.id: n for n in self.nodes[KIND_GOAL]},
            questions={n.id: n for n in self.nodes[KIND_QUESTION]},
            bases={n.id: n for n in self.nodes[KIND_BASE]},
            metrics={n.id: n for n in self.nodes[KIND_METRIC]},
            spans=self.spans,
            duplicate_decls=tuple(self.duplicates),
        )


class _Parser:
    def __init__(
        self,
        text: str,
        filename: str,
        builder: _Builder,
        diags: list[Diagnostic],
        include_stack: tuple[str, ...],
    ) -> None:
        self.filename = filename
        self.builder = builder
        self.diags = diags
        self.include_stack = include_stack
        tokens, lex_diags = tokenize(text, filename)
        # The position never passes the EOF token, so _LOOKAHEAD more copies
        # of it keep every peek in range.
        self.tokens = tokens + [tokens[-1]] * _LOOKAHEAD
        self.diags.extend(lex_diags)
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.diags.append(Diagnostic(code, Severity.ERROR, message, span))

    def expect(self, kind: TokenKind, what: str) -> Token | None:
        tok = self.peek()
        if tok.kind is kind:
            return self.advance()
        shown = tok.text or tok.kind.value
        self.error("P001", f"expected {what}, found {shown!r}", tok.span)
        return None

    # -- recovery ----------------------------------------------------------

    def skip_block(self) -> None:
        """Skip tokens through a balanced { ... } group, or to the next block."""
        depth = 0
        while not self.at(TokenKind.EOF):
            tok = self.advance()
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                depth -= 1
                if depth <= 0:
                    return
            elif depth == 0 and tok.kind is TokenKind.IDENT and tok.text in NODE_TYPES:
                self.pos -= 1
                return

    def skip_to_field_boundary(self) -> None:
        """Skip a malformed field value: stop before `name :` at depth 0 or `}`."""
        depth = 0
        while not self.at(TokenKind.EOF):
            tok = self.peek()
            if depth == 0:
                if tok.kind is TokenKind.RBRACE:
                    return
                if tok.kind is TokenKind.IDENT and self.peek(1).kind is TokenKind.COLON:
                    return
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                depth -= 1
                if depth < 0:
                    return
            self.advance()

    # -- model structure ---------------------------------------------------

    def parse_model(self) -> None:
        while not self.at(TokenKind.EOF):
            tok = self.peek()
            if tok.kind is TokenKind.IDENT and tok.text == "include":
                self.parse_include()
            elif tok.kind is TokenKind.IDENT and tok.text in NODE_TYPES:
                self.parse_block(tok.text)
            elif (
                tok.kind is TokenKind.IDENT
                and self.peek(1).kind is TokenKind.IDENT
                and self.peek(2).kind is TokenKind.LBRACE
            ):
                self.error("P003", f"unknown block kind {tok.text!r}", tok.span)
                self.advance()
                self.advance()
                self.skip_block()
            else:
                shown = tok.text or tok.kind.value
                self.error("P001", f"expected a block declaration, found {shown!r}", tok.span)
                self.advance()

    def parse_include(self) -> None:
        self.advance()  # include
        path_tok = self.expect(TokenKind.STRING, "a quoted file path")
        if path_tok is None:
            return
        base = os.path.dirname(self.filename)
        target = os.path.normpath(os.path.join(base, path_tok.text))
        key = os.path.abspath(target)
        if key in self.include_stack:
            self.error("P006", f"include cycle through {target!r}", path_tok.span)
            return
        try:
            text = Path(target).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            self.error("P007", f"cannot read include {target!r}: {reason}", path_tok.span)
            return
        sub = _Parser(text, target, self.builder, self.diags, self.include_stack + (key,))
        sub.parse_model()

    def parse_block(self, kind: str) -> None:
        self.advance()  # kind keyword
        id_tok = self.expect(TokenKind.IDENT, f"an identifier after {kind!r}")
        if id_tok is None:
            self.skip_block()
            return
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.skip_block()
            return
        fields: dict[str, object] = {}
        seen: set[str] = set()
        while not self.at(TokenKind.RBRACE) and not self.at(TokenKind.EOF):
            name_tok = self.peek()
            if name_tok.kind is not TokenKind.IDENT:
                shown = name_tok.text or name_tok.kind.value
                self.error("P001", f"expected a field name, found {shown!r}", name_tok.span)
                self.advance()
                continue
            self.advance()
            if self.expect(TokenKind.COLON, f"':' after field {name_tok.text!r}") is None:
                self.skip_to_field_boundary()
                continue
            name = name_tok.text
            duplicate = name in seen and name not in _REPEATABLE
            if duplicate:
                self.error("P004", f"duplicate field {name!r} in {kind} block", name_tok.span)
            seen.add(name)
            value = self.parse_field_value(kind, name, name_tok)
            if duplicate or value is None:
                continue
            if name in _REPEATABLE:
                fields.setdefault(name, []).append(value)
            else:
                fields[name] = value
        self.expect(TokenKind.RBRACE, "'}'")
        self.builder.add(kind, id_tok.text, self.assemble(kind, id_tok.text, fields), id_tok.span)

    # -- field dispatch ----------------------------------------------------

    _SCHEMA: dict[tuple[str, str], str] = {
        (KIND_STAKEHOLDER, "name"): "str",
        (KIND_STAKEHOLDER, "role"): "str",
        (KIND_UNIVERSE, "facets"): "ident_list",
        (KIND_OBJECTIVE, "object"): "str",
        (KIND_OBJECTIVE, "scope"): "scope",
        (KIND_OBJECTIVE, "purpose"): "str",
        (KIND_OBJECTIVE, "viewpoint"): "ident_list",
        (KIND_OBJECTIVE, "context"): "str",
        (KIND_OBJECTIVE, "refines"): "ident",
        (KIND_OBJECTIVE, "depends_on"): "ident_list",
        (KIND_OBJECTIVE, "affects"): "ident_list",
        (KIND_OBJECTIVE, "priority"): "int",
        (KIND_OBJECTIVE, "priority_justification"): "str",
        (KIND_STRATEGY, "for"): "ident",
        (KIND_STRATEGY, "step"): "step",
        (KIND_STRATEGY, "justification"): "str",
        (KIND_GOAL, "object"): "str",
        (KIND_GOAL, "purpose"): "str",
        (KIND_GOAL, "focus"): "str",
        (KIND_GOAL, "scope"): "str",
        (KIND_GOAL, "criteria"): "str_list",
        (KIND_GOAL, "viewpoint"): "ident_list",
        (KIND_GOAL, "context"): "str",
        (KIND_GOAL, "measures"): "ident_list",
        (KIND_GOAL, "related"): "ident_list",
        (KIND_QUESTION, "goal"): "ident",
        (KIND_QUESTION, "text"): "str",
        (KIND_QUESTION, "status"): "status",
        (KIND_BASE, "description"): "str",
        (KIND_BASE, "mode"): "mode",
        (KIND_BASE, "where"): "filters",
        (KIND_BASE, "aggregation"): "aggregation",
        (KIND_METRIC, "description"): "str",
        (KIND_METRIC, "created"): "date",
        (KIND_METRIC, "modified"): "date",
        (KIND_METRIC, "reviewed"): "date",
        (KIND_METRIC, "goal"): "ident",
        (KIND_METRIC, "answers"): "ident_list",
        (KIND_METRIC, "uses"): "ident_list",
        (KIND_METRIC, "method"): "str",
        (KIND_METRIC, "function"): "expr",
        (KIND_METRIC, "domain"): "interval",
        (KIND_METRIC, "band"): "band",
        (KIND_METRIC, "schedule"): "schedule",
        (KIND_METRIC, "stakeholders"): "ident_list",
    }

    def parse_field_value(self, kind: str, name: str, name_tok: Token):
        value_kind = self._SCHEMA.get((kind, name))
        if value_kind is None:
            self.error("P001", f"unknown field {name!r} in {kind} block", name_tok.span)
            self.skip_to_field_boundary()
            return None
        parser = getattr(self, "parse_value_" + value_kind)
        value = parser()
        if value is None:
            self.skip_to_field_boundary()
        return value

    # -- value parsers -----------------------------------------------------

    def parse_value_str(self) -> str | None:
        tok = self.expect(TokenKind.STRING, "a quoted string")
        return tok.text if tok else None

    def parse_value_ident(self) -> str | None:
        tok = self.expect(TokenKind.IDENT, "an identifier")
        return tok.text if tok else None

    def parse_value_ident_list(self) -> tuple[str, ...] | None:
        items: list[str] = []
        tok = self.expect(TokenKind.IDENT, "an identifier")
        if tok is None:
            return None
        items.append(tok.text)
        while self.at(TokenKind.COMMA):
            self.advance()
            tok = self.expect(TokenKind.IDENT, "an identifier after ','")
            if tok is None:
                return tuple(items)
            items.append(tok.text)
        return tuple(items)

    def parse_value_str_list(self) -> tuple[str, ...] | None:
        items: list[str] = []
        tok = self.expect(TokenKind.STRING, "a quoted string")
        if tok is None:
            return None
        items.append(tok.text)
        while self.at(TokenKind.COMMA):
            self.advance()
            tok = self.expect(TokenKind.STRING, "a quoted string after ','")
            if tok is None:
                return tuple(items)
            items.append(tok.text)
        return tuple(items)

    def parse_value_int(self) -> int | None:
        tok = self.expect(TokenKind.NUMBER, "a number")
        if tok is None:
            return None
        if tok.value != int(tok.value):
            self.error("P001", f"expected an integer, found {tok.text!r}", tok.span)
            return None
        return int(tok.value)

    def parse_value_date(self) -> _dt.date | None:
        tok = self.expect(TokenKind.DATE, "a date (YYYY-MM-DD)")
        if tok is None:
            return None
        try:
            return _dt.date.fromisoformat(tok.text)
        except ValueError:
            self.error("P001", f"invalid date {tok.text!r}", tok.span)
            return None

    def parse_value_status(self) -> QuestionStatus | None:
        tok = self.expect(TokenKind.IDENT, "'open' or 'answered'")
        if tok is None:
            return None
        try:
            return QuestionStatus(tok.text)
        except ValueError:
            self.error("P001", f"expected 'open' or 'answered', found {tok.text!r}", tok.span)
            return None

    def parse_value_mode(self) -> SourceMode | None:
        tok = self.expect(TokenKind.IDENT, "'count' or 'direct'")
        if tok is None:
            return None
        try:
            return SourceMode(tok.text)
        except ValueError:
            self.error("P001", f"expected 'count' or 'direct', found {tok.text!r}", tok.span)
            return None

    def parse_value_aggregation(self) -> Aggregation | None:
        tok = self.expect(TokenKind.IDENT, "'sum' or 'latest'")
        if tok is None:
            return None
        try:
            return Aggregation(tok.text)
        except ValueError:
            self.error("P001", f"expected 'sum' or 'latest', found {tok.text!r}", tok.span)
            return None

    def parse_value_filters(self) -> tuple[tuple[str, str], ...] | None:
        pairs: list[tuple[str, str]] = []
        while True:
            name = self.expect(TokenKind.IDENT, "a record field name")
            if name is None:
                return tuple(pairs) if pairs else None
            if self.expect(TokenKind.EQUALS, "'='") is None:
                return tuple(pairs) if pairs else None
            value = self.expect(TokenKind.STRING, "a quoted value")
            if value is None:
                return tuple(pairs) if pairs else None
            pairs.append((name.text, value.text))
            if not self.at(TokenKind.COMMA):
                return tuple(pairs)
            self.advance()

    def parse_value_scope(self) -> ScopeRef | None:
        tok = self.expect(TokenKind.IDENT, "a universe identifier")
        if tok is None:
            return None
        selection: tuple[str, ...] | None = None
        if self.at(TokenKind.DOT):
            self.advance()
            if self.at(TokenKind.STAR):
                self.advance()
            elif self.at(TokenKind.LBRACE):
                self.advance()
                facets = self.parse_value_ident_list()
                if facets is None:
                    return None
                selection = facets
                if self.expect(TokenKind.RBRACE, "'}' closing the facet list") is None:
                    return None
            else:
                bad = self.peek()
                self.error("P001", "expected '*' or '{facets}' after '.'", bad.span)
                return None
        description: str | None = None
        if self.at(TokenKind.STRING):
            description = self.advance().text
        return ScopeRef(universe=tok.text, selection=selection, description=description)

    def parse_value_schedule(self) -> ReportingSchedule | None:
        first = self.expect(TokenKind.IDENT, "a collection period")
        if first is None:
            return None
        if first.text not in _GRANULARITIES:
            self.error("P001", f"unknown period {first.text!r}", first.span)
            return None
        if self.expect(TokenKind.SLASH, "'/' between collection and reporting periods") is None:
            return None
        second = self.expect(TokenKind.IDENT, "a reporting period")
        if second is None:
            return None
        if second.text not in _GRANULARITIES:
            self.error("P001", f"unknown period {second.text!r}", second.span)
            return None
        return ReportingSchedule(_GRANULARITIES[first.text], _GRANULARITIES[second.text])

    def parse_signed_number(self, what: str) -> float | None:
        negative = False
        if self.at(TokenKind.MINUS):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind is not TokenKind.NUMBER:
            shown = tok.text or tok.kind.value
            self.error("P005", f"malformed interval: expected {what}, found {shown!r}", tok.span)
            return None
        self.advance()
        value = -tok.value if negative else tok.value
        return 0.0 if value == 0 else value

    def parse_value_interval(self) -> Interval | None:
        open_tok = self.peek()
        if open_tok.kind is TokenKind.LBRACK:
            lo_closed = True
        elif open_tok.kind is TokenKind.LPAREN:
            lo_closed = False
        else:
            shown = open_tok.text or open_tok.kind.value
            self.error("P005", f"malformed interval: expected '[' or '(', found {shown!r}", open_tok.span)
            return None
        self.advance()
        lo = self.parse_signed_number("a lower endpoint")
        if lo is None:
            return None
        comma = self.peek()
        if comma.kind is not TokenKind.COMMA:
            shown = comma.text or comma.kind.value
            self.error("P005", f"malformed interval: expected ',', found {shown!r}", comma.span)
            return None
        self.advance()
        hi = self.parse_signed_number("an upper endpoint")
        if hi is None:
            return None
        close_tok = self.peek()
        if close_tok.kind is TokenKind.RBRACK:
            hi_closed = True
        elif close_tok.kind is TokenKind.RPAREN:
            hi_closed = False
        else:
            shown = close_tok.text or close_tok.kind.value
            self.error("P005", f"malformed interval: expected ']' or ')', found {shown!r}", close_tok.span)
            return None
        self.advance()
        interval = Interval(lo, hi, lo_closed, hi_closed)
        if interval.is_empty():
            self.error("P005", f"empty interval {interval.notation()}", open_tok.span)
            return None
        return interval

    def parse_value_band(self) -> InterpretationBand | None:
        interval = self.parse_value_interval()
        if interval is None:
            return None
        if self.expect(TokenKind.ARROW, "'->' after the band interval") is None:
            return None
        label = self.expect(TokenKind.IDENT, "a band label")
        if label is None:
            return None
        if self.expect(TokenKind.LBRACE, "'{' opening the action list") is None:
            return None
        actions: list[Action] = []
        while not self.at(TokenKind.RBRACE) and not self.at(TokenKind.EOF):
            word = self.expect(TokenKind.IDENT, "an action (log, notify or escalate)")
            if word is None:
                self.skip_to_field_boundary()
                break
            if word.text not in _ACTION_KINDS:
                self.error("P001", f"unknown action {word.text!r}", word.span)
                self.skip_to_field_boundary()
                break
            target = self.parse_action_target()
            if target is None:
                break
            actions.append(Action(_ACTION_KINDS[word.text], target))
        self.expect(TokenKind.RBRACE, "'}' closing the action list")
        return InterpretationBand(interval=interval, label=label.text, actions=tuple(actions))

    def parse_action_target(self) -> ActionTarget | None:
        tok = self.expect(TokenKind.IDENT, "a stakeholder id or owner_of(node)")
        if tok is None:
            return None
        if tok.text == "owner_of" and self.at(TokenKind.LPAREN):
            self.advance()
            ref = self.expect(TokenKind.IDENT, "a node id inside owner_of(...)")
            if ref is None:
                return None
            if self.expect(TokenKind.RPAREN, "')'") is None:
                return None
            return ActionTarget(ref=ref.text, is_owner=True)
        return ActionTarget(ref=tok.text, is_owner=False)

    def parse_value_step(self) -> StrategyStep | None:
        text = self.expect(TokenKind.STRING, "the step text")
        if text is None:
            return None
        spawns: tuple[str, ...] = ()
        if self.at(TokenKind.ARROW):
            self.advance()
            ids = self.parse_value_ident_list()
            if ids is None:
                return None
            spawns = ids
        return StrategyStep(text=text.text, spawns=spawns)

    def parse_value_expr(self) -> _expr.Expr | None:
        parsed = self.parse_expr_binary(0, 0, 0)
        return parsed[0] if parsed else None

    _PRECEDENCE = {TokenKind.PLUS: 1, TokenKind.MINUS: 1, TokenKind.STAR: 2, TokenKind.SLASH: 2}

    # The expression parsers return (expression, depth), or None after a
    # diagnostic. `above` counts the operators that will enclose the result
    # and `parens` the open parentheses, so P008 stops the descent where a
    # limit is crossed, long before Python's recursion limit.

    def too_deep(self, tok: Token) -> None:
        self.error("P008", f"metric function nests deeper than {MAX_EXPR_DEPTH} levels", tok.span)

    def parse_expr_binary(self, min_prec: int, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        parsed = self.parse_expr_unary(above, parens)
        if parsed is None:
            return None
        left, depth = parsed
        while True:
            op = self.peek()
            prec = self._PRECEDENCE.get(op.kind)
            if prec is None or prec < min_prec:
                return left, depth
            self.advance()
            right = self.parse_expr_binary(prec + 1, above + 1, parens)
            if right is None:
                return None
            left, depth = _expr.BinOp(op.text, left, right[0]), 1 + max(depth, right[1])
            if above + depth > MAX_EXPR_DEPTH:
                return self.too_deep(op)

    def parse_expr_unary(self, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        tok = self.peek()
        if above > MAX_EXPR_DEPTH:
            return self.too_deep(tok)
        if tok.kind is TokenKind.MINUS:
            self.advance()
            operand = self.parse_expr_unary(above + 1, parens)
            return (_expr.Neg(operand[0]), operand[1] + 1) if operand else None
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            return _expr.Num(tok.value), 0
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return _expr.Var(tok.text), 0
        if tok.kind is TokenKind.LPAREN:
            if parens == MAX_EXPR_DEPTH:
                return self.too_deep(tok)
            self.advance()
            inner = self.parse_expr_binary(0, above, parens + 1)
            if inner is None or self.expect(TokenKind.RPAREN, "')'") is None:
                return None
            return inner
        shown = tok.text or tok.kind.value
        self.error("P001", f"expected an expression, found {shown!r}", tok.span)
        return None

    # -- node assembly -----------------------------------------------------

    def assemble(self, kind: str, node_id: str, fields: dict):
        values = {
            _ATTRIBUTE_OF.get(name, name): tuple(value) if name in _REPEATABLE else value
            for name, value in fields.items()
        }
        return NODE_TYPES[kind](id=node_id, **values)


def parse(text: str, filename: str = "<string>") -> tuple[Model, list[Diagnostic]]:
    """Parse .sym source text. Returns (model, diagnostics); never raises."""
    builder = _Builder()
    diags: list[Diagnostic] = []
    stack = (os.path.abspath(filename),) if filename != "<string>" else ()
    parser = _Parser(text, filename, builder, diags, stack)
    parser.parse_model()
    return builder.build(), diags


def parse_file(path: str | Path) -> tuple[Model, list[Diagnostic]]:
    text = Path(path).read_text(encoding="utf-8")
    return parse(text, filename=str(path))


def parse_expression(text: str) -> _expr.Expr:
    """Parse a standalone metric function. Raises ExpressionSyntaxError on bad input."""
    builder = _Builder()
    diags: list[Diagnostic] = []
    parser = _Parser(text, "<expression>", builder, diags, ())
    result = parser.parse_value_expr()
    if diags or result is None:
        message = diags[0].message if diags else "empty expression"
        raise ExpressionSyntaxError(message)
    trailing = parser.peek()
    if trailing.kind is not TokenKind.EOF:
        raise ExpressionSyntaxError(f"unexpected trailing input {trailing.text!r}")
    return result
