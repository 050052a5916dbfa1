"""Recursive-descent parser for .sym files.

Parsing is total: any input produces a (possibly partial) model plus a list of
coded diagnostics (P001-P009). With zero error diagnostics the model is fully
populated; reference resolution is the validator's job.

A load given a block table records each block that parsed with no diagnostic,
keyed by its exact source text from the kind keyword through its closing `}`.
A load that starts with blocks in the table (the new version of `impact`)
cuts each file at the lines that hold only `}`, takes the recorded node for
every piece whose text after its leading blanks and comments is a key, and
lexes and parses only the runs between those pieces. So it costs time in its
changed blocks, and in every block whose closing `}` is not alone on its
line. A file whose runs hold an `include` or give a diagnostic is parsed
whole, so the model and diagnostics are those of a full parse.
"""

from __future__ import annotations

import datetime as _dt
import os
import re
from pathlib import Path

from . import expr as _expr
from .diagnostics import Diagnostic, Severity, SourceSpan
from .lexer import BLANKS, Source, Token, TokenKind, _new, parse_number, tokenize
from .model import (
    Action,
    ActionKind,
    ActionTarget,
    Granularity,
    InterpretationBand,
    Interval,
    Model,
    ReportingSchedule,
    ScopeRef,
    StrategyStep,
    COLLECTIONS,
    FIELDS,
    NODE_TYPES,
    WORD_KINDS,
)

# Copies of the EOF token after the real one: reads up to this many tokens
# past any token that is not EOF stay inside the token list.
_LOOKAHEAD = 2

# Token kinds as module constants. Reading a member through its Enum class
# costs several times a global lookup, and the parser compares kinds on
# every token.
_EOF = TokenKind.EOF
_IDENT = TokenKind.IDENT
_STRING = TokenKind.STRING
_NUMBER = TokenKind.NUMBER
_DATE = TokenKind.DATE
_LBRACE = TokenKind.LBRACE
_RBRACE = TokenKind.RBRACE
_LBRACK = TokenKind.LBRACK
_RBRACK = TokenKind.RBRACK
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_COLON = TokenKind.COLON
_COMMA = TokenKind.COMMA
_ARROW = TokenKind.ARROW
_DOT = TokenKind.DOT
_STAR = TokenKind.STAR
_SLASH = TokenKind.SLASH
_MINUS = TokenKind.MINUS
_EQUALS = TokenKind.EQUALS

# Deepest metric function accepted: operator nesting (leaves count 0, each
# Neg or BinOp one more than its deepest child) and parenthesis nesting.
MAX_EXPR_DEPTH = 200

# Deepest include chain accepted, counting the root file. Each file costs
# three frames (`_parse_source`, `parse_model`, `parse_include`) and each
# parenthesis two, so the deepest chain holding the deepest function needs
# about 700 frames, inside Python's default recursion limit of 1,000.
MAX_INCLUDE_DEPTH = 100

_INFINITY = float("inf")

_PRECEDENCE = {TokenKind.PLUS: 1, TokenKind.MINUS: 1, TokenKind.STAR: 2, TokenKind.SLASH: 2}

# The words each enum read by `read_word` accepts, mapped to its members.
_WORDS = {enum: {m.value: m for m in enum} for enum in (Granularity, ActionKind, *WORD_KINDS.values())}


def _shown(tok: Token) -> str:
    """How a diagnostic names the token it found."""
    return tok.text or tok.kind.value


class ExpressionSyntaxError(ValueError):
    """Raised by parse_expression for standalone expression text."""


# Source text of a block that parsed with no diagnostic, from its kind keyword
# through its closing `}` -> (kind, node, id token offset in that text, id length).
BlockTable = dict[str, tuple[str, object, int, int]]


class _Builder:
    """Accumulates declarations across files; first declaration of an id wins.

    Declarations are kept in order and resolved by `build`, so a file whose
    reuse of recorded blocks fails can take its declarations back.
    """

    def __init__(self, table: BlockTable | None = None) -> None:
        self.declarations: list[tuple[str, str, object, SourceSpan]] = []
        self.included: set[str] = set()  # real paths of the files spliced in by an include
        self.table = table  # records each clean block, when given
        self.reuse = bool(table)  # the load began with blocks to reuse

    def add(self, kind: str, node_id: str, node, span: SourceSpan) -> None:
        self.declarations.append((kind, node_id, node, span))

    def build(self) -> Model:
        nodes: dict[str, dict] = {kind: {} for kind in NODE_TYPES}
        spans: dict[tuple[str, str], SourceSpan] = {}
        duplicates = []
        declared: set[str] = set()
        for kind, node_id, node, span in self.declarations:
            if node_id in declared:
                duplicates.append((kind, node_id, span))
                continue
            declared.add(node_id)
            nodes[kind][node_id] = node
            spans[(kind, node_id)] = span
        return Model(
            **{COLLECTIONS[kind]: collection for kind, collection in nodes.items()},
            spans=spans,
            duplicate_decls=tuple(duplicates),
            included=tuple(sorted(self.included)),
        )


class _Parser:
    """Reads one file's tokens into the builder.

    A token holds its kind, text, offset and length; the file's `Source`
    gives every span and the text of each recorded block. `pos` is the index
    of the next unread token; it never passes the EOF token. A reader that
    expects one kind of token reads it with `take`, which reports P001 when
    the token is of another kind; the other readers index `tokens` directly.
    """

    def __init__(
        self,
        tokens: list[Token],
        source: Source,
        builder: _Builder,
        diags: list[Diagnostic],
        include_stack: tuple[str, ...],  # real paths of the files being read, root first
        table: BlockTable | None = None,
    ) -> None:
        self.source = source
        self.builder = builder
        self.diags = diags
        self.include_stack = include_stack
        self.table = table  # where each block that parses with no diagnostic is recorded
        tokens.extend([tokens[-1]] * _LOOKAHEAD)
        self.tokens = tokens
        self.pos = 0

    def error(self, code: str, message: str, tok: Token) -> None:
        span = self.source.span(tok.offset, tok.length)
        self.diags.append(Diagnostic(code, Severity.ERROR, message, span))

    def expected(self, tok: Token, what: str) -> None:
        """Report P001 at `tok`, which is not `what`. Returns None for the reader."""
        self.error("P001", f"expected {what}, found {_shown(tok)!r}", tok)

    def take(self, kind: TokenKind, what: str) -> Token | None:
        """Read and return the next token if it is of `kind`.

        Otherwise report P001 `expected <what>` at it, leave `pos` on it and
        return None.
        """
        tok = self.tokens[self.pos]
        if tok.kind is kind:
            self.pos += 1
            return tok
        return self.expected(tok, what)

    # -- recovery ----------------------------------------------------------

    def skip_block(self) -> None:
        """Skip tokens through a balanced { ... } group, or to the next block."""
        tokens = self.tokens
        i = self.pos
        depth = 0
        while True:
            tok = tokens[i]
            kind = tok.kind
            if kind is _EOF or (depth == 0 and kind is _IDENT and tok.text in NODE_TYPES):
                break
            i += 1
            if kind is _LBRACE:
                depth += 1
            elif kind is _RBRACE:
                depth -= 1
                if depth <= 0:
                    break
        self.pos = i

    def skip_to_field_boundary(self) -> None:
        """Skip a malformed field value: stop before `name :` at depth 0 or `}`."""
        tokens = self.tokens
        i = self.pos
        depth = 0
        while True:
            kind = tokens[i].kind
            if kind is _EOF:
                break
            if depth == 0 and (kind is _RBRACE or (kind is _IDENT and tokens[i + 1].kind is _COLON)):
                break
            if kind is _LBRACE:
                depth += 1
            elif kind is _RBRACE:
                depth -= 1
            i += 1
        self.pos = i

    # -- model structure ---------------------------------------------------

    def parse_model(self) -> None:
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is _EOF:
                return
            if tok.kind is _IDENT:
                if tok.text == "include":
                    self.parse_include()
                    continue
                if tok.text in NODE_TYPES:
                    self.parse_block(tok.text)
                    continue
                if tokens[self.pos + 1].kind is _IDENT and tokens[self.pos + 2].kind is _LBRACE:
                    self.error("P003", f"unknown block kind {tok.text!r}", tok)
                    self.pos += 2
                    self.skip_block()
                    continue
            self.expected(tok, "a block declaration")
            self.pos += 1

    def parse_include(self) -> None:
        self.pos += 1  # include
        path_tok = self.take(_STRING, "a quoted file path")
        if path_tok is None:
            return
        base = os.path.dirname(self.source.name)
        target = os.path.normpath(os.path.join(base, path_tok.text))
        # Files are compared by real path, so a file reached through a symbolic
        # link is one file.
        key = os.path.realpath(target)
        if key in self.include_stack:
            self.error("P006", f"include cycle through {target!r}", path_tok)
            return
        if key in self.builder.included:
            return  # already spliced in: its declarations are in the model once
        if len(self.include_stack) >= MAX_INCLUDE_DEPTH:
            self.error("P009", f"include nesting deeper than {MAX_INCLUDE_DEPTH} files", path_tok)
            return
        try:
            text = Path(target).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            self.error("P007", f"cannot read include {target!r}: {reason}", path_tok)
            return
        self.builder.included.add(key)
        _parse_source(text, target, self.builder, self.diags, self.include_stack + (key,))

    def parse_block(self, kind: str) -> None:
        keyword = self.tokens[self.pos]
        errors = len(self.diags)
        self.pos += 1
        id_tok = self.take(_IDENT, f"an identifier after {kind!r}")
        if id_tok is None or self.take(_LBRACE, "'{'") is None:
            return self.skip_block()
        tokens = self.tokens
        i = self.pos
        readers = _READERS[kind]
        fields: dict[str, object] = {}
        seen: set[str] = set()
        while True:
            name_tok = tokens[i]
            if name_tok.kind is not _IDENT:
                if name_tok.kind is _RBRACE or name_tok.kind is _EOF:
                    break
                self.expected(name_tok, "a field name")
                i += 1
                continue
            name = name_tok.text
            i += 1
            if tokens[i].kind is not _COLON:
                self.pos = i
                self.expected(tokens[i], f"':' after field {name!r}")
                self.skip_to_field_boundary()
                i = self.pos
                continue
            self.pos = i + 1
            duplicate = name in seen and name not in _REPEATED_NAMES
            if duplicate:
                self.error("P004", f"duplicate field {name!r} in {kind} block", name_tok)
            seen.add(name)
            entry = readers.get(name)
            if entry is None:
                self.error("P001", f"unknown field {name!r} in {kind} block", name_tok)
                value = None
            else:
                read, attribute = entry
                value = read(self)
            if value is None:
                self.skip_to_field_boundary()
            i = self.pos
            if duplicate or value is None:
                continue
            if name in _REPEATED_NAMES:
                fields.setdefault(attribute, []).append(value)
            else:
                fields[attribute] = value
        self.pos = i
        self.take(_RBRACE, "'}'")
        # A repeated field's items were gathered in a list.
        values = {attribute: tuple(v) if type(v) is list else v for attribute, v in fields.items()}
        node = NODE_TYPES[kind](id=id_tok.text, **values)
        self.builder.add(kind, id_tok.text, node, self.source.span(id_tok.offset, id_tok.length))
        if self.table is not None and len(self.diags) == errors:
            start = keyword.offset
            text = self.source.text[start : tokens[self.pos - 1].offset + 1]
            self.table[text] = (kind, node, id_tok.offset - start, id_tok.length)

    # -- value readers -----------------------------------------------------
    # A reader starts at `pos` and leaves it after what it read. It returns
    # the value, or None after a diagnostic, with `pos` where reading stopped.
    # Each token of one expected kind is read by `take`.

    def parse_value_str(self) -> str | None:
        tok = self.take(_STRING, "a quoted string")
        return None if tok is None else tok.text

    def parse_value_ident(self) -> str | None:
        tok = self.take(_IDENT, "an identifier")
        return None if tok is None else tok.text

    def read_list(self, kind: TokenKind, what: str) -> tuple[str, ...] | None:
        """`a, b, c`: one or more tokens of `kind` separated by commas."""
        tok = self.take(kind, what)
        if tok is None:
            return None
        items = [tok.text]
        while self.tokens[self.pos].kind is _COMMA:
            self.pos += 1
            tok = self.take(kind, what + " after ','")
            if tok is None:
                break
            items.append(tok.text)
        return tuple(items)

    def parse_value_ident_list(self) -> tuple[str, ...] | None:
        return self.read_list(_IDENT, "an identifier")

    def parse_value_str_list(self) -> tuple[str, ...] | None:
        return self.read_list(_STRING, "a quoted string")

    def number(self, tok: Token) -> float | None:
        """The value of NUMBER token `tok`; every reader of a number asks here.

        A literal beyond the float range (`2` followed by 308 zeros, or
        `1e309`) reads as infinity, and one with a nonzero digit below it
        (`1e-400`) as zero: either is P001, and None. The message shows a
        literal whole when that is no longer than showing its ends.
        """
        text = tok.text
        value = parse_number(text)
        if value == _INFINITY:
            size = "large"
        elif value == 0.0 and text.upper().partition("E")[0].strip("0."):
            size = "small"
        else:
            return value
        if len(text) > 19:
            text = f"{text[:8]}...{text[-8:]} ({len(text)} characters)"
        return self.error("P001", f"number too {size}: {text}", tok)

    def parse_value_int(self) -> int | None:
        tok = self.take(_NUMBER, "a number")
        value = None if tok is None else self.number(tok)
        if value is None:
            return None
        if value != int(value):
            return self.error("P001", f"expected an integer, found {tok.text!r}", tok)
        # Digits alone are read exactly. The range check above leaves at most 309
        # of them once leading zeros go, which keeps `int` under its digit limit.
        return int(tok.text.lstrip("0") or "0") if tok.text.isdigit() else int(value)

    def parse_value_date(self) -> _dt.date | None:
        tok = self.take(_DATE, "a date (YYYY-MM-DD)")
        if tok is None:
            return None
        try:
            return _dt.date.fromisoformat(tok.text)
        except ValueError:
            return self.error("P001", f"invalid date {tok.text!r}", tok)

    def read_word(self, enum: type, what: str = "", unknown: str = ""):
        """An identifier that is the value of a member of `enum`; returns the member.

        A token that is no identifier is P001 `expected <what>`; any other
        identifier is P001 `<unknown> '<identifier>'`, after it is read.
        Without `what` and `unknown`, both are P001 `expected 'a' or 'b',
        found ...`, listing the enum's words.
        """
        tok = self.tokens[self.pos]
        words = _WORDS[enum]
        if tok.kind is _IDENT:
            self.pos += 1
            if tok.text in words:
                return words[tok.text]
            if unknown:
                return self.error("P001", f"{unknown} {tok.text!r}", tok)
        *rest, last = map(repr, words)
        return self.expected(tok, what or f"{', '.join(rest)} or {last}")

    def parse_value_filters(self) -> tuple[tuple[str, str], ...] | None:
        pairs: list[tuple[str, str]] = []
        while True:
            if (
                (name := self.take(_IDENT, "a record field name")) is None
                or self.take(_EQUALS, "'='") is None
                or (value := self.take(_STRING, "a quoted value")) is None
            ):
                return tuple(pairs) if pairs else None
            pairs.append((name.text, value.text))
            if self.tokens[self.pos].kind is not _COMMA:
                return tuple(pairs)
            self.pos += 1

    def parse_value_scope(self) -> ScopeRef | None:
        tok = self.take(_IDENT, "a universe identifier")
        if tok is None:
            return None
        tokens = self.tokens
        selection: tuple[str, ...] | None = None
        if tokens[self.pos].kind is _DOT:
            self.pos += 1
            after = tokens[self.pos]
            if after.kind is _STAR:
                self.pos += 1
            elif after.kind is _LBRACE:
                self.pos += 1
                selection = self.parse_value_ident_list()
                if selection is None or self.take(_RBRACE, "'}' closing the facet list") is None:
                    return None
            else:
                return self.error("P001", "expected '*' or '{facets}' after '.'", after)
        description: str | None = None
        if tokens[self.pos].kind is _STRING:
            description = tokens[self.pos].text
            self.pos += 1
        return ScopeRef(universe=tok.text, selection=selection, description=description)

    def parse_value_schedule(self) -> ReportingSchedule | None:
        collection = self.read_word(Granularity, "a collection period", "unknown period")
        if collection is None or self.take(_SLASH, "'/' between collection and reporting periods") is None:
            return None
        reporting = self.read_word(Granularity, "a reporting period", "unknown period")
        if reporting is None:
            return None
        return ReportingSchedule(collection, reporting)

    def malformed_interval(self, tok: Token, what: str) -> None:
        self.error("P005", f"malformed interval: expected {what}, found {_shown(tok)!r}", tok)

    def parse_signed_number(self, what: str) -> float | None:
        tokens = self.tokens
        i = self.pos
        negative = tokens[i].kind is _MINUS
        if negative:
            i += 1
        tok = tokens[i]
        self.pos = i
        if tok.kind is not _NUMBER:
            return self.malformed_interval(tok, what)
        self.pos = i + 1
        value = self.number(tok)
        if value is None:
            return None
        if negative:
            value = -value
        return 0.0 if value == 0 else value

    def parse_value_interval(self) -> Interval | None:
        tokens = self.tokens
        open_tok = tokens[self.pos]
        if open_tok.kind is not _LBRACK and open_tok.kind is not _LPAREN:
            return self.malformed_interval(open_tok, "'[' or '('")
        self.pos += 1
        lo = self.parse_signed_number("a lower endpoint")
        if lo is None:
            return None
        if tokens[self.pos].kind is not _COMMA:
            return self.malformed_interval(tokens[self.pos], "','")
        self.pos += 1
        hi = self.parse_signed_number("an upper endpoint")
        if hi is None:
            return None
        close_tok = tokens[self.pos]
        if close_tok.kind is not _RBRACK and close_tok.kind is not _RPAREN:
            return self.malformed_interval(close_tok, "']' or ')'")
        self.pos += 1
        interval = Interval(lo, hi, open_tok.kind is _LBRACK, close_tok.kind is _RBRACK)
        if interval.is_empty():
            return self.error("P005", f"empty interval {interval.notation()}", open_tok)
        return interval

    def parse_value_band(self) -> InterpretationBand | None:
        interval = self.parse_value_interval()
        if interval is None or self.take(_ARROW, "'->' after the band interval") is None:
            return None
        label = self.take(_IDENT, "a band label")
        if label is None or self.take(_LBRACE, "'{' opening the action list") is None:
            return None
        tokens = self.tokens
        actions: list[Action] = []
        while tokens[self.pos].kind is not _RBRACE and tokens[self.pos].kind is not _EOF:
            action = self.read_word(ActionKind, "an action (log, notify or escalate)", "unknown action")
            if action is None:
                self.skip_to_field_boundary()
                break
            target = self.parse_action_target()
            if target is None:
                break
            actions.append(Action(action, target))
        self.take(_RBRACE, "'}' closing the action list")
        return InterpretationBand(interval=interval, label=label.text, actions=tuple(actions))

    def parse_action_target(self) -> ActionTarget | None:
        tok = self.take(_IDENT, "a stakeholder id or owner_of(node)")
        if tok is None:
            return None
        if tok.text != "owner_of" or self.tokens[self.pos].kind is not _LPAREN:
            return ActionTarget(ref=tok.text, is_owner=False)
        self.pos += 1
        ref = self.take(_IDENT, "a node id inside owner_of(...)")
        if ref is None or self.take(_RPAREN, "')'") is None:
            return None
        return ActionTarget(ref=ref.text, is_owner=True)

    def parse_value_step(self) -> StrategyStep | None:
        text = self.take(_STRING, "the step text")
        if text is None:
            return None
        spawns: tuple[str, ...] = ()
        if self.tokens[self.pos].kind is _ARROW:
            self.pos += 1
            spawns = self.parse_value_ident_list()
            if spawns is None:
                return None
        return StrategyStep(text=text.text, spawns=spawns)

    def parse_value_expr(self) -> _expr.Expr | None:
        parsed = self.parse_expr_binary(0, 0, 0)
        return parsed[0] if parsed else None

    # The expression parsers return (expression, depth), or None after a
    # diagnostic. `above` counts the operators that will enclose the result
    # and `parens` the open parentheses, so P008 stops the descent where a
    # limit is crossed, long before Python's recursion limit.

    def too_deep(self, tok: Token) -> None:
        self.error("P008", f"metric function nests deeper than {MAX_EXPR_DEPTH} levels", tok)

    def parse_expr_binary(self, min_prec: int, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        parsed = self.parse_expr_unary(above, parens)
        if parsed is None:
            return None
        left, depth = parsed
        tokens = self.tokens
        while True:
            op = tokens[self.pos]
            prec = _PRECEDENCE.get(op.kind)
            if prec is None or prec < min_prec:
                return left, depth
            self.pos += 1
            right = self.parse_expr_binary(prec + 1, above + 1, parens)
            if right is None:
                return None
            left, depth = _expr.BinOp(op.text, left, right[0]), 1 + max(depth, right[1])
            if above + depth > MAX_EXPR_DEPTH:
                return self.too_deep(op)

    def parse_expr_unary(self, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        tok = self.tokens[self.pos]
        if above > MAX_EXPR_DEPTH:
            return self.too_deep(tok)
        kind = tok.kind
        if kind is _MINUS:
            self.pos += 1
            operand = self.parse_expr_unary(above + 1, parens)
            return (_expr.Neg(operand[0]), operand[1] + 1) if operand else None
        if kind is _NUMBER:
            self.pos += 1
            value = self.number(tok)
            return (_expr.Num(value), 0) if value is not None else None
        if kind is _IDENT:
            self.pos += 1
            return _expr.Var(tok.text), 0
        if kind is _LPAREN:
            if parens == MAX_EXPR_DEPTH:
                return self.too_deep(tok)
            self.pos += 1
            inner = self.parse_expr_binary(0, above, parens + 1)
            if inner is None or self.take(_RPAREN, "')'") is None:
                return None
            return inner
        self.error("P001", f"expected an expression, found {_shown(tok)!r}", tok)
        return None


def _reader(value_kind: str):
    """A word-valued field is read as a member of its enum, any other by `parse_value_<value kind>`."""
    enum = WORD_KINDS.get(value_kind)
    if enum is None:
        return getattr(_Parser, "parse_value_" + value_kind)
    return lambda parser: parser.read_word(enum)


# Each block kind's fields by name: {block kind: {field name: (reader, attribute)}}.
_READERS: dict[str, dict[str, tuple]] = {
    kind: {f.name: (_reader(f.value_kind), f.attribute) for f in fields} for kind, fields in FIELDS.items()
}

# Field names that may repeat within one block: those of the repeated fields of
# every kind, so that a `step` repeated in a metric block is unknown, not P004.
_REPEATED_NAMES = frozenset(f.name for fields in FIELDS.values() for f in fields if f.repeated)


# A line that holds only `}`, where a reused block may end; and the blanks and
# comments the lexer skips before a token.
_CLOSING_LINE_RE = re.compile(r"^\}[ \t\r]*$", re.MULTILINE)
_BLANKS_RE = re.compile(BLANKS)


def _parse_source(text: str, filename: str, builder: _Builder, diags: list[Diagnostic], stack: tuple[str, ...]) -> None:
    """Parse one file's text into the builder, from recorded blocks where the load reuses them."""
    source = Source(filename, text)  # one line table for every span in the file
    if builder.reuse and _reuse_blocks(source, builder):
        return
    tokens, lex_diags = tokenize(text, filename, source)
    diags.extend(lex_diags)
    # A block holding a lexer diagnostic is not recorded: its reuse would drop the diagnostic.
    table = None if lex_diags else builder.table
    _Parser(tokens, source, builder, diags, stack, table).parse_model()


def _reuse_blocks(source: Source, builder: _Builder) -> bool:
    """Add the file's declarations from recorded blocks and the runs parsed between them.

    Returns False, with nothing added, when no piece is a recorded block or
    a run holds an `include` or gives a diagnostic.
    """
    text = source.text
    mark = len(builder.declarations)
    run_start = region_start = 0
    for match in _CLOSING_LINE_RE.finditer(text):
        end = match.start() + 1
        key_start = _BLANKS_RE.match(text, region_start).end()
        region_start = end
        entry = builder.table.get(text[key_start:end])
        if entry is None:
            continue
        if not _parse_run(text, run_start, key_start, source, builder):
            break
        kind, node, offset, length = entry
        builder.add(kind, node.id, node, source.span(key_start + offset, length))
        run_start = end
    else:
        if run_start and _parse_run(text, run_start, len(text), source, builder):
            return True
    del builder.declarations[mark:]
    return False


def _parse_run(text: str, start: int, stop: int, source: Source, builder: _Builder) -> bool:
    """Lex and parse `text[start:stop]` into the builder; False if it contains `include` or gives a diagnostic."""
    if _BLANKS_RE.match(text, start, stop).end() == stop:
        return True
    run = text[start:stop]
    if "include" in run:
        return False
    tokens, diags = tokenize(run, source.name)
    if diags:
        return False
    tokens = [_new(Token, (kind, lexeme, offset + start, length)) for kind, lexeme, offset, length in tokens]
    _Parser(tokens, source, builder, diags, (), builder.table).parse_model()
    return not diags


def parse(text: str, filename: str = "<string>", table: BlockTable | None = None) -> tuple[Model, list[Diagnostic]]:
    """Parse .sym source text. Returns (model, diagnostics); never raises.

    With a block table, the load records its clean blocks in it, and reuses
    those already there (see the module docstring).
    """
    builder = _Builder(table)
    diags: list[Diagnostic] = []
    # The root heads the include stack; "<string>" is no real path, so no include matches it.
    stack = (filename if filename == "<string>" else os.path.realpath(filename),)
    _parse_source(text, filename, builder, diags, stack)
    return builder.build(), diags


def parse_file(path: str | Path, table: BlockTable | None = None) -> tuple[Model, list[Diagnostic]]:
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte order mark is dropped
    return parse(text, str(path), table)


def parse_expression(text: str) -> _expr.Expr:
    """Parse a standalone metric function. Raises ExpressionSyntaxError on bad input."""
    source = Source("<expression>", text)
    tokens, diags = tokenize(text, source.name, source)
    parser = _Parser(tokens, source, _Builder(), diags, ())
    result = parser.parse_value_expr()
    if diags or result is None:
        message = diags[0].message if diags else "empty expression"
        raise ExpressionSyntaxError(message)
    trailing = parser.tokens[parser.pos]
    if trailing.kind is not TokenKind.EOF:
        raise ExpressionSyntaxError(f"unexpected trailing input {trailing.text!r}")
    return result
