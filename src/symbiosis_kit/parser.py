"""Recursive-descent parser for .sym files.

Parsing is total: any input produces a (possibly partial) model plus a list of
coded diagnostics (P001-P009). With zero error diagnostics the model is fully
populated; reference resolution is the validator's job. Tokens are read by
index from the lexer's parallel lists (`lexer.Tokens`); a `Token` tuple is
built only for the span of a diagnostic.

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
from .lexer import BLANKS, Source, TokenKind, Tokens, parse_number, tokenize
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


class ExpressionSyntaxError(ValueError):
    """Raised by parse_expression for standalone expression text."""


# Source text of a block that parsed with no diagnostic, from its kind keyword
# through its closing `}` -> (kind, node, offset of the node's id in that text).
BlockTable = dict[str, tuple[str, object, int]]


class _Builder:
    """Accumulates declarations across files; first declaration of an id wins.

    Declarations are kept in order and resolved by `build`, so a file whose
    reuse of recorded blocks fails can take its declarations back.
    """

    def __init__(self, table: BlockTable | None = None) -> None:
        self.declarations: list[tuple[str, object, SourceSpan]] = []
        self.included: set[str] = set()  # real paths of the files spliced in by an include
        self.table = table  # records each clean block, when given
        self.reuse = bool(table)  # the load began with blocks to reuse

    def add(self, kind: str, node, span: SourceSpan) -> None:
        self.declarations.append((kind, node, span))

    def build(self) -> Model:
        nodes: dict[str, dict] = {kind: {} for kind in NODE_TYPES}
        spans: dict[str, SourceSpan] = {}
        duplicates = []
        for kind, node, span in self.declarations:
            node_id = node.id
            if node_id in spans:
                duplicates.append((node_id, span))
                continue
            nodes[kind][node_id] = node
            spans[node_id] = span
        return Model(
            **{COLLECTIONS[kind]: collection for kind, collection in nodes.items()},
            spans=spans,
            duplicate_decls=tuple(duplicates),
            included=tuple(sorted(self.included)),
        )


class _Parser:
    """Reads one file's tokens into the builder.

    A token is an index into `kinds`, `texts` and `offsets`; the `Source`
    gives every span and each recorded block's text. `pos` is the index of
    the next unread token; it never passes the EOF token. `take` reads the
    index of a token of one expected kind, or reports P001 at a token of
    another; the other readers index the lists directly.
    """

    def __init__(
        self,
        tokens: Tokens,
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
        self.tokens = tokens
        self.kinds, self.texts, self.offsets = tokens.kinds, tokens.texts, tokens.offsets
        self.pos = 0

    def error(self, code: str, message: str, index: int) -> None:
        tok = self.tokens[index]  # the one place a Token is built
        self.diags.append(Diagnostic(code, Severity.ERROR, message, self.source.span(tok.offset, tok.length)))

    def shown(self, index: int) -> str:
        """How a diagnostic names the token it found."""
        return self.texts[index] or self.kinds[index].value

    def expected(self, index: int, what: str) -> None:
        """Report P001 at token `index`, which is not `what`. Returns None for the reader."""
        self.error("P001", f"expected {what}, found {self.shown(index)!r}", index)

    def take(self, kind: TokenKind, what: str) -> int | None:
        """Read the next token and return its index if it is of `kind`.

        Otherwise report P001 `expected <what>` at it, leave `pos` on it and
        return None.
        """
        index = self.pos
        if self.kinds[index] is kind:
            self.pos = index + 1
            return index
        return self.expected(index, what)

    # -- recovery ----------------------------------------------------------

    def skip_block(self) -> None:
        """Skip tokens through a balanced { ... } group, or to the next block."""
        kinds, texts = self.kinds, self.texts
        i = self.pos
        depth = 0
        while True:
            kind = kinds[i]
            if kind is _EOF or (depth == 0 and kind is _IDENT and texts[i] in NODE_TYPES):
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
        kinds = self.kinds
        i = self.pos
        depth = 0
        while True:
            kind = kinds[i]
            if kind is _EOF:
                break
            if depth == 0 and (kind is _RBRACE or (kind is _IDENT and kinds[i + 1] is _COLON)):
                break
            if kind is _LBRACE:
                depth += 1
            elif kind is _RBRACE:
                depth -= 1
            i += 1
        self.pos = i

    # -- model structure ---------------------------------------------------

    def parse_model(self) -> None:
        kinds, texts = self.kinds, self.texts
        while True:
            i = self.pos
            kind = kinds[i]
            if kind is _EOF:
                return
            if kind is _IDENT:
                word = texts[i]
                if word == "include":
                    self.parse_include()
                    continue
                if word in NODE_TYPES:
                    self.parse_block(word)
                    continue
                if kinds[i + 1] is _IDENT and kinds[i + 2] is _LBRACE:
                    self.error("P003", f"unknown block kind {word!r}", i)
                    self.pos += 2
                    self.skip_block()
                    continue
            self.expected(i, "a block declaration")
            self.pos += 1

    def parse_include(self) -> None:
        self.pos += 1  # include
        path_tok = self.take(_STRING, "a quoted file path")
        if path_tok is None:
            return
        base = os.path.dirname(self.source.name)
        target = os.path.normpath(os.path.join(base, self.texts[path_tok]))
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
        kinds, texts, offsets = self.kinds, self.texts, self.offsets
        start = offsets[self.pos]  # of the kind keyword
        errors = len(self.diags)
        self.pos += 1
        id_tok = self.take(_IDENT, f"an identifier after {kind!r}")
        if id_tok is None or self.take(_LBRACE, "'{'") is None:
            return self.skip_block()
        node_id = texts[id_tok]
        span = self.source.span(offsets[id_tok], len(node_id))  # before any field's diagnostic
        i = self.pos
        readers = _READERS[kind]
        fields: dict[str, object] = {}
        repeated: dict[str, list] = {}  # a repeated field's items, by attribute
        seen: set[str] = set()
        while True:
            if kinds[i] is not _IDENT:
                if kinds[i] is _RBRACE or kinds[i] is _EOF:
                    break
                self.expected(i, "a field name")
                i += 1
                continue
            name_tok = i
            name = texts[i]
            i += 1
            if kinds[i] is not _COLON:
                self.pos = i
                self.expected(i, f"':' after field {name!r}")
                self.skip_to_field_boundary()
                i = self.pos
                continue
            self.pos = i + 1
            repeats = name in _REPEATED_NAMES
            duplicate = not repeats and name in seen
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
            if repeats:
                repeated.setdefault(attribute, []).append(value)
            else:
                fields[attribute] = value
        self.pos = i
        self.take(_RBRACE, "'}'")
        for attribute, items in repeated.items():
            fields[attribute] = tuple(items)
        node = NODE_TYPES[kind](id=node_id, **fields)
        self.builder.add(kind, node, span)
        if self.table is not None and len(self.diags) == errors:
            text = self.source.text[start : offsets[self.pos - 1] + 1]
            self.table[text] = (kind, node, offsets[id_tok] - start)

    # -- value readers -----------------------------------------------------
    # A reader starts at `pos` and leaves it after what it read. It returns
    # the value, or None after a diagnostic, with `pos` where reading stopped.
    # Each token of one expected kind is read by `take`.

    def parse_value_str(self) -> str | None:
        tok = self.take(_STRING, "a quoted string")
        return None if tok is None else self.texts[tok]

    def parse_value_ident(self) -> str | None:
        tok = self.take(_IDENT, "an identifier")
        return None if tok is None else self.texts[tok]

    def read_list(self, kind: TokenKind, what: str) -> tuple[str, ...] | None:
        """`a, b, c`: one or more tokens of `kind` separated by commas."""
        tok = self.take(kind, what)
        if tok is None:
            return None
        texts = self.texts
        items = [texts[tok]]
        while self.kinds[self.pos] is _COMMA:
            self.pos += 1
            tok = self.take(kind, what + " after ','")
            if tok is None:
                break
            items.append(texts[tok])
        return tuple(items)

    def parse_value_ident_list(self) -> tuple[str, ...] | None:
        return self.read_list(_IDENT, "an identifier")

    def parse_value_str_list(self) -> tuple[str, ...] | None:
        return self.read_list(_STRING, "a quoted string")

    def number(self, tok: int) -> float | None:
        """The value of NUMBER token `tok`; every reader of a number asks here.

        A literal beyond the float range (`2` followed by 308 zeros, or
        `1e309`) reads as infinity, and one with a nonzero digit below it
        (`1e-400`) as zero: either is P001, and None. The message shows a
        literal whole when that is no longer than showing its ends.
        """
        text = self.texts[tok]
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
        text = self.texts[tok]
        if value != int(value):
            return self.error("P001", f"expected an integer, found {text!r}", tok)
        # Digits alone are read exactly. The range check above leaves at most 309
        # of them once leading zeros go, which keeps `int` under its digit limit.
        return int(text.lstrip("0") or "0") if text.isdigit() else int(value)

    def parse_value_date(self) -> _dt.date | None:
        tok = self.take(_DATE, "a date (YYYY-MM-DD)")
        if tok is None:
            return None
        try:
            return _dt.date.fromisoformat(self.texts[tok])
        except ValueError:
            return self.error("P001", f"invalid date {self.texts[tok]!r}", tok)

    def read_word(self, enum: type, what: str = "", unknown: str = ""):
        """An identifier that is the value of a member of `enum`; returns the member.

        A token that is no identifier is P001 `expected <what>`; any other
        identifier is P001 `<unknown> '<identifier>'`, after it is read.
        Without `what` and `unknown`, both are P001 `expected 'a' or 'b',
        found ...`, listing the enum's words.
        """
        tok = self.pos
        words = _WORDS[enum]
        if self.kinds[tok] is _IDENT:
            self.pos += 1
            word = self.texts[tok]
            if word in words:
                return words[word]
            if unknown:
                return self.error("P001", f"{unknown} {word!r}", tok)
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
            pairs.append((self.texts[name], self.texts[value]))
            if self.kinds[self.pos] is not _COMMA:
                return tuple(pairs)
            self.pos += 1

    def parse_value_scope(self) -> ScopeRef | None:
        tok = self.take(_IDENT, "a universe identifier")
        if tok is None:
            return None
        kinds, texts = self.kinds, self.texts
        selection: tuple[str, ...] | None = None
        if kinds[self.pos] is _DOT:
            self.pos += 1
            after = self.pos
            if kinds[after] is _STAR:
                self.pos += 1
            elif kinds[after] is _LBRACE:
                self.pos += 1
                selection = self.parse_value_ident_list()
                if selection is None or self.take(_RBRACE, "'}' closing the facet list") is None:
                    return None
            else:
                return self.error("P001", "expected '*' or '{facets}' after '.'", after)
        description: str | None = None
        if kinds[self.pos] is _STRING:
            description = texts[self.pos]
            self.pos += 1
        return ScopeRef(universe=texts[tok], selection=selection, description=description)

    def parse_value_schedule(self) -> ReportingSchedule | None:
        collection = self.read_word(Granularity, "a collection period", "unknown period")
        if collection is None or self.take(_SLASH, "'/' between collection and reporting periods") is None:
            return None
        reporting = self.read_word(Granularity, "a reporting period", "unknown period")
        if reporting is None:
            return None
        return ReportingSchedule(collection, reporting)

    def malformed_interval(self, tok: int, what: str) -> None:
        self.error("P005", f"malformed interval: expected {what}, found {self.shown(tok)!r}", tok)

    def parse_signed_number(self, what: str) -> float | None:
        i = self.pos
        negative = self.kinds[i] is _MINUS
        if negative:
            i += 1
        self.pos = i
        if self.kinds[i] is not _NUMBER:
            return self.malformed_interval(i, what)
        self.pos = i + 1
        value = self.number(i)
        if value is None:
            return None
        if negative:
            value = -value
        return 0.0 if value == 0 else value

    def parse_value_interval(self) -> Interval | None:
        kinds = self.kinds
        open_tok = self.pos
        opening = kinds[open_tok]
        if opening is not _LBRACK and opening is not _LPAREN:
            return self.malformed_interval(open_tok, "'[' or '('")
        self.pos += 1
        lo = self.parse_signed_number("a lower endpoint")
        if lo is None:
            return None
        if kinds[self.pos] is not _COMMA:
            return self.malformed_interval(self.pos, "','")
        self.pos += 1
        hi = self.parse_signed_number("an upper endpoint")
        if hi is None:
            return None
        closing = kinds[self.pos]
        if closing is not _RBRACK and closing is not _RPAREN:
            return self.malformed_interval(self.pos, "']' or ')'")
        self.pos += 1
        interval = Interval(lo, hi, opening is _LBRACK, closing is _RBRACK)
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
        kinds = self.kinds
        actions: list[Action] = []
        while kinds[self.pos] is not _RBRACE and kinds[self.pos] is not _EOF:
            action = self.read_word(ActionKind, "an action (log, notify or escalate)", "unknown action")
            if action is None:
                self.skip_to_field_boundary()
                break
            target = self.parse_action_target()
            if target is None:
                break
            actions.append(Action(action, target))
        self.take(_RBRACE, "'}' closing the action list")
        return InterpretationBand(interval=interval, label=self.texts[label], actions=tuple(actions))

    def parse_action_target(self) -> ActionTarget | None:
        tok = self.take(_IDENT, "a stakeholder id or owner_of(node)")
        if tok is None:
            return None
        word = self.texts[tok]
        if word != "owner_of" or self.kinds[self.pos] is not _LPAREN:
            return ActionTarget(ref=word, is_owner=False)
        self.pos += 1
        ref = self.take(_IDENT, "a node id inside owner_of(...)")
        if ref is None or self.take(_RPAREN, "')'") is None:
            return None
        return ActionTarget(ref=self.texts[ref], is_owner=True)

    def parse_value_step(self) -> StrategyStep | None:
        text = self.take(_STRING, "the step text")
        if text is None:
            return None
        spawns: tuple[str, ...] = ()
        if self.kinds[self.pos] is _ARROW:
            self.pos += 1
            spawns = self.parse_value_ident_list()
            if spawns is None:
                return None
        return StrategyStep(text=self.texts[text], spawns=spawns)

    def parse_value_expr(self) -> _expr.Expr | None:
        parsed = self.parse_expr_binary(0, 0, 0)
        return parsed[0] if parsed else None

    # The expression parsers return (expression, depth), or None after a
    # diagnostic. `above` counts the operators that will enclose the result
    # and `parens` the open parentheses, so P008 stops the descent where a
    # limit is crossed, long before Python's recursion limit.

    def too_deep(self, tok: int) -> None:
        self.error("P008", f"metric function nests deeper than {MAX_EXPR_DEPTH} levels", tok)

    def parse_expr_binary(self, min_prec: int, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        parsed = self.parse_expr_unary(above, parens)
        if parsed is None:
            return None
        left, depth = parsed
        kinds = self.kinds
        while True:
            op = self.pos
            prec = _PRECEDENCE.get(kinds[op])
            if prec is None or prec < min_prec:
                return left, depth
            self.pos += 1
            right = self.parse_expr_binary(prec + 1, above + 1, parens)
            if right is None:
                return None
            left, depth = _expr.BinOp(self.texts[op], left, right[0]), 1 + max(depth, right[1])
            if above + depth > MAX_EXPR_DEPTH:
                return self.too_deep(op)

    def parse_expr_unary(self, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        tok = self.pos
        if above > MAX_EXPR_DEPTH:
            return self.too_deep(tok)
        kind = self.kinds[tok]
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
            return _expr.Var(self.texts[tok]), 0
        if kind is _LPAREN:
            if parens == MAX_EXPR_DEPTH:
                return self.too_deep(tok)
            self.pos += 1
            inner = self.parse_expr_binary(0, above, parens + 1)
            if inner is None or self.take(_RPAREN, "')'") is None:
                return None
            return inner
        self.error("P001", f"expected an expression, found {self.shown(tok)!r}", tok)
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
    # Spans are asked in the order of the text: a full parse after a failed reuse starts a new `Source`.
    if builder.reuse and _reuse_blocks(Source(filename, text), builder):
        return
    tokens, lex_diags = tokenize(text, filename)
    diags.extend(lex_diags)
    # A block holding a lexer diagnostic is not recorded: its reuse would drop the diagnostic.
    table = None if lex_diags else builder.table
    _Parser(tokens, Source(filename, text), builder, diags, stack, table).parse_model()


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
        kind, node, offset = entry
        builder.add(kind, node, source.span(key_start + offset, len(node.id)))
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
    tokens.offsets = [offset + start for offset in tokens.offsets]
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
    tokens, diags = tokenize(text, "<expression>")
    parser = _Parser(tokens, Source("<expression>", text), _Builder(), diags, ())
    result = parser.parse_value_expr()
    if diags or result is None:
        message = diags[0].message if diags else "empty expression"
        raise ExpressionSyntaxError(message)
    if parser.kinds[parser.pos] is not _EOF:
        raise ExpressionSyntaxError(f"unexpected trailing input {parser.texts[parser.pos]!r}")
    return result
