"""Tokenizer for .sym files.

One pass of one compiled pattern, one match per token, a field name and its
`:` sharing one. Each match first consumes the plain blanks before it:
spaces, tabs, carriage returns and newlines. Then the first of these classes
that matches wins (the most frequent come first):

1. identifier, with dots that are followed by a letter, digit or underscore,
   and the `:` directly after it, if any (two tokens from one match)
2. `->`
3. one punctuation character
4. string: `"` up to the closing `"` or the end of the line (P002 if open)
5. date `YYYY-MM-DD` of ASCII digits (not followed by a further digit)
6. number `123`, `12.5` or `1e-05`, ASCII digits only
7. a `#` comment up to the end of its line (skipped)
8. any other character (P001, skipped)
9. the end of the input, after the last blanks (becomes the EOF token)

Blanks are skipped without counting lines. A file's tokens are stored as
`Tokens`, with no object per token, and a token's line and column are found
by a `Source` only when a span is asked for. A NUMBER's value is read from
its text by `parse_number` where the parser reads it.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity, SourceSpan


class TokenKind(Enum):
    IDENT = "identifier"
    STRING = "string"
    NUMBER = "number"
    DATE = "date"
    LBRACE = "{"
    RBRACE = "}"
    LBRACK = "["
    RBRACK = "]"
    LPAREN = "("
    RPAREN = ")"
    COLON = ":"
    COMMA = ","
    ARROW = "->"
    DOT = "."
    STAR = "*"
    SLASH = "/"
    PLUS = "+"
    MINUS = "-"
    EQUALS = "="
    EOF = "end of input"


class Source:
    """One file's name and text, which maps character offsets to spans.

    A span counts the newlines from the last offset asked for (a line
    cursor). Three callers ask, each with a `Source` of its own and each in
    the order of the text: `tokenize` for its P001 and P002 diagnostics, the
    parser for its diagnostics (a new one for a full parse after a failed
    block reuse), and `parser.Spans` for every declaration of one file, on
    the first read of a model's spans. So each `Source` reads a file's
    newlines once, in pieces, each character at most twice, and builds no
    table of line starts. A span behind the cursor's line counts the
    newlines back to it instead, so spans come out right in any order;
    `tests/test_lexer.py` checks that the package never asks for one.
    """

    __slots__ = ("name", "text", "_cursor", "_line", "_line_start")

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.text = text
        self._cursor = self._line_start = 0  # the last offset asked for; where its line starts
        self._line = 1

    def span(self, offset: int, length: int) -> SourceSpan:
        text, cursor = self.text, self._cursor
        if offset >= cursor:
            if newlines := text.count("\n", cursor, offset):
                self._line += newlines
                self._line_start = text.rfind("\n", cursor, offset) + 1
        elif offset < self._line_start:
            self._line -= text.count("\n", offset, self._line_start)
            self._line_start = text.rfind("\n", 0, offset) + 1
        self._cursor = offset
        return SourceSpan(self.name, self._line, offset - self._line_start + 1, length)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    offset: int  # characters from the start of the source
    length: int  # characters of source the token covers


class Tokens:
    """One file's tokens as parallel lists, so lexing allocates a few lists per
    file, not one object per token; `len()` is the token count.

    Token `i` has kind `kinds[i]`, text `texts[i]` and character offset
    `offsets[i]`. It covers `len(texts[i])` characters unless `lengths`
    holds its index: a string's length counts its quotes and escapes, and
    EOF covers one character. `kinds` ends in two more EOF kinds, so the
    parser reads two kinds past any token but EOF without a bounds check.
    """

    __slots__ = ("kinds", "texts", "offsets", "lengths")

    def __init__(self) -> None:
        self.kinds, self.texts, self.offsets, self.lengths = [], [], [], {}

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, index: int) -> Token:
        """Token `index` (0 <= index < len) as one tuple, for a diagnostic or a test."""
        text = self.texts[index]
        return Token(self.kinds[index], text, self.offsets[index], self.lengths.get(index, len(text)))


_PUNCT = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}

# Dots inside identifiers must be followed by an alphanumeric, so that
# "org.*" lexes as IDENT(org) DOT STAR while "BO1.1" stays one identifier.
# A string ends at its closing quote or at the end of its line; a backslash
# left alone before that end belongs to the string's span but not its text.
# No token holds a newline, so every newline is in some match's blanks.
# BLANKS, the blanks and comments before a token, is what the parser's block
# reuse skips; it reads the same without re.VERBOSE.
BLANKS = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)(?P<colon>:)?
    | (?P<arrow>->)
    | (?P<punct>[""" + re.escape("".join(_PUNCT)) + r"""])
    | (?P<string>"(?P<body>[^"\\\n]*(?:\\.[^"\\\n]*)*)(?:(?P<closed>")|\\?))
    | (?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2}(?![0-9]))
    | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)
    | (?P<comment>\#[^\n]*)
    | (?P<other>.)
    | (?P<end>)\Z
    )
    """,
    re.VERBOSE,
)

# A match's `lastindex` names the class that matched: the numbers of its
# groups, in the pattern's order.
(_IDENT_GROUP, _COLON_GROUP, _ARROW_GROUP, _PUNCT_GROUP, _STRING_GROUP, _DATE_GROUP, _NUMBER_GROUP,
 _COMMENT_GROUP, _OTHER_GROUP) = map(
    _TOKEN_RE.groupindex.get, ("ident", "colon", "arrow", "punct", "string", "date", "number", "comment", "other")
)
_KIND_OF_GROUP = {_NUMBER_GROUP: TokenKind.NUMBER, _DATE_GROUP: TokenKind.DATE, _ARROW_GROUP: TokenKind.ARROW}

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}

def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])  # an unknown escape keeps the character


def parse_number(text: str) -> float:
    value = float(text)
    return 0.0 if value == 0.0 else value  # normalize -0.0


def tokenize(text: str, filename: str = "<string>") -> tuple[Tokens, list[Diagnostic]]:
    """Total: any input yields its tokens (ending in EOF) plus diagnostics.

    The diagnostics' spans come from the lexer's own `Source`, asked in the
    order of the text.
    """
    source = Source(filename, text)
    tokens = Tokens()
    kinds, offsets, lengths = tokens.kinds, tokens.offsets, tokens.lengths
    add_kind, add_text, add_offset = kinds.append, tokens.texts.append, offsets.append
    diags: list[Diagnostic] = []
    # Identifiers repeat (field names, ids and references to them), so the
    # tokens of one file share one string per name. The table is local:
    # sys.intern would grow the interpreter's own table, whose resizes were
    # seen to raise a long-running process's peak RSS by 1 MB.
    names: dict[str, str] = {}
    # A member read through its Enum class costs several times a local read.
    ident, colon, string = TokenKind.IDENT, TokenKind.COLON, TokenKind.STRING
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group <= _COLON_GROUP:
            name = m[_IDENT_GROUP]
            start = m.start(_IDENT_GROUP)
            add_kind(ident)
            add_text(names.setdefault(name, name))
            add_offset(start)
            if group == _COLON_GROUP:
                add_kind(colon)
                add_text(":")
                add_offset(start + len(name))
            continue
        start = m.start(group)
        if group == _PUNCT_GROUP:
            lexeme = text[start]
            add_kind(_PUNCT[lexeme])
            add_text(lexeme)
        elif group == _STRING_GROUP:
            body = m["body"]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            length = lengths[len(offsets)] = m.end(group) - start
            if m["closed"] is None:
                span = source.span(start, length)
                diags.append(Diagnostic("P002", Severity.ERROR, "unterminated string literal", span))
            add_kind(string)
            add_text(body)
        elif group in _KIND_OF_GROUP:
            add_kind(_KIND_OF_GROUP[group])
            add_text(m[group])
        elif group == _COMMENT_GROUP:
            continue
        elif group == _OTHER_GROUP:
            message = f"unexpected character {text[start]!r}"
            diags.append(Diagnostic("P001", Severity.ERROR, message, source.span(start, 1)))
            continue
        else:
            lengths[len(offsets)] = 1
            kinds += [TokenKind.EOF] * 3  # EOF, then the parser's two kinds of lookahead
            add_text("")
            add_offset(start)
            break
        add_offset(start)
    return tokens, diags
