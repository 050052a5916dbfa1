"""Tokenizer for .sym files.

One pass of one compiled pattern, one match per token. Each match first
consumes the blanks before its token: spaces, tabs, carriage returns,
newlines and `#` comments. Then the first of these token classes that
matches wins (the most frequent come first):

1. identifier, with dots that are followed by a letter, digit or underscore
2. `->`
3. one punctuation character
4. string: `"` up to the closing `"` or the end of the line (P002 if open)
5. date `YYYY-MM-DD` of ASCII digits (not followed by a further digit)
6. number `123`, `12.5` or `1e-05`, ASCII digits only
7. any other character (P001, skipped)
8. the end of the input, after the last blanks (becomes the EOF token)

Blanks are skipped without counting lines. A token is its kind, its text,
its character offset and its length; the parser, which holds the file's
`Source`, builds a token's span (line and column) only when a diagnostic
or a declaration asks for it. The `Source` then bisects a table of
line-start offsets, built in one scan of the whole text on the first span
asked for. Every declaration asks for its id's span, so a file that
declares anything is scanned to its last block anyway; a file whose spans
are never asked for is never scanned. The parser hands `tokenize` that same
`Source` for its P001/P002 spans, so no text is scanned twice. A NUMBER's
value is read from its text by `parse_number` where the parser reads the
number.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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


_NEWLINE_RE = re.compile("\n")


class Source:
    """One file's name and text, which maps character offsets to spans.

    The line of an offset is found by bisecting the offsets at which lines
    start. That table is built by one scan of the text for newlines, when
    the first span is asked for.
    """

    __slots__ = ("name", "text", "_line_starts")

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.text = text
        self._line_starts: list[int] | None = None

    def span(self, offset: int, length: int) -> SourceSpan:
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [0, *(m.end() for m in _NEWLINE_RE.finditer(self.text))]
        line = bisect_right(starts, offset)
        return SourceSpan(self.name, line, offset - starts[line - 1] + 1, length)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    offset: int  # characters from the start of the source
    length: int  # characters of source the token covers


_PUNCT = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}
_KIND_OF_GROUP = {"number": TokenKind.NUMBER, "date": TokenKind.DATE, "arrow": TokenKind.ARROW}

# Dots inside identifiers must be followed by an alphanumeric, so that
# "org.*" lexes as IDENT(org) DOT STAR while "BO1.1" stays one identifier.
# A string ends at its closing quote or at the end of its line; a backslash
# left alone before that end belongs to the string's span but not its text.
# No token holds a newline, so every newline is in some match's blanks.
# BLANKS, the blanks and comments before a token, reads the same without re.VERBOSE.
BLANKS = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_TOKEN_RE = re.compile(
    BLANKS
    + r"""
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)
    | (?P<arrow>->)
    | (?P<punct>[""" + re.escape("".join(_PUNCT)) + r"""])
    | (?P<string>"(?P<body>[^"\\\n]*(?:\\.[^"\\\n]*)*)(?:(?P<closed>")|\\?))
    | (?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2}(?![0-9]))
    | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)
    | (?P<other>.)
    | (?P<end>)\Z
    )
    """,
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}

# Builds a Token from a tuple of all its fields. It skips the argument
# handling of the constructor NamedTuple generates, which costs as much again.
_new = tuple.__new__


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])  # an unknown escape keeps the character


def parse_number(text: str) -> float:
    value = float(text)
    return 0.0 if value == 0.0 else value  # normalize -0.0


def tokenize(
    text: str, filename: str = "<string>", source: Source | None = None
) -> tuple[list[Token], list[Diagnostic]]:
    """Total: any input yields a token list (ending in EOF) plus diagnostics.

    `source`, when given, is the caller's `Source(filename, text)`; the
    diagnostics' spans then come from its line table.
    """
    if source is None:
        source = Source(filename, text)
    tokens: list[Token] = []
    append = tokens.append
    diags: list[Diagnostic] = []
    # Identifiers repeat (field names, ids and references to them), so the
    # tokens of one file share one string per name. The table is local:
    # sys.intern would grow the interpreter's own table, whose resizes were
    # seen to raise a long-running process's peak RSS by 1 MB.
    names: dict[str, str] = {}
    # A member read through its Enum class costs several times a local read.
    ident, string = TokenKind.IDENT, TokenKind.STRING
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        start, end = m.span(group)
        if group == "ident":
            name = text[start:end]
            append(_new(Token, (ident, names.setdefault(name, name), start, end - start)))
        elif group == "punct":
            lexeme = text[start]
            append(_new(Token, (_PUNCT[lexeme], lexeme, start, 1)))
        elif group == "string":
            body = m["body"]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            if m["closed"] is None:
                span = source.span(start, end - start)
                diags.append(Diagnostic("P002", Severity.ERROR, "unterminated string literal", span))
            append(_new(Token, (string, body, start, end - start)))
        elif group in _KIND_OF_GROUP:
            append(_new(Token, (_KIND_OF_GROUP[group], text[start:end], start, end - start)))
        elif group == "other":
            message = f"unexpected character {text[start]!r}"
            diags.append(Diagnostic("P001", Severity.ERROR, message, source.span(start, 1)))
        else:
            append(_new(Token, (TokenKind.EOF, "", start, 1)))
            break
    return tokens, diags
