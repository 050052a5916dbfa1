"""Tokenizer for .sym files.

One pass of one compiled pattern, one match per token. Each match first
consumes the blanks before its token: spaces, tabs, carriage returns,
newlines (counted for source locations) and `#` comments. Then the first
of these token classes that matches wins:

1. string: `"` up to the closing `"` or the end of the line (P002 if open)
2. date `YYYY-MM-DD` of ASCII digits (not followed by a further digit)
3. number `123` or `12.5`, ASCII digits only
4. identifier, with dots that are followed by a letter, digit or underscore
5. `->`
6. one punctuation character
7. any other character (P001, skipped)
8. the end of the input, after the last blanks (becomes the EOF token)

A token carries its location as plain fields; its `span` is built only
when something asks for it, which is a diagnostic or a declaration.
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


class Token(NamedTuple):
    kind: TokenKind
    text: str
    file: str
    line: int  # 1-based
    col: int  # 1-based
    length: int  # characters of source the token covers
    value: float | None = None  # NUMBER only

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, self.length)


_PUNCT = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}
_KIND_OF_GROUP = {"date": TokenKind.DATE, "ident": TokenKind.IDENT, "arrow": TokenKind.ARROW}

# Dots inside identifiers must be followed by an alphanumeric, so that
# "org.*" lexes as IDENT(org) DOT STAR while "BO1.1" stays one identifier.
# A string ends at its closing quote or at the end of its line; a backslash
# left alone before that end belongs to the string's span but not its text.
# No token holds a newline, so every newline is in some match's blanks.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:
      (?P<string>"(?P<body>[^"\\\n]*(?:\\.[^"\\\n]*)*)(?:(?P<closed>")|\\?))
    | (?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2}(?![0-9]))
    | (?P<number>[0-9]+(?:\.[0-9]+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)
    | (?P<arrow>->)
    | (?P<punct>[""" + re.escape("".join(_PUNCT)) + r"""])
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


def tokenize(text: str, filename: str = "<string>") -> tuple[list[Token], list[Diagnostic]]:
    """Total: any input yields a token list (ending in EOF) plus diagnostics."""
    tokens: list[Token] = []
    append = tokens.append
    diags: list[Diagnostic] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        start, end = m.span(group)
        blanks = m.start()
        newlines = text.count("\n", blanks, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", blanks, start) + 1
        col = start - line_start + 1
        if group in _KIND_OF_GROUP:
            append(_new(Token, (_KIND_OF_GROUP[group], text[start:end], filename, line, col, end - start, None)))
        elif group == "punct":
            lexeme = text[start]
            append(_new(Token, (_PUNCT[lexeme], lexeme, filename, line, col, 1, None)))
        elif group == "string":
            body = m["body"]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            token = _new(Token, (TokenKind.STRING, body, filename, line, col, end - start, None))
            if m["closed"] is None:
                diags.append(Diagnostic("P002", Severity.ERROR, "unterminated string literal", token.span))
            append(token)
        elif group == "number":
            lexeme = text[start:end]
            append(_new(Token, (TokenKind.NUMBER, lexeme, filename, line, col, end - start, parse_number(lexeme))))
        elif group == "other":
            span = SourceSpan(filename, line, col, 1)
            diags.append(Diagnostic("P001", Severity.ERROR, f"unexpected character {text[start]!r}", span))
        else:
            append(Token(TokenKind.EOF, "", filename, line, col, 1))
            break
    return tokens, diags
