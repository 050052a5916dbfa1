"""Tokenizer for .sym files.

One pass of one compiled pattern. At each position the first of these token
classes that matches wins:

1. newline (counted for source locations)
2. spaces, tabs, carriage returns and `#` comments (skipped)
3. string: `"` up to the closing `"` or the end of the line (P002 if open)
4. date `YYYY-MM-DD` (not followed by a further digit)
5. number `123` or `12.5`
6. identifier, with dots that are followed by a letter, digit or underscore
7. `->`
8. one punctuation character
9. any other character (P001, skipped)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    span: SourceSpan
    value: float | None = None  # NUMBER only


_PUNCT = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}

# Dots inside identifiers must be followed by an alphanumeric, so that
# "org.*" lexes as IDENT(org) DOT STAR while "BO1.1" stays one identifier.
# A string ends at its closing quote or at the end of its line; a backslash
# left alone before that end belongs to the string's span but not its text.
_TOKEN_RE = re.compile(
    r"""
    (?P<newline>\n)
    | (?P<skip>(?:[ \t\r]|\#[^\n]*)+)
    | (?P<string>"(?P<body>(?:[^"\\\n]|\\.)*)(?:(?P<closed>")|\\?))
    | (?P<date>\d{4}-\d{2}-\d{2}(?![0-9]))
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)
    | (?P<arrow>->)
    | (?P<punct>[""" + re.escape("".join(_PUNCT)) + r"""])
    | (?P<other>.)
    """,
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])  # an unknown escape keeps the character


def parse_number(text: str) -> float:
    value = float(text)
    return 0.0 if value == 0.0 else value  # normalize -0.0


def tokenize(text: str, filename: str = "<string>") -> tuple[list[Token], list[Diagnostic]]:
    """Total: any input yields a token list (ending in EOF) plus diagnostics."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "newline":
            line += 1
            line_start = m.end()
            continue
        if group == "skip":
            continue
        start, lexeme = m.start(), m.group()
        span = SourceSpan(filename, line, start - line_start + 1, len(lexeme))
        if group == "string":
            if m["closed"] is None:
                diags.append(Diagnostic("P002", Severity.ERROR, "unterminated string literal", span))
            tokens.append(Token(TokenKind.STRING, _ESCAPE_RE.sub(_unescape, m["body"]), span))
        elif group == "date":
            tokens.append(Token(TokenKind.DATE, lexeme, span))
        elif group == "number":
            tokens.append(Token(TokenKind.NUMBER, lexeme, span, value=parse_number(lexeme)))
        elif group == "ident":
            tokens.append(Token(TokenKind.IDENT, lexeme, span))
        elif group == "arrow":
            tokens.append(Token(TokenKind.ARROW, lexeme, span))
        elif group == "punct":
            tokens.append(Token(_PUNCT[lexeme], lexeme, span))
        else:
            diags.append(
                Diagnostic("P001", Severity.ERROR, f"unexpected character {lexeme!r}", span)
            )
    tokens.append(Token(TokenKind.EOF, "", SourceSpan(filename, line, len(text) - line_start + 1, 1)))
    return tokens, diags
