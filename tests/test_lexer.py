"""Tokenizer behavior, especially the dotted-identifier / punctuation split."""

import random
from contextlib import contextmanager
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS_ROOT
from modelgen import program_model
from oracles import char_tokens, token_list, tokenize_by_characters
from symbiosis_kit.diagnostics import SourceSpan
from symbiosis_kit.lexer import Source, TokenKind, tokenize
from symbiosis_kit.parser import parse, parse_file
from symbiosis_kit.serializer import serialize


def kinds(text: str) -> list[TokenKind]:
    tokens, diags = tokenize(text)
    assert not diags
    return [t.kind for t in token_list(tokens)[:-1]]  # strip EOF


def texts(text: str) -> list[str]:
    tokens, diags = tokenize(text)
    assert not diags
    return [t.text for t in token_list(tokens)[:-1]]


def test_dotted_identifier_stays_single():
    assert texts("BO1.1.1") == ["BO1.1.1"]
    assert kinds("BO1.1.1") == [TokenKind.IDENT]


def test_universe_star_splits_into_three_tokens():
    assert kinds("org.*") == [TokenKind.IDENT, TokenKind.DOT, TokenKind.STAR]


def test_facet_selection_tokens():
    assert kinds("org.{a, b}") == [
        TokenKind.IDENT,
        TokenKind.DOT,
        TokenKind.LBRACE,
        TokenKind.IDENT,
        TokenKind.COMMA,
        TokenKind.IDENT,
        TokenKind.RBRACE,
    ]


def test_date_beats_number():
    tokens, _ = tokenize("2014-09-03")
    assert tokens[0].kind is TokenKind.DATE
    assert tokens[0].text == "2014-09-03"


def test_number_minus_number_is_not_a_date():
    # A fifth trailing digit blocks the date regex entirely.
    assert kinds("2014-09-035") == [
        TokenKind.NUMBER,
        TokenKind.MINUS,
        TokenKind.NUMBER,
        TokenKind.MINUS,
        TokenKind.NUMBER,
    ]


def test_arrow_and_interval_punctuation():
    assert kinds("[0, 60] -> ok") == [
        TokenKind.LBRACK,
        TokenKind.NUMBER,
        TokenKind.COMMA,
        TokenKind.NUMBER,
        TokenKind.RBRACK,
        TokenKind.ARROW,
        TokenKind.IDENT,
    ]


def test_string_escapes():
    tokens, diags = tokenize(r'"a\"b\\c\nd\te"')
    assert not diags
    assert tokens[0].text == 'a"b\\c\nd\te'


def test_unknown_escape_keeps_character():
    tokens, diags = tokenize(r'"a\qb"')
    assert not diags
    assert tokens[0].text == "aqb"


def test_unterminated_string_is_p002():
    tokens, diags = tokenize('"no closing quote')
    assert [d.code for d in diags] == ["P002"]
    assert tokens[0].kind is TokenKind.STRING  # token still produced


def test_comment_runs_to_end_of_line():
    assert texts("a # rest { ignored\nb") == ["a", "b"]


def test_hash_inside_string_is_not_a_comment():
    tokens, diags = tokenize('"a # b"')
    assert not diags
    assert tokens[0].text == "a # b"


def test_unexpected_character_is_p001_and_skipped():
    tokens, diags = tokenize("a @ b")
    assert [d.code for d in diags] == ["P001"]
    assert [t.text for t in token_list(tokens)[:-1]] == ["a", "b"]


def test_crlf_treated_as_whitespace():
    tokens, diags = tokenize("a\r\nb")
    assert not diags
    assert [t.text for t in token_list(tokens)[:-1]] == ["a", "b"]
    assert char_tokens(tokens, "a\r\nb", "<string>")[1].span.line == 2


def test_spans_are_one_based():
    tokens = char_tokens(tokenize("ab cd")[0], "ab cd", "<string>")
    assert (tokens[0].span.line, tokens[0].span.col) == (1, 1)
    assert (tokens[1].span.line, tokens[1].span.col) == (1, 4)


def test_number_value_parsed():
    tokens = char_tokens(tokenize("12.5")[0], "12.5", "<string>")
    assert tokens[0].value == 12.5


def test_number_takes_an_exponent():
    text = "1e-05 2E+16 5e-324 1.5e3 1e 3e+"
    tokens, diags = tokenize(text)
    assert not diags
    assert [(t.kind.name, t.text, t.value) for t in char_tokens(tokens, text, "<string>")[:-1]] == [
        ("NUMBER", "1e-05", 1e-05),
        ("NUMBER", "2E+16", 2e16),
        ("NUMBER", "5e-324", 5e-324),
        ("NUMBER", "1.5e3", 1500.0),
        ("NUMBER", "1", 1.0),  # an exponent needs digits
        ("IDENT", "e", None),
        ("NUMBER", "3", 3.0),
        ("IDENT", "e", None),
        ("PLUS", "+", None),
    ]


def test_string_ends_at_its_line_even_after_a_backslash():
    text = 'stakeholder S {\n  name: "a\\\nb"\n  role: "x"\n}\n@\n'
    tokens, diags = tokenize(text, "bs.sym")
    assert [(d.code, d.span.line, d.span.col) for d in diags] == [
        ("P002", 2, 9),
        ("P002", 3, 2),
        ("P001", 6, 1),
    ]
    assert tokens[5].text == "a"  # the lone backslash is dropped
    role = next(t for t in char_tokens(tokens, text, "bs.sym") if t.text == "role")
    assert (role.span.line, role.span.col) == (4, 3)


def _fields(tokens):
    return [(t.kind, t.text, t.value, t.span) for t in tokens]


def _assert_same_as_character_loop(text: str, filename: str) -> None:
    tokens, diags = tokenize(text, filename)
    expected_tokens, expected_diags = tokenize_by_characters(text, filename)
    assert _fields(char_tokens(tokens, text, filename)) == _fields(expected_tokens)
    assert diags == expected_diags


# A lexically dense alphabet: every token class, both quote and escape
# characters, digits, comment starts, CR/LF, non-ASCII letters and digits
# (Arabic-Indic three), characters no token accepts, and fragments that sit
# on the boundaries between classes (a date with one digit too many or too
# few, dotted identifiers, numbers with dangling dots or exponents).
_DENSE = (
    st.lists(
        st.sampled_from(
            list('"\\0123456789.->#\r\n \tabeEZ_{}[]():,*/+=@é\u0663\x0b')
            + ["2014-09-03", "2014-09-0", "12.5", "1.", "1e-05", "2E+", "BO1.1", "org.*", "->", '\\"', "# c"]
        ),
        max_size=30,
    )
    .map("".join)
    .filter(lambda text: "\\\n" not in text)
)


@settings(max_examples=3000, deadline=None)
@given(_DENSE)
def test_tokenize_matches_the_character_loop(text):
    _assert_same_as_character_loop(text, "f.sym")


# -- ASCII digits only -------------------------------------------------------


def test_non_ascii_digits_are_p001_not_numbers():
    tokens, diags = tokenize("\u0663 1\u0663")  # Arabic-Indic three
    assert [(t.kind, t.text) for t in token_list(tokens)[:-1]] == [(TokenKind.NUMBER, "1")]
    assert [(d.code, d.message, d.span.col) for d in diags] == [
        ("P001", "unexpected character '\u0663'", 1),
        ("P001", "unexpected character '\u0663'", 4),
    ]


def test_non_ascii_date_is_not_a_date():
    tokens, diags = tokenize("\u0662\u0660\u0661\u0664-\u0660\u0669-\u0660\u0663")
    assert [t.kind for t in token_list(tokens)[:-1]] == [TokenKind.MINUS, TokenKind.MINUS]
    assert [d.code for d in diags] == ["P001"] * 8


# -- the character loop on real-sized inputs ----------------------------------


@pytest.mark.parametrize("path", sorted(CORPUS_ROOT.glob("*.sym")), ids=lambda p: p.name)
def test_tokenize_matches_the_character_loop_on_the_corpus(path):
    _assert_same_as_character_loop(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_tokenize_matches_the_character_loop_on_a_511_objective_program(eol):
    text = serialize(program_model(random.Random(1))).replace("\n", eol)
    assert len(text) > 250_000
    _assert_same_as_character_loop(text, "program.sym")


# -- spans built on demand ------------------------------------------------------
# Expected spans are the ones the lexer produced when it built a SourceSpan for
# every token. P002, P004 and P008 report a token's span; P001 is the lexer's.

_SUM = " + ".join(["a"] * (2 + 200))  # the 201st '+' crosses the depth limit
_LINES = ['metric M {', '  method: "m"', '  method: "n"', '  description: "open', "  @", "  function: " + _SUM, "}"]


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_diagnostics_report_the_spans_of_their_tokens(eol):
    _, diags = parse(eol.join(_LINES) + eol, "s.sym")
    assert [(d.code, d.span) for d in diags] == [
        ("P002", SourceSpan("s.sym", 4, 16, len('"open' + eol) - 1)),  # a CR belongs to the string
        ("P001", SourceSpan("s.sym", 5, 3, 1)),
        ("P004", SourceSpan("s.sym", 3, 3, 6)),
        ("P008", SourceSpan("s.sym", 6, 815, 1)),
    ]


def test_diagnostics_on_one_crlf_line():
    text = f'metric M {{ method: "m" method: "n" @ function: {_SUM} description: "open\r\n'
    _, diags = parse(text, "s.sym")
    assert [(d.code, d.span) for d in diags] == [
        ("P001", SourceSpan("s.sym", 1, 36, 1)),
        ("P002", SourceSpan("s.sym", 1, 867, 6)),
        ("P004", SourceSpan("s.sym", 1, 24, 6)),
        ("P008", SourceSpan("s.sym", 1, 850, 1)),
        ("P001", SourceSpan("s.sym", 2, 1, 1)),  # expected '}' at the EOF token
    ]


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_spans_asked_in_any_order_match_the_character_loop(order):
    text = serialize(program_model(random.Random(2), objectives=15)).replace("\n", "\r\n")
    tokens = tokenize(text, "p.sym")[0]
    expected = [t.span for t in tokenize_by_characters(text, "p.sym")[0]]
    indices = list(range(len(tokens)))[::-1]
    if order == "shuffled":
        random.Random(3).shuffle(indices)
    source = Source("p.sym", text)
    assert {i: source.span(tokens[i].offset, tokens[i].length) for i in indices} == dict(enumerate(expected))


@settings(max_examples=500, deadline=None)
@given(_DENSE, st.lists(st.tuples(st.integers(0, 40), st.integers(0, 8)), max_size=12))
def test_spans_asked_in_forward_runs_with_jumps_back_match_the_character_loop(text, runs):
    """Each (start, count) asks for the spans of `count` tokens from `start` on, in order."""
    tokens = tokenize(text, "r.sym")[0]
    expected = [t.span for t in tokenize_by_characters(text, "r.sym")[0]]
    source = Source("r.sym", text)
    for start, count in runs:
        first = start % len(tokens)
        for i in range(first, min(first + count, len(tokens))):
            assert source.span(tokens[i].offset, tokens[i].length) == expected[i]


# -- spans asked in the order of the text ------------------------------------------
# A `Source` steps back correctly (the two tests above), but the package never
# asks it to: the lexer and the parser each ask their own `Source` for spans in
# the order of the text, and so does a model's `spans` on its first read, so no
# text is walked twice by one of them. Each test reads the spans, which a load
# no longer makes.


@contextmanager
def _spans_asked_backward():
    """Record each span asked of a `Source` behind the offset asked of it before."""
    backward: list[tuple[str, int, int]] = []
    last: dict[int, tuple[Source, int]] = {}  # holds each `Source`, so that its id is not reused
    span = Source.span

    def recorded(source: Source, offset: int, length: int):
        previous = last.get(id(source))
        if previous is not None and offset < previous[1]:
            backward.append((source.name, previous[1], offset))
        last[id(source)] = source, offset
        return span(source, offset, length)

    with mock.patch.object(Source, "span", recorded):
        yield backward


@pytest.mark.parametrize("path", sorted(CORPUS_ROOT.glob("*.sym")), ids=lambda p: p.name)
def test_the_corpus_asks_for_spans_in_text_order(path):
    with _spans_asked_backward() as backward:
        dict(parse_file(path)[0].spans)
    assert backward == []


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_lexer_and_parser_diagnostics_ask_for_spans_in_text_order(eol):
    with _spans_asked_backward() as backward:
        model, diags = parse(eol.join(_LINES) + eol, "s.sym")
        dict(model.spans)
    assert len(diags) == 4 and backward == []


@settings(max_examples=500, deadline=None)
@given(_DENSE)
def test_dense_text_asks_for_spans_in_text_order(text):
    with _spans_asked_backward() as backward:
        dict(parse(text, "d.sym")[0].spans)
    assert backward == []


def test_a_full_parse_after_a_failed_block_reuse_asks_for_spans_in_text_order(tmp_path):
    (tmp_path / "inc.sym").write_text('stakeholder inc {\n  name: "i"\n}\n', encoding="utf-8")
    old = serialize(program_model(random.Random(4), objectives=15))
    middle = old.index("\n}\n", len(old) // 2) + 3
    # Reuse takes the recorded blocks up to the middle, then gives up at the run holding the include.
    new = old[:middle] + 'include "inc.sym"\n' + old[middle:]
    table: dict = {}
    parse(old, str(tmp_path / "old.sym"), table)
    with _spans_asked_backward() as backward:
        model, diags = parse(new, str(tmp_path / "new.sym"), table)
        dict(model.spans)
    assert "inc" in model.stakeholders and backward == []


@pytest.mark.parametrize(
    "text, line, col",
    [("", 1, 1), ("a", 1, 2), ("a\r", 1, 3), ("a\r\n", 2, 1), ("a # c", 1, 6), ("\r\n\r\n  ", 3, 3), ("x\n# c\r\n", 3, 1)],
)
def test_eof_token_span(text, line, col):
    eof = char_tokens(tokenize(text, "e.sym")[0], text, "e.sym")[-1]
    assert eof.kind is TokenKind.EOF
    assert eof.span == SourceSpan("e.sym", line, col, 1)


# -- the token lists, each token built into a Token, against the character loop --
# The loop's tokens hold spans. Their offsets are found here from the text's
# own line starts, so this check reads no `Source`.


def _assert_tokens_are_the_character_loops(text: str) -> None:
    tokens, _ = tokenize(text, "t.sym")
    expected, _ = tokenize_by_characters(text, "t.sym")
    starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
    assert len(tokens) == len(expected)
    assert [(t.kind, t.text, t.offset, t.length) for t in token_list(tokens)] == [
        (e.kind, e.text, starts[e.span.line - 1] + e.span.col - 1, e.span.length) for e in expected
    ]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "  # only a comment",
        r'"a\"b\\c\nd" "\q" "open',  # escapes, an unknown escape, an unclosed string at EOF
        '"open\r\nb "two\n',  # unclosed strings ending at a CR LF and at an LF
        "a @ \u0663 b\x0b\u00e9 -> 2014-09-03 1e-05 org.* BO1.1",  # P001 characters among tokens
        # An identifier and a `:` directly after it are one match; a `:` after a blank,
        # a comment or a string is a match of its own.
        "x.y: 1",
        "a :",
        "a#c\n:",
        '"s":',
        "# only",
        "a# c\n# d\nb:",
    ],
    ids=["empty", "comment", "escapes", "unclosed", "p001", "dotted-colon", "blank-colon", "comment-colon",
         "string-colon", "only-comment", "comments-between"],
)
def test_token_lists_match_the_character_loop(text):
    _assert_tokens_are_the_character_loops(text)


@settings(max_examples=1000, deadline=None)
@given(_DENSE)
def test_token_lists_match_the_character_loop_on_dense_text(text):
    _assert_tokens_are_the_character_loops(text)


@pytest.mark.parametrize("path", sorted(CORPUS_ROOT.glob("*.sym")), ids=lambda p: p.name)
def test_token_lists_match_the_character_loop_on_the_corpus(path):
    _assert_tokens_are_the_character_loops(path.read_text(encoding="utf-8"))


def test_token_lists_match_the_character_loop_on_a_511_objective_program():
    _assert_tokens_are_the_character_loops(serialize(program_model(random.Random(1))).replace("\n", "\r\n"))
