"""Parser totality, recovery, and the P-series diagnostics."""

import datetime as dt
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS_ROOT
from modelgen import program_model
import oracles
from oracles import diff_by_canonical, parse_token_by_token, token_list
from symbiosis_kit.diagnostics import SourceSpan
from symbiosis_kit.expr import BinOp, Neg, Num, Var
from symbiosis_kit.model import (
    Action,
    ActionKind,
    ActionTarget,
    Aggregation,
    BusinessObjective,
    Granularity,
    InterpretationBand,
    FIELDS,
    Interval,
    NODE_KINDS,
    NODE_TYPES,
    QuestionStatus,
    ReportingSchedule,
    ScopeRef,
    SourceMode,
    StrategyStep,
)
from symbiosis_kit.impact import diff
from symbiosis_kit.lexer import Source, TokenKind, tokenize
from symbiosis_kit.parser import (
    MAX_EXPR_DEPTH,
    MAX_INCLUDE_DEPTH,
    ExpressionSyntaxError,
    _Builder,
    _Parser,
    parse,
    parse_expression,
    parse_file,
)
from symbiosis_kit.serializer import serialize
from symbiosis_kit.validator import validate


def codes(diags):
    return [d.code for d in diags]


def test_lookahead_at_and_past_the_end_reads_eof():
    parser = _Parser(tokenize("a")[0], Source("<string>", "a"), _Builder(), [], ())
    assert parser.kinds == [TokenKind.IDENT] + [TokenKind.EOF] * 3
    parser.parse_model()
    assert parser.pos == 1  # the position stays on EOF
    assert parser.kinds[parser.pos :] == [TokenKind.EOF] * 3


def test_full_block_parse():
    model, diags = parse(
        """
        metric ME1 {
            description: "mean time"
            answers: Q1
            function: hours / incidents
            domain: [0, 100]
            band: [0, 50] -> ok { log dba }
            band: (50, 100] -> bad { escalate owner_of(BO1) }
            stakeholders: ciso, dba
            schedule: monthly / quarterly
        }
        """
    )
    assert not diags
    m = model.metrics["ME1"]
    assert m.description == "mean time"
    assert m.answers == ("Q1",)
    assert m.stakeholders == ("ciso", "dba")
    assert len(m.bands) == 2
    assert m.bands[1].interval.lo_closed is False
    action = m.bands[1].actions[0]
    assert action.target.is_owner and action.target.ref == "BO1"


def test_unknown_block_kind_is_p003_and_skipped():
    model, diags = parse('widget W1 { object: "x" }\nobjective BO1 { }')
    assert codes(diags) == ["P003"]
    assert "widget" in diags[0].message
    assert "BO1" in model.objectives


def test_unknown_field_is_p001_and_skipped():
    model, diags = parse('objective BO1 { nonsense: "a" purpose: "p" }')
    assert codes(diags) == ["P001"]
    assert model.objectives["BO1"].purpose == "p"


def test_a_bad_spawn_list_after_the_arrow_is_p001_and_drops_the_step():
    model, diags = parse('strategy S { for: BO1 step: "t" -> 7 justification: "j" }')
    assert [(d.code, d.message) for d in diags] == [("P001", "expected an identifier, found '7'")]
    assert model.strategies["S"].steps == ()


def test_duplicate_field_is_p004_first_wins():
    model, diags = parse('objective BO1 { object: "a" object: "b" }')
    assert codes(diags) == ["P004"]
    assert model.objectives["BO1"].object == "a"


# A node starts as its kind's default row, so a field's first value can equal
# its default. P004 goes by the names read, never by a slot that differs
# from the default row.


def test_a_field_repeated_with_its_default_value_is_p004():
    for second in ("open", "answered"):
        text = f"question Q {{ status: open status: {second} }}"
        model, diags = parse(text)
        assert [(d.code, d.message, d.span.col) for d in diags] == [
            ("P004", "duplicate field 'status' in question block", 27)
        ]
        assert model.questions["Q"].status is QuestionStatus.OPEN
        _assert_same_as_token_by_token(text)


def test_a_repeated_refines_is_p004_first_wins():
    text = "objective BO2 { refines: BO1 refines: BO3 }"
    model, diags = parse(text)
    assert [(d.code, d.span.col) for d in diags] == [("P004", 30)]
    assert model.objectives["BO2"].refines == "BO1"
    _assert_same_as_token_by_token(text)


def test_an_unknown_field_twice_is_p004_before_p001():
    text = "objective BO1 { rank: 1 rank: 2 purpose: \"p\" }"
    model, diags = parse(text)
    assert [(d.code, d.message, d.span.col) for d in diags] == [
        ("P001", "unknown field 'rank' in objective block", 17),
        ("P004", "duplicate field 'rank' in objective block", 25),
        ("P001", "unknown field 'rank' in objective block", 25),
    ]
    assert model.objectives["BO1"] == BusinessObjective("BO1", purpose="p")
    _assert_same_as_token_by_token(text)


def test_empty_interval_is_p005():
    _, diags = parse("metric M { band: (5, 5) -> x { log t } }")
    assert codes(diags) == ["P005"]


def test_backwards_interval_is_p005():
    _, diags = parse("metric M { band: [9, 2] -> x { log t } }")
    assert codes(diags) == ["P005"]


# A literal of 400 nines is beyond the float range.
_HUGE = "9" * 400

# The four fields that read a number, each with a huge literal.
TOO_LARGE = {
    "priority": f"objective B {{ priority: {_HUGE} }}",
    "band": f"metric M {{ band: [{_HUGE}, 5] -> x {{ log s }} method: \"m\" }}",
    "domain": f"metric M {{ domain: [0, {_HUGE}] method: \"m\" }}",
    "function": f"metric M {{ function: a + -{_HUGE} * 2 method: \"m\" }}",
}


def test_a_short_literal_beyond_the_float_range_is_shown_once():
    src = "metric M { function: 1e400 }"
    _, diags = parse(src)
    assert [(d.code, d.message) for d in diags] == [("P001", "number too large: 1e400")]
    _assert_same_as_token_by_token(src)


# A nonzero literal below the smallest double would read as 0.
_TINY = "0." + "0" * 400 + "1"
TOO_SMALL = {
    "priority": "objective B { priority: 1e-400 }",
    "band": "metric M { band: [1e-400, 5] -> x { log s } method: \"m\" }",
    "domain": "metric M { domain: [0, 1e-400] method: \"m\" }",
    "function": "metric M { function: a + -1E-999 * 2 method: \"m\" }",
}


@pytest.mark.parametrize("field", sorted(TOO_SMALL))
def test_a_nonzero_number_below_the_float_range_is_one_p001_and_drops_the_field(field):
    model, diags = parse(TOO_SMALL[field])
    assert [d.code for d in diags] == ["P001"]
    assert diags[0].message in ("number too small: 1e-400", "number too small: 1E-999")
    (node,) = model.objectives.values() if field == "priority" else model.metrics.values()
    assert getattr(node, "bands" if field == "band" else field) in (None, ())
    assert field == "priority" or node.method == "m"
    _assert_same_as_token_by_token(TOO_SMALL[field])


def test_an_open_interval_to_a_tiny_literal_is_p001_not_an_empty_interval():
    _, diags = parse("metric M { domain: (0, 1e-400] }")
    assert [(d.code, d.message) for d in diags] == [("P001", "number too small: 1e-400")]


def test_a_long_tiny_literal_is_shown_by_its_ends():
    src = f"metric M {{ domain: [0, {_TINY}] }}"
    _, diags = parse(src)
    assert [(d.code, d.message) for d in diags] == [
        ("P001", "number too small: 0.000000...00000001 (403 characters)")
    ]
    _assert_same_as_token_by_token(src)


@pytest.mark.parametrize("zero", ["0", "0.000", "0e5", "00.00E-999", "0E+0"])
def test_a_literal_of_only_zeros_is_zero_without_a_diagnostic(zero):
    src = f"metric M {{ domain: [{zero}, 1] function: a * {zero} }}"
    model, diags = parse(src)
    assert not diags
    assert model.metrics["M"].domain.lo == 0.0
    _assert_same_as_token_by_token(src)


def test_the_smallest_double_is_not_too_small():
    model, diags = parse("metric M { domain: [0, 5e-324] }")
    assert not diags
    assert model.metrics["M"].domain.hi == 5e-324


@pytest.mark.parametrize("field", sorted(TOO_LARGE))
def test_a_number_beyond_the_float_range_is_one_p001_and_drops_the_field(field):
    model, diags = parse(TOO_LARGE[field])
    assert [(d.code, d.message) for d in diags] == [
        ("P001", "number too large: 99999999...99999999 (400 characters)")
    ]
    assert diags[0].span.length == 400
    (node,) = model.objectives.values() if field == "priority" else model.metrics.values()
    assert getattr(node, "bands" if field == "band" else field) in (None, ())
    assert field == "priority" or node.method == "m"  # parsing goes on after the field
    reparsed, diags = parse(serialize(model))
    assert not diags
    assert reparsed.collection(model.kinds[node.id])[node.id] == node
    _assert_same_as_token_by_token(TOO_LARGE[field])


def test_the_largest_literal_below_the_float_range_parses():
    digits = "9" * 308
    model, diags = parse(f"metric M {{ domain: [0, {digits}] function: {digits} }}")
    assert not diags
    assert model.metrics["M"].domain.hi == float(digits)


@pytest.mark.parametrize(
    "literal, value",
    [
        (str(2**53 + 1), 2**53 + 1),
        ("1" + "0" * 307 + "1", 10**308 + 1),
        ("0" * 5000 + "1", 1),
        ("0" * 5000, 0),
        ("3.0", 3),
        ("1e3", 1000),
    ],
    ids=["2**53+1", "309 digits", "leading zeros", "zeros alone", "point", "exponent"],
)
def test_an_integer_literal_is_read_and_formatted_exactly(literal, value):
    src = f"objective B {{ priority: {literal} }}"
    model, diags = parse(src)
    assert not diags
    assert model.objectives["B"].priority == value
    assert f"priority: {value}\n" in serialize(model)
    assert parse(serialize(model))[0].objectives == model.objectives
    _assert_same_as_token_by_token(src)


def test_single_point_closed_interval_is_fine():
    model, diags = parse("metric M { band: [5, 5] -> x { log t } }")
    assert not diags
    band = model.metrics["M"].bands[0]
    assert band.interval.contains(5.0)


def test_recovery_continues_past_bad_block():
    model, diags = parse(
        """
        objective BO1 { object: "a" ??? }
        objective BO2 { object: "b" }
        """
    )
    assert any(d.code == "P001" for d in diags)
    assert "BO2" in model.objectives
    assert model.objectives["BO2"].object == "b"


def test_totality_on_garbage():
    model, diags = parse("{{{{ ]]] -> -> 12 \"")
    assert diags  # plenty wrong
    assert all(d.code.startswith("P") for d in diags)
    assert model.collection("objective") == {}


def test_duplicate_ids_first_wins_and_recorded():
    model, diags = parse(
        'objective BO1 { object: "first" }\nobjective BO1 { object: "second" }'
    )
    assert not diags  # duplicate ids are a validator concern, not a parse error
    assert model.objectives["BO1"].object == "first"
    assert [i for i, _ in model.duplicate_decls] == ["BO1"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NODE_KINDS), st.sampled_from("abcd")), min_size=1, max_size=12))
def test_an_id_names_the_node_of_its_first_header_whatever_the_kinds(headers):
    model, diags = parse("".join(f"{kind} {node_id} {{ }}\n" for kind, node_id in headers))
    assert not diags
    first: dict[str, tuple[str, int]] = {}  # id -> (kind, line) of its first header
    later: list[tuple[str, int]] = []  # (id, line) of every later header, in text order
    for line, (kind, node_id) in enumerate(headers, 1):
        if node_id in first:
            later.append((node_id, line))
        else:
            first[node_id] = (kind, line)
    for node_id, (kind, _) in first.items():
        assert node_id in model.collection(kind)
    assert sum(len(model.collection(kind)) for kind in NODE_KINDS) == len(first)
    assert set(model.spans) == set(model.kinds)
    assert {i: (s.line, s.col) for i, s in model.spans.items()} == {
        i: (line, len(kind) + 2) for i, (kind, line) in first.items()
    }
    assert [(i, s.line) for i, s in model.duplicate_decls] == later
    v001 = [(d.node_id, d.span.line) for d in validate(model) if d.code == "V001"]
    assert sorted(v001) == sorted(later)


def test_include_resolves_relative_to_includer(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "part.sym").write_text(
        'objective BO2 { object: "included" }', encoding="utf-8"
    )
    main = tmp_path / "main.sym"
    main.write_text(
        'include "sub/part.sym"\nobjective BO1 { object: "top" }', encoding="utf-8"
    )
    model, diags = parse_file(str(main))
    assert not diags
    assert set(model.objectives) == {"BO1", "BO2"}


def test_include_cycle_is_p006(tmp_path):
    a = tmp_path / "a.sym"
    b = tmp_path / "b.sym"
    a.write_text('include "b.sym"', encoding="utf-8")
    b.write_text('include "a.sym"', encoding="utf-8")
    _, diags = parse_file(str(a))
    assert codes(diags) == ["P006"]


def test_self_include_is_p006(tmp_path):
    a = tmp_path / "a.sym"
    a.write_text('include "a.sym"', encoding="utf-8")
    _, diags = parse_file(str(a))
    assert codes(diags) == ["P006"]


def _write_files(root, files: dict[str, str]) -> None:
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def test_a_diamond_include_splices_the_shared_file_once(tmp_path):
    _write_files(tmp_path, {
        "a.sym": 'include "b.sym"\ninclude "c.sym"\n',
        "b.sym": 'include "d.sym"\nobjective B { }\n',
        "c.sym": 'include "d.sym"\nobjective C { }\n',
        "d.sym": 'stakeholder s { name: "S" }\n',
    })
    model, diags = parse_file(str(tmp_path / "a.sym"))
    assert not diags
    assert model.duplicate_decls == ()
    assert model.spans["s"] == SourceSpan(str(tmp_path / "d.sym"), 1, 13, 1)
    assert list(model.objectives) == ["B", "C"]


def test_an_include_written_twice_splices_its_file_once(tmp_path):
    _write_files(tmp_path, {
        "a.sym": 'include "b.sym"\ninclude "./b.sym"\nobjective A { }\n',
        "b.sym": 'objective B { }\n',
    })
    model, diags = parse_file(str(tmp_path / "a.sym"))
    assert not diags
    assert model.duplicate_decls == ()
    assert list(model.objectives) == ["B", "A"]


def test_a_file_reached_through_a_symbolic_link_is_spliced_once(tmp_path):
    _write_files(tmp_path, {
        "a.sym": 'include "b.sym"\ninclude "c.sym"\n',
        "b.sym": 'stakeholder s { name: "S" }\n',
    })
    (tmp_path / "c.sym").symlink_to(tmp_path / "b.sym")
    model, diags = parse_file(str(tmp_path / "a.sym"))
    assert not diags
    assert model.duplicate_decls == ()
    assert model.included == (os.path.realpath(tmp_path / "b.sym"),)
    assert model.spans["s"] == SourceSpan(str(tmp_path / "b.sym"), 1, 13, 1)


def test_a_symbolic_link_back_to_the_root_file_is_p006(tmp_path):
    _write_files(tmp_path, {"a.sym": 'include "link.sym"\nobjective A { }\n'})
    (tmp_path / "link.sym").symlink_to(tmp_path / "a.sym")
    model, diags = parse_file(str(tmp_path / "a.sym"))
    assert codes(diags) == ["P006"]
    assert model.duplicate_decls == ()


def test_an_include_cycle_through_a_spliced_file_is_still_p006(tmp_path):
    _write_files(tmp_path, {
        "a.sym": 'include "b.sym"\n',
        "b.sym": 'include "c.sym"\nobjective B { }\n',
        "c.sym": 'include "b.sym"\n',
    })
    model, diags = parse_file(str(tmp_path / "a.sym"))
    assert [(d.code, d.message, d.span.file) for d in diags] == [
        ("P006", f"include cycle through {str(tmp_path / 'b.sym')!r}", str(tmp_path / "c.sym")),
    ]
    assert model.duplicate_decls == ()


def _include_chain(root, length: int, last: str) -> None:
    """Files f0.sym .. f<length-1>.sym, each including the next; the last holds `last`."""
    _write_files(root, {f"f{i}.sym": f'include "f{i + 1}.sym"\n' for i in range(length - 1)})
    _write_files(root, {f"f{length - 1}.sym": last})


def test_the_deepest_include_chain_holds_the_deepest_function(tmp_path):
    depth = "(" * MAX_EXPR_DEPTH + "b" + ")" * MAX_EXPR_DEPTH
    _include_chain(tmp_path, MAX_INCLUDE_DEPTH, f"metric M {{ function: {depth} }}\n")
    model, diags = parse_file(str(tmp_path / "f0.sym"))
    assert diags == []
    assert len(model.included) == MAX_INCLUDE_DEPTH - 1
    assert model.metrics["M"].function == parse_expression("b")


def test_an_include_one_file_too_deep_is_p009_at_its_path_and_skipped(tmp_path):
    _include_chain(tmp_path, MAX_INCLUDE_DEPTH + 1, "objective Deep { }\n")
    model, diags = parse_file(str(tmp_path / "f0.sym"))
    last = str(tmp_path / f"f{MAX_INCLUDE_DEPTH - 1}.sym")
    assert [(d.code, d.message, d.span) for d in diags] == [
        ("P009", f"include nesting deeper than {MAX_INCLUDE_DEPTH} files", SourceSpan(last, 1, 9, len(f'"f{MAX_INCLUDE_DEPTH}.sym"'))),
    ]
    assert "Deep" not in model.objectives


def test_unreadable_include_is_p007(tmp_path):
    a = tmp_path / "a.sym"
    a.write_text('include "missing.sym"\nobjective BO1 { }', encoding="utf-8")
    model, diags = parse_file(str(a))
    assert codes(diags) == ["P007"]
    assert "BO1" in model.objectives  # parse continues


def test_include_that_is_not_utf8_is_p007_at_its_path(tmp_path):
    (tmp_path / "latin1.sym").write_bytes(b'stakeholder S { name: "\xff" }')
    a = tmp_path / "a.sym"
    a.write_text('include "latin1.sym"\nobjective BO1 { }', encoding="utf-8")
    model, diags = parse_file(str(a))
    assert codes(diags) == ["P007"]
    assert (diags[0].span.line, diags[0].span.col) == (1, 9)
    assert "can't decode byte 0xff" in diags[0].message
    assert "BO1" in model.objectives


def test_a_byte_order_mark_is_dropped_from_models_and_includes(tmp_path):
    part = tmp_path / "part.sym"
    part.write_text('\ufeff@objective BO2 { object: "x" }', encoding="utf-8")
    main = tmp_path / "main.sym"
    main.write_text('\ufeffobjective BO1 { }\ninclude "part.sym"\n', encoding="utf-8")
    model, diags = parse_file(str(main))
    assert [(d.code, d.message, d.span) for d in diags] == [
        ("P001", "unexpected character '@'", SourceSpan(str(part), 1, 1, 1)),
    ]
    assert model.spans == {
        "BO1": SourceSpan(str(main), 1, 11, 3),
        "BO2": SourceSpan(str(part), 1, 12, 3),
    }


def test_diagnostics_carry_position():
    _, diags = parse('objective BO1 {\n    object: "a"\n    object: "b"\n}')
    d = diags[0]
    assert d.code == "P004"
    assert d.span is not None and d.span.line == 3


# --- expression sub-parser ---


def test_precedence_mul_over_add():
    expr = parse_expression("1 + 2 * 3")
    assert expr == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))


def test_left_associativity():
    expr = parse_expression("8 - 3 - 2")
    assert expr == BinOp("-", BinOp("-", Num(8.0), Num(3.0)), Num(2.0))


def test_parens_override():
    expr = parse_expression("(1 + 2) * 3")
    assert expr == BinOp("*", BinOp("+", Num(1.0), Num(2.0)), Num(3.0))


def test_variables_and_unary_minus():
    expr = parse_expression("-a / b")
    assert expr.op == "/"
    assert expr.right == Var("b")


@pytest.mark.parametrize("bad", ["", "1 +", "* 2", "(1", "a b", "1 ** 2"])
def test_expression_syntax_errors(bad):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(bad)


def _sum(terms: int) -> str:
    return " + ".join(["a"] * terms)


@pytest.mark.parametrize(
    "text",
    ["-" * MAX_EXPR_DEPTH + "a", "(" * MAX_EXPR_DEPTH + "a" + ")" * MAX_EXPR_DEPTH, _sum(MAX_EXPR_DEPTH + 1)],
)
def test_expressions_at_the_depth_limit_parse(text):
    parse_expression(text)


@pytest.mark.parametrize(
    "text",
    [
        "-" * (MAX_EXPR_DEPTH + 1) + "a",
        "(" * (MAX_EXPR_DEPTH + 1) + "a" + ")" * (MAX_EXPR_DEPTH + 1),
        _sum(MAX_EXPR_DEPTH + 2),
        "-" * 5000 + "a",
        "(" * 5000 + "a" + ")" * 5000,
        _sum(2000),
    ],
)
def test_expressions_beyond_the_depth_limit_raise(text):
    with pytest.raises(ExpressionSyntaxError, match="deeper than 200"):
        parse_expression(text)


def test_p008_is_reported_where_the_limit_is_crossed_and_drops_the_field():
    flat = _sum(5000)
    model, diags = parse(f'metric M {{\n  function: {flat}\n  method: "m"\n}}')
    assert codes(diags) == ["P008"]
    # The 201st '+' makes a sum of depth 201.
    assert (diags[0].span.line, diags[0].span.col) == (2, 15 + 4 * MAX_EXPR_DEPTH)
    assert model.metrics["M"].function is None
    assert model.metrics["M"].method == "m"
    _, diags = parse("metric M { function: " + "-(" * 300 + "a" + ")" * 300 + " }")
    assert codes(diags) == ["P008"]


def test_depth_counts_the_deepest_operand():
    # A sum of n terms is n - 1 deep; the product is one deeper than its deeper side.
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(" + _sum(MAX_EXPR_DEPTH + 1) + ") * -a")
    assert isinstance(parse_expression("(" + _sum(MAX_EXPR_DEPTH) + ") * -a").right, Neg)


@pytest.mark.parametrize(
    "src,message",
    [
        ("question Q { status: closed }", "expected 'open' or 'answered', found 'closed'"),
        ('question Q { status: "open" }', "expected 'open' or 'answered', found 'open'"),
        ("base B { mode: counted }", "expected 'count' or 'direct', found 'counted'"),
        ("base B { aggregation: }", "expected 'sum' or 'latest', found '}'"),
        ("metric M { schedule: hourly / monthly }", "unknown period 'hourly'"),
        ("metric M { schedule: monthly / 3 }", "expected a reporting period, found '3'"),
        ("metric M { band: [0, 1] -> ok { shout s } }", "unknown action 'shout'"),
        ("metric M { band: [0, 1] -> ok { 3 s } }", "expected an action (log, notify or escalate), found '3'"),
    ],
)
def test_a_word_field_names_the_words_it_accepts(src, message):
    _, diags = parse(src)
    assert [(d.code, d.message) for d in diags] == [("P001", message)]


# One non-default value per schema value kind: (source text, parsed value).
_SAMPLES = {
    "str": ('"v"', "v"),
    "ident": ("X1", "X1"),
    "ident_list": ("X1, X2", ("X1", "X2")),
    "str_list": ('"a", "b"', ("a", "b")),
    "int": ("3", 3),
    "date": ("2014-09-03", dt.date(2014, 9, 3)),
    "status": ("answered", QuestionStatus.ANSWERED),
    "mode": ("count", SourceMode.COUNT),
    "aggregation": ("latest", Aggregation.LATEST),
    "filters": ('kind = "x"', (("kind", "x"),)),
    "scope": ('u.{a} "d"', ScopeRef("u", ("a",), "d")),
    "schedule": ("monthly / quarterly", ReportingSchedule(Granularity.MONTHLY, Granularity.QUARTERLY)),
    "expr": ("a + 1", BinOp("+", Var("a"), Num(1.0))),
    "interval": ("[0, 5)", Interval(0.0, 5.0, True, False)),
    "band": (
        "[0, 5] -> ok { log s }",
        (InterpretationBand(Interval(0.0, 5.0), "ok", (Action(ActionKind.LOG, ActionTarget("s")),)),),
    ),
    "step": ('"t" -> A', (StrategyStep("t", ("A",)),)),
}


# Every row of the field table, by (block kind, field name).
_ROWS = {(kind, row.name): row for kind, rows in FIELDS.items() for row in rows}


@pytest.mark.parametrize("kind, field", sorted(_ROWS))
def test_every_schema_field_reaches_its_attribute(kind, field):
    """A block with one field set fills that row's attribute and no other,
    prints and reparses to the same node, and diffs from the default node
    in that row's JSON key alone."""
    row = _ROWS[(kind, field)]
    source, expected = _SAMPLES[row.value_kind]
    model, diags = parse(f"{kind} N {{ {field}: {source} }}")
    assert not diags
    node = model.collection(kind)["N"]
    default = NODE_TYPES[kind](id="N")
    changed = [
        (name, getattr(node, name))
        for name in node._fields
        if getattr(node, name) != getattr(default, name)
    ]
    assert changed == [(row.attribute, expected)]

    reparsed, diags = parse(serialize(model))
    assert not diags
    assert reparsed.collection(kind)["N"] == node

    before, _ = parse(f"{kind} N {{ }}")
    assert before.collection(kind)["N"] == default
    changes = diff(before, model)
    assert changes == diff_by_canonical(before, model)
    (change,) = changes
    (field_change,) = change.fields
    assert field_change.field == row.key


def test_the_oracle_parser_reads_the_rows_of_the_field_table():
    rows = {(kind, row.name): row.value_kind for (kind, _), row in _ROWS.items()}
    assert oracles._Parser._SCHEMA == rows


_PIECES = [
    "(", ")", "-", "+", "*", "/", "a", "1", "2.5", ":", "{", "}", "[", "]", ",", "->", ".",
    '"s"', '"', "\\", "#", "\n", "@", "metric", "objective", "strategy", "base", "function",
    "band", "domain", "step", "where", "scope", "include", "M", "log", "owner_of", "=",
]
_NESTING = ["(", "-", "a + (", "- (", "a * -", "a + ", "a * (b - ", "((", ")"]


@st.composite
def _sym_texts(draw):
    head = " ".join(draw(st.lists(st.sampled_from(_PIECES), max_size=30)))
    nest = draw(st.sampled_from(_NESTING)) * draw(st.integers(0, 2000))
    tail = " ".join(draw(st.lists(st.sampled_from(_PIECES), max_size=30)))
    return f"{head} metric M {{ function: {nest} {tail}"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=200), _sym_texts()))
def test_parse_never_raises(text):
    model, diags = parse(text)
    assert all(d.code.startswith("P") for d in diags)


# -- the index-walking parser against the one that reads a token per call -------
# `oracles.parse_token_by_token` is the parser as it was before its readers
# walked the token list by index. Both must give the same model, spans and
# duplicate declarations included, and the same diagnostics in the same order.


def _assert_same_as_token_by_token(text: str, filename: str = "<string>") -> None:
    model, diags = parse(text, filename)
    expected_model, expected_diags = parse_token_by_token(text, filename)
    assert model == expected_model
    assert repr(model) == repr(expected_model)  # tells -0.0 from 0.0
    assert diags == expected_diags


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=200), _sym_texts()))
def test_parse_matches_the_token_by_token_parser(text):
    _assert_same_as_token_by_token(text)


# Each reader's recovery paths, one or more per line.
_RECOVERY = [
    "metric M { band: [-0, 5] -> ok { log owner_of notify owner_of(BO1) escalate owner_of( } }",
    "metric M { band: (1, 2] -> { log s } band: [0, 1) -> x log s band: [0 1] -> y { } }",
    "metric M { band: [0, 1] ok { } band: [5, 1] -> z { log } band: [0, 1] -> w { shout s } }",
    "metric M { domain: (-0.0, -0] domain: [a, 1] domain: {0, 1} domain: [1, 2 function: }",
    "metric M { function: (a + b function: a * * b function: -(-(a)) / 2.5 created: 2014-02-30 }",
    "metric M { schedule: monthly / weekly schedule: daily quarterly schedule: yearly / }",
    'base B { where: a = "x", b = , c = "y" where: d "e" mode: counted aggregation: max }',
    'strategy S { step: "a" -> A, B, step: "b" -> for: X step: 1 justification: "j" }',
    'objective BO1 { scope: u.{a, b "d" scope: u.* "x" scope: u. "y" scope: "z" }',
    "objective BO1 { priority: 2.5 priority: 3 refines: BO1.1.1 depends_on: a, , b }",
    'goal G { criteria: "a", "b", c criteria: viewpoint: o, p related: }',
    "question Q { status: closed status: open goal: text: 1 }",
    'widget W { } objective { } objective X y: 1 } stakeholder S name "n" } include x',
    "metric M { created: x modified: 2014 reviewed: }",
    "objective BO1 { priority: x priority: }",
    'base B { where: a "x" where: = "y" where: a = b }',
    "include",
    'stakeholder S { name: "n"',
    "metric M { band: [0, 1] -> ok { notify owner_of(M notify owner_of() } }",
    "metric M { band: [0, 1] -> { } band: [0, 1] ok }",
    "strategy S { step: }",
]


@pytest.mark.parametrize("text", _RECOVERY)
def test_parse_matches_the_token_by_token_parser_on_recovery_paths(text):
    _assert_same_as_token_by_token(text)


@pytest.mark.parametrize("path", sorted(CORPUS_ROOT.glob("*.sym")), ids=lambda p: p.name)
def test_parse_matches_the_token_by_token_parser_on_the_corpus(path):
    _assert_same_as_token_by_token(path.read_text(encoding="utf-8"), str(path))


# Programs of every block and field kind, with their tokens, to be cut up
# token by token.
_PROGRAMS = [
    (text, token_list(tokenize(text)[0])[:-1])
    for text in (serialize(program_model(random.Random(seed), objectives=15)) for seed in range(3))
]


@st.composite
def _mutated_programs(draw):
    """A program with up to six of its tokens dropped, doubled or replaced,
    or followed by a piece of `_PIECES`."""
    text, tokens = draw(st.sampled_from(_PROGRAMS))
    edits = draw(
        st.dictionaries(
            st.integers(0, len(tokens) - 1),
            st.tuples(st.sampled_from(["drop", "double", "replace", "insert"]), st.sampled_from(_PIECES)),
            min_size=1,
            max_size=6,
        )
    )
    for index in sorted(edits, reverse=True):
        op, piece = edits[index]
        start = tokens[index].offset
        end = start + tokens[index].length
        lexeme = text[start:end]
        new = {"drop": "", "double": f"{lexeme} {lexeme}", "replace": piece, "insert": f"{lexeme} {piece}"}[op]
        text = text[:start] + new + text[end:]
    return text


@settings(max_examples=300, deadline=None)
@given(_mutated_programs())
def test_parse_matches_the_token_by_token_parser_on_mutated_programs(text):
    _assert_same_as_token_by_token(text, "m.sym")


def test_parse_matches_the_token_by_token_parser_on_a_511_objective_program():
    text = serialize(program_model(random.Random(1)))
    _assert_same_as_token_by_token(text, "program.sym")
