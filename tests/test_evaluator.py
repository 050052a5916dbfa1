"""Formula evaluation and band classification failure modes."""

import pytest

from symbiosis_kit.evaluator import (
    DivisionByZero,
    MissingBinding,
    NonFiniteResult,
    OutOfDomain,
    UnclassifiableValue,
    classify,
    evaluate,
    evaluate_metric,
)
from symbiosis_kit.parser import parse, parse_expression


def test_plain_arithmetic():
    assert evaluate(parse_expression("(trained / staff) * 100"), {"trained": 45, "staff": 60}) == 75.0


def test_unary_minus():
    assert evaluate(parse_expression("-x + 10"), {"x": 4}) == 6.0


def test_missing_binding_names_the_variable():
    with pytest.raises(MissingBinding) as exc:
        evaluate(parse_expression("a + b"), {"a": 1})
    assert exc.value.name == "b"


def test_division_by_zero_shows_the_expression():
    with pytest.raises(DivisionByZero) as exc:
        evaluate(parse_expression("a / b"), {"a": 1, "b": 0})
    assert "(a / b)" in str(exc.value)


METRIC_SRC = """
metric M {
    function: hits / total * 100
    domain: [0, 100]
    band: [0, 50) -> low { log t }
    band: [50, 100] -> high { log t }
}
"""


def _metric():
    model, diags = parse(METRIC_SRC)
    assert not diags
    return model.metrics["M"]


def test_evaluate_metric_and_classify():
    metric = _metric()
    value = evaluate_metric(metric, {"hits": 30, "total": 40})
    assert value == 75.0
    assert classify(metric, value).label == "high"


def test_boundary_goes_to_closed_side():
    # 50 is excluded from [0,50) and included in [50,100]
    assert classify(_metric(), 50.0).label == "high"
    assert classify(_metric(), 49.999).label == "low"


def test_boundary_goes_to_closed_side_when_bands_are_declared_high_first():
    # 50 is excluded from (50,100], which is tried first, and included in [0,50]
    model, diags = parse(
        """
        metric M {
            function: x
            domain: [0, 100]
            band: (50, 100] -> high { log t }
            band: [0, 50] -> low { log t }
        }
        """
    )
    assert not diags
    metric = model.metrics["M"]
    assert classify(metric, 50.0).label == "low"
    assert classify(metric, 50.001).label == "high"
    assert classify(metric, 100.0).label == "high"


def test_out_of_domain():
    with pytest.raises(OutOfDomain):
        evaluate_metric(_metric(), {"hits": 3, "total": 2})  # 150 > domain hi


def test_classify_checks_the_domain_of_a_value_it_did_not_evaluate(jpmorgan):
    with pytest.raises(OutOfDomain) as exc:
        classify(jpmorgan.metrics["ME1.1.1.1.1"], 1e9)
    assert str(exc.value) == "value 1000000000.0 falls outside the metric domain [0, 100]"


def test_classify_rejects_nan_as_outside_the_domain(jpmorgan):
    with pytest.raises(OutOfDomain) as exc:
        classify(jpmorgan.metrics["ME1.1.1.1.1"], float("nan"))
    assert str(exc.value) == "value nan falls outside the metric domain [0, 100]"


def test_non_finite_result_from_overflow():
    model, _ = parse("metric M { function: x * x }")
    with pytest.raises(NonFiniteResult):
        evaluate_metric(model.metrics["M"], {"x": 1e308})


def test_unclassifiable_inside_gap():
    model, _ = parse(
        """
        metric M {
            function: x
            domain: [0, 100]
            band: [0, 40] -> low { log t }
            band: [60, 100] -> high { log t }
        }
        """
    )
    with pytest.raises(UnclassifiableValue):
        classify(model.metrics["M"], 50.0)


def test_bandless_metric_is_unclassifiable():
    model, _ = parse("metric M { function: x domain: [0, 100] }")
    assert evaluate_metric(model.metrics["M"], {"x": 5}) == 5.0
    with pytest.raises(UnclassifiableValue):
        classify(model.metrics["M"], 5.0)


def test_default_domain_applies_when_omitted():
    model, _ = parse("metric M { function: x band: [0, 100] -> all { log t } }")
    with pytest.raises(OutOfDomain):
        evaluate_metric(model.metrics["M"], {"x": 250})
