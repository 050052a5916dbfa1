"""Numeric evaluation of metric functions and band classification."""

from __future__ import annotations

import math

from .expr import BinOp, Expr, Neg, Num, Var, to_text
from .model import InterpretationBand, MetricDef


class EvaluationError(Exception):
    """Base class for anything that stops a metric from producing a value."""


class MissingBinding(EvaluationError):
    def __init__(self, name: str) -> None:
        super().__init__(f"no value bound for base measurement {name!r}")
        self.name = name


class SumOverflow(EvaluationError):
    def __init__(self, base: str) -> None:
        super().__init__(f"sum of base measurement {base!r} overflows the float range")
        self.base = base


class DivisionByZero(EvaluationError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"division by zero in {detail}")


class NonFiniteResult(EvaluationError):
    def __init__(self, value: float) -> None:
        super().__init__(f"function produced a non-finite value ({value!r})")
        self.value = value


class OutOfDomain(EvaluationError):
    def __init__(self, value: float, domain: str) -> None:
        super().__init__(f"value {value!r} falls outside the metric domain {domain}")
        self.value = value


class UnclassifiableValue(EvaluationError):
    def __init__(self, value: float) -> None:
        super().__init__(f"no interpretation band contains value {value!r}")
        self.value = value


def evaluate(expr: Expr, bindings: dict[str, float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise MissingBinding(expr.name)
        return float(bindings[expr.name])
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, bindings)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, bindings)
        right = evaluate(expr.right, bindings)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0.0:
                raise DivisionByZero(to_text(expr))
            return left / right
        raise EvaluationError(f"unknown operator {expr.op!r}")
    raise EvaluationError(f"unknown expression node {type(expr).__name__}")


def evaluate_metric(metric: MetricDef, bindings: dict[str, float]) -> float:
    """Evaluate the metric's function and check the result against its domain."""
    if metric.function is None:
        raise EvaluationError(f"metric {metric.id!r} has no function")
    value = evaluate(metric.function, bindings)
    if not math.isfinite(value):
        raise NonFiniteResult(value)
    domain = metric.effective_domain()
    if not domain.contains(value):
        raise OutOfDomain(value, domain.notation())
    return value


def classify(metric: MetricDef, value: float) -> InterpretationBand:
    """Find the band containing `value`.

    On a validated model exactly one band matches anything inside the domain.
    Raises OutOfDomain / UnclassifiableValue otherwise rather than guessing.
    """
    domain = metric.effective_domain()
    if not domain.contains(value):
        raise OutOfDomain(value, domain.notation())
    for band in metric.bands:
        if band.interval.contains(value):
            return band
    raise UnclassifiableValue(value)
