"""AST for metric functions: arithmetic over named base measurements."""

from typing import NamedTuple, Union


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Neg, BinOp]


def format_number(value: float) -> str:
    """Shortest faithful decimal form: integral floats drop the trailing .0."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_text(expr: Expr) -> str:
    """Fully parenthesized rendering; reparsing it yields a structurally equal AST."""
    if isinstance(expr, Num):
        return format_number(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_text(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({to_text(expr.left)} {expr.op} {to_text(expr.right)})"
    raise TypeError(f"not an expression node: {expr!r}")


def variables(expr: Expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    return set()
