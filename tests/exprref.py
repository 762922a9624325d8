"""Tree-walking evaluation of expression ASTs: the oracle that
`expr.compile_fn` is checked against.  Each node is evaluated on its own,
through the same math.pow and _signed_pow as the compiled closures, so the
two agree bit for bit wherever both are defined; where a value leaves the
reals this raises ExprDomainError naming the offending subtree."""

import math

from intervaldyn.errors import IntervalDynError
from intervaldyn.expr import (
    Binary, Const, Spow, Unary, Var, _signed_pow, to_source)


class ExprDomainError(IntervalDynError):
    """Evaluation left the real domain (log of a non-positive number, division
    by zero, 0 raised to a negative power, ...)."""


def eval_expr(node, x):
    """Tree-walking evaluation at a point.  Raises ExprDomainError (carrying
    the offending subtree) when the value leaves the reals."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        u = eval_expr(node.arg, x)
        try:
            if node.op == "neg":
                return -u
            if node.op == "abs":
                return abs(u)
            return getattr(math, node.op)(u)
        except (ValueError, OverflowError) as e:
            raise ExprDomainError(
                "%s at x=%r in %s" % (e, x, to_source(node))) from None
    if isinstance(node, Spow):
        u = eval_expr(node.arg, x)
        try:
            return _signed_pow(u, node.order)
        except OverflowError as e:
            raise ExprDomainError(
                "%s at x=%r in %s" % (e, x, to_source(node))) from None
    if isinstance(node, Binary):
        a = eval_expr(node.left, x)
        b = eval_expr(node.right, x)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            return math.pow(a, b)
        except (ZeroDivisionError, ValueError, OverflowError) as e:
            raise ExprDomainError(
                "%s at x=%r in %s" % (e, x, to_source(node))) from None
    raise TypeError("not an AST node: %r" % (node,))


def structural_order(branch, c):
    """`mapcore._structural_order` on `eval_expr`: the orders declared by
    spow/pow nodes whose argument vanishes at c."""
    found = []

    def walk(node):
        if isinstance(node, Spow):
            try:
                if abs(eval_expr(node.arg, c)) < 1e-10:
                    found.append(node.order)
            except Exception:
                pass
            walk(node.arg)
        elif isinstance(node, Unary):
            walk(node.arg)
        elif isinstance(node, Binary):
            if node.op == "^" and isinstance(node.right, Const):
                try:
                    if (abs(eval_expr(node.left, c)) < 1e-10
                            and node.right.value >= 1.0):
                        found.append(node.right.value)
                except Exception:
                    pass
            walk(node.left)
            walk(node.right)

    walk(branch.ast)
    return min(found) if found else None
