import math
import random

import pytest

from intervaldyn.errors import ExprSyntaxError, NonLiteralExponent
from intervaldyn.expr import (
    Binary,
    Const,
    Spow,
    Unary,
    Var,
    compile_fn,
    differentiate,
    parse,
    to_source,
)
from exprref import ExprDomainError, eval_expr
from genexpr import random_ast, random_smooth_ast

from fdcheck import check_derivative_fd


def test_parse_minimal():
    assert parse("2*x") == Binary("*", Const(2.0), Var())


def test_parse_logistic_style_eval():
    e = parse("3.5*x*(1-x)")
    assert eval_expr(e, 0.5) == pytest.approx(0.875, abs=0)  # 3.5*0.5*0.5


def test_parse_spow_shape_and_eval():
    e = parse("spow(x-0.5, 1.5)")
    assert e == Spow(Binary("-", Var(), Const(0.5)), 1.5)
    # sign(-0.25)*0.25^1.5 = -0.125
    assert eval_expr(e, 0.25) == pytest.approx(-0.125, rel=1e-15)


def test_eval_trivia():
    assert eval_expr(parse("1-x"), 1.0) == 0.0
    assert eval_expr(parse("4*x*(1-x)"), 0.5) == 1.0
    assert eval_expr(parse("sin(3.14159265358979*x)"), 0.5) == pytest.approx(
        1.0, abs=1e-12)


def test_precedence_unary_minus_binds_tighter_than_pow():
    # -x^2 means (-x)^2 under this grammar
    e = parse("-x^2")
    assert e == Binary("^", Unary("neg", Var()), Const(2.0))
    assert eval_expr(e, 3.0) == 9.0


def test_pow_right_associative():
    # 2^3^2 = 2^9 = 512, folded at parse time
    assert parse("2^3^2") == Const(512.0)
    e = parse("x^3^2")
    assert e == Binary("^", Var(), Const(9.0))


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("2*x + ")
    assert ei.value.offset == 6
    assert ei.value.expected  # non-empty expected set

    with pytest.raises(ExprSyntaxError) as ei:
        parse("2 @ x")
    assert ei.value.offset == 2


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse("tan(x)")


def test_nonliteral_exponent_rejected():
    with pytest.raises(NonLiteralExponent):
        parse("x^x")
    with pytest.raises(NonLiteralExponent):
        parse("spow(x, x)")
    with pytest.raises(NonLiteralExponent):
        parse("x^(1+x)")


def test_spow_order_below_one_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("spow(x, 0.5)")


def test_domain_errors():
    with pytest.raises(ExprDomainError):
        eval_expr(parse("log(x)"), -1.0)
    with pytest.raises(ExprDomainError):
        eval_expr(parse("1/(x-1)"), 1.0)
    with pytest.raises(ExprDomainError):
        eval_expr(parse("sqrt(x)"), -4.0)


def test_differentiate_constant_folds():
    assert differentiate(parse("2*x")) == Const(2.0)


def test_differentiate_power_rule():
    d = differentiate(parse("x^2"))
    assert eval_expr(d, 3.0) == 6.0


def test_differentiate_spow_at_negative_point():
    d = differentiate(parse("spow(x,2)"))
    assert eval_expr(d, -1.0) == pytest.approx(2.0, rel=1e-12)


def test_differentiate_spow_value_zero_at_kink_for_superlinear():
    d = differentiate(parse("spow(x,1.5)"))
    assert eval_expr(d, 0.0) == 0.0
    # order exactly 1: spow(u,1)=u, derivative 1 everywhere incl. u=0
    d1 = differentiate(parse("spow(x,1)"))
    assert eval_expr(d1, 0.0) == 1.0


def test_roundtrip_fixed_cases():
    for src in [
        "2*x", "2 - 2*x", "4*x*(1-x)", "spow(x-0.5, 1.5)",
        "-x^2", "x^-2", "1/(1+x^2)", "sin(cos(x))-exp(0.25*x)",
        "abs(x - 0.25)", "x - -2", "-(x^2)", "x*(x*(x*(x+1)+1)+1)",
    ]:
        e = parse(src)
        assert parse(to_source(e)) == e, src


def test_roundtrip_random_depth8():
    rng = random.Random(42)
    for _ in range(400):
        e = random_ast(rng, 8)
        s = to_source(e)
        assert parse(s) == e, s


def test_compile_matches_eval():
    rng = random.Random(7)
    for _ in range(100):
        e = random_smooth_ast(rng, 6)
        f = compile_fn(e)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0)
            try:
                want = eval_expr(e, x)
            except ExprDomainError:
                continue
            assert f(x) == want


def test_derivative_vs_central_difference():
    rng = random.Random(2024)
    checked = 0
    for _ in range(150):
        e = random_smooth_ast(rng, 6)
        checked += check_derivative_fd(e, rng, n_points=40)
    # the guards skip singular points but must not starve the test
    assert checked > 1500


def test_spow_continuity_across_kink():
    # straddle u=0 with gap 2g; |f(c+g)-f(c-g)| <= 10 * Lip * (2g) with
    # Lip = alpha * g^(alpha-1) the local Lipschitz bound of |u|^alpha
    g = 1e-6
    for alpha in (1.0, 1.5, 2.0, 3.0):
        f = compile_fn(Spow(Binary("-", Var(), Const(0.3)), alpha))
        gap = abs(f(0.3 + g) - f(0.3 - g))
        assert gap <= 10.0 * (alpha * g ** (alpha - 1.0)) * (2 * g)


def test_derivative_of_abs():
    d = differentiate(parse("abs(x-0.25)"))
    assert eval_expr(d, 1.0) == 1.0
    assert eval_expr(d, 0.0) == -1.0
    with pytest.raises(ExprDomainError):
        eval_expr(d, 0.25)  # kink: 0/0 is a domain error, not a value
