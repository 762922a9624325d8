"""Expression language for branch formulas.

Grammar (infix, `^` right-associative, unary minus binds tighter than `^`):

    additive  := multiplicative (('+' | '-') multiplicative)*
    multiplicative := power (('*' | '/') power)*
    power     := negatom ('^' power)?
    negatom   := '-' negatom | atom
    atom      := NUMBER | 'x' | fn '(' additive ')'
               | 'spow' '(' additive ',' additive ')' | '(' additive ')'

with fn one of sin, cos, exp, log, sqrt, abs.  `spow(u, a)` is the signed
power sign(u)*|u|^a; both `^` and spow exponents must fold to numeric
literals so the local order at every point is statically known, and spow
orders must be >= 1.

ASTs are immutable; `differentiate` produces a new AST via the structural
rules plus light constant folding (0*e, e+0, e^1, const op const, ...).
`compile_fn` turns an AST into a plain python lambda, the package's one
evaluator; every `^` goes through math.pow and every spow through
_signed_pow.
"""

import math
import re

from .errors import ExprSyntaxError, NonLiteralExponent
from .records import record

__all__ = [
    "Const", "Var", "Unary", "Binary", "Spow",
    "parse", "to_source", "differentiate", "compile_fn",
]

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


@record(frozen=True)
class Const:
    value: float


@record(frozen=True)
class Var:
    pass


@record(frozen=True)
class Unary:
    op: str  # 'neg' or one of UNARY_FUNCTIONS
    arg: object


@record(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: object
    right: object


@record(frozen=True)
class Spow:
    arg: object
    order: float


X = Var()


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>\s+)"
)


def _tokenize(text):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(
                "unexpected character %r" % text[pos], pos,
                {"number", "identifier", "operator"})
        kind = m.lastgroup
        if kind != "ws":
            toks.append((kind, m.group(), pos))
        pos = m.end()
    toks.append(("end", "", n))
    return toks


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError("expected '%s'" % op, off, {repr(op)})
        return self.advance()

    def at_op(self, *ops):
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    # grammar rules -------------------------------------------------------

    def additive(self):
        node = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            node = Binary(op, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.power()
        while self.at_op("*", "/"):
            op = self.advance()[1]
            node = Binary(op, node, self.power())
        return node

    def power(self):
        # right-associative: x^2^3 == x^(2^3); exponents must fold to Const
        base = self.negatom()
        if self.at_op("^"):
            off = self.peek()[2]
            self.advance()
            return self._make_pow(base, self.power(), off)
        return base

    def _make_pow(self, base, expo, offset):
        if not isinstance(expo, Const):
            raise NonLiteralExponent(
                "exponent of '^' must be a numeric literal "
                "(offset %d)" % offset)
        if isinstance(base, Const):
            try:
                return Const(math.pow(base.value, expo.value))
            except (ValueError, OverflowError):
                pass  # leave unfolded; evaluation raises the domain error
        return Binary("^", base, expo)

    def negatom(self):
        if self.at_op("-"):
            self.advance()
            arg = self.negatom()
            if isinstance(arg, Const):
                return Const(-arg.value)
            return Unary("neg", arg)
        return self.atom()

    def atom(self):
        kind, val, off = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(val))
        if kind == "ident":
            self.advance()
            if val == "x":
                return X
            if val == "spow":
                self.expect("(")
                arg = self.additive()
                self.expect(",")
                order_off = self.peek()[2]
                order = self.additive()
                self.expect(")")
                if not isinstance(order, Const):
                    raise NonLiteralExponent(
                        "spow order must be a numeric literal "
                        "(offset %d)" % order_off)
                if order.value < 1.0:
                    raise ExprSyntaxError(
                        "spow order must be >= 1, got %g" % order.value,
                        order_off)
                return Spow(arg, order.value)
            if val in UNARY_FUNCTIONS:
                self.expect("(")
                arg = self.additive()
                self.expect(")")
                return Unary(val, arg)
            raise ExprSyntaxError(
                "unknown identifier %r" % val, off,
                {"x", "spow"} | set(UNARY_FUNCTIONS))
        if kind == "op" and val == "(":
            self.advance()
            node = self.additive()
            self.expect(")")
            return node
        raise ExprSyntaxError(
            "unexpected %s" % (repr(val) if val else "end of input"), off,
            {"number", "'x'", "function", "'('", "'-'"})


def parse(source):
    """Parse an expression string into an AST."""
    p = _Parser(source)
    node = p.additive()
    kind, val, off = p.peek()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing %r" % val, off, {"end"})
    return node


# ---------------------------------------------------------------------------
# printing

# precedence: additive 1, multiplicative 2, power 3, unary minus 4, atoms 5

def _prec(node):
    if isinstance(node, Const):
        return 5 if node.value >= 0 else 4
    if isinstance(node, Binary):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}[node.op]
    if isinstance(node, Unary):
        return 4 if node.op == "neg" else 5
    return 5


def _fmt_const(v):
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def to_source(node):
    """Print an AST back to the grammar.  parse(to_source(e)) == e."""
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            if _prec(node.arg) < 4:
                inner = "(" + inner + ")"
            return "-" + inner
        return "%s(%s)" % (node.op, to_source(node.arg))
    if isinstance(node, Spow):
        return "spow(%s, %s)" % (to_source(node.arg), _fmt_const(node.order))
    if isinstance(node, Binary):
        p = _prec(node)
        left = to_source(node.left)
        right = to_source(node.right)
        if node.op == "^":
            # right-associative; unary minus binds tighter, so a neg base
            # needs no parens but a pow base does
            if _prec(node.left) <= p:
                left = "(" + left + ")"
            if _prec(node.right) < p:
                right = "(" + right + ")"
            return "%s^%s" % (left, right)
        if _prec(node.left) < p:
            left = "(" + left + ")"
        if _prec(node.right) <= p:
            right = "(" + right + ")"
        if node.op in ("+", "-"):
            return "%s %s %s" % (left, node.op, right)
        return "%s%s%s" % (left, node.op, right)
    raise TypeError("not an AST node: %r" % (node,))


# ---------------------------------------------------------------------------
# evaluation

def _signed_pow(u, a):
    return math.copysign(abs(u) ** a, u)


# ---------------------------------------------------------------------------
# constant-folding constructors (used by differentiate)

def _is_const(node, v=None):
    return isinstance(node, Const) and (v is None or node.value == v)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("-", a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def _div(a, b):
    # note: 0/e is NOT folded -- e may vanish and the domain error must show
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("/", a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _pow(a, k):
    # k is a float, not a node
    if k == 1.0:
        return a
    if k == 0.0:
        return Const(1.0)
    if _is_const(a):
        try:
            return Const(math.pow(a.value, k))
        except (ValueError, OverflowError):
            pass
    return Binary("^", a, Const(k))


# ---------------------------------------------------------------------------
# differentiation

def differentiate(node):
    """Symbolic d/dx.  Total on valid ASTs; derivative of abs is u/|u|*u'
    (undefined at u=0, which eval reports as a domain error)."""
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Unary):
        du = differentiate(node.arg)
        u = node.arg
        if node.op == "neg":
            return _neg(du)
        if node.op == "sin":
            return _mul(Unary("cos", u), du)
        if node.op == "cos":
            return _neg(_mul(Unary("sin", u), du))
        if node.op == "exp":
            return _mul(Unary("exp", u), du)
        if node.op == "log":
            return _div(du, u)
        if node.op == "sqrt":
            return _div(du, _mul(Const(2.0), Unary("sqrt", u)))
        if node.op == "abs":
            return _mul(_div(u, Unary("abs", u)), du)
        raise ValueError("unknown unary op %r" % node.op)
    if isinstance(node, Spow):
        # d/dx sign(u)|u|^a = a|u|^(a-1) u'; at u=0 this is 0 for a>1 and
        # u' for a=1 (math.pow(0,0)=1 makes the same formula cover both)
        du = differentiate(node.arg)
        return _mul(_mul(Const(node.order),
                         _pow(Unary("abs", node.arg), node.order - 1.0)),
                    du)
    if isinstance(node, Binary):
        a, b = node.left, node.right
        da = differentiate(a)
        db = differentiate(b)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)),
                        _pow(b, 2.0))
        if node.op == "^":
            k = b.value
            return _mul(_mul(Const(k), _pow(a, k - 1.0)), da)
        raise ValueError("unknown binary op %r" % node.op)
    raise TypeError("not an AST node: %r" % (node,))


# ---------------------------------------------------------------------------
# compilation

def _codegen(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        inner = _codegen(node.arg)
        if node.op == "neg":
            return "(-%s)" % inner
        if node.op == "abs":
            return "abs(%s)" % inner
        return "_m.%s(%s)" % (node.op, inner)
    if isinstance(node, Spow):
        return "_sp(%s, %r)" % (_codegen(node.arg), node.order)
    if isinstance(node, Binary):
        if node.op == "^":
            return "_m.pow(%s, %s)" % (_codegen(node.left),
                                       _codegen(node.right))
        return "(%s %s %s)" % (_codegen(node.left), node.op,
                               _codegen(node.right))
    raise TypeError("not an AST node: %r" % (node,))


def compile_fn(node):
    """Compile an AST into a fast float->float callable.

    The callable raises the raw ValueError / ZeroDivisionError /
    OverflowError on domain violations; hot loops catch those where needed
    instead of paying for a try/except per node.
    """
    src = "lambda x: " + _codegen(node)
    return eval(src, {"_m": math, "_sp": _signed_pow, "abs": abs})
