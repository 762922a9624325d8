"""Piecewise-smooth interval maps with an exceptional set.

A map is given by finitely many open branch domains whose closures tile the
ambient interval; the interior branch endpoints form the exceptional set
where the map is undefined (only lateral limits exist there).  Branches are
expression ASTs compiled together with their first and second symbolic
derivatives.

Exact binary64 equality decides membership in the exceptional set: the
orbit of a typical point never hits it, while an exact hit is a meaningful
event that orbit code reports instead of fudging.

Stepping has one path.  Each map compiles its branch lookup once into a
straight-line comparison ladder over the cuts, with the branch formulas
inlined: `PiecewiseMap.eval` returns f(x) and `PiecewiseMap.step` returns
(f(x), Df(x)).  Every orbit loop of the package runs on these two and
learns of an exceptional hit from the `ExceptionalPointError` they raise.

`extend_map` widens the ambient interval by one unit on each side with C1
cubic collars that map the new outer corners into themselves (or each other
for decreasing boundaries) and create no attracting fixed point inside the
collars, so every collar orbit either converges to a corner or enters the
original interval.
"""

import math
from bisect import bisect_right, bisect_left
from dataclasses import dataclass, field

from . import expr as ex
from .errors import (
    BranchImageError,
    ConfigError,
    ExceptionalPointError,
    ExtensionError,
    OrbitHitsExceptionalError,
    OutOfRangeError,
    TilingError,
    ZeroDerivativeError,
)

__all__ = [
    "LateralPoint", "BranchSpec", "MapSpec", "Branch", "PiecewiseMap",
    "build_map", "extend_map", "validate_nonflat", "ValidationReport",
    "mapspec_from_dict", "mapspec_to_dict",
]


@dataclass(frozen=True)
class LateralPoint:
    point: float
    side: str  # 'left' = approach from below, 'right' = from above

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")


@dataclass(frozen=True)
class BranchSpec:
    domain: tuple
    expr: str


@dataclass(frozen=True)
class MapSpec:
    branches: tuple
    ambient: tuple = (0.0, 1.0)


def mapspec_from_dict(doc):
    ambient = tuple(float(v) for v in doc.get("ambient", (0.0, 1.0)))
    branches = tuple(
        BranchSpec((float(b["domain"][0]), float(b["domain"][1])),
                   str(b["expr"]))
        for b in doc["branches"])
    return MapSpec(branches=branches, ambient=ambient)


def mapspec_to_dict(spec):
    return {
        "ambient": list(spec.ambient),
        "branches": [
            {"domain": list(b.domain), "expr": b.expr}
            for b in spec.branches
        ],
    }


@dataclass
class Branch:
    lo: float
    hi: float
    source: str
    ast: object
    d_ast: object
    d2_ast: object
    f: object
    df: object
    ddf: object

    @classmethod
    def from_source(cls, lo, hi, source):
        ast = ex.parse(source) if isinstance(source, str) else source
        src = source if isinstance(source, str) else ex.to_source(source)
        d_ast = ex.differentiate(ast)
        d2_ast = ex.differentiate(d_ast)
        return cls(lo, hi, src, ast, d_ast, d2_ast,
                   ex.compile_fn(ast), ex.compile_fn(d_ast),
                   ex.compile_fn(d2_ast))


def _midgrid(a, b, n):
    w = b - a
    return [a + (k + 0.5) * w / n for k in range(n)]


def _compile_ladders(branches, ambient, exceptional):
    """Compile the branch lookup and the branch formulas together into
    `f(x)` and `step(x) = (f(x), Df(x))`: one comparison per cut, where an
    exceptional cut is open on both sides, a collar knot belongs to the arm
    on its right and the ambient ends are closed.  Every other x (NaN too)
    falls through to one raise.  The formulas are the `expr` codegen source
    of the branch closures, so values agree with them bit for bit."""
    lo, hi = ambient
    exc = frozenset(exceptional)

    def miss(x):
        return ExceptionalPointError(x) if x in exc else OutOfRangeError(x)

    src = []
    # Df before f: where both formulas raise, step raises as `deriv` does
    for name, body in (("f", "return {f}"),
                       ("step", "d = {df}; return {f}, d")):
        src.append("def %s(x):" % name)
        for i, b in enumerate(branches):
            if i + 1 < len(branches):
                upper = "x < %r" % (branches[i + 1].lo,)
            else:
                upper = "x <= %r" % (hi,)
            if i == 0:
                lower = "x >= %r" % (lo,)
            else:
                lower = "x > %r" % (b.lo,) if b.lo in exc else "True"
            src += ["    %s %s:" % ("elif" if i else "if", upper),
                    "        if %s:" % lower,
                    "            " + body.format(f=ex._codegen(b.ast),
                                                 df=ex._codegen(b.d_ast))]
        src.append("    raise _miss(x)")
    ns = {"_m": math, "_sp": ex._signed_pow, "_miss": miss}
    exec("\n".join(src), ns)
    return ns["f"], ns["step"]


class PiecewiseMap:
    """Compiled piecewise map.  `exceptional` is the set of undefined points,
    all of them branch cuts; branch seams outside it (collar knots of an
    extension) are smooth and evaluate through the right-hand branch.
    `eval` and `step` are the stepping path (see the module docstring)."""

    def __init__(self, branches, ambient, exceptional, lateral_values,
                 orders):
        self.branches = sorted(branches, key=lambda b: b.lo)
        self.ambient = ambient
        self.exceptional = sorted(exceptional)
        self.lateral_values = lateral_values
        self.orders = orders
        self._cuts = [b.lo for b in self.branches]
        self._nonlin = None
        self._eval, self._step = _compile_ladders(
            self.branches, ambient, self.exceptional)

    # -- lookup ------------------------------------------------------------

    def branch_at(self, x):
        lo, hi = self.ambient
        if not (lo <= x <= hi):
            raise OutOfRangeError(x)
        if x in self.exceptional:
            raise ExceptionalPointError(x)
        # the first cut is the ambient lo, so the index is never negative
        return self.branches[bisect_right(self._cuts, x) - 1]

    def _lateral_branch(self, p):
        lo, hi = self.ambient
        left = p.side == "left"
        if not (lo < p.point <= hi if left else lo <= p.point < hi):
            raise OutOfRangeError(p.point)
        find = bisect_left if left else bisect_right
        return self.branches[find(self._cuts, p.point) - 1]

    # -- evaluation ---------------------------------------------------------

    def eval(self, x):
        return self._eval(x)

    def step(self, x):
        """(f(x), Df(x)) in one ladder pass."""
        return self._step(x)

    def deriv(self, x):
        return self.branch_at(x).df(x)

    def deriv2(self, x):
        return self.branch_at(x).ddf(x)

    def eval_lateral(self, p):
        # branch closures are C2, so the one-sided limit is plain closure
        # evaluation of the adjacent branch
        return self._lateral_branch(p).f(p.point)

    def deriv_lateral(self, p):
        return self._lateral_branch(p).df(p.point)

    def deriv_product(self, x, n):
        """(sum of log|Df| along n steps, product of derivative signs).
        Log space keeps 1e6-step products finite."""
        log_abs = 0.0
        sign = 1
        for i in range(n):
            try:
                y, d = self._step(x)
            except ExceptionalPointError:
                raise OrbitHitsExceptionalError(i, x) from None
            if d == 0.0:
                raise ZeroDerivativeError(
                    "derivative vanishes at x=%r" % (x,))
            log_abs += math.log(abs(d))
            if d < 0.0:
                sign = -sign
            x = y
        return log_abs, sign

    def nonlinearity(self, grid_size=256):
        """sup |D2f| / |Df| over a per-branch midpoint grid; the concrete
        distortion-rate estimate used by the induction layer."""
        if self._nonlin is None:
            worst = 0.0
            for b in self.branches:
                for x in _midgrid(b.lo, b.hi, grid_size):
                    d = b.df(x)
                    if d != 0.0:
                        worst = max(worst, abs(b.ddf(x)) / abs(d))
            self._nonlin = worst
        return self._nonlin


# ---------------------------------------------------------------------------
# construction

_VALIDATION_GRID = 256


def _structural_order(branch, c):
    """Orders declared by spow/pow nodes whose argument vanishes at c."""
    found = []

    def walk(node):
        if isinstance(node, ex.Spow):
            try:
                if abs(ex.eval_expr(node.arg, c)) < 1e-10:
                    found.append(node.order)
            except Exception:
                pass
            walk(node.arg)
        elif isinstance(node, ex.Unary):
            walk(node.arg)
        elif isinstance(node, ex.Binary):
            if node.op == "^" and isinstance(node.right, ex.Const):
                try:
                    if (abs(ex.eval_expr(node.left, c)) < 1e-10
                            and node.right.value >= 1.0):
                        found.append(node.right.value)
                except Exception:
                    pass
            walk(node.left)
            walk(node.right)

    walk(branch.ast)
    return min(found) if found else None


def _fitted_order(branch, c, sgn):
    """Least-squares slope of log|f(c + sgn*eps) - f(c lateral)| vs log eps.
    Uses the branch closure even when eps overshoots a narrow branch: the
    expression is the local model and stays evaluable."""
    y0 = branch.f(c)
    pts = []
    for k in range(3, 8):  # eps = 1e-3 .. 1e-7
        eps = 10.0 ** (-k)
        try:
            d = abs(branch.f(c + sgn * eps) - y0)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if d > 0.0:
            pts.append((math.log(eps), math.log(d)))
    if len(pts) < 2:
        return None
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _local_order(branch, c):
    """Non-flat order of the branch closure at its endpoint c: 1 when the
    lateral derivative is nonzero, else 2 when the second is, else whatever
    a spow/pow node or the log-log fit says."""
    try:
        if abs(branch.df(c)) > 1e-8:
            return 1.0
    except (ValueError, ZeroDivisionError, OverflowError):
        pass  # singular closure derivative (kink exactly at c)
    try:
        if abs(branch.ddf(c)) > 1e-8:
            return 2.0
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    order = _structural_order(branch, c)
    if order is not None:
        return order
    fit = _fitted_order(branch, c, -1.0 if c == branch.hi else 1.0)
    return fit if fit is not None else float("nan")


def build_map(spec):
    lo, hi = spec.ambient
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError("bad ambient interval %r" % (spec.ambient,))
    bs = sorted(spec.branches, key=lambda b: b.domain[0])
    if not bs:
        raise TilingError("no branches")
    if bs[0].domain[0] != lo:
        raise TilingError(
            "first branch starts at %r, ambient starts at %r"
            % (bs[0].domain[0], lo))
    if bs[-1].domain[1] != hi:
        raise TilingError(
            "last branch ends at %r, ambient ends at %r"
            % (bs[-1].domain[1], hi))
    for a, b in zip(bs, bs[1:]):
        if a.domain[1] != b.domain[0]:
            kind = "gap" if a.domain[1] < b.domain[0] else "overlap"
            raise TilingError(
                "%s between branch ending %r and branch starting %r"
                % (kind, a.domain[1], b.domain[0]))
    for b in bs:
        if not b.domain[0] < b.domain[1]:
            raise TilingError("empty branch domain %r" % (b.domain,))

    branches = [Branch.from_source(b.domain[0], b.domain[1], b.expr)
                for b in bs]

    for b in branches:
        prev = None
        for x in _midgrid(b.lo, b.hi, _VALIDATION_GRID):
            try:
                y = b.f(x)
            except (ValueError, ZeroDivisionError, OverflowError) as e:
                raise BranchImageError(
                    "branch %r undefined at grid point %r: %s"
                    % (b.source, x, e), witness=x) from None
            if not (lo - 1e-12 <= y <= hi + 1e-12):
                raise BranchImageError(
                    "branch %r maps grid point %r to %r outside [%r, %r]"
                    % (b.source, x, y, lo, hi), witness=x)
            d = b.df(x)
            if d == 0.0:
                raise ZeroDerivativeError(
                    "branch %r has zero derivative at grid point %r"
                    % (b.source, x))
            if prev is not None and (d < 0.0) != (prev[1] < 0.0):
                raise ZeroDerivativeError(
                    "branch %r derivative changes sign between grid points "
                    "%r and %r" % (b.source, prev[0], x))
            prev = (x, d)

    exceptional = [b.lo for b in branches[1:]]

    lateral_values = []
    orders = {}
    for i, c in enumerate(exceptional):
        left_branch = branches[i]
        right_branch = branches[i + 1]
        pl = LateralPoint(c, "left")
        pr = LateralPoint(c, "right")
        lateral_values.append((pl, left_branch.f(c)))
        lateral_values.append((pr, right_branch.f(c)))
        orders[(c, "left")] = _local_order(left_branch, c)
        orders[(c, "right")] = _local_order(right_branch, c)

    return PiecewiseMap(branches, (lo, hi), exceptional, lateral_values,
                        orders)


# ---------------------------------------------------------------------------
# validation report

@dataclass
class ValidationReport:
    branches: list = field(default_factory=list)
    exceptional: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_dict(self):
        return {"branches": self.branches, "exceptional": self.exceptional,
                "flags": self.flags}

    @property
    def ok(self):
        return not self.flags


def validate_nonflat(m, grid_size=256):
    if grid_size < 100:
        raise ConfigError("grid_size must be >= 100, got %r" % (grid_size,))
    rep = ValidationReport()
    for b in m.branches:
        min_d = float("inf")
        nonlin = 0.0
        for x in _midgrid(b.lo, b.hi, grid_size):
            d = abs(b.df(x))
            min_d = min(min_d, d)
            if d > 0.0:
                nonlin = max(nonlin, abs(b.ddf(x)) / d)
        rep.branches.append({
            "domain": [b.lo, b.hi],
            "expr": b.source,
            "min_abs_deriv": min_d,
            "nonlinearity": nonlin,
        })
        if min_d == 0.0:
            rep.flags.append(
                "zero derivative inside branch %r" % (b.source,))
    for c in m.exceptional:
        i = bisect_right(m._cuts, c) - 1
        for side, br, sgn in (("left", m.branches[i - 1], -1.0),
                              ("right", m.branches[i], 1.0)):
            fit = _fitted_order(br, c, sgn)
            declared = m.orders.get((c, side))
            entry = {
                "point": c,
                "side": side,
                "fitted_order": fit,
                "declared_order": declared,
                "flat_violation": bool(fit is not None and fit < 0.95),
            }
            rep.exceptional.append(entry)
            if entry["flat_violation"]:
                rep.flags.append(
                    "flat point at %r (%s side): fitted order %.3f < 1"
                    % (c, side, fit))
    return rep


# ---------------------------------------------------------------------------
# collar extension

def _hermite_ast(x0, y0, m0, x1, y1, m1):
    """Cubic matching values/slopes at x0, x1, as an AST in Horner form."""
    w = x1 - x0
    delta = (y1 - y0) / w
    c1 = m0
    c2 = (3.0 * delta - 2.0 * m0 - m1) / w
    c3 = (m0 + m1 - 2.0 * delta) / (w * w)
    s = ex.Binary("-", ex.X, ex.Const(x0))
    horner = ex.Binary("+", ex.Const(c2), ex.Binary("*", s, ex.Const(c3)))
    horner = ex.Binary("+", ex.Const(c1), ex.Binary("*", s, horner))
    return ex.Binary("+", ex.Const(y0), ex.Binary("*", s, horner))


def _check_collar(pieces, increasing, diag_sign, bounds, n=1000):
    """pieces: [(x0, x1, fn, dfn)].  Verifies strict monotonicity, image
    inside bounds, and that h(x) - x keeps the sign diag_sign on the open
    collar (0 disables the diagonal check)."""
    blo, bhi = bounds
    for x0, x1, f, df in pieces:
        for x in _midgrid(x0, x1, max(8, int(n * (x1 - x0) / 1.0))):
            d = df(x)
            if increasing and d <= 1e-12:
                return False
            if not increasing and d >= -1e-12:
                return False
            y = f(x)
            if not (blo - 1e-9 <= y <= bhi + 1e-9):
                return False
            if diag_sign > 0 and y - x <= 0.0:
                return False
            if diag_sign < 0 and y - x >= 0.0:
                return False
    return True


def _make_collar(x_out, x_in, y_in, d_in, bounds):
    """Collar on [min(x_out,x_in), max(..)] joining the outer corner to the
    boundary value/slope of the inner map.  Returns a list of
    (lo, hi, ast) pieces, ordered left to right.

    Increasing boundary slope: the outer corner is fixed (x_out -> x_out)
    and the collar stays on one side of the diagonal so orbits drift to the
    corner or exit into the original interval.  Decreasing slope: the outer
    corner maps to the opposite corner and the collar cannot cross the
    diagonal at all.
    """
    blo, bhi = bounds
    left_side = x_out < x_in
    if d_in == 0.0:
        raise ExtensionError("boundary derivative of the map is zero")

    if d_in > 0.0:
        y_out = x_out
        fixed = (y_in == x_in)
        if fixed:
            # proven side: slope-0.5 outer end keeps the cubic on the
            # corner-attracting side of the diagonal for every d_in >= 1
            if d_in >= 1.0:
                diag = -1.0 if left_side else 1.0
                m_candidates = [0.5, 0.4, 0.25]
            else:
                # boundary fixed point already attracts inside the ambient
                # interval; the collar joins its basin
                diag = 1.0 if left_side else -1.0
                m_candidates = [2.0, 1.5, 3.0]
        else:
            diag = 1.0 if left_side else -1.0
            m_candidates = [2.0, 1.0, 1.5, 3.0, 0.5]
        increasing = True
    else:
        y_out = bhi if left_side else blo
        diag = 1.0 if left_side else -1.0
        m_candidates = [-0.5, -1.0, -2.0, -0.25]
        increasing = False

    if left_side:
        x0, y0, x1, y1 = x_out, y_out, x_in, y_in
    else:
        x0, y0, x1, y1 = x_in, y_in, x_out, y_out

    def assemble(knot):
        # knot: None, or (xk, yk, mk) inserted next to the inner boundary
        out = []
        if knot is None:
            m_lo = m_out if left_side else d_in
            m_hi = d_in if left_side else m_out
            out.append((x0, x1, _hermite_ast(x0, y0, m_lo, x1, y1, m_hi)))
        else:
            xk, yk, mk = knot
            if left_side:
                out.append((x0, xk, _hermite_ast(x0, y0, m_out, xk, yk, mk)))
                out.append((xk, x1, _hermite_ast(xk, yk, mk, x1, y1, d_in)))
            else:
                out.append((x0, xk, _hermite_ast(x0, y0, d_in, xk, yk, mk)))
                out.append((xk, x1, _hermite_ast(xk, yk, mk, x1, y1, m_out)))
        return out

    def verify(pieces):
        fns = [(a, b, ex.compile_fn(ast),
                ex.compile_fn(ex.differentiate(ast)))
               for a, b, ast in pieces]
        return _check_collar(fns, increasing, diag, bounds)

    for m_out in m_candidates:
        pieces = assemble(None)
        if verify(pieces):
            return pieces

    # steep boundary slope: localize it in a short piece next to the inner
    # boundary so each piece's slopes stay within ~3x its secant
    m_out = m_candidates[0]
    w = abs(x_in - x_out)
    for k in range(1, 41):
        eta = w * 2.0 ** (-k)
        drop = eta * abs(d_in) / 2.9
        if left_side:
            xk = x_in - eta
            yk = y_in - drop if increasing else y_in + drop
        else:
            xk = x_in + eta
            yk = y_in + drop if increasing else y_in - drop
        if not (blo < yk < bhi):
            continue
        # knot slope: small enough for the long outer piece
        if left_side:
            sec_out = (yk - y0) / (xk - x0)
        else:
            sec_out = (y_out - yk) / (x_out - xk)
        mk = sec_out
        pieces = assemble((xk, yk, mk))
        if verify(pieces):
            return pieces
    raise ExtensionError(
        "could not build a %s collar for boundary slope %r"
        % ("left" if left_side else "right", d_in))


def extend_map(m):
    """Widen the ambient interval by 1 on each side; same exceptional set,
    C1 seams at the old boundary, outer corners mapped into themselves /
    each other per the collar construction."""
    lo, hi = m.ambient
    bounds = (lo - 1.0, hi + 1.0)

    first, last = m.branches[0], m.branches[-1]
    left_pieces = _make_collar(lo - 1.0, lo, first.f(lo), first.df(lo),
                               bounds)
    right_pieces = _make_collar(hi + 1.0, hi, last.f(hi), last.df(hi),
                                bounds)

    branches = []
    for a, b, ast in left_pieces:
        branches.append(Branch.from_source(a, b, ast))
    branches.extend(m.branches)
    for a, b, ast in right_pieces:
        branches.append(Branch.from_source(a, b, ast))

    return PiecewiseMap(branches, bounds, list(m.exceptional),
                        list(m.lateral_values), dict(m.orders))
