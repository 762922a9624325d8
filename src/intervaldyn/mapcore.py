"""Piecewise-smooth interval maps with an exceptional set.

A map is given by finitely many open branch domains whose closures tile the
ambient interval; the interior branch endpoints form the exceptional set
where the map is undefined (only lateral limits exist there).  Branches are
expression ASTs compiled together with their first and second symbolic
derivatives.

`build_map` is the one construction pass.  It checks the tiling, then walks
each branch's validation grid once: the image must stay in the ambient
interval, Df must be defined, nonzero and of one sign, and D2f must be
defined.  The branch closure must also be defined at both ends of the
branch's domain and map them into the ambient interval, exactly: a lateral
value one ulp outside would only fail later, mid-run.  The grid walk
records min |Df| and sup |D2f|/|Df| on the branch, which
`validate_nonflat` and `PiecewiseMap.nonlinearity` report.

Exact binary64 equality decides membership in the exceptional set: the
orbit of a typical point never hits it, while an exact hit is a meaningful
event that orbit code reports instead of fudging.

Stepping has one path.  Each map compiles its branch lookup once into a
straight-line comparison ladder over the cuts, with the branch formulas
inlined, and emits it in five shapes: `PiecewiseMap.eval` returns f(x),
`PiecewiseMap.step` returns (f(x), Df(x)), `PiecewiseMap.walk` returns the
iterates x_1 .. x_n from one compiled loop, `PiecewiseMap.compose` returns
f^n(x) alone, and `PiecewiseMap.compose_deriv` returns f^n(x) with the log
and sign of D(f^n)(x).  `eval` and `step` raise `ExceptionalPointError` on
an exceptional hit; `walk` stops short, `compose` returns None and
`compose_deriv` raises `OrbitHitsExceptionalError` instead.  Basin sampling
and omega covers run on `walk`; f^n in the periodic-point search and the
pull-backs of cylinder refinement, and the induced-map evaluation, run on
`compose`; `deriv_product` and every induced-branch step that needs its
derivative run on `compose_deriv`; loops that stop on a condition of their
own run on `eval` and `step`.

A sixth shape, `PiecewiseMap.induce`, walks an induced map, given as
tables of branch domains and return times, until an iterate returns into
an interval: the neutral-core flank probes and the F^2 scan of
`induction.expansion_analysis` run on it, through `InducedMap.induce`.  It
is compiled on first use, not in `build_map`: only return-map analysis
needs it, and compiling its source, which holds every arm twice, would
make every map build slower.
"""

import math
from bisect import bisect_right, bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from . import expr as ex
from .errors import (
    BranchImageError,
    ConfigError,
    ExceptionalPointError,
    OrbitHitsExceptionalError,
    OutOfRangeError,
    TilingError,
    ZeroDerivativeError,
)

__all__ = [
    "LateralPoint", "BranchSpec", "MapSpec", "Branch", "PiecewiseMap",
    "build_map", "validate_nonflat", "ValidationReport",
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
    # grid survey recorded by build_map: min |Df| and sup |D2f|/|Df| over
    # the validation grid
    min_abs_deriv: float = None
    nonlinearity: float = None

    @classmethod
    def from_source(cls, lo, hi, source):
        ast = ex.parse(source)
        d_ast = ex.differentiate(ast)
        d2_ast = ex.differentiate(d_ast)
        return cls(lo, hi, source, ast, d_ast, d2_ast,
                   ex.compile_fn(ast), ex.compile_fn(d_ast),
                   ex.compile_fn(d2_ast))


def _midgrid(a, b, n):
    w = b - a
    return [a + (k + 0.5) * w / n for k in range(n)]


def _compile_ladders(branches, ambient, exceptional):
    """Compile the branch lookup and the branch formulas together into five
    shapes, and a sixth on demand: `f(x)`; `step(x) = (f(x), Df(x))`;
    `walk(x, n)`, the list of iterates x_1 .. x_n; `compose(x, n) = f^n(x)`;
    and
    `compose_deriv(x, n) = (f^n(x), sum of log|Df|, product of the signs
    of Df)`.  One arm per branch, shared by the five shapes: one comparison
    per cut, where every interior cut is exceptional and open on both sides
    and the ambient ends are closed.  Every other x (NaN too) falls through
    to one raise.  At an exceptional point `walk` instead returns early,
    shorter than n, `compose` returns None, and `compose_deriv` raises
    `OrbitHitsExceptionalError` with the step index.  `step` and
    `compose_deriv` evaluate Df before f, and `compose_deriv` raises
    `ZeroDerivativeError` after both.  The formulas are the `expr` codegen
    source of the branch closures, so values agree with them bit for
    bit.

    The sixth shape, `induce` (see `PiecewiseMap.induce`), walks an induced
    map on the same arms, for the flank probes and the F^2 scan of
    `induction.expansion_analysis`.  A step of return time 1 runs the arms
    once, outside the per-step loop, and each arm returns or goes on to the
    next step, so an x that no arm takes falls through to the 'aborted'
    exit; without it a perfbench `long_orbits` round takes 7% longer.  So
    its source holds every arm twice, and only return-map analysis uses
    it: compiled with the other five it made every `build_map` slower
    (logistic, fastest of 500: 1.2 to 1.8 ms, 2-vCPU Xeon), and a
    perfbench `param_sweep` round 6% slower.  The last element returned is
    therefore a function that compiles it, which `PiecewiseMap.induce`
    calls on first access."""
    hi = ambient[1]
    exc = frozenset(exceptional)

    def miss(x):
        return ExceptionalPointError(x) if x in exc else OutOfRangeError(x)

    def zero(x):
        return ZeroDerivativeError("derivative vanishes at x=%r" % (x,))

    arms = []   # (upper test, lower test, f source, Df source)
    for i, b in enumerate(branches):
        if i + 1 < len(branches):
            upper = "x < %r" % (branches[i + 1].lo,)
        else:
            upper = "x <= %r" % (hi,)
        lower = ("x > %r" if i else "x >= %r") % (b.lo,)
        arms.append((upper, lower, ex._codegen(b.ast), ex._codegen(b.d_ast)))

    def ladder(body, pad):
        src = []
        for i, (upper, lower, f, df) in enumerate(arms):
            src += [pad + "%s %s:" % ("elif" if i else "if", upper),
                    pad + "    if %s:" % lower]
            src += [pad + "        " + line
                    for line in body.format(f=f, df=df).split("\n")]
        return src

    def loop(head, body, hit, tail):
        return (head + ["    for i in range(n):"] + ladder(body, "        ")
                + ["        if x in _exc:", "            " + hit,
                   "        raise _miss(x)", "    " + tail])

    def compile_shapes(src, names):
        ns = {"_m": math, "_sp": ex._signed_pow, "_miss": miss,
              "_zero": zero, "_hit": OrbitHitsExceptionalError, "_exc": exc,
              "_bisect": bisect_right}
        exec("\n".join(src), ns)
        return tuple(ns[k] for k in names)

    def compile_induce():
        # (a, b) is the previous step's branch, empty at the start; the
        # time-1 step's `s += log|Df|` equals adding a per-branch sum
        # 0.0 + log|Df| bit for bit, as log never returns -0.0
        abort = "return 'aborted', %s, s, n"
        src = (["def induce(x, k, lo, hi, cap, los, his, times):",
                "    s = 0.0",
                "    n = 0",
                "    a = b = 0.0",
                "    for _ in range(k):",
                "        if not a < x < b:",
                "            j = _bisect(los, x) - 1",
                "            if j < 0:",
                "                " + abort % "x",
                "            a = los[j]",
                "            b = his[j]",
                "            if not a < x < b:",
                "                " + abort % "x",
                "            t = times[j]",
                "        n += t",
                "        if n > cap:",
                "            return 'unreturned', x, s, n",
                "        if t == 1:"]
               + ladder("d = {df}; y = {f}\n"
                        "if d == 0.0: " + abort % "x" + "\n"
                        "s += _m.log(abs(d))\n"
                        "x = y\n"
                        "if lo < x < hi: return 'returned', x, s, n\n"
                        "continue", "            ")
               + ["            " + abort % "x",
                  "        u = x",
                  "        p = 0.0",
                  "        for i in range(t):"]
               + ladder("d = {df}; y = {f}\n"
                        "if d == 0.0: " + abort % "u" + "\n"
                        "p += _m.log(abs(d))\n"
                        "x = y; continue", "            ")
               + ["            " + abort % "u",
                  "        s += p",
                  "        if lo < x < hi:",
                  "            return 'returned', x, s, n",
                  "    return 'done', x, s, n"])
        return compile_shapes(src, ("induce",))[0]

    src = (["def f(x):"] + ladder("return {f}", "    ")
           + ["    raise _miss(x)", "def step(x):"]
           + ladder("d = {df}; return {f}, d", "    ")
           + ["    raise _miss(x)"]
           + loop(["def walk(x, n):", "    out = []", "    put = out.append"],
                  "x = {f}; put(x); continue", "return out", "return out")
           + loop(["def compose(x, n):"], "x = {f}; continue",
                  "return None", "return x")
           + loop(["def compose_deriv(x, n):", "    s = 0.0", "    sg = 1"],
                  "d = {df}; y = {f}\n"
                  "if d == 0.0: raise _zero(x)\n"
                  "s += _m.log(abs(d))\n"
                  "if d < 0.0: sg = -sg\n"
                  "x = y; continue",
                  "raise _hit(i, x)", "return x, s, sg"))
    return compile_shapes(src, ("f", "step", "walk", "compose",
                                "compose_deriv")) + (compile_induce,)


class PiecewiseMap:
    """Compiled piecewise map, made by `build_map` from branches sorted by
    domain.  `exceptional` is the set of undefined points: every interior
    branch cut.  `eval`, `step`, `walk`, `compose` and `compose_deriv` are
    the stepping path (see the module docstring)."""

    def __init__(self, branches, ambient, lateral_values, orders):
        self.branches = branches
        self.ambient = ambient
        self.exceptional = [b.lo for b in self.branches[1:]]
        self.lateral_values = lateral_values
        self.orders = orders
        self._cuts = [b.lo for b in self.branches]
        (self._eval, self._step, self._walk, self._compose,
         self._compose_deriv, self._compile_induce) = _compile_ladders(
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

    def walk(self, x, n):
        """The iterates x_1 .. x_n of x in one compiled loop.  Shorter than n
        when the orbit reaches the exceptional set: the last iterate (x
        itself if none) is then the exceptional point that eval would have
        raised at.  Raises OutOfRangeError where eval does."""
        return self._walk(x, n)

    def compose(self, x, n):
        """f^n(x) from one compiled loop, without the list of `walk`; None
        where `walk` would stop short.  Raises OutOfRangeError where eval
        does."""
        return self._compose(x, n)

    def compose_deriv(self, x, n):
        """(f^n(x), sum of log|Df| along the n steps, product of the signs
        of Df) from one compiled loop.  Raises OrbitHitsExceptionalError(i,
        x) when step i starts on the exceptional point x, and
        ZeroDerivativeError where Df vanishes."""
        return self._compose_deriv(x, n)

    @cached_property
    def induce(self):
        """`induce(x, k, lo, hi, cap, los, his, times)` walks the induced
        map whose branches are (los[j], his[j]) with return times times[j],
        from x, in one compiled loop; los is sorted.
        Each induced step finds its branch (x strictly inside it; the
        previous step's branch is reused while x stays strictly inside it,
        so his[j] must not exceed los[j + 1]), counts its time into the
        f-steps, stops as 'unreturned' once they pass cap, before stepping,
        and applies f^time with `compose_deriv`'s arithmetic, adding that
        step's log sum to the running one.  The walk stops as 'returned'
        once an iterate lies in the open (lo, hi), and as 'done' after k
        steps.  It stops as 'aborted' where x lies in no branch, or where
        f^time hits the exceptional set, leaves the ambient interval or
        meets Df = 0.  Returns (state, x, log sum, f-steps); after 'aborted'
        and 'unreturned', x and the log sum are those before the failed
        step, and the f-steps include its time once it has a branch.
        Errors of the branch formulas propagate, as in `compose_deriv`.
        The loop is compiled on first access."""
        return self._compile_induce()

    def deriv(self, x):
        return self.branch_at(x).df(x)

    def eval_lateral(self, p):
        # branch closures are C2, so the one-sided limit is plain closure
        # evaluation of the adjacent branch
        return self._lateral_branch(p).f(p.point)

    def deriv_product(self, x, n):
        """(sum of log|Df| along n steps, product of derivative signs).
        Log space keeps 1e6-step products finite."""
        return self._compose_deriv(x, n)[1:]

    def nonlinearity(self):
        """sup |D2f| / |Df| over the validation grids of all branches; the
        concrete distortion-rate estimate used by the induction layer."""
        return max(b.nonlinearity for b in self.branches)


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

    def check_image(b, x, where):
        # exact bounds: the ladder rejects any iterate outside [lo, hi]
        try:
            y = b.f(x)
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            raise BranchImageError(
                "branch %r undefined at %s %r: %s" % (b.source, where, x, e),
                witness=x) from None
        if not lo <= y <= hi:
            raise BranchImageError(
                "branch %r maps %s %r to %r outside [%r, %r]"
                % (b.source, where, x, y, lo, hi), witness=x)

    for b in branches:
        prev = None
        min_d = float("inf")
        nonlin = 0.0
        for x in _midgrid(b.lo, b.hi, _VALIDATION_GRID):
            check_image(b, x, "grid point")
            try:
                d = b.df(x)
            except (ValueError, ZeroDivisionError, OverflowError) as e:
                raise ZeroDerivativeError(
                    "branch %r derivative undefined at grid point %r: %s"
                    % (b.source, x, e)) from None
            if d == 0.0:
                raise ZeroDerivativeError(
                    "branch %r has zero derivative at grid point %r"
                    % (b.source, x))
            if prev is not None and (d < 0.0) != (prev[1] < 0.0):
                raise ZeroDerivativeError(
                    "branch %r derivative changes sign between grid points "
                    "%r and %r" % (b.source, prev[0], x))
            prev = (x, d)
            try:
                dd = b.ddf(x)
            except (ValueError, ZeroDivisionError, OverflowError) as e:
                raise ZeroDerivativeError(
                    "branch %r second derivative undefined at grid point "
                    "%r: %s" % (b.source, x, e)) from None
            min_d = min(min_d, abs(d))
            nonlin = max(nonlin, abs(dd) / abs(d))
        # the closure at the ends gives the lateral values at the cuts and
        # f itself at the ambient ends
        check_image(b, b.lo, "domain end")
        check_image(b, b.hi, "domain end")
        b.min_abs_deriv = min_d
        b.nonlinearity = nonlin

    lateral_values = []
    orders = {}
    for left_branch, right_branch in zip(branches, branches[1:]):
        c = right_branch.lo
        pl = LateralPoint(c, "left")
        pr = LateralPoint(c, "right")
        lateral_values.append((pl, left_branch.f(c)))
        lateral_values.append((pr, right_branch.f(c)))
        orders[(c, "left")] = _local_order(left_branch, c)
        orders[(c, "right")] = _local_order(right_branch, c)

    return PiecewiseMap(branches, (lo, hi), lateral_values, orders)


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


def validate_nonflat(m):
    """The grid survey of every branch (see `build_map`) and a log-log fit
    of the non-flat order on each side of every exceptional point."""
    rep = ValidationReport()
    for b in m.branches:
        rep.branches.append({
            "domain": [b.lo, b.hi],
            "expr": b.source,
            "min_abs_deriv": b.min_abs_deriv,
            "nonlinearity": b.nonlinearity,
        })
    for left, right in zip(m.branches, m.branches[1:]):
        c = right.lo
        for side, br, sgn in (("left", left, -1.0), ("right", right, 1.0)):
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
