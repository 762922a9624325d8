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

Stepping has one path: the shapes of `PiecewiseMap` (`eval`, `walk`,
`compose`, `walk_bins`, `compose_deriv`, `induce`, `harvest` and `solve`).
Each is written once, as an ordinary function whose per-step branch work is
a `with ARMS:` block in the names F and DF, and a map compiles it on its
first use: `_expand` puts the map's comparison ladder over the cuts in
place of each block, one arm per branch with that branch's formulas
inlined, and the result is compiled under this file's name at the
template's own lines, so that a formula error points at its template.  At
an exceptional hit `eval` raises `ExceptionalPointError`, `walk` stops
short, `compose` returns None, `walk_bins` bins the point and stops, and
`compose_deriv` raises `OrbitHitsExceptionalError`.  `solve` finds the
roots of fⁿ(x) = x for both fixed-point searches, the periodic points of
`orbits.find_periodic_points` and the neutral core of
`induction.expansion_analysis`, through `orbits._grid_roots`, and the roots
of fⁿ(x) = c that cut the laps.

Every orbit of more than one step follows `walk`'s stop rule, in every
module: an orbit that reaches an exceptional point stops, and that point
is its last iterate; an iterate outside the ambient interval (NaN too)
raises `OutOfRangeError`, which the CLI turns into exit 3.  Only a map
whose image overshoots the ambient interval between the points that
`build_map` checks has such an iterate.  Long orbits are walked one chunk
at a time (`orbits._iterates` and `orbits._binned_walk`), so that they do
not hold the whole orbit, and nothing outside this module steps an orbit
with one `eval` call per step.  A binned window does not go through
`walk`: `walk_bins` bins each iterate into a set in its compiled loop,
until every bin is visited, and `compose` steps the burn-in and the rest
of the window.
"""

import ast
import copy
import linecache
import math
from bisect import bisect_right, bisect_left
from functools import cache, cached_property, wraps
from math import floor

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
from .records import field, record

__all__ = [
    "LateralPoint", "BranchSpec", "MapSpec", "Branch", "PiecewiseMap",
    "build_map", "validate_nonflat", "ValidationReport",
    "mapspec_from_dict", "mapspec_to_dict",
]


@record(frozen=True)
class LateralPoint:
    point: float
    side: str  # 'left' = approach from below, 'right' = from above

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")


@record(frozen=True)
class BranchSpec:
    domain: tuple
    expr: str


@record(frozen=True)
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


@record
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


# ---------------------------------------------------------------------------
# shape templates

# Placeholders that the shape templates are written in, never evaluated:
# `_expand` replaces ARMS, F and DF (a template's only `with` statements are
# its ARMS blocks), and EXC is the map's exceptional set.
ARMS = F = DF = EXC = None


def _shape(template):
    """The shape `template` as a property of each map: expanded over the
    map's arms and compiled on first access, under this file's name at the
    template's own lines, then kept in the map's `__dict__`."""
    @wraps(template)
    def compiled(m):
        fn = copy.copy(_template(template))
        fn.decorator_list = []
        fn.body = _expand(fn.body, m._arms, {})
        ns = dict(globals(), _m=math, _sp=ex._signed_pow,
                  EXC=frozenset(m.exceptional))
        exec(compile(ast.Module([fn], []), __file__, "exec"), ns)
        return ns[fn.name]
    return cached_property(compiled)


@cache
def _template(fn):
    """The parsed `def` of the shape template `fn`, at its own lines: its
    `@_shape` line, its `def` line and every line after them that is blank
    or indented deeper."""
    lines = linecache.getlines(fn.__code__.co_filename)
    first = fn.__code__.co_firstlineno - 1      # the `@_shape` line
    deeper = " " * (len(lines[first]) - len(lines[first].lstrip()) + 1)
    end = first + 2
    while end < len(lines) and (lines[end].isspace()
                                or lines[end].startswith(deeper)):
        end += 1
    # an `if 1:` on the line above lets the indented block parse in place
    src = "\n" * (first - 1) + "if 1:\n" + "".join(lines[first:end])
    return ast.parse(src).body[0].body[0]


def _expand(stmts, arms, trees):
    """Template statements `stmts` with each `with ARMS:` block among them
    replaced by the comparison ladder over `arms`: per branch, `if upper:
    if lower:` and the block, where a statement whose value is a name in
    `trees` (F or DF) gets a copy of the branch's tree placed at that name.
    An x that no arm takes (NaN too) goes on past the ladder, so a block
    ends in a jump.  Only compound statements are copied; the rest are
    shared with the template."""
    out = []
    for s in stmts:
        name = getattr(s, "value", None)
        if isinstance(s, ast.With):
            at = {k: getattr(s, k) for k in s._attributes}
            x = ast.Name("x", ast.Load(), **at)
            ladder = []
            for upper, lower, f, df in reversed(arms):
                upper, lower = [
                    ast.Compare(x, [op], [ast.Constant(cut, **at)], **at)
                    for op, cut in (upper, lower)]
                body = _expand(s.body, arms, {"F": f, "DF": df})
                ladder = [ast.If(upper, [ast.If(lower, body, [], **at)],
                                 ladder, **at)]
            s = ladder[0]
        elif isinstance(s, (ast.For, ast.While, ast.If)):
            s = copy.copy(s)
            s.body = _expand(s.body, arms, trees)
            s.orelse = _expand(s.orelse, arms, trees)
        elif isinstance(name, ast.Name) and name.id in trees:
            s = copy.copy(s)
            s.value = _placed(trees[name.id],
                              {k: getattr(name, k) for k in name._attributes})
        out.append(s)
    return out


def _placed(node, at):
    """A copy of the expression tree `node` with every node at the place
    `at`, so that a traceback shows the template line."""
    if not node._attributes:   # operators and contexts have no place
        return node
    fields = {}
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, list):
            value = [_placed(v, at) for v in value]
        elif isinstance(value, ast.AST):
            value = _placed(value, at)
        fields[name] = value
    return type(node)(**fields, **at)


class PiecewiseMap:
    """Compiled piecewise map, made by `build_map` from branches sorted by
    domain.  `exceptional` is the set of undefined points: every interior
    branch cut.  Each shape of the stepping path is compiled from its
    template on first use (see the module docstring)."""

    def __init__(self, branches, ambient, lateral_values, orders):
        self.branches = branches
        self.ambient = ambient
        self.exceptional = [b.lo for b in self.branches[1:]]
        self.lateral_values = lateral_values
        self.orders = orders
        self._cuts = [b.lo for b in self.branches]

    @cached_property
    def _arms(self):
        """(upper test, lower test, f tree, Df tree) per branch, a test
        being (operator, cut): interior cuts are open on both sides, the
        ambient ends closed.  The trees are the `expr` codegen of the branch
        closures, so the shapes agree with them bit for bit."""
        last = len(self.branches) - 1
        return [((ast.Lt() if i < last else ast.LtE(), b.hi),
                 (ast.Gt() if i else ast.GtE(), b.lo))
                + tuple(ast.parse(ex._codegen(t), mode="eval").body
                        for t in (b.ast, b.d_ast))
                for i, b in enumerate(self.branches)]

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
        return self._f(x)

    @_shape
    def _f(x):
        """f(x), for `eval`."""
        with ARMS:
            return F
        raise ExceptionalPointError(x) if x in EXC else OutOfRangeError(x)

    @_shape
    def walk(x, n):
        """The iterates x_1 .. x_n of x in one compiled loop.  Shorter than n
        when the orbit reaches the exceptional set: the last iterate (x
        itself if none) is then the exceptional point that eval would have
        raised at.  Raises OutOfRangeError where eval does."""
        out = []
        put = out.append
        for i in range(n):
            with ARMS:
                x = F
                put(x)
                continue
            if x in EXC:
                return out
            raise OutOfRangeError(x)
        return out

    @_shape
    def compose(x, n):
        """f^n(x) from one compiled loop, without the list of `walk`; None
        where `walk` would stop short.  Raises OutOfRangeError where eval
        does."""
        for i in range(n):
            with ARMS:
                x = F
                continue
            if x in EXC:
                return None
            raise OutOfRangeError(x)
        return x

    @_shape
    def walk_bins(x, n, lo, res, seen, full):
        """Bins the iterates x_0 = x .. x_(n-1) into the set `seen`, each as
        floor((x - lo) / res) once the ladder has taken it, in one compiled
        loop without the list of `walk`.  Returns (next x, iterates binned,
        hit): it stops once a new bin brings len(seen) to `full`, with the
        iterate after that bin's, and on an exceptional point, which it bins
        and returns with hit True.  Raises OutOfRangeError where eval
        does."""
        for i in range(n):
            with ARMS:
                k = floor((x - lo) / res)
                x = F
                if k not in seen:
                    seen.add(k)
                    if len(seen) == full:
                        return x, i + 1, False
                continue
            if x in EXC:
                seen.add(floor((x - lo) / res))
                return x, i + 1, True
            raise OutOfRangeError(x)
        return x, n, False

    @_shape
    def compose_deriv(x, n):
        """(f^n(x), sum of log|Df| along the n steps, product of the signs
        of Df) from one compiled loop.  Each step evaluates Df before f.
        Raises OrbitHitsExceptionalError(i, x) when step i starts on the
        exceptional point x, ZeroDerivativeError where Df vanishes, and
        OutOfRangeError where eval does."""
        s = 0.0
        sg = 1
        for i in range(n):
            with ARMS:
                d = DF
                y = F
                if d == 0.0:
                    raise ZeroDerivativeError(
                        "derivative vanishes at x=%r" % (x,))
                s += math.log(abs(d))
                if d < 0.0:
                    sg = -sg
                x = y
                continue
            if x in EXC:
                raise OrbitHitsExceptionalError(i, x)
            raise OutOfRangeError(x)
        return x, s, sg

    @_shape
    def induce(x, k, lo, hi, cap, los, his, times):
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
        Errors of the branch formulas propagate, as in `compose_deriv`."""
        # (a, b) is the previous step's branch, empty at the start; a step
        # of time 1 runs the arms outside the per-step loop (a `long_orbits`
        # round takes 7% longer without), and its `s += log|Df|` equals
        # adding 0.0 + log|Df| bit for bit, as log never returns -0.0
        s = 0.0
        n = 0
        a = b = 0.0
        for _ in range(k):
            if not a < x < b:
                j = bisect_right(los, x) - 1
                if j < 0:
                    return "aborted", x, s, n
                a = los[j]
                b = his[j]
                if not a < x < b:
                    return "aborted", x, s, n
                t = times[j]
            n += t
            if n > cap:
                return "unreturned", x, s, n
            if t == 1:
                with ARMS:
                    d = DF
                    y = F
                    if d == 0.0:
                        return "aborted", x, s, n
                    s += math.log(abs(d))
                    x = y
                    if lo < x < hi:
                        return "returned", x, s, n
                    continue
                return "aborted", x, s, n
            u = x
            p = 0.0
            for i in range(t):
                with ARMS:
                    d = DF
                    y = F
                    if d == 0.0:
                        return "aborted", u, s, n
                    p += math.log(abs(d))
                    x = y
                    continue
                return "aborted", u, s, n
            s += p
            if lo < x < hi:
                return "returned", x, s, n
        return "done", x, s, n

    @_shape
    def harvest(x, k, n_max, U, put):
        """`harvest(x, k, n_max, U, put)` follows the orbit of x for k
        iterates in one compiled loop and calls put((start, n, log|Df^n|
        (start))) for each maximal run of iterates outside U, cut every
        n_max steps.  An iterate lies in U when a < x < b for some (a, b)
        in U.  Inside U the run is closed and f applied; outside, Df is
        evaluated before f, the walk stops where Df = 0, and log|Df| is
        added to the run.  The walk also stops where `eval` would raise (an
        exceptional point, outside the ambient interval, NaN), and closes
        the open run at its end.  Errors of the branch formulas
        propagate."""
        # r, s and x0 are the open run's length, log sum and start; the
        # for-else runs the outside-U arms when no component holds x, and
        # a break out of the step loop is where eval would raise
        r = 0
        s = 0.0
        x0 = x
        for _ in range(k):
            for a, b in U:
                if a < x < b:
                    break
            else:
                with ARMS:
                    d = DF
                    y = F
                    if d == 0.0:
                        break
                    if not r:
                        x0 = x
                    s += math.log(abs(d))
                    r += 1
                    if r == n_max:
                        put((x0, r, s))
                        r = 0
                        s = 0.0
                    x = y
                    continue
                break
            if r:
                put((x0, r, s))
                r = 0
                s = 0.0
            with ARMS:
                x = F
                continue
            break
        if r:
            put((x0, r, s))

    @_shape
    def solve(a, b, fa, fb, n, v=None):
        """`solve(a, b, ga, gb, n, v=None)` finds a root of g(x) = f^n(x) - x,
        or of g(x) = f^n(x) - v when v is given, in the bracket between a
        and b, where ga = g(a) and gb = g(b) have opposite signs, in one
        compiled loop.  Brent's method runs while the bracket is wider than
        2 ulps of its best end; bisection then halves it until it holds two
        adjacent floats.  Returns a point where g is 0, else the end of
        that last bracket where |g| is smaller.  f^n is `compose`'s
        arithmetic; an evaluation that hits the exceptional set is retried
        once at a point moved by 1e-3 of the bracket inward, and a second
        hit (or a move that leaves the bracket) returns the best end so
        far.  OutOfRangeError and errors of the branch formulas
        propagate."""
        # Brent's method (zbrent, Numerical Recipes 9.3) on (b, c) while
        # the bracket is wider than 2 ulps of b, then bisection; b is the
        # best point, a the previous one; t is the next point and u the
        # one evaluated, t itself or once nudged toward c after a hit
        c = a
        fc = fa
        d = e = b - a
        brent = True
        while True:
            if brent:
                if (fb > 0.0) == (fc > 0.0):
                    c = a
                    fc = fa
                    d = e = b - a
                if abs(fc) < abs(fb):
                    a = b
                    b = c
                    c = a
                    fa = fb
                    fb = fc
                    fc = fa
                tol = math.ulp(b)
                h = 0.5 * (c - b)
                brent = not -tol <= h <= tol
            if brent:
                if not -tol < e < tol and abs(fa) > abs(fb):
                    s = fb / fa
                    if a == c:
                        p = 2.0 * h * s
                        q = 1.0 - s
                    else:
                        q = fa / fc
                        r = fb / fc
                        p = s * (2.0 * h * q * (q - r) - (b - a) * (r - 1.0))
                        q = (q - 1.0) * (r - 1.0) * (s - 1.0)
                    if p > 0.0:
                        q = -q
                    else:
                        p = -p
                    if (2.0 * p < 3.0 * h * q - abs(tol * q)
                            and 2.0 * p < abs(e * q)):
                        e = d
                        d = p / q
                    else:
                        d = e = h
                else:
                    d = e = h
                a = b
                fa = fb
                t = b + (math.copysign(tol, h) if -tol <= d <= tol else d)
            else:
                t = 0.5 * (b + c)
                if not (b < t < c or c < t < b):
                    return b if abs(fb) <= abs(fc) else c
            u = t
            while True:
                x = u
                for i in range(n):
                    with ARMS:
                        x = F
                        continue
                    if x in EXC:
                        break
                    raise OutOfRangeError(x)
                else:
                    break
                if u != t:
                    return b
                u = t + (c - b) * 1e-3
                if u == t or not (b < u < c or c < u < b):
                    return b
            g = x - (u if v is None else v)
            if g == 0.0:
                return u
            if brent or (g > 0.0) == (fb > 0.0):
                b = u
                fb = g
            else:
                c = u
                fc = g

    def deriv(self, x):
        return self.branch_at(x).df(x)

    def eval_lateral(self, p):
        # branch closures are C2, so the one-sided limit is plain closure
        # evaluation of the adjacent branch
        return self._lateral_branch(p).f(p.point)

    def deriv_product(self, x, n):
        """(sum of log|Df| along n steps, product of derivative signs).
        Log space keeps 1e6-step products finite."""
        return self.compose_deriv(x, n)[1:]

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
                if abs(ex.compile_fn(node.arg)(c)) < 1e-10:
                    found.append(node.order)
            except Exception:
                pass
            walk(node.arg)
        elif isinstance(node, ex.Unary):
            walk(node.arg)
        elif isinstance(node, ex.Binary):
            if node.op == "^" and isinstance(node.right, ex.Const):
                try:
                    if (abs(ex.compile_fn(node.left)(c)) < 1e-10
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


def _check_image(b, x, where, lo, hi):
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


def _survey(b, lo, hi):
    """(min |Df|, sup |D2f|/|Df|) of branch b over its validation grid, in
    one loop that checks each grid point in turn: its image lies in
    [lo, hi], Df is defined, nonzero and of the previous point's sign, and
    D2f is defined.  Then the closure must map both domain ends into
    [lo, hi].  The first check that fails raises; a failing image is
    reported by `_check_image`, which evaluates f there again."""
    f, df, ddf = b.f, b.df, b.ddf
    min_d = float("inf")
    nonlin = 0.0
    neg = px = None     # the sign of Df at the previous grid point px
    for x in _midgrid(b.lo, b.hi, _VALIDATION_GRID):
        try:
            y = f(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            y = math.nan    # fails the bounds; _check_image says why
        if not lo <= y <= hi:
            _check_image(b, x, "grid point", lo, hi)
        try:
            d = df(x)
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            raise ZeroDerivativeError(
                "branch %r derivative undefined at grid point %r: %s"
                % (b.source, x, e)) from None
        if d == 0.0:
            raise ZeroDerivativeError(
                "branch %r has zero derivative at grid point %r"
                % (b.source, x))
        s = d < 0.0
        if s is not neg:
            if neg is not None:
                raise ZeroDerivativeError(
                    "branch %r derivative changes sign between grid points "
                    "%r and %r" % (b.source, px, x))
            neg = s
        try:
            dd = ddf(x)
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            raise ZeroDerivativeError(
                "branch %r second derivative undefined at grid point "
                "%r: %s" % (b.source, x, e)) from None
        if s:
            d = -d      # |Df|, and |D2f| below
        if d < min_d:
            min_d = d
        if dd < 0.0:
            dd = -dd
        dd /= d
        if dd > nonlin:
            nonlin = dd
        px = x
    # the closure at the ends gives the lateral values at the cuts and f
    # itself at the ambient ends
    _check_image(b, b.lo, "domain end", lo, hi)
    _check_image(b, b.hi, "domain end", lo, hi)
    return min_d, nonlin


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
        b.min_abs_deriv, b.nonlinearity = _survey(b, lo, hi)

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

@record
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
