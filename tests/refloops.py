"""Reference orbit loops: the per-step Python loops that the compiled
`compose`, `compose_deriv`, `induce` and `harvest` ladder shapes replaced,
kept verbatim so the tests can check the shapes against them bit for bit,
a per-evaluation `solve`, and the SVG graphs that sampled every point
through `eval`.

`install(monkeypatch)` swaps every one of them back into the package and
returns a dict that counts the calls each reference receives.

`find_periodic_points` is the bisection search that `solve` replaced, kept
verbatim as an oracle for counts, periods and last-bit moves; `install`
leaves it out, as its points differ in the last bits by design.
"""

import math
from bisect import bisect_left, insort

from intervaldyn import cli, induction, mane, mapcore, svgplot
from intervaldyn.errors import (
    BranchExplosionError,
    ConfigError,
    ExceptionalPointError,
    IntervalDynError,
    OrbitHitsExceptionalError,
    ZeroDerivativeError,
)
from intervaldyn.orbits import _CYL_CAP, _DEDUP_TOL, _nudged
from intervaldyn.rng import SplitMix64


def deriv_product(m, x, n):
    """`PiecewiseMap.deriv_product`: (sum of log|Df|, sign product)."""
    log_abs = 0.0
    sign = 1
    for i in range(n):
        try:
            y, d = m.step(x)
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


def compose(m, x, n):
    """`orbits._compose`: f^n(x) for n >= 1, or None when the orbit reaches
    the exceptional set first."""
    ys = m.walk(x, n)
    return ys[-1] if len(ys) == n else None


def solve(m, a, b, fa, fb, n, v=None):
    """`PiecewiseMap.solve`: Brent's method, then bisection, on f^n(x) - x
    or f^n(x) - v, with one `compose` per evaluation."""
    c, fc = a, fa
    d = e = b - a
    brent = True
    while True:
        if brent:
            if (fb > 0.0) == (fc > 0.0):
                c, fc = a, fa
                d = e = b - a
            if abs(fc) < abs(fb):
                a, b, c = b, c, b
                fa, fb, fc = fb, fc, fb
            tol = math.ulp(b)
            h = 0.5 * (c - b)
            brent = abs(h) > tol
        if brent:
            if abs(e) >= tol and abs(fa) > abs(fb):
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
                p = abs(p)
                if 2.0 * p < min(3.0 * h * q - abs(tol * q), abs(e * q)):
                    e = d
                    d = p / q
                else:
                    d = e = h
            else:
                d = e = h
            a, fa = b, fb
            t = b + (d if abs(d) > tol else math.copysign(tol, h))
        else:
            t = 0.5 * (b + c)
            if not (b < t < c or c < t < b):
                return b if abs(fb) <= abs(fc) else c
        u = t
        y = m.compose(u, n)
        if y is None:
            u = t + (c - b) * 1e-3
            if u == t or not (b < u < c or c < u < b):
                return b
            y = m.compose(u, n)
            if y is None:
                return b
        g = y - (u if v is None else v)
        if g == 0.0:
            return u
        if brent or (g > 0.0) == (fb > 0.0):
            b, fb = u, g
        else:
            c, fc = u, g


def _preimage_in(m, n, u, v, target, gu, gv):
    """Bisect the monotone f^n on (u, v) for f^n(x) = target; gu, gv are
    f^n at the (nudged) ends."""
    increasing = gv > gu
    a, b = u, v
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            break
        gm = m.compose(mid, n)
        if gm is None:
            # exact hit of the undefined set mid-composition; nudge once
            mid += (b - a) * 1e-3
            if not (a < mid < b):
                break
            gm = m.compose(mid, n)
            if gm is None:
                break
        if (gm < target) == increasing:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def least_period(m, x, n):
    """The per-step loop of `orbits._least_period`: one eval per iterate."""
    y = x
    for d in range(1, n + 1):
        try:
            y = m.eval(y)
        except ExceptionalPointError:
            return n
        if abs(y - x) <= 1e-8:
            return d
    return n


def find_periodic_points(m, period_max):
    """Periodic points up to period_max via monotone-piece enumeration of
    the iterates: within each maximal interval on which f^n is a smooth
    composition, scan f^n(x) - x for sign changes and bisect."""
    if period_max > 24:
        raise ConfigError("period_max > 24 (piece count is exponential)")
    lo, hi = m.ambient
    results = []
    xs = []             # recorded x, sorted

    def known(x):
        # rounded |x - r| never shrinks away from x, so the nearest recorded
        # point on either side decides
        i = bisect_left(xs, x)
        return any(abs(x - r) <= _DEDUP_TOL for r in xs[max(i - 1, 0):i + 1])

    def record(x, n):
        if known(x):
            return
        d = least_period(m, x, n)
        try:
            log_abs, _ = m.deriv_product(x, d)
            mult = math.exp(log_abs)
        except (IntervalDynError, ValueError, OverflowError):
            mult = float("nan")
        results.append((x, d, mult))
        insort(xs, x)

    # ambient endpoints: closures are defined there but sign-change
    # bracketing cannot see a root pinned at the domain edge
    for e in (lo, hi):
        x = e
        for n in range(1, period_max + 1):
            try:
                x = m.eval(x)
            except ExceptionalPointError:
                break
            if abs(x - e) <= 1e-9:
                record(e, n)
                break

    cylinders = [(b.lo, b.hi) for b in m.branches]
    for n in range(1, period_max + 1):
        new_cyls = []
        for u, v in cylinders:
            nu, nv = _nudged(u, v)
            grid = [nu] + [u + (v - u) * (j + 0.5) / 18.0
                           for j in range(18)] + [nv]
            # f^n on the grid, None after an exact hit
            imgs = [m.compose(y, n) for y in grid]
            vals = [None if y is None else y - x for x, y in zip(grid, imgs)]
            for (x0, g0), (x1, g1) in zip(zip(grid, vals),
                                          zip(grid[1:], vals[1:])):
                if g0 is None or g1 is None:
                    continue
                if g0 == 0.0:
                    record(x0, n)
                    continue
                if g0 * g1 < 0.0:
                    a, b = x0, x1
                    ga = g0
                    for _ in range(100):
                        mid = 0.5 * (a + b)
                        if mid <= a or mid >= b:
                            break
                        gm = m.compose(mid, n)
                        if gm is None:
                            break
                        gm -= mid
                        if (gm < 0.0) == (ga < 0.0):
                            a, ga = mid, gm
                        else:
                            b = mid
                    record(0.5 * (a + b), n)

            # split the cylinder at the preimages of the exceptional set
            # for period n + 1, from f^n at its nudged ends
            if n == period_max:
                continue
            gu, gv = imgs[0], imgs[-1]
            if gu is None or gv is None:
                new_cyls.append((u, v))
                continue
            img_lo, img_hi = min(gu, gv), max(gu, gv)
            splits = [u]
            for c in m.exceptional:
                if img_lo < c < img_hi:
                    splits.append(_preimage_in(m, n, nu, nv, c, gu, gv))
            splits.append(v)
            splits.sort()
            for a, b in zip(splits, splits[1:]):
                if b - a > 1e-13:
                    new_cyls.append((a, b))
            if len(new_cyls) > _CYL_CAP:
                raise BranchExplosionError(
                    "more than %d monotone pieces at period %d"
                    % (_CYL_CAP, n + 1))
        cylinders = new_cyls

    results.sort()
    return results


def safe_eval(m, x, t, span):
    """`induction._safe_eval`: f^t(x) with one inward-nudge retry if an
    iterate lands exactly on an exceptional point or outside the ambient
    interval."""
    try:
        y = m.compose(x, t)
    except IntervalDynError:
        y = None
    if y is None:
        x += span * 1e-9
        y = m.compose(x, t)
        if y is None:
            ys = m.walk(x, t)
            raise ExceptionalPointError(ys[-1] if ys else x)
    return y


def pull(m, u_lo, u_hi, t, y_at_lo, y_at_hi, target):
    """`induction._pull`: monotone bisection through `safe_eval`."""
    increasing = y_at_lo <= y_at_hi
    a, b = u_lo, u_hi
    if abs(y_at_lo - target) <= abs(y_at_hi - target):
        best_x, best_y = u_lo, y_at_lo
    else:
        best_x, best_y = u_hi, y_at_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= min(a, b) or mid >= max(a, b):
            break
        try:
            y = safe_eval(m, mid, t, b - a)
        except IntervalDynError:
            break
        if abs(y - target) < abs(best_y - target):
            best_x, best_y = mid, y
        if abs(y - target) <= induction._IMG_TOL:
            return mid, y
        if (y < target) == increasing:
            a = mid
        else:
            b = mid
    return best_x, best_y


def induced_step(m, x, time):
    """`induction._induced_step`: (f^time(x), log |Df^time(x)|) or None."""
    logd = 0.0
    try:
        for _ in range(time):
            x, d = m.step(x)
            if d == 0.0:
                return None
            logd += math.log(abs(d))
    except IntervalDynError:
        return None
    return x, logd


def induced_eval(ind, x):
    """`InducedMap.eval`: the branch's f^time, one `eval` per step."""
    b = ind.branch_at(x)
    if b is None:
        raise ConfigError("point %r lies in no discovered branch" % (x,))
    for _ in range(b.time):
        x = ind.map.eval(x)
    return x


def flank_stats(ind, flank):
    """`induction._flank_stats`: one `branch_at` and one `_induced_step`
    per induced step of each probe."""
    lo, hi = flank
    w = hi - lo
    returned = []
    unreturned = 0
    aborted = 0
    max_steps = 0
    for k in range(induction._FLANK_PROBES):
        x = lo + w * (k + 0.5) / induction._FLANK_PROBES
        logsum = 0.0
        fsteps = 0
        while True:
            br = ind.branch_at(x)
            if br is None:
                aborted += 1
                break
            fsteps += br.time
            if fsteps > induction._FLANK_CAP:
                unreturned += 1
                break
            step = induction._induced_step(ind.map, x, br.time)
            if step is None:
                aborted += 1
                break
            x, logd = step
            logsum += logd
            if lo < x < hi:
                returned.append(math.exp(logsum))
                max_steps = max(max_steps, fsteps)
                break
    min_deriv = min(returned) if returned else math.inf
    return {
        "returned": len(returned),
        "unreturned": unreturned,
        "aborted": aborted,
        "min_deriv": min_deriv,
        "max_fsteps": max_steps,
    }


def f2_gap(ind, x):
    """The `f2_gap` of `induction.expansion_analysis`: F(F(x)) - x, or
    None where F is undefined on the way."""
    y = x
    for _ in range(2):
        br = ind.branch_at(y)
        s = None if br is None else induction._induced_step(
            ind.map, y, br.time)
        if s is None:
            return None
        y = s[0]
    return y - x


def induced_walk(ind, x, k, lo, hi, cap=math.inf):
    """`InducedMap.induce`: the probe loop of `flank_stats`, stopped after
    k induced steps, returning (state, x, log sum, f-steps) at the stop."""
    logsum = 0.0
    fsteps = 0
    for _ in range(k):
        br = ind.branch_at(x)
        if br is None:
            return "aborted", x, logsum, fsteps
        fsteps += br.time
        if fsteps > cap:
            return "unreturned", x, logsum, fsteps
        step = induction._induced_step(ind.map, x, br.time)
        if step is None:
            return "aborted", x, logsum, fsteps
        x, logd = step
        logsum += logd
        if lo < x < hi:
            return "returned", x, logsum, fsteps
    return "done", x, logsum, fsteps


def harvest_from(m, U, x, n_max, segs):
    """One sample of `mane.harvest_segments`: the avoid-U runs of the
    orbit of x over 4*n_max iterates, appended to segs."""
    run_start = None
    run_len = 0
    run_log = 0.0

    def close():
        if run_len >= 1:
            segs.append((run_start, run_len, run_log))

    for _k in range(4 * n_max):
        if mane._inside(x, U):
            close()
            run_len = 0
            run_log = 0.0
            try:
                x = m.eval(x)
            except IntervalDynError:
                break
            continue
        try:
            nxt, d = m.step(x)
        except IntervalDynError:
            break
        if d == 0.0:
            break
        if run_len == 0:
            run_start = x
        run_log += math.log(abs(d))
        run_len += 1
        if run_len == n_max:
            close()
            run_len = 0
            run_log = 0.0
        x = nxt
    close()


def harvest_segments(m, U, samples, n_max, seed):
    """`mane.harvest_segments`: one `step` or `eval` per iterate."""
    rng = SplitMix64(seed)
    lo, hi = m.ambient
    segs = []
    for _ in range(samples):
        harvest_from(m, U, rng.uniform(lo, hi), n_max, segs)
    return segs


def refine_partition(ind, n):
    """`induction.refine_partition` without the pull-back memo: two
    `_branch_pull` calls per overlapping (branch, cell) pair."""
    n = int(n)
    if not (0 <= n <= 8):
        raise ConfigError("n must be in [0, 8]")
    count = len(ind.branches)
    if count == 0:
        raise ConfigError("induced map has no branches")
    if count ** max(n, 1) > 1_000_000:
        raise induction.BranchExplosionError(
            "branch_count^n = %d^%d exceeds 1e6" % (count, n))
    level = [(br.lo, br.hi, (i,)) for i, br in enumerate(ind.branches)]
    for _ in range(n):
        nxt = []
        for i, br in enumerate(ind.branches):
            for (c_lo, c_hi, itin) in level:
                ov_lo = max(c_lo, br.img_lo)
                ov_hi = min(c_hi, br.img_hi)
                if ov_hi - ov_lo <= induction._SLIVER:
                    continue
                u0, _ = induction._branch_pull(ind, br, ov_lo)
                u1, _ = induction._branch_pull(ind, br, ov_hi)
                d_lo, d_hi = (u0, u1) if u0 <= u1 else (u1, u0)
                if d_hi - d_lo <= induction._SLIVER:
                    continue
                nxt.append((d_lo, d_hi, (i,) + itin))
        level = nxt
    cells = []
    for (c_lo, c_hi, itin) in sorted(level):
        w = c_hi - c_lo
        logs = []
        for q in (0.25, 0.5, 0.75):
            x = c_lo + w * q
            total = 0.0
            for k in range(n):
                s = induction._induced_step(
                    ind.map, x, ind.branches[itin[k]].time)
                if s is None:
                    break
                x, log_abs = s
                total += log_abs
            else:
                logs.append(total)
        distortion = math.exp(max(logs) - min(logs)) if len(logs) >= 2 else 1.0
        cells.append(induction.PartitionCell(c_lo, c_hi, itin, distortion))
    return cells


def _graph_frame(lo, hi, size, margin):
    """`svgplot._graph_frame`: screen transforms as two closures."""
    span = hi - lo
    scale = (size - 2 * margin) / span

    def sx(x):
        return margin + (x - lo) * scale

    def sy(y):
        return size - margin - (y - lo) * scale

    frame = [
        svgplot._rect(margin, margin, size - 2 * margin, size - 2 * margin,
                      "none", ' stroke="#444" stroke-width="1"'),
        svgplot._line(sx(lo), sy(lo), sx(hi), sy(hi), "#bbb", dash="4,3"),
    ]
    return sx, sy, frame


def _polyline(pts, stroke, width=1.0):
    """`svgplot._polyline`: one `%` per point."""
    coords = " ".join("%.2f,%.2f" % (x, y) for x, y in pts)
    return ('<polyline points="%s" fill="none" stroke="%s" '
            'stroke-width="%.2f"/>' % (coords, stroke, width))


def _branch_polyline(f, lo, hi, sx, sy, color, samples=160):
    """`svgplot._branch_polyline`: every sample through f."""
    pts = []
    for j in range(samples + 1):
        x = lo + (hi - lo) * (j + 0.5) / (samples + 1.0)
        try:
            pts.append((sx(x), sy(f(x))))
        except IntervalDynError:
            continue
    return _polyline(pts, color, 1.4) if len(pts) >= 2 else ""


def cobweb(m, orbit, n, path=None):
    """`svgplot.cobweb`: branch samples through `eval`."""
    lo, hi = m.ambient
    size, margin = 480, 40.0
    sx, sy, body = _graph_frame(lo, hi, size, margin)
    for i, br in enumerate(m.branches):
        body.append(_branch_polyline(m.eval, br.lo, br.hi, sx, sy,
                                     svgplot._PALETTE[i % len(
                                         svgplot._PALETTE)]))
    pts = [(sx(orbit[0]), sy(lo))]
    for x, y in zip(orbit, orbit[1:]):
        pts.append((sx(x), sy(y)))
        pts.append((sx(y), sy(y)))
    body.append(_polyline(pts, "#222", 0.9))
    body.append(svgplot._text(margin, size - 12.0,
                              "x0=%g  n=%d" % (orbit[0], n)))
    return svgplot._svg(size, size, body, path)


def return_map_graph(ind, path=None):
    """`svgplot.return_map_graph`: branch samples through `InducedMap.eval`
    (`branch_at`, then `compose`)."""
    lo, hi = ind.base
    size, margin = 480, 40.0
    sx, sy, body = _graph_frame(lo, hi, size, margin)
    tmax = max((b.time for b in ind.branches), default=1)
    for br in ind.branches:
        color = svgplot._PALETTE[br.time % len(svgplot._PALETTE)]
        body.append(_branch_polyline(ind.eval, br.lo, br.hi, sx, sy, color))
    body.append(svgplot._text(margin, size - 12.0,
                              "%d branches, deepest time %d"
                              % (len(ind.branches), tmax)))
    return svgplot._svg(size, size, body, path)


def install(monkeypatch):
    """Patch the reference loops in where the package looks them up."""
    calls = {}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    pm = mapcore.PiecewiseMap
    monkeypatch.setattr(pm, "deriv_product",
                        counted("deriv_product", deriv_product))
    monkeypatch.setattr(pm, "compose", counted("compose", compose))
    monkeypatch.setattr(pm, "solve", counted("solve", solve))
    monkeypatch.setattr(induction, "_pull", counted("pull", pull))
    monkeypatch.setattr(induction, "_induced_step",
                        counted("induced_step", induced_step))
    monkeypatch.setattr(induction.InducedMap, "eval",
                        counted("induced_eval", induced_eval))
    monkeypatch.setattr(induction.InducedMap, "induce",
                        counted("induce", induced_walk))
    refine = counted("refine_partition", refine_partition)
    monkeypatch.setattr(induction, "refine_partition", refine)
    monkeypatch.setattr(cli, "refine_partition", refine)
    monkeypatch.setattr(mane, "harvest_segments",
                        counted("harvest_segments", harvest_segments))
    monkeypatch.setattr(svgplot, "cobweb", counted("cobweb", cobweb))
    monkeypatch.setattr(svgplot, "return_map_graph",
                        counted("return_map_graph", return_map_graph))
    return calls
