"""Reference orbit loops: the per-step Python loops that the compiled
`compose`, `compose_deriv`, `induce` and `harvest` ladder shapes replaced,
kept verbatim so the tests can check the shapes against them bit for bit,
a per-evaluation `solve`, the SVG graphs that sampled every point
through `eval`, and the one-`eval`-per-step orbit loops that `walk`
replaced in `recurrence_check`, `_verify`, `is_nice`,
`detect_periodic_like` (with `_one_sided_convergence`) and `cmd_plot`.

`install(monkeypatch)` swaps every one of them back into the package and
returns a dict that counts the calls each reference receives, but for
`is_nice` and `detect_periodic_like`, which no CLI command reaches.

`find_periodic_points` is the bisection search that `solve` replaced, and
`expansion_analysis` holds the neutral-core search that `compose` and
`solve` replaced (two `induce` steps per grid point, bisection to
_FIX_TOL); both are kept verbatim as oracles for counts, periods and
last-bit moves.  `install` leaves them out, as their points differ in the
last bits by design.

`survey` is `mapcore.build_map`'s per-point grid survey of one branch
as it was before one loop on local closures replaced it; it is the oracle
of `mapcore._survey`'s values, errors, messages and witnesses.

`binned_walk` is the chunked binned walk of basin sampling and omega
covers as it was when it walked every chunk and binned every window
iterate, before `compose` stepped what it need not bin; it is the oracle of
the bins, head and hit of `orbits._binned_walk`.
"""

import math
import os
from bisect import bisect_left, insort

from intervaldyn import (
    classify, cli, induction, mane, mapcore, orbits, svgplot)
from intervaldyn.errors import (
    BranchExplosionError,
    BranchImageError,
    ConfigError,
    DegenerateOrbitError,
    ExceptionalPointError,
    IntervalDynError,
    OrbitHitsExceptionalError,
    OutOfRangeError,
    ZeroDerivativeError,
)
from intervaldyn.mapcore import LateralPoint
from intervaldyn.orbits import (
    EPS_LADDER, PeriodicLike, _CHUNK, _CYL_CAP, _DEDUP_TOL, _nbins, _nudged)
from intervaldyn.rng import SplitMix64


def _step(m, x):
    """(f(x), Df(x)) through `branch_at` and the branch closures, Df
    first: the per-step evaluation of the references, independent of the
    compiled shapes."""
    b = m.branch_at(x)
    d = b.df(x)
    return b.f(x), d


def deriv_product(m, x, n):
    """`PiecewiseMap.deriv_product`: (sum of log|Df|, sign product)."""
    log_abs = 0.0
    sign = 1
    for i in range(n):
        try:
            y, d = _step(m, x)
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
    """One induced step of the given return time, one `_step` per f-step:
    (f^time(x), log |Df^time(x)|), or None if the orbit hits an exceptional
    point, leaves the ambient interval or meets a zero derivative."""
    logd = 0.0
    try:
        for _ in range(time):
            x, d = _step(m, x)
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
    """`induction._flank_stats`: one `branch_at` and one `induced_step`
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
            step = induced_step(ind.map, x, br.time)
            if step is None:
                aborted += 1
                break
            x, logd = step
            logsum += logd
            if lo < x < hi:
                returned.append(math.exp(logsum))
                max_steps = max(max_steps, fsteps)
                break
    min_deriv = min(returned) if returned else None
    return {
        "returned": len(returned),
        "unreturned": unreturned,
        "aborted": aborted,
        "min_deriv": min_deriv,
        "max_fsteps": max_steps,
    }


def f2_gap(ind, x):
    """F(F(x)) - x of the induced map, one `induced_step` per induced step,
    or None where F is undefined on the way."""
    y = x
    for _ in range(2):
        br = ind.branch_at(y)
        s = None if br is None else induced_step(
            ind.map, y, br.time)
        if s is None:
            return None
        y = s[0]
    return y - x


_FIX_TOL = 1e-10


def expansion_analysis(ind, m):
    """`induction.expansion_analysis` with the neutral-core search that
    `compose` and `solve` replaced: F^2 by two `induce` steps on the grid,
    and each sign change bisected to a bracket of _FIX_TOL."""
    if ind.kind != "first_return":
        raise induction.NotNiceError(
            "expansion analysis needs a first-return map")
    if not ind.branches:
        raise ConfigError("induced map has no branches")
    dist = induction.measure_distortion(ind, probes=32)
    eps2 = max(dist - 1.0, 0.0)
    eps = math.sqrt(eps2)
    o1 = m.nonlinearity()
    K = 5.0 * induction._exp(o1)
    applicable = eps < 1.0 / (6.0 * K) if math.isfinite(K) else False
    details = {"distortion": dist, "o_one": o1}

    offsets = ([1e-4]
               + [(k + 0.5) / induction._EXPANSION_PROBES
                  for k in range(induction._EXPANSION_PROBES)]
               + [1.0 - 1e-4])
    per_branch = []
    for br in ind.branches:
        w = br.hi - br.lo
        vals = []
        for q in offsets:
            x = br.lo + w * q
            try:
                log_abs, _ = m.deriv_product(x, br.time)
            except IntervalDynError:
                continue
            vals.append(induction._exp(log_abs))
        if vals:
            per_branch.append((min(vals), br))
    if not per_branch:
        raise ConfigError("no branch admitted derivative probes")
    min_expansion = min(v for v, _ in per_branch)

    if min_expansion > 1.0 + eps2:
        gamma_len = ind.base[1] - ind.base[0]
        Gamma = induction._gamma_bound(m, ind, eps, o1, gamma_len, details)
        valid = applicable
        return induction.ExpansionReport(
            eps, K, "uniformly_expanding", min_expansion, Gamma, applicable,
            valid, details)

    _, p_br = min(per_branch, key=lambda t: t[0])
    ip0 = (p_br.lo, p_br.hi)
    lo_t = max(p_br.lo, p_br.img_lo)
    hi_t = min(p_br.hi, p_br.img_hi)
    u0, _ = induction._dom_point(ind.map, p_br, lo_t)
    u1, _ = induction._dom_point(ind.map, p_br, hi_t)
    ip = (u0, u1) if u0 <= u1 else (u1, u0)

    def f2_gap(x):
        state, y, _, _ = ind.induce(x, 2, 0.0, 0.0)
        return y - x if state == "done" else None

    xs = []
    hs = []
    w_ip = ip[1] - ip[0]
    for k in range(induction._FIX_GRID):
        x = ip[0] + w_ip * (k + 0.5) / induction._FIX_GRID
        h = f2_gap(x)
        if h is not None:
            xs.append(x)
            hs.append(h)

    roots = []
    for i in range(len(xs) - 1):
        if hs[i] == 0.0:
            roots.append(xs[i])
            continue
        if hs[i] * hs[i + 1] > 0.0:
            continue
        a, b = xs[i], xs[i + 1]
        ha = hs[i]
        while b - a > _FIX_TOL:
            mid = 0.5 * (a + b)
            hm = f2_gap(mid)
            if hm is None:
                break
            if hm == 0.0:
                a = b = mid
                break
            if (hm < 0.0) == (ha < 0.0):
                a, ha = mid, hm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    if hs and hs[-1] == 0.0:
        roots.append(xs[-1])
    if not roots:
        raise induction.NeutralCoreNotBracketableError(
            "no fixed point of the second-iterate return map bracketable "
            "in %r at tolerance %g" % (ip, _FIX_TOL))
    core = (min(roots), max(roots))

    j_lo, j_hi = ind.base
    flanks = ((j_lo, ip[0]), (ip[1], j_hi))
    connectors = ((ip[0], core[0]), (core[1], ip[1]))
    stats = []
    for fl in flanks:
        if fl[1] - fl[0] > induction._SLIVER:
            stats.append(flank_stats(ind, fl))
        else:
            stats.append(None)
    candidates = [i for i, s in enumerate(stats) if s is not None]
    if not candidates:
        raise induction.NeutralCoreNotBracketableError(
            "both flanks are degenerate")
    best = max(candidates,
               key=lambda i: (stats[i]["returned"],
                              stats[i]["min_deriv"] if stats[i]["returned"]
                              else -math.inf))
    chosen = stats[best]
    details.update({
        "ip0": ip0,
        "ip": ip,
        "core": core,
        "flanks": flanks,
        "connectors": connectors,
        "ell": best,
        "flank_stats": stats,
    })
    Gamma = induction._gamma_bound(
        m, ind, eps, o1, max(flanks[best][1] - flanks[best][0],
                             induction._SLIVER), details)
    valid = applicable and chosen["returned"] >= 1 and chosen["min_deriv"] > 3.0
    return induction.ExpansionReport(eps, K, "neutral_core", min_expansion,
                                     Gamma, applicable, valid, details)


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
        step = induced_step(ind.map, x, br.time)
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
            nxt, d = _step(m, x)
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
    """`mane.harvest_segments`: one `_step` or `eval` per iterate."""
    rng = SplitMix64(seed)
    lo, hi = m.ambient
    segs = []
    for _ in range(samples):
        harvest_from(m, U, rng.uniform(lo, hi), n_max, segs)
    return segs


def refine_partition(ind, n):
    """`induction.refine_partition` without the pull-back memo: two
    `_dom_point` calls per overlapping (branch, cell) pair."""
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
                u0, _ = induction._dom_point(ind.map, br, ov_lo)
                u1, _ = induction._dom_point(ind.map, br, ov_hi)
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
                s = induced_step(
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


def survey(b, lo, hi):
    """`mapcore._survey`: the grid survey of branch b on the ambient
    interval [lo, hi], (min |Df|, sup |D2f|/|Df|), with `min`, `max` and
    `abs` and a nested image check per grid point."""
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

    prev = None
    min_d = float("inf")
    nonlin = 0.0
    for x in mapcore._midgrid(b.lo, b.hi, mapcore._VALIDATION_GRID):
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
    return min_d, nonlin


def binned_walk(m, x, steps, burn_in, length, resolution, keep=0):
    """`orbits._binned_walk` as it was before it stopped binning at
    saturation: every chunk walked and every window iterate binned.

    Walk `steps` steps from x_0 = x and bin the iterates x_burn_in ..
    x_(burn_in+length-1) at `resolution`, one chunk at a time.  Returns
    (ks, nbins, head, hit): the visited bins of the grid of nbins bins,
    the first `keep` binned iterates, and the index of the exceptional
    point the walk stopped on (binned if inside the window), or None.  An
    iterate is binned only after `walk` has stepped it, so a NaN raises
    OutOfRangeError first."""
    lo = m.ambient[0]
    nbins = _nbins(m, resolution)
    end = burn_in + length
    raw = set()
    head = []
    i = 0               # orbit index of x
    hit = None
    while i < steps:
        n = min(_CHUNK, steps - i)
        pts = [x]
        pts += m.walk(x, n)     # x_i .. x_(i+n), shorter after a hit
        if len(pts) <= n:
            hit = i + len(pts) - 1
        else:
            x = pts.pop()       # stepped by the next chunk
        window = pts[max(burn_in - i, 0):end - i]
        raw |= {int((y - lo) / resolution) for y in window}
        if len(head) < keep:
            head += window[:keep - len(head)]
        if hit is not None:
            break
        i += n
    else:
        if burn_in <= steps < end:      # the last iterate, never stepped
            raw.add(int((x - lo) / resolution))
            if len(head) < keep:
                head.append(x)
    if raw and (min(raw) < 0 or max(raw) >= nbins):
        raw = {min(max(k, 0), nbins - 1) for k in raw}
    return raw, nbins, head, hit


def recurrence_check(m, v, length, eps):
    """`classify.recurrence_check`: one `eval` per step."""
    length = int(length)
    if length < 10_000:
        raise ConfigError("recurrence length must be >= 1e4")
    if eps <= 0:
        raise ConfigError("eps must be positive")
    target = v.point
    x = m.eval_lateral(v)
    if x == target:
        return True          # lateral fixed point: trivially recurrent
    burn = length // 10
    count = 0
    prev_in = False
    prev_x = None
    for k in range(length):
        inside = abs(x - target) <= eps
        if k > burn and inside and (not prev_in or x == prev_x):
            count += 1
            if count >= 3:
                return True
        prev_in = inside
        prev_x = x
        try:
            x = m.eval(x)
        except IntervalDynError:
            if k < burn:
                raise DegenerateOrbitError(
                    "orbit of %r hit the exceptional set at step %d "
                    "during burn-in" % (v, k))
            return count >= 3
    return count >= 3


def verify(m, branches, target, kind, flags):
    """`induction._verify`: one `eval` per step of each probe."""
    _flag = induction._flag
    alpha, beta = target
    width_j = beta - alpha
    for i, br in enumerate(branches):
        ratio = (br.img_hi - br.img_lo) / width_j
        if not (1.0 - 1e-6 <= ratio <= 1.0 + 1e-6):
            _flag(flags, "markov: branch %d image/base ratio %.9f" % (i, ratio))
        if br.time == 0:
            continue
        w = br.hi - br.lo
        finals = []
        for q in (0.25, 0.5, 0.75):
            x = br.lo + w * q
            try:
                for j in range(br.time):
                    if (kind == "first_entry" or j > 0) and alpha < x < beta:
                        _flag(flags, "probe: branch %d enters target at step %d"
                              % (i, j))
                        break
                    x = m.eval(x)
                else:
                    finals.append(x)
                    if not (alpha - 1e-9 <= x <= beta + 1e-9):
                        _flag(flags, "probe: branch %d misses target (%r)"
                              % (i, x))
            except IntervalDynError:
                _flag(flags, "probe: branch %d hit an exceptional point" % i)
        if len(finals) == 3:
            span = finals[2] - finals[0]
            if span * br.orientation <= 0:
                _flag(flags, "probe: branch %d not monotone as recorded" % i)


def is_nice(m, J, horizon):
    """`induction.is_nice`: one `eval` per step."""
    alpha, beta = induction._check_interval("J", J, m.ambient)
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    amb_lo, amb_hi = m.ambient
    starts = []
    for pt in (alpha, beta):
        for side in ("left", "right"):
            if (pt == amb_lo and side == "left") or \
               (pt == amb_hi and side == "right"):
                continue
            try:
                starts.append(m.eval_lateral(LateralPoint(pt, side)))
            except IntervalDynError:
                continue
    for x in starts:
        for _ in range(horizon):
            if alpha < x < beta:
                return False
            try:
                x = m.eval(x)
            except IntervalDynError:
                break
    return True


def detect_periodic_like(m, p, l_max=16, tol=1e-9):
    """`orbits.detect_periodic_like`: one `eval` per step."""
    if l_max > 64:
        raise ConfigError("l_max > 64")
    sgn = -1.0 if p.side == "left" else 1.0
    p0 = p.point
    orbs = []
    for eps in EPS_LADDER:
        pts = [p0 + sgn * eps]
        for _ in range(l_max):
            try:
                pts.append(m.eval(pts[-1]))
            except (ExceptionalPointError, OutOfRangeError):
                break
        orbs.append(pts)

    for ell in range(1, l_max + 1):
        dists = []
        for pts in orbs:
            if len(pts) <= ell:
                dists = None
                break
            y = pts[ell]
            if sgn * (y - p0) <= 0.0:
                dists = None
                break
            dists.append(abs(y - p0))
        if dists is None:
            continue
        if not (dists[1] <= 0.35 * dists[0]
                and dists[2] <= 0.35 * dists[1]):
            continue
        r_mid = dists[1] / EPS_LADDER[1]
        r_fine = dists[2] / EPS_LADDER[2]
        mult = r_fine + (r_fine - r_mid) / 9.0
        mult = max(mult, 0.0)
        if mult < 1.0 - tol:
            attracting = True
        elif mult <= 1.0 + tol:
            attracting = one_sided_convergence(m, p0, sgn, ell)
        else:
            attracting = False
        return PeriodicLike(p, ell, mult, attracting)
    return None


def one_sided_convergence(m, p0, sgn, ell, rounds=40):
    """`orbits._one_sided_convergence`: one `eval` per step."""
    x = p0 + sgn * EPS_LADDER[0]
    prev = abs(x - p0)
    shrunk = True
    for _ in range(rounds):
        for _ in range(ell):
            try:
                x = m.eval(x)
            except ExceptionalPointError:
                return False
        d = abs(x - p0)
        if sgn * (x - p0) <= 0.0 or d >= prev:
            shrunk = False
            break
        prev = d
    return shrunk


def cmd_plot(args):
    """`cli.cmd_plot`: one `eval` per step."""
    m = cli._load_map(args.map)
    out = cli._outdir(args)
    lo, hi = m.ambient
    if not (lo <= args.x0 <= hi):
        raise ConfigError("--x0 %r outside the ambient interval" % args.x0)
    orbit = [args.x0]
    for _ in range(args.n):
        try:
            orbit.append(m.eval(orbit[-1]))
        except IntervalDynError:
            break
    svgplot.cobweb(m, orbit, args.n, os.path.join(out, "cobweb.svg"))
    cli._write_csv(os.path.join(out, "orbit.csv"), ("step", "x"),
                   enumerate(orbit))
    return 0


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
    monkeypatch.setattr(classify, "recurrence_check",
                        counted("recurrence_check", recurrence_check))
    monkeypatch.setattr(induction, "_verify", counted("verify", verify))
    monkeypatch.setattr(cli, "cmd_plot", counted("cmd_plot", cmd_plot))
    # no CLI command reaches these two, so they are not counted
    monkeypatch.setattr(induction, "is_nice", is_nice)
    monkeypatch.setattr(orbits, "detect_periodic_like", detect_periodic_like)
    return calls
