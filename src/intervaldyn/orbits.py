"""Orbit computation and orbit-derived primitives.

Everything here treats an exact binary64 hit of an undefined point as a
recorded termination event rather than an error: typical orbits never hit
one, and maps whose arithmetic is exact in binary64 (slope-2 piecewise
linear maps, say) genuinely do collapse onto the undefined set -- that is a
property of the dynamics on dyadic rationals, and hiding it would corrupt
every statistic downstream.

Basin sampling takes its settings from `classify.ClassifyConfig`; its
periodic scan is fixed by `_PERIODIC_SCAN` and `_CONV_TOL`.
"""

import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from math import floor

from .errors import (
    BranchExplosionError,
    ConfigError,
    DegenerateOrbitError,
    IntervalDynError,
    OrbitHitsExceptionalError,
)
from .mapcore import LateralPoint
from .rng import SplitMix64

__all__ = [
    "OrbitSegment", "IntervalCover", "PeriodicLike", "RawPointRecord",
    "orbit", "omega_cover", "detect_periodic_like",
    "find_periodic_points", "basin_sample", "check_resolution",
]


# ---------------------------------------------------------------------------
# orbits

@dataclass
class OrbitSegment:
    start: float
    iterates: list
    log_deriv_prefix: list
    terminated_at_exceptional: object = None  # int index or None


def orbit(m, x, n):
    """Iterate up to n steps.  iterates[0] is the start; prefix[k] is the
    sum of log|Df| over the first k steps."""
    iterates = [x]
    prefix = [0.0]
    terminated = None
    for k in range(n):
        try:
            y, logd, _ = m.compose_deriv(x, 1)
        except OrbitHitsExceptionalError:
            terminated = k
            break
        prefix.append(prefix[-1] + logd)
        x = y
        iterates.append(x)
    else:
        if x in m.exceptional:
            terminated = n
    return OrbitSegment(iterates[0], iterates, prefix, terminated)


# ---------------------------------------------------------------------------
# interval covers

@dataclass
class IntervalCover:
    resolution: float
    cells: list  # sorted disjoint (lo, hi) tuples


def _runs(ks):
    """The maximal runs [k0, k1] of consecutive bins in the sorted bins ks."""
    runs = []
    for k in ks:
        if runs and k == runs[-1][1] + 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return runs


def _bins_to_cells(ks, lo, hi, res):
    return [(lo + k0 * res, min(lo + (k1 + 1) * res, hi))
            for k0, k1 in _runs(sorted(ks))]


def _nbins(m, resolution):
    """The number of bins of width `resolution` on the ambient interval."""
    lo, hi = m.ambient
    return max(1, math.ceil((hi - lo) / resolution - 1e-9))


def _binner(m, resolution):
    """The bin of a point, as `_binned_walk` bins it: points outside the
    ambient interval go to the end bins.  floor and int differ only below
    0, which the clamp to bin 0 merges."""
    lo, last = m.ambient[0], _nbins(m, resolution) - 1
    return lambda y: min(max(floor((y - lo) / resolution), 0), last)


# orbit steps per `walk` or `compose` call of the chunked loops, which
# bounds their memory
_CHUNK = 4096


def _composed(m, x, i, stop):
    """(x_stop, None) from x = x_i, stepped by `compose` one `_CHUNK` at a
    time, or (None, index of the exceptional point) where the orbit reaches
    the exceptional set first, found by walking that one chunk again."""
    while i < stop:
        n = min(_CHUNK, stop - i)
        y = m.compose(x, n)
        if y is None:
            return None, i + len(m.walk(x, n))
        x = y
        i += n
    return x, None


def _binned_walk(m, x, steps, burn_in, length, resolution, keep=0):
    """Walk `steps` steps from x_0 = x and bin the iterates x_burn_in ..
    x_(burn_in+length-1) at `resolution`.  Returns (ks, nbins, head, hit):
    the visited bins of the grid of nbins bins, the first `keep` binned
    iterates, and the index of the exceptional point the walk stopped on
    (binned if inside the window), or None.  An iterate is binned only
    after the map's ladder has taken it, so a NaN raises OutOfRangeError
    first.

    No iterate list is kept but the head: `walk_bins` bins the window
    until every bin is visited, and `compose` steps the burn-in and the
    rest.  The head is walked again from x_burn_in, at most keep - 1
    steps.

    A walked iterate lies in [lo, hi], since the ladder took it, so its
    bin floor((x - lo) / res) lies in [0, nbins]: the only bin off the grid
    is nbins itself, from points next to the ambient end hi, and one
    membership test after each `walk_bins` call moves it to nbins - 1.  The
    last iterate, never stepped, is no ladder's, so it alone is binned by
    `_binner`, which clamps any point (and raises on NaN and inf)."""
    lo = m.ambient[0]
    nbins = _nbins(m, resolution)
    end = burn_in + length
    ks = set()
    head = []
    x, hit = _composed(m, x, 0, min(burn_in, steps))
    if hit is None and burn_in <= steps:
        n = min(keep, length, steps - burn_in + 1)
        if n > 0:
            head = [x] + m.walk(x, n - 1)
        i = burn_in     # orbit index of x
        stop = min(end, steps)
        while i < stop and len(ks) < nbins:
            x, n, at = m.walk_bins(x, stop - i, lo, resolution, ks, nbins)
            i += n
            if nbins in ks:
                ks.discard(nbins)
                ks.add(nbins - 1)
            if at:
                hit = i - 1
                break
        if hit is None:
            x, hit = _composed(m, x, i, steps)
        if hit is None and steps < end:     # the last iterate, never stepped
            ks.add(_binner(m, resolution)(x))
    return ks, nbins, head, hit


def _iterates(m, x, n):
    """The iterates x_0 = x .. x_(n-1) of x, one at a time.  One `walk`
    call makes each `_CHUNK` of them and takes the step from the last one
    too (from x_(n-1) to x_n at the end), so at most _CHUNK + 1 are held
    at a time.  An orbit that reaches the exceptional set stops there, and
    that point is the last one given."""
    while n > 0:
        k = min(_CHUNK, n)
        pts = [x]
        pts += m.walk(x, k)     # x and k iterates, fewer after a hit
        if len(pts) <= k:
            yield from pts
            return
        x = pts.pop()           # stepped by the next chunk
        yield from pts
        n -= k


def check_resolution(resolution):
    """The one cover resolution guard (omega_cover, basin_sample and the
    classify entry points): finite and >= 1e-6, so NaN fails too."""
    if not 1e-6 <= resolution < math.inf:
        raise ConfigError("resolution must be finite and >= 1e-6")


def omega_cover(m, x, burn_in, length, resolution):
    """Visit-histogram surrogate for the limit set of the orbit of x:
    resolution-sized bins visited by iterates burn_in .. burn_in+length-1,
    merged when adjacent.  An exact hit of an undefined point inside the
    window is recorded and ends the orbit; before the window it makes the
    orbit degenerate."""
    if burn_in + length > 10_000_000:
        raise ConfigError("burn_in + length > 1e7")
    check_resolution(resolution)
    if length == 0:
        return IntervalCover(resolution, [])
    ks, _, _, hit = _binned_walk(m, x, burn_in + length - 1, burn_in,
                                 length, resolution)
    if hit is not None and hit < burn_in:
        raise DegenerateOrbitError(
            "orbit hit undefined point at index %d, before the observation "
            "window at %d" % (hit, burn_in))
    return IntervalCover(resolution,
                         _bins_to_cells(ks, *m.ambient, resolution))


# ---------------------------------------------------------------------------
# periodic-like lateral points

EPS_LADDER = (1e-4, 1e-5, 1e-6)


@dataclass
class PeriodicLike:
    point: LateralPoint
    period: int
    lateral_multiplier: float
    attracting: bool


def detect_periodic_like(m, p, l_max=16, tol=1e-9):
    """Smallest l for which the one-sided orbit of p returns to the same
    side of p with distance shrinking linearly in the offset (checked over
    offsets 1e-4, 1e-5, 1e-6).  The lateral multiplier is the distance
    ratio Richardson-extrapolated to offset 0.  None when no such l <= l_max
    exists."""
    if l_max > 64:
        raise ConfigError("l_max > 64")
    sgn = -1.0 if p.side == "left" else 1.0
    p0 = p.point
    lo, hi = m.ambient
    orbs = []
    for eps in EPS_LADDER:
        x = p0 + sgn * eps
        if not lo <= x <= hi:   # p within eps of an ambient end
            return None
        orbs.append([x] + m.walk(x, l_max))

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
            attracting = _one_sided_convergence(m, p0, sgn, ell)
        else:
            attracting = False
        return PeriodicLike(p, ell, mult, attracting)
    return None


def _one_sided_convergence(m, p0, sgn, ell, rounds=40):
    x = p0 + sgn * EPS_LADDER[0]
    xs = m.walk(x, rounds * ell)
    if len(xs) < rounds * ell:
        return False
    prev = abs(x - p0)
    for x in xs[ell - 1::ell]:
        d = abs(x - p0)
        if sgn * (x - p0) <= 0.0 or d >= prev:
            return False
        prev = d
    return True


# ---------------------------------------------------------------------------
# periodic points of the full map

_CYL_CAP = 10_000_000
_DEDUP_TOL = 1e-9       # periodic points closer than this are one point


def _nudged(u, v):
    w = v - u
    d = max(1e-13, 1e-9 * w)
    return u + d, v - d


def _least_period(m, x, n):
    """The first d <= n with |f^d(x) - x| <= 1e-8, else n (also when the
    orbit reaches the exceptional set first), from one compiled walk.  The
    walk runs all n steps even past a match, but every x that
    `find_periodic_points` passes has already had its n iterates computed
    without error (an ambient end, a grid point or a root of `solve`), so no
    error can come from past the match there."""
    for d, y in enumerate(m.walk(x, n), 1):
        if abs(y - x) <= 1e-8:
            return d
    return n


def _grid_roots(m, xs, gs, n):
    """The roots of g(x) = f^n(x) - x that the sorted grid xs shows, from
    gs = g(xs) (None where f^n is undefined): each grid point but the last
    where g is exactly 0, and one `PiecewiseMap.solve` root per gap whose
    ends have strictly opposite signs.  A gap with a None end is skipped."""
    roots = []
    for x0, g0, x1, g1 in zip(xs, gs, xs[1:], gs[1:]):
        if g0 is None or g1 is None:
            continue
        if g0 == 0.0:
            roots.append(x0)
        elif g0 * g1 < 0.0:
            roots.append(m.solve(x0, x1, g0, g1, n))
    return roots


def find_periodic_points(m, period_max):
    """Periodic points up to period_max, as (x, least period, |multiplier|)
    sorted by x, via the laps of the iterates: the maximal intervals on
    which f^n is a smooth monotone composition.  On each lap f^n is
    evaluated at the nudged ends.  A decreasing lap holds at most one fixed
    point of f^n, bracketed by its ends, and an increasing lap whose image
    misses the lap holds none; only on the other increasing laps is f^n(x)
    - x also scanned at 18 interior points for sign changes.  Each sign
    change goes to `PiecewiseMap.solve` (Brent's method, finished by
    bisection), so every point found lies within 1 ulp of a sign change of
    the computed f^n(x) - x, or is an exact zero of it.  The laps of
    f^(n+1) split those of f^n at the preimages of the cuts, found by
    `solve` too."""
    if period_max < 1:
        raise ConfigError("period_max must be >= 1")
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
        d = _least_period(m, x, n)
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
        for n, x in enumerate(m.walk(e, period_max), 1):
            if abs(x - e) <= 1e-9:
                record(e, n)
                break

    cylinders = [(b.lo, b.hi) for b in m.branches]
    for n in range(1, period_max + 1):
        new_cyls = []
        for u, v in cylinders:
            nu, nv = _nudged(u, v)
            # f^n at the nudged ends, None after an exact hit
            gu, gv = m.compose(nu, n), m.compose(nv, n)
            grid, imgs = [nu, nv], [gu, gv]
            # the ends bracket the one fixed point a decreasing lap may
            # hold, and an increasing lap whose image misses it holds none
            if gu is None or gv is None or (gu < gv and gu <= nv
                                            and gv >= nu):
                grid[1:1] = [u + (v - u) * (j + 0.5) / 18.0
                             for j in range(18)]
                imgs[1:1] = [m.compose(y, n) for y in grid[1:-1]]
            vals = [None if y is None else y - x for x, y in zip(grid, imgs)]
            for x in _grid_roots(m, grid, vals, n):
                record(x, n)

            # split the lap at the preimages of the exceptional set for
            # period n + 1, from f^n at its nudged ends
            if n == period_max:
                continue
            if gu is None or gv is None:
                new_cyls.append((u, v))
                continue
            img_lo, img_hi = min(gu, gv), max(gu, gv)
            splits = [u]
            for c in m.exceptional:
                if img_lo < c < img_hi:
                    splits.append(m.solve(nu, nv, gu - c, gv - c, n, c))
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


# ---------------------------------------------------------------------------
# basin sampling

# a sample is periodic when its first window iterate recurs within
# _CONV_TOL after p <= _PERIODIC_SCAN steps
_PERIODIC_SCAN = 32
_CONV_TOL = 1e-9


@dataclass
class RawPointRecord:
    index: int
    start: float
    periodic: object         # {"period": p, "points": [...]} or None
    terminated_at: object    # step index of an exact undefined-point hit
    bins: object = None      # the visited bins, sorted (an int64 array, a
                             # tuple beyond 2**63 bins), or None if the
                             # orbit died early; `_bins_to_cells` makes
                             # them a cover


def basin_sample(m, cfg):
    """Orbit statistics for cfg.samples uniform starts, binned as
    cfg.burn_in, cfg.length and cfg.resolution say; fully determined by
    cfg.seed (one SplitMix64 stream, one draw per sample, index order)."""
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    check_resolution(cfg.resolution)
    lo, hi = m.ambient
    gen = SplitMix64(cfg.seed)
    records = []
    for idx in range(cfg.samples):
        x0 = gen.uniform(lo, hi)
        records.append(_sample_one(m, idx, x0, cfg))
    return records


def _sample_one(m, idx, x0, cfg):
    ks, nbins, head, hit = _binned_walk(
        m, x0, cfg.burn_in + cfg.length, cfg.burn_in, cfg.length,
        cfg.resolution, _PERIODIC_SCAN + 1)
    if hit is not None and hit < cfg.burn_in:
        return RawPointRecord(idx, x0, None, hit)
    ks = sorted(ks)
    # int64 holds the bins of any grid of up to 2**63 bins
    bins = array("q", ks) if nbins <= 1 << 63 else tuple(ks)

    periodic = None
    # unterminated, so the window holds all cfg.length iterates
    if hit is None and cfg.length > 1:
        for p in range(1, min(_PERIODIC_SCAN, cfg.length - 1) + 1):
            if abs(head[p] - head[0]) <= _CONV_TOL:
                try:
                    log_abs, _ = m.deriv_product(head[0], p)
                    mult = math.exp(log_abs)
                except Exception:
                    break
                if mult <= 1.0 + 1e-9:
                    periodic = {"period": p, "points": head[:p],
                                "multiplier": mult}
                break

    return RawPointRecord(idx, x0, periodic, hit, bins)
