"""Orbit computation and orbit-derived primitives.

Everything here treats an exact binary64 hit of an undefined point as a
recorded termination event rather than an error: typical orbits never hit
one, and maps whose arithmetic is exact in binary64 (slope-2 piecewise
linear maps, say) genuinely do collapse onto the undefined set -- that is a
property of the dynamics on dyadic rationals, and hiding it would corrupt
every statistic downstream.
"""

import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import (
    BranchExplosionError,
    ConfigError,
    DegenerateOrbitError,
    ExceptionalPointError,
    IntervalDynError,
    OutOfRangeError,
    ZeroDerivativeError,
)
from .mapcore import LateralPoint
from .rng import SplitMix64

__all__ = [
    "OrbitSegment", "IntervalCover", "PeriodicLike", "RawPointRecord",
    "BasinConfig", "orbit", "omega_cover", "detect_periodic_like",
    "find_periodic_points", "basin_sample", "check_resolution",
    "cover_total_length", "cover_union", "cover_symdiff_length",
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
            y, d = m.step(x)
        except ExceptionalPointError:
            terminated = k
            break
        if d == 0.0:
            raise ZeroDerivativeError("derivative vanishes at x=%r" % (x,))
        prefix.append(prefix[-1] + math.log(abs(d)))
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


def _bins_to_cells(ks, lo, hi, res):
    cells = []
    run_start = None
    prev = None
    for k in sorted(ks):
        if run_start is None:
            run_start = prev = k
        elif k == prev + 1:
            prev = k
        else:
            cells.append((lo + run_start * res, min(lo + (prev + 1) * res,
                                                    hi)))
            run_start = prev = k
    if run_start is not None:
        cells.append((lo + run_start * res, min(lo + (prev + 1) * res, hi)))
    return cells


# orbit steps per `walk` call of the binned loops, which bounds their memory
_CHUNK = 4096


def _binned_walk(m, x, steps, burn_in, length, resolution, keep=0):
    """Walk `steps` steps from x_0 = x and bin the iterates x_burn_in ..
    x_(burn_in+length-1) at `resolution`, one chunk at a time.  Returns
    (ks, nbins, head, hit): the visited bins of the grid of nbins bins,
    the first `keep` binned iterates, and the index of the exceptional
    point the walk stopped on (binned if inside the window), or None.  An
    iterate is binned only after `walk` has stepped it, so a NaN raises
    OutOfRangeError first."""
    lo, hi = m.ambient
    nbins = max(1, math.ceil((hi - lo) / resolution - 1e-9))
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


def cover_total_length(cover):
    return sum(b - a for a, b in cover.cells)


def _merge_intervals(ivs):
    out = []
    for a, b in sorted(ivs):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def cover_union(a, b):
    if a.resolution != b.resolution:
        res = min(a.resolution, b.resolution)
    else:
        res = a.resolution
    return IntervalCover(res, _merge_intervals(list(a.cells) + list(b.cells)))


def _intersection_length(ca, cb):
    total = 0.0
    j = 0
    for a, b in ca:
        while j < len(cb) and cb[j][1] < a:
            j += 1
        k = j
        while k < len(cb) and cb[k][0] < b:
            total += max(0.0, min(b, cb[k][1]) - max(a, cb[k][0]))
            k += 1
    return total


def cover_symdiff_length(a, b):
    la = sum(y - x for x, y in a.cells)
    lb = sum(y - x for x, y in b.cells)
    return la + lb - 2.0 * _intersection_length(a.cells, b.cells)


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
            attracting = _one_sided_convergence(m, p0, sgn, ell)
        else:
            attracting = False
        return PeriodicLike(p, ell, mult, attracting)
    return None


def _one_sided_convergence(m, p0, sgn, ell, rounds=40):
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


# ---------------------------------------------------------------------------
# periodic points of the full map

_CYL_CAP = 10_000_000
_DEDUP_TOL = 1e-9       # periodic points closer than this are one point


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


def _nudged(u, v):
    w = v - u
    d = max(1e-13, 1e-9 * w)
    return u + d, v - d


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

    def minimal_period(x, n):
        y = x
        for d in range(1, n + 1):
            try:
                y = m.eval(y)
            except ExceptionalPointError:
                return n
            if abs(y - x) <= 1e-8:
                return d
        return n

    def record(x, n):
        if known(x):
            return
        d = minimal_period(x, n)
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


# ---------------------------------------------------------------------------
# basin sampling

@dataclass
class BasinConfig:
    burn_in: int = 2000
    length: int = 1000
    resolution: float = 1e-3
    periodic_scan: int = 32
    conv_tol: float = 1e-9


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


def basin_sample(m, sample_count, seed, cfg=None):
    """Orbit statistics for sample_count uniform starts; fully determined
    by the seed (one SplitMix64 stream, one draw per sample, index order)."""
    if sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    cfg = cfg or BasinConfig()
    check_resolution(cfg.resolution)
    lo, hi = m.ambient
    gen = SplitMix64(seed)
    records = []
    for idx in range(sample_count):
        x0 = gen.uniform(lo, hi)
        records.append(_sample_one(m, idx, x0, cfg))
    return records


def _sample_one(m, idx, x0, cfg):
    ks, nbins, head, hit = _binned_walk(
        m, x0, cfg.burn_in + cfg.length, cfg.burn_in, cfg.length,
        cfg.resolution, cfg.periodic_scan + 1)
    if hit is not None and hit < cfg.burn_in:
        return RawPointRecord(idx, x0, None, hit)
    ks = sorted(ks)
    # int64 holds the bins of any grid of up to 2**63 bins
    bins = array("q", ks) if nbins <= 1 << 63 else tuple(ks)

    periodic = None
    # unterminated, so the window holds all cfg.length iterates
    if hit is None and cfg.length > 1:
        for p in range(1, min(cfg.periodic_scan, cfg.length - 1) + 1):
            if abs(head[p] - head[0]) <= cfg.conv_tol:
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
