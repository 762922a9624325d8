"""Empirical attractor classification.

Basin samples that converge to a periodic-like orbit are clustered by its
points.  The others are clustered by connectivity of their omega covers:
two visited bins at most one empty bin apart are connected, and samples
whose bins meet one connected component of all the samples' bins share a
cluster.  Each cluster is reported as an attracting periodic-like orbit,
a cycle of intervals (permuted by the map), or a Cantor-like set matched
to recurrent lateral critical values.  Both non-periodic tests read the
cluster's integer bins: an interval cycle is a few long runs of bins that
the map's image sandwiches onto each other in one cycle, and a Cantor-like
set is matched when its bins and the critical orbits' bins differ in at
most 5 bins.  Clusters that fit none of the three shapes are reported as
unresolved with diagnostics instead of being silently merged.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import ConfigError, DegenerateOrbitError, IntervalDynError
from .mapcore import LateralPoint
from .orbits import (
    IntervalCover,
    _binned_walk,
    _binner,
    _bins_to_cells,
    _iterates,
    _runs,
    basin_sample,
    check_resolution,
    omega_cover,
)

_PERIODIC_MATCH_TOL = 1e-4


@dataclass
class ClassifyConfig:
    samples: int = 400
    seed: int = 0
    burn_in: int = 2000
    length: int = 1000
    resolution: float = 1e-3


@dataclass
class AttractorReport:
    kind: str                  # periodic_like | interval_cycle | cantor | unresolved
    cover: IntervalCover
    basin_fraction: float
    sample_indices: list
    periodic: dict = None      # {"period", "points", "multiplier"}
    intervals: list = None     # interval_cycle cells
    period: int = None         # interval_cycle period
    matched: list = None       # cantor: list of LateralPoint
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "kind": self.kind,
            "basin_fraction": self.basin_fraction,
            "sample_indices": list(self.sample_indices),
            "cover": {
                "resolution": self.cover.resolution,
                "cells": [list(c) for c in self.cover.cells],
            } if self.cover is not None else None,
            "diagnostics": dict(self.diagnostics),
        }
        if self.periodic is not None:
            out["periodic"] = dict(self.periodic)
        if self.intervals is not None:
            out["intervals"] = [list(c) for c in self.intervals]
            out["period"] = self.period
        if self.matched is not None:
            out["matched"] = [{"point": lp.point, "side": lp.side}
                              for lp in self.matched]
        return out


@dataclass
class ClassificationResult:
    """The reports of one `classify_attractors` call and the settings it
    ran with.

    `finiteness_check` is "exceeded" when there are more non-periodic
    reports than exceptional points, and "ok" otherwise.  Distinct
    attractors are disjoint, and a transitive non-periodic attractor of a
    piecewise monotone map contains a cut, so a larger count points at
    the sampling: an attractor split in two, or orbits that have not
    settled.  It is a diagnostic, not a proof."""
    reports: list
    unclassified_fraction: float
    samples: int
    finiteness_check: str
    config: ClassifyConfig

    def to_dict(self):
        c = self.config
        return {
            "reports": [r.to_dict() for r in self.reports],
            "unclassified_fraction": self.unclassified_fraction,
            "samples": self.samples,
            "finiteness_check": self.finiteness_check,
            "config": {"seed": c.seed, "burn_in": c.burn_in,
                       "length": c.length, "resolution": c.resolution},
        }


# ---------------------------------------------------------------------------
# recurrence / omega matching


def recurrence_check(m, v, length, eps):
    """True iff the forward orbit of eval_lateral(v) keeps revisiting the
    eps-ball of the underlying point (>= 3 visits beyond a length/10
    burn-in; consecutive dwell only counts once unless the orbit sits
    exactly on the point)."""
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
    for k, x in enumerate(_iterates(m, x, length)):
        inside = abs(x - target) <= eps
        if k > burn and inside and (not prev_in or x == prev_x):
            count += 1
            if count >= 3:
                return True
        prev_in = inside
        prev_x = x
    if k < burn:
        raise DegenerateOrbitError(
            "orbit of %r hit the exceptional set at step %d "
            "during burn-in" % (v, k))
    return False


def match_omega(bins, m, cfg, critical_covers=None):
    """Try to express the sorted cluster bins `bins` as the union of the
    bins of the first cfg.length iterates of the critical orbits of the
    lateral values whose critical point lies within one bin of the
    cluster; accept when at most 5 bins differ.  Returns (matched lateral
    points or None, diagnostics).  `critical_covers` maps lateral points
    to their orbit's bins (None when it degenerates): callers matching
    many clusters against one map pass one dict to every call, so each
    orbit is walked once."""
    if not bins:
        raise ConfigError("cluster has no bins")
    bin_of = _binner(m, cfg.resolution)
    vset = []
    for lp, _val in m.lateral_values:
        k = bin_of(lp.point)
        i = bisect_left(bins, k - 1)
        if i < len(bins) and bins[i] <= k + 1:
            vset.append(lp)
    if not vset:
        return None, {"reason": "no critical point meets the cover"}
    memo = {} if critical_covers is None else critical_covers
    for lp in vset:
        if lp not in memo:
            try:
                memo[lp] = _binned_walk(m, m.eval_lateral(lp), cfg.length - 1,
                                        0, cfg.length, cfg.resolution)[0]
            except IntervalDynError:
                memo[lp] = None
    walked = [memo[lp] for lp in vset if memo[lp] is not None]
    if not walked:
        return None, {"reason": "all critical orbits degenerate"}
    d = len(set().union(*walked).symmetric_difference(bins))
    if d <= 5:
        return vset, {"symdiff_bins": d}
    return None, {"reason": "symmetric difference too large",
                  "symdiff_bins": d}


# ---------------------------------------------------------------------------
# interval cycles


def _image_hull(m, cell):
    lo, hi = cell
    lo = max(lo, m.ambient[0])
    hi = min(hi, m.ambient[1])
    cuts = [c for c in m.exceptional if lo < c < hi]
    pts = [lo] + cuts + [hi]
    mn, mx = math.inf, -math.inf
    for a, b in zip(pts, pts[1:]):
        if b - a <= 0:
            continue
        try:
            ya = m.eval_lateral(LateralPoint(a, "right"))
            yb = m.eval_lateral(LateralPoint(b, "left"))
        except IntervalDynError:
            continue
        mn = min(mn, ya, yb)
        mx = max(mx, ya, yb)
        # a branch over (a, b) is monotone, so endpoint values bound it
    if mn > mx:
        return None
    return (mn, mx)


def _try_interval_cycle(m, bins, resolution):
    """The period, if the runs of the sorted cluster bins `bins` are few,
    long, and permuted by the map in a single cycle; otherwise None.

    An interval sampled at `resolution` has its ends in the end bins k0
    and k1 of its run, so it holds the inner cell (bins k0+1 .. k1-1) and
    lies in the outer cell (bins k0 .. k1).  Run i goes to run [r0, r1]
    when the image of its inner cell lies in bins r0-1 .. r1+1 and the
    image of its outer cell reaches bins r0+1 and r1-1: the one-bin slack
    admits attractor ends on a bin edge."""
    runs = _runs(bins)
    if not runs or len(runs) > 2 * len(m.exceptional) + 2:
        return None
    if any(k1 - k0 < 99 for k0, k1 in runs):
        return None
    lo = m.ambient[0]
    bin_of = _binner(m, resolution)
    perm = []
    for k0, k1 in runs:
        inner = _image_hull(m, (lo + (k0 + 1) * resolution,
                                lo + k1 * resolution))
        outer = _image_hull(m, (lo + k0 * resolution,
                                lo + (k1 + 1) * resolution))
        if inner is None or outer is None:
            return None
        a, b, c, d = map(bin_of, inner + outer)
        to = [j for j, (r0, r1) in enumerate(runs)
              if a >= r0 - 1 and b <= r1 + 1 and c <= r0 + 1 and d >= r1 - 1]
        if len(to) != 1:
            return None
        perm += to
    # one cycle through all runs: the orbit of run 0 first returns last
    i = 0
    for step in range(1, len(runs) + 1):
        i = perm[i]
        if i == 0:
            return len(runs) if step == len(runs) else None
    return None


# ---------------------------------------------------------------------------
# clustering


def _match_sorted_points(a, b, tol):
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(sorted(a), sorted(b)))


def _join_periodic(clusters, rec):
    pts = rec.periodic["points"]
    p = rec.periodic["period"]
    for cl in clusters:
        if cl["period"] == p and \
                _match_sorted_points(cl["points"], pts, _PERIODIC_MATCH_TOL):
            cl["indices"].append(rec.index)
            cl["bins"].append(rec.bins)
            return
    clusters.append({"period": p, "points": list(pts),
                     "multiplier": rec.periodic["multiplier"],
                     "indices": [rec.index], "bins": [rec.bins]})


def _flag_continuum(periodic_reports, resolution):
    """A genuine attracting cycle yields one cluster per orbit; a curve of
    neutral fixed/periodic points (e.g. an identity plateau) fragments
    into one cluster per sample.  Flag same-period cluster swarms whose
    points spread far beyond the match tolerance — sampling cannot tell
    one wide attractor from a continuum of small ones."""
    per_period = {}
    for r in periodic_reports:
        per_period.setdefault(r.periodic["period"], []).append(r)
    for rs in per_period.values():
        if len(rs) <= 8:
            continue
        pts = [p for r in rs for p in r.periodic["points"]]
        if max(pts) - min(pts) > 100.0 * resolution:
            for r in rs:
                r.diagnostics["continuum_suspect"] = True


def _connected_clusters(records):
    """Cluster records by connectivity of their bins.  Two bins at most
    one empty bin apart are connected; records whose bins meet a common
    connected component of the union of all their bins share a cluster.
    Returns (members, bins) per cluster in order of the first member: the
    members in index order and the sorted union of their bins."""
    union = sorted(set().union(*(r.bins for r in records)))
    # where each component starts in `union`, and where the last one ends
    bounds = [i for i in range(len(union))
              if i == 0 or union[i] > union[i - 1] + 2] + [len(union)]
    starts = [union[i] for i in bounds[:-1]]
    parent = list(range(len(starts)))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    firsts = [bisect_right(starts, r.bins[0]) - 1 for r in records]
    for r, c in zip(records, firsts):
        # components are runs of bins, so a record whose first and last
        # bins share one has all its bins in it
        if c != bisect_right(starts, r.bins[-1]) - 1:
            for d in {bisect_right(starts, k) - 1 for k in r.bins}:
                parent[find(d)] = find(c)
    members = {}
    for r, c in zip(records, firsts):
        members.setdefault(find(c), []).append(r)
    bins = {root: [] for root in members}
    for c in range(len(starts)):
        bins[find(c)] += union[bounds[c]:bounds[c + 1]]
    return [(members[root], bins[root]) for root in members]


def classify_attractors(m, cfg=None):
    cfg = cfg or ClassifyConfig()
    if cfg.samples < 100:
        raise ConfigError("need at least 100 samples")
    check_resolution(cfg.resolution)
    if cfg.burn_in < 0:
        raise ConfigError("burn_in must be >= 0")
    if cfg.length < 1:
        raise ConfigError("length must be >= 1")
    records = basin_sample(m, cfg)
    periodic_clusters = []
    cover_records = []
    unclassified = 0
    for rec in records:
        if rec.periodic is not None:
            _join_periodic(periodic_clusters, rec)
        elif rec.terminated_at is not None or rec.bins is None:
            unclassified += 1
        else:
            cover_records.append(rec)

    reports = []
    for cl in periodic_clusters:
        reports.append(AttractorReport(
            kind="periodic_like",
            cover=IntervalCover(cfg.resolution, _bins_to_cells(
                set().union(*cl["bins"]), *m.ambient, cfg.resolution)),
            basin_fraction=len(cl["indices"]) / cfg.samples,
            sample_indices=cl["indices"],
            periodic={"period": cl["period"], "points": cl["points"],
                      "multiplier": cl["multiplier"]},
        ))
    _flag_continuum(reports, cfg.resolution)

    # critical-orbit work depends on the lateral point only: once per call
    critical_covers = {}
    recurrent_by_lateral = {}
    rec_length = max(10_000, cfg.length)
    for members, bins in _connected_clusters(cover_records):
        cover = IntervalCover(cfg.resolution,
                              _bins_to_cells(bins, *m.ambient, cfg.resolution))
        indices = [r.index for r in members]
        frac = len(members) / cfg.samples
        shares = sorted(len(r.bins) / len(bins) for r in members)
        saturation = 0.5 * (shares[(len(shares) - 1) // 2]
                            + shares[len(shares) // 2])     # the median
        period = _try_interval_cycle(m, bins, cfg.resolution)
        if period is not None:
            reports.append(AttractorReport(
                kind="interval_cycle", cover=cover, basin_fraction=frac,
                sample_indices=indices, intervals=list(cover.cells),
                period=period, diagnostics={"saturation": saturation}))
            continue
        matched, diag = match_omega(bins, m, cfg, critical_covers)
        diag["saturation"] = saturation
        if matched is not None:
            for lp in matched:
                if lp not in recurrent_by_lateral:
                    try:
                        recurrent_by_lateral[lp] = recurrence_check(
                            m, lp, rec_length, cfg.resolution)
                    except DegenerateOrbitError:
                        recurrent_by_lateral[lp] = False
            recurrent = [recurrent_by_lateral[lp] for lp in matched]
            if all(recurrent):
                reports.append(AttractorReport(
                    kind="cantor", cover=cover, basin_fraction=frac,
                    sample_indices=indices, matched=matched,
                    diagnostics=diag))
                continue
            diag["reason"] = "matched laterals not all recurrent"
            diag["recurrent"] = recurrent
        reports.append(AttractorReport(
            kind="unresolved", cover=cover, basin_fraction=frac,
            sample_indices=indices, diagnostics=diag))

    reports.sort(key=lambda r: (-r.basin_fraction,
                                r.sample_indices[0] if r.sample_indices else 0))
    nonperiodic = sum(1 for r in reports if r.kind != "periodic_like")
    return ClassificationResult(
        reports=reports,
        unclassified_fraction=unclassified / cfg.samples,
        samples=cfg.samples,
        finiteness_check=("ok" if nonperiodic <= len(m.exceptional)
                          else "exceeded"),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# ordering of lateral critical values


@dataclass
class CriticalOrderResult:
    members: list            # [(LateralPoint, value)]
    in_omega: list           # in_omega[i][j]: value_i in omega(orbit of j)
    strict: list             # pairs (i, j) with value_i < value_j in the order
    maximal: list            # indices with nothing strictly above them

    def to_dict(self):
        return {
            "members": [{"point": lp.point, "side": lp.side, "value": v}
                        for lp, v in self.members],
            "in_omega": [[bool(x) for x in row] for row in self.in_omega],
            "strict": [list(p) for p in self.strict],
            "maximal": list(self.maximal),
        }


def critical_order(m, horizon, resolution):
    horizon = int(horizon)
    if horizon < 10_000:
        raise ConfigError("horizon must be >= 1e4")
    check_resolution(resolution)
    members = list(m.lateral_values)
    covers = []
    for _lp, val in members:
        try:
            covers.append(omega_cover(m, val, horizon // 10, horizon,
                                      resolution))
        except DegenerateOrbitError:
            # orbit truncated before the tail window: fall back to the
            # full (finite) orbit segment
            covers.append(omega_cover(m, val, 0, horizon, resolution))
    n = len(members)
    in_omega = [[False] * n for _ in range(n)]
    for i in range(n):
        vi = members[i][1]
        for j in range(n):
            in_omega[i][j] = any(lo - resolution <= vi <= hi + resolution
                                 for lo, hi in covers[j].cells)
    strict = [(i, j) for i in range(n) for j in range(n)
              if i != j and in_omega[i][j] and not in_omega[j][i]]
    maximal = [i for i in range(n)
               if not any(s[0] == i for s in strict)]
    return CriticalOrderResult(members, in_omega, strict, maximal)
