"""Empirical attractor classification.

Basin samples that converge to a periodic-like orbit are clustered by its
points.  The others are clustered by connectivity of their omega covers:
two visited bins at most one empty bin apart are connected, and samples
whose bins meet one connected component of all the samples' bins share a
cluster.  Each cluster is reported as an attracting periodic-like orbit,
a cycle of intervals (permuted by the map), or a Cantor-like set matched
to recurrent lateral critical values.  Clusters that fit none of the
three shapes are reported as unresolved with diagnostics instead of
being silently merged.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import ConfigError, DegenerateOrbitError, IntervalDynError
from .mapcore import LateralPoint
from .orbits import (
    BasinConfig,
    IntervalCover,
    _bins_to_cells,
    basin_sample,
    check_resolution,
    cover_symdiff_length,
    cover_union,
    omega_cover,
)

_PERIODIC_MATCH_TOL = 1e-4
_CYCLE_HAUSDORFF_TOL = 1e-3


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


def _critical_cover(m, laterals, cfg, memo):
    """Union of the critical-orbit covers of the lateral points in the
    tuple `laterals`, or None when all of those orbits degenerate.  `memo`
    maps tuples of lateral points to their unions, so each orbit is walked
    once per memo."""
    if laterals not in memo:
        union = None
        for lp in laterals:
            if (lp,) not in memo:
                try:
                    start = m.eval_lateral(lp)
                    memo[(lp,)] = omega_cover(m, start, 0, cfg.length,
                                              cfg.resolution)
                except IntervalDynError:
                    memo[(lp,)] = None
            oc = memo[(lp,)]
            if oc is not None:
                union = oc if union is None else cover_union(union, oc)
        memo[laterals] = union
    return memo[laterals]


def match_omega(cover, m, cfg, critical_covers=None):
    """Try to express `cover` as the union of critical-orbit covers of the
    lateral values whose critical point meets the cover.  Returns
    (matched lateral points or None, diagnostics).  Callers matching many
    covers against one map pass one `critical_covers` dict to every call
    (see `_critical_cover`)."""
    if not cover.cells:
        raise ConfigError("cover is empty")
    res = cfg.resolution
    vset = []
    for lp, _val in m.lateral_values:
        c = lp.point
        if any(lo - res <= c <= hi + res for lo, hi in cover.cells):
            vset.append(lp)
    if not vset:
        return None, {"reason": "no critical point meets the cover"}
    union = _critical_cover(m, tuple(vset), cfg,
                            {} if critical_covers is None else critical_covers)
    if union is None:
        return None, {"reason": "all critical orbits degenerate"}
    d = cover_symdiff_length(union, cover)
    if d <= 5 * res:
        return vset, {"symdiff": d}
    return None, {"reason": "symmetric difference too large", "symdiff": d}


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


def _try_interval_cycle(m, cover, resolution):
    """Return (cells, period) if the cover's cells are few, fat, and
    permuted by the map in a single cycle; otherwise None."""
    cells = cover.cells
    if not cells or len(cells) > 2 * len(m.exceptional) + 2:
        return None
    if any(hi - lo < 100 * resolution for lo, hi in cells):
        return None
    perm = []
    for cell in cells:
        img = _image_hull(m, cell)
        if img is None:
            return None
        dists = [max(abs(img[0] - other[0]), abs(img[1] - other[1]))
                 for other in cells]
        j = min(range(len(cells)), key=lambda i: dists[i])
        if dists[j] > _CYCLE_HAUSDORFF_TOL:
            return None
        perm.append(j)
    if sorted(perm) != list(range(len(cells))):
        return None
    seen = set()
    i = 0
    for _ in range(len(cells)):
        seen.add(i)
        i = perm[i]
    if i != 0 or len(seen) != len(cells):
        return None              # permutation is not a single cycle
    return list(cells), len(cells)


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
    records = basin_sample(m, cfg.samples, cfg.seed,
                           BasinConfig(burn_in=cfg.burn_in, length=cfg.length,
                                       resolution=cfg.resolution))
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
        cov = None
        for bins in cl["bins"]:
            c = IntervalCover(cfg.resolution, _bins_to_cells(
                bins, *m.ambient, cfg.resolution))
            cov = c if cov is None else cover_union(cov, c)
        reports.append(AttractorReport(
            kind="periodic_like",
            cover=cov if cov is not None else IntervalCover(cfg.resolution, []),
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
        cyc = _try_interval_cycle(m, cover, cfg.resolution)
        if cyc is not None:
            cells, period = cyc
            reports.append(AttractorReport(
                kind="interval_cycle", cover=cover, basin_fraction=frac,
                sample_indices=indices, intervals=cells, period=period,
                diagnostics={"saturation": saturation}))
            continue
        matched, diag = match_omega(cover, m, cfg, critical_covers)
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
