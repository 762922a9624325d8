"""Empirical attractor classification.

Basin samples are clustered by the symmetric-difference length of their
omega covers; each cluster is reported as an attracting periodic-like
orbit, a cycle of intervals (permuted by the map), or a Cantor-like set
matched to recurrent lateral critical values.  Clusters that fit none of
the three shapes are reported as unresolved with diagnostics instead of
being silently merged.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError, DegenerateOrbitError, IntervalDynError
from .mapcore import LateralPoint
from .orbits import (
    BasinConfig,
    IntervalCover,
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
    reports: list
    unclassified_fraction: float
    samples: int

    def to_dict(self):
        return {
            "reports": [r.to_dict() for r in self.reports],
            "unclassified_fraction": self.unclassified_fraction,
            "samples": self.samples,
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
            cl["covers"].append(rec.cover)
            return
    clusters.append({"period": p, "points": list(pts),
                     "multiplier": rec.periodic["multiplier"],
                     "indices": [rec.index], "covers": [rec.cover]})


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


def _join_cover(clusters, rec, tol):
    # The float test decides every join.  The bin masks only skip clusters
    # it would reject: bins the masks tell apart are distinct, and each is
    # one resolution wide up to rounding, except the last one, cut off at
    # the ambient end; so tol / resolution + 3 of them make a symmetric
    # difference longer than tol.
    gate = tol / rec.cover.resolution + 3
    for cl in clusters:
        if (cl["mask"] ^ rec.mask).bit_count() >= gate:
            continue
        if cover_symdiff_length(cl["union"], rec.cover) <= tol:
            cl["indices"].append(rec.index)
            cl["union"] = cover_union(cl["union"], rec.cover)
            cl["mask"] |= rec.mask
            return
    clusters.append({"union": rec.cover, "mask": rec.mask,
                     "indices": [rec.index]})


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
    cover_clusters = []
    unclassified = 0
    for rec in records:
        if rec.periodic is not None:
            _join_periodic(periodic_clusters, rec)
        elif rec.terminated_at is not None or rec.cover is None:
            unclassified += 1
        else:
            _join_cover(cover_clusters, rec, 2.0 * cfg.resolution)

    reports = []
    for cl in periodic_clusters:
        cov = None
        for c in cl["covers"]:
            if c is None:
                continue
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
    for cl in cover_clusters:
        cover = cl["union"]
        frac = len(cl["indices"]) / cfg.samples
        cyc = _try_interval_cycle(m, cover, cfg.resolution)
        if cyc is not None:
            cells, period = cyc
            reports.append(AttractorReport(
                kind="interval_cycle", cover=cover, basin_fraction=frac,
                sample_indices=cl["indices"], intervals=cells, period=period))
            continue
        matched, diag = match_omega(cover, m, cfg, critical_covers)
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
                    sample_indices=cl["indices"], matched=matched,
                    diagnostics=diag))
                continue
            diag = dict(diag)
            diag["reason"] = "matched laterals not all recurrent"
            diag["recurrent"] = recurrent
        reports.append(AttractorReport(
            kind="unresolved", cover=cover, basin_fraction=frac,
            sample_indices=cl["indices"], diagnostics=diag))

    reports.sort(key=lambda r: (-r.basin_fraction,
                                r.sample_indices[0] if r.sample_indices else 0))
    return ClassificationResult(
        reports=reports,
        unclassified_fraction=unclassified / cfg.samples,
        samples=cfg.samples,
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
