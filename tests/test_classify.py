"""Attractor classification tests.

Frozen values below come from seeded dev runs of this package; where a
closed form exists (the a=3.2 logistic 2-cycle) the sampled values are
checked against it as an independent route.
"""

import json
import math
import sys

import pytest

import mapdefs
from intervaldyn import classify
from intervaldyn.classify import (
    ClassifyConfig,
    classify_attractors,
    critical_order,
    match_omega,
    recurrence_check,
)
from intervaldyn.errors import ConfigError, DegenerateOrbitError
from intervaldyn.mapcore import BranchSpec, LateralPoint, MapSpec, build_map
from intervaldyn.orbits import (
    BasinConfig,
    IntervalCover,
    RawPointRecord,
    _bins_to_cells,
    _bins_to_mask,
    basin_sample,
    cover_symdiff_length,
    cover_union,
)


def _hull(m, cell):
    # independent image oracle: endpoint lateral values of each monotone
    # piece bound the image of the cell
    lo, hi = cell
    cuts = [c for c in m.exceptional if lo < c < hi]
    pts = [max(lo, m.ambient[0])] + cuts + [min(hi, m.ambient[1])]
    vals = []
    for a, b in zip(pts, pts[1:]):
        vals.append(m.eval_lateral(LateralPoint(a, "right")))
        vals.append(m.eval_lateral(LateralPoint(b, "left")))
    return min(vals), max(vals)


def _in_cells(x, cells, tol):
    return any(a - tol <= x <= b + tol for a, b in cells)


# ---------------------------------------------------------------------------
# classify_attractors on the standard fixtures


def test_period_two_attractor(logistic32):
    res = classify_attractors(logistic32, ClassifyConfig(samples=150, seed=7))
    assert res.unclassified_fraction == 0.0
    assert len(res.reports) == 1
    rep = res.reports[0]
    assert rep.kind == "periodic_like"
    assert rep.basin_fraction == 1.0
    assert rep.periodic["period"] == 2
    # closed-form 2-cycle of a*x*(1-x): roots of the quadratic factor
    a = 3.2
    disc = math.sqrt((a - 3.0) * (a + 1.0))
    exact = sorted(((a + 1.0) - disc) / (2 * a) for disc in (disc, -disc))
    got = sorted(rep.periodic["points"])
    assert abs(got[0] - exact[0]) < 1e-7
    assert abs(got[1] - exact[1]) < 1e-7
    # cycle multiplier has the closed form 4 + 2a - a^2 = 0.16
    assert abs(rep.periodic["multiplier"] - 0.16) < 1e-6
    assert "continuum_suspect" not in rep.diagnostics
    assert len(rep.cover.cells) == 2


def test_full_interval_cycle(logistic4_classification):
    _m, _cfg, res = logistic4_classification
    assert res.unclassified_fraction == 0.0
    assert len(res.reports) == 1
    rep = res.reports[0]
    assert rep.kind == "interval_cycle"
    assert rep.basin_fraction == 1.0
    assert rep.period == 1
    assert len(rep.intervals) == 1
    lo, hi = rep.intervals[0]
    assert abs(lo - 0.0) <= 2e-3 and abs(hi - 1.0) <= 2e-3


def test_cantor_attractor(feigenbaum_classification):
    _m, _cfg, res = feigenbaum_classification
    assert res.unclassified_fraction == 0.0
    assert len(res.reports) == 1
    rep = res.reports[0]
    assert rep.kind == "cantor"
    assert rep.basin_fraction == 1.0
    assert sorted((lp.point, lp.side) for lp in rep.matched) == \
        [(0.5, "left"), (0.5, "right")]
    assert rep.diagnostics["symdiff"] <= 5e-3
    # empty interior at this resolution: every cell stays thin
    assert max(b - a for a, b in rep.cover.cells) <= 1e-2
    assert len(rep.cover.cells) == 21   # frozen, seed 3 / 120 samples
    assert sum(b - a for a, b in rep.cover.cells) < 0.1


@pytest.mark.xfail(reason="binary64 tent orbits reach the break point 0.5 "
                   "exactly within ~52 doublings, so no sampled orbit "
                   "survives to build a cover", strict=True)
def test_tent_interval_cycle_expected(tent):
    res = classify_attractors(tent, ClassifyConfig(samples=150, seed=5))
    cycles = [r for r in res.reports if r.kind == "interval_cycle"]
    assert len(cycles) == 1
    assert cycles[0].basin_fraction >= 0.99


def test_tent_binary64_collapse_documented(tent):
    # the honest outcome of the case above: every orbit terminates on an
    # exact break-point hit and is reported unclassified
    res = classify_attractors(tent, ClassifyConfig(samples=150, seed=5))
    assert res.reports == []
    assert res.unclassified_fraction == 1.0


def test_plateau_continuum_flag():
    # identity plateau: a continuum of neutral fixed points fragments into
    # one period-1 cluster per surviving sample; the swarm gets flagged
    m = mapdefs.plateau()
    res = classify_attractors(m, ClassifyConfig(samples=100, seed=13))
    p1 = [r for r in res.reports if r.kind == "periodic_like"]
    assert len(res.reports) == len(p1) == 40
    assert all(r.periodic["period"] == 1 for r in p1)
    assert all(r.diagnostics.get("continuum_suspect") for r in p1)
    pts = sorted(r.periodic["points"][0] for r in p1)
    assert 0.3 < pts[0] and pts[-1] < 0.7
    # flank orbits land exactly on the attracting break points -> unclassified
    assert res.unclassified_fraction == 0.6


def test_report_count_bound(logistic4_classification,
                            feigenbaum_classification, logistic32, tent):
    results = [logistic4_classification[2], feigenbaum_classification[2],
               classify_attractors(logistic32,
                                   ClassifyConfig(samples=150, seed=7)),
               classify_attractors(tent, ClassifyConfig(samples=150, seed=5)),
               classify_attractors(mapdefs.plateau(),
                                   ClassifyConfig(samples=100, seed=13))]
    maps = [logistic4_classification[0], feigenbaum_classification[0],
            logistic32, tent, mapdefs.plateau()]
    for m, res in zip(maps, results):
        bound = 2 ** (2 * len(m.exceptional)) - 1
        periodic = sum(1 for r in res.reports if r.kind == "periodic_like")
        assert len(res.reports) - periodic <= bound
        assert len(res.reports) <= bound + periodic


def test_fractions_sum_to_one(logistic4_classification,
                              feigenbaum_classification, logistic32):
    for res in (logistic4_classification[2], feigenbaum_classification[2],
                classify_attractors(logistic32,
                                    ClassifyConfig(samples=150, seed=7))):
        total = sum(r.basin_fraction for r in res.reports) \
            + res.unclassified_fraction
        assert abs(total - 1.0) < 1e-12


def test_determinism_and_serialization(logistic32):
    cfg = ClassifyConfig(samples=150, seed=7)
    a = classify_attractors(logistic32, cfg)
    b = classify_attractors(logistic32, cfg)
    assert a.to_dict() == b.to_dict()
    json.dumps(a.to_dict())    # must be plain JSON data


def test_samples_precondition(logistic32):
    with pytest.raises(ConfigError):
        classify_attractors(logistic32, ClassifyConfig(samples=50))


# ---------------------------------------------------------------------------
# cover clustering


def _ref_join_cover(clusters, rec, tol):
    # the float-only clustering, before the bin-mask gate
    for cl in clusters:
        if cover_symdiff_length(cl["union"], rec.cover) <= tol:
            cl["indices"].append(rec.index)
            cl["union"] = cover_union(cl["union"], rec.cover)
            return
    clusters.append({"union": rec.cover, "indices": [rec.index]})


def _clusters(join, records, tol):
    clusters = []
    for rec in records:
        join(clusters, rec, tol)
    return [(cl["indices"], cl["union"].cells) for cl in clusters]


def _two_attractor_map():
    # two copies of logistic a=3.9, rescaled into (0, 0.5) and (0.5, 1)
    left = "3.9*x*(1-2*x)"
    right = "0.5 + 0.5*3.9*(2*x-1)*(2-2*x)"
    return build_map(MapSpec((
        BranchSpec((0.0, 0.25), left), BranchSpec((0.25, 0.5), left),
        BranchSpec((0.5, 0.75), right), BranchSpec((0.75, 1.0), right))))


def _synthetic_record(index, ks, ambient, res):
    lo, hi = ambient
    nbins = max(1, math.ceil((hi - lo) / res - 1e-9))
    cover = IntervalCover(res, _bins_to_cells(ks, lo, hi, res))
    return RawPointRecord(index, lo, cover, None, None,
                          _bins_to_mask(ks, nbins))


@pytest.mark.parametrize("name", ["logistic382", "logistic4", "tent",
                                  "two_attractors"])
def test_join_cover_matches_float_reference_on_samples(name):
    m, burn_in, length = {
        "logistic382": (mapdefs.logistic(3.82), 2000, 600),
        "logistic4": (mapdefs.logistic(4.0), 2000, 600),
        # binary64 tent orbits collapse onto 0.5 within ~52 steps
        "tent": (mapdefs.tent(), 0, 40),
        "two_attractors": (_two_attractor_map(), 2000, 600),
    }[name]
    records = [r for r in basin_sample(
        m, 100, 1, BasinConfig(burn_in=burn_in, length=length,
                               resolution=1e-3))
        if r.cover is not None]
    assert len(records) >= 50
    tol = 2e-3
    assert (_clusters(classify._join_cover, records, tol)
            == _clusters(_ref_join_cover, records, tol))


@pytest.mark.parametrize("ambient", [(0.0, 1.0004), (100.0, 101.0),
                                     (0.0, 100.0004)])
def test_join_cover_matches_float_reference_near_the_gate(ambient):
    res, tol = 1e-3, 2e-3
    nbins = max(1, math.ceil((ambient[1] - ambient[0]) / res - 1e-9))
    last = nbins - 1           # 4e-4 wide when the width ends in .0004
    base = set(range(200, 260)) | {last - 1}
    extra = [last, 100, 101, 300, 400, 230, 240]
    variants = [base]
    for size in (1, 2, 3, 4):
        for start in range(len(extra) - size + 1):
            variants.append(base ^ set(extra[start:start + size]))
    records = [_synthetic_record(i, ks, ambient, res)
               for i, ks in enumerate(variants)]
    # 100001 bins on (0, 100.0004): bins 2j and 2j + 1 share bit j
    assert records[0].mask.bit_length() <= 2 ** 16
    for a in records:
        for b in records:
            assert (_clusters(classify._join_cover, [a, b], tol)
                    == _clusters(_ref_join_cover, [a, b], tol))
    for order in (records, records[::-1]):
        assert (_clusters(classify._join_cover, order, tol)
                == _clusters(_ref_join_cover, order, tol))
    # two bins apart, a full one and the 4e-4 wide last one: the float test
    # joins them, so a gate without its slack of 3 fails the loops above
    if ambient == (0.0, 1.0004):
        pair = [records[0], records[variants.index(base | {last, 100})]]
        assert len(_clusters(_ref_join_cover, pair, tol)) == 1


def test_classify_work_is_not_quadratic(monkeypatch):
    # the bin-mask gate leaves few float comparisons, and each lateral's
    # critical orbit is walked once per call (at the parent: 4950
    # comparisons in _join_cover and 142 omega covers on this run)
    counts = {"join_symdiff": 0, "omega_cover": 0}
    symdiff, omega = classify.cover_symdiff_length, classify.omega_cover

    def counted_symdiff(a, b):
        if sys._getframe(1).f_code.co_name == "_join_cover":
            counts["join_symdiff"] += 1
        return symdiff(a, b)

    def counted_omega(*args):
        counts["omega_cover"] += 1
        return omega(*args)

    monkeypatch.setattr(classify, "cover_symdiff_length", counted_symdiff)
    monkeypatch.setattr(classify, "omega_cover", counted_omega)
    m = mapdefs.logistic(3.82)
    res = classify_attractors(m, ClassifyConfig(samples=100, seed=1,
                                                length=600))
    assert len(res.reports) == 100     # one unresolved report per sample
    assert 1 <= counts["omega_cover"] <= len(m.lateral_values)
    assert counts["join_symdiff"] < 100


# ---------------------------------------------------------------------------
# recurrence_check


def test_recurrence_examples(logistic4, feigenbaum, jump_map):
    # orbit of the critical value of the fully chaotic map falls onto the
    # fixed point 0 and never returns to 0.5
    assert recurrence_check(logistic4, LateralPoint(0.5, "left"),
                            20000, 1e-3) is False
    assert recurrence_check(logistic4, LateralPoint(0.5, "right"),
                            20000, 1e-3) is False
    # at the period-doubling limit the critical orbit is recurrent
    assert recurrence_check(feigenbaum, LateralPoint(0.5, "left"),
                            20000, 1e-3) is True
    assert recurrence_check(feigenbaum, LateralPoint(0.5, "right"),
                            20000, 1e-3) is True
    # lateral value equal to its own base point: trivially recurrent
    for lp, val in jump_map.lateral_values:
        assert val == lp.point
        assert recurrence_check(jump_map, lp, 10000, 1e-3) is True


def test_recurrence_preconditions(logistic4, tent):
    with pytest.raises(ConfigError):
        recurrence_check(logistic4, LateralPoint(0.5, "left"), 5000, 1e-3)
    with pytest.raises(ConfigError):
        recurrence_check(logistic4, LateralPoint(0.5, "left"), 20000, 0.0)
    # tent at 0.75 maps to 0.5 in one step: exceptional hit during burn-in
    with pytest.raises(DegenerateOrbitError):
        recurrence_check(tent, LateralPoint(0.75, "left"), 10000, 1e-3)


# ---------------------------------------------------------------------------
# match_omega


def test_match_omega_accepts_cantor_cover(feigenbaum_classification):
    m, cfg, res = feigenbaum_classification
    cover = res.reports[0].cover
    matched, diag = match_omega(cover, m, cfg)
    assert sorted((lp.point, lp.side) for lp in matched) == \
        [(0.5, "left"), (0.5, "right")]
    assert diag["symdiff"] <= 5e-3


def test_match_omega_rejects_fat_cover(tent):
    # a full-interval cover contains the break point, but the critical
    # orbit 1, 0, 0, ... covers almost nothing: interior fatness mismatch
    cover = IntervalCover(1e-3, [(0.0, 1.0)])
    matched, diag = match_omega(cover, tent, ClassifyConfig())
    assert matched is None
    assert diag["symdiff"] >= 0.9


def test_match_omega_no_critical_point(logistic4):
    cover = IntervalCover(1e-3, [(0.05, 0.08)])
    matched, diag = match_omega(cover, logistic4, ClassifyConfig())
    assert matched is None
    assert "no critical point" in diag["reason"]
    with pytest.raises(ConfigError):
        match_omega(IntervalCover(1e-3, []), logistic4, ClassifyConfig())


# ---------------------------------------------------------------------------
# critical_order


def test_critical_order_transient_orbits(tent, logistic4):
    # in both maps the orbit of the critical value is 1, 0, 0, ... so no
    # lateral value lies in any omega set: empty relation, all maximal
    for m in (tent, logistic4):
        co = critical_order(m, 100_000, 1e-3)
        assert len(co.members) == 2
        assert co.in_omega == [[False, False], [False, False]]
        assert co.strict == []
        assert co.maximal == [0, 1]


def test_critical_order_recurrent_orbits(feigenbaum, logistic32):
    # Feigenbaum: both laterals share one recurrent orbit, so each value
    # sits in every omega set and the strict relation cancels out
    co = critical_order(feigenbaum, 100_000, 1e-3)
    assert co.in_omega == [[True, True], [True, True]]
    assert co.strict == []
    assert co.maximal == [0, 1]
    # a=3.2: the critical value 0.8 lies within resolution of the cycle
    # point 0.79946, so membership holds for both laterals as well
    co = critical_order(logistic32, 100_000, 1e-3)
    assert co.in_omega == [[True, True], [True, True]]
    assert co.strict == []
    assert co.maximal == [0, 1]


def test_critical_order_preconditions(logistic4):
    with pytest.raises(ConfigError):
        critical_order(logistic4, 5000, 1e-3)
    with pytest.raises(ConfigError):
        critical_order(logistic4, 100_000, 0.0)


def test_critical_order_serialization(feigenbaum):
    co = critical_order(feigenbaum, 20_000, 1e-3)
    d = co.to_dict()
    json.dumps(d)
    assert d["members"][0]["point"] == 0.5
    assert len(d["in_omega"]) == 2


# ---------------------------------------------------------------------------
# cover invariants


def test_forward_invariance_cell_form(logistic32, logistic4_classification):
    # contracting and full-interval covers: the image hull of every cell
    # must land inside the cover inflated by one resolution
    res32 = classify_attractors(logistic32, ClassifyConfig(samples=150, seed=7))
    for m, res in ((logistic32, res32),
                   (logistic4_classification[0], logistic4_classification[2])):
        for rep in res.reports:
            cells = rep.cover.cells
            for cell in cells:
                lo, hi = _hull(m, cell)
                assert _in_cells(lo, cells, 1e-3)
                assert _in_cells(hi, cells, 1e-3)


def test_forward_invariance_point_form(feigenbaum_classification):
    # thin covers quantize: mapping whole cells overshoots by slope times
    # the bin margin, so invariance is checked on actual orbit points
    m, _cfg, res = feigenbaum_classification
    cells = res.reports[0].cover.cells
    x = 0.171
    for _ in range(2000):
        x = m.eval(x)
    checked = 0
    for _ in range(4000):
        fx = m.eval(x)
        if _in_cells(x, cells, 0.0):
            checked += 1
            assert _in_cells(fx, cells, 1e-3)
        x = fx
    assert checked == 4000


def test_nonperiodic_covers_meet_critical_balls(logistic4):
    # density of typical covers near the critical set, reduced scale: no
    # sampled cover may avoid the 1e-3-ball of 0.5
    recs = basin_sample(logistic4, 50, 21, BasinConfig(length=20000))
    avoiding = 0
    for r in recs:
        assert r.terminated_at is None
        assert r.periodic is None
        if not _in_cells(0.5, r.cover.cells, 1e-3):
            avoiding += 1
    assert avoiding == 0
