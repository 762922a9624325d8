import ast
import json
import math
import os
import tracemalloc
from array import array

import pytest

from intervaldyn import classify, cli, induction, orbits
from intervaldyn.classify import ClassifyConfig, classify_attractors, \
    critical_order
from intervaldyn.errors import (
    ConfigError,
    DegenerateOrbitError,
    ExceptionalPointError,
    IntervalDynError,
    OutOfRangeError,
)
from intervaldyn.mapcore import (
    BranchSpec, LateralPoint, MapSpec, build_map, mapspec_to_dict)
from intervaldyn.orbits import (
    BasinConfig,
    IntervalCover,
    RawPointRecord,
    basin_sample,
    detect_periodic_like,
    find_periodic_points,
    omega_cover,
    orbit,
)
from intervaldyn.rng import SplitMix64
import mapdefs
import refloops


# known-answer vector for the documented generator (seed 0)
def test_splitmix64_reference_stream():
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F
    u = SplitMix64(7).uniform()
    assert 0.0 <= u < 1.0


def test_orbit_terminates_on_start_at_exceptional(tent):
    seg = orbit(tent, 0.5, 10)
    assert seg.terminated_at_exceptional == 0
    assert seg.iterates == [0.5]
    assert seg.log_deriv_prefix == [0.0]


def test_orbit_tent_period_two(tent):
    seg = orbit(tent, 0.4, 6)
    assert seg.terminated_at_exceptional is None
    want = [0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4]
    for got, w in zip(seg.iterates, want):
        assert got == pytest.approx(w, abs=1e-12)


def test_orbit_doubling_one_third(doubling):
    seg = orbit(doubling, 1.0 / 3.0, 3)
    # only the first few iterates: slope 2 amplifies binary64 drift
    assert seg.iterates[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert seg.iterates[1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert seg.iterates[2] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_orbit_internal_consistency(logistic4):
    seg = orbit(logistic4, 0.137, 30)
    for k in range(len(seg.iterates) - 1):
        assert seg.iterates[k + 1] == logistic4.eval(seg.iterates[k])
    for k in range(len(seg.iterates)):
        log_abs, _ = logistic4.deriv_product(seg.start, k)
        assert seg.log_deriv_prefix[k] == pytest.approx(
            log_abs, rel=1e-9, abs=1e-12)


def test_omega_cover_logistic32_two_cells(logistic32):
    # the attracting 2-cycle of the quadratic family at a=3.2, from the
    # closed form ((a+1) +- sqrt((a+1)(a-3)))/(2a)
    lo_pt = 0.5130445095326300
    hi_pt = 0.7994554904673700
    cov = omega_cover(logistic32, 0.3, 1000, 10000, 1e-3)
    assert len(cov.cells) == 2
    assert cov.cells[0][0] <= lo_pt <= cov.cells[0][1]
    assert cov.cells[1][0] <= hi_pt <= cov.cells[1][1]


def test_omega_cover_empty_window(tent):
    cov = omega_cover(tent, 0.3, 1000, 0, 1e-3)
    assert cov.cells == []


def test_omega_cover_rejects_bad_args(tent):
    with pytest.raises(ConfigError):
        omega_cover(tent, 0.3, 0, 20_000_000, 1e-3)
    with pytest.raises(ConfigError):
        omega_cover(tent, 0.3, 0, 100, 1e-7)


def test_resolution_guard_is_shared(logistic4):
    # omega_cover, basin_sample, classify_attractors and critical_order
    # take a resolution only when it is finite and >= 1e-6
    for res in (0, 0.0, -1e-3, 1e-7, math.nextafter(1e-6, 0.0),
                float("nan"), math.inf, -math.inf):
        calls = (
            lambda: omega_cover(logistic4, 0.3, 10, 10, res),
            lambda: basin_sample(logistic4, 1, 0,
                                 BasinConfig(resolution=res)),
            lambda: classify_attractors(logistic4,
                                        ClassifyConfig(resolution=res)),
            lambda: critical_order(logistic4, 10_000, res),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="resolution"):
                call()
    assert omega_cover(logistic4, 0.3, 10, 10, 1e-6).cells
    assert orbits._bins_to_cells(basin_sample(logistic4, 1, 0, BasinConfig(
        burn_in=10, length=10, resolution=1e-6))[0].bins,
        *logistic4.ambient, 1e-6)


def test_omega_cover_degenerate_on_binary64_collapse(tent):
    # tent arithmetic is exact on binary64 dyadics, so every double
    # precision orbit reaches the undefined point 0.5 in ~50 steps; a
    # burn-in past that point must report the orbit as degenerate
    with pytest.raises(DegenerateOrbitError):
        omega_cover(tent, 0.3141592653589793, 1000, 1000, 1e-2)


def test_omega_cover_monotone_in_length(logistic4):
    short = omega_cover(logistic4, 0.3, 100, 2000, 1e-2)
    long_ = omega_cover(logistic4, 0.3, 100, 4000, 1e-2)
    for a, b in short.cells:
        assert any(c <= a and b <= d for c, d in long_.cells)


def test_bin_runs_and_cells():
    # runs are the maximal stretches of consecutive bins; each becomes one
    # cell, and the last bin is cut at the ambient end
    assert orbits._runs([]) == []
    assert orbits._runs([3, 4, 5, 7, 9, 10]) == [[3, 5], [7, 7], [9, 10]]
    assert orbits._bins_to_cells({10, 3, 4, 9}, 0.0, 1.05, 0.1) == \
        [(0.0 + 3 * 0.1, 0.0 + 5 * 0.1), (0.0 + 9 * 0.1, 1.05)]
    m = build_map(MapSpec((BranchSpec((0.0, 1.05), "x/1.05"),),
                          ambient=(0.0, 1.05)))
    assert orbits._nbins(m, 0.1) == 11
    assert orbits._nbins(m, 0.35) == 3
    assert orbits._nbins(m, 2.0) == 1


def test_detect_periodic_like_superattracting():
    m = mapdefs.logistic(2.0)
    pl = detect_periodic_like(m, LateralPoint(0.5, "left"))
    assert pl is not None
    assert pl.period == 1
    assert abs(pl.lateral_multiplier) <= 1e-8
    assert pl.attracting


def test_detect_periodic_like_none_for_tent_break(tent):
    assert detect_periodic_like(tent, LateralPoint(0.5, "left")) is None


def test_detect_periodic_like_repelling_flip(tent):
    # the tent fixed point 2/3 is approached from the left only after two
    # steps (one step lands on the other side), with |Df^2| = 4
    pl = detect_periodic_like(tent, LateralPoint(2.0 / 3.0, "left"))
    assert pl is not None
    assert pl.period == 2
    assert pl.lateral_multiplier == pytest.approx(4.0, rel=1e-3)
    assert not pl.attracting


def test_detect_periodic_like_jump_fixture(jump_map):
    for side in ("left", "right"):
        pl = detect_periodic_like(jump_map, LateralPoint(0.6, side))
        assert pl is not None, side
        assert pl.period == 1
        assert pl.lateral_multiplier == pytest.approx(0.5, rel=1e-3)
        assert pl.attracting


def test_find_periodic_points_tent(tent):
    res = find_periodic_points(tent, 2)
    by_point = {round(x, 6): (p, mult) for x, p, mult in res}
    assert set(by_point) == {0.0, 0.4, 0.666667, 0.8}
    assert by_point[0.0][0] == 1
    assert by_point[0.666667][0] == 1
    assert by_point[0.4][0] == 2
    assert by_point[0.8][0] == 2
    for x, p, mult in res:
        assert mult == pytest.approx(2.0 ** p, rel=1e-6)


def test_find_periodic_points_doubling_lattice(doubling):
    res = find_periodic_points(doubling, 3)
    counts = {}
    for x, p, mult in res:
        if x == 0.0:
            continue  # 0 and 1 are the same circle point; tally one of them
        counts[p] = counts.get(p, 0) + 1
    assert counts == {1: 1, 2: 2, 3: 6}
    # completeness against the exact rational lattice k/(2^n - 1)
    reported = sorted(x for x, p, mult in res)
    for n, den in ((2, 3), (3, 7)):
        for k in range(1, den):
            target = k / den
            assert min(abs(target - x) for x in reported) < 1e-7, target
    # every reported point really is periodic
    for x, p, mult in res:
        y = x
        for _ in range(p):
            y = doubling.eval(y)
        assert abs(y - x) <= 1e-9


def test_find_periodic_points_logistic32(logistic32):
    # quadratic-formula oracle: fixed points 0 and 1 - 1/a = 0.6875;
    # 2-cycle ((a+1) +- sqrt((a+1)(a-3)))/(2a); Df2 on the cycle = 0.16
    res = find_periodic_points(logistic32, 2)
    pts = sorted((x, p) for x, p, _ in res)
    want = [(0.0, 1), (0.5130445095326300, 2), (0.6875, 1),
            (0.7994554904673700, 2)]
    assert len(pts) == 4
    for (x, p), (wx, wp) in zip(pts, want):
        assert x == pytest.approx(wx, abs=1e-9)
        assert p == wp
    mults = {round(x, 6): mult for x, _, mult in res}
    assert mults[0.0] == pytest.approx(3.2, rel=1e-6)
    assert mults[0.6875] == pytest.approx(1.2, rel=1e-6)
    assert mults[0.513045] == pytest.approx(0.16, rel=1e-4)
    assert mults[0.799455] == pytest.approx(0.16, rel=1e-4)


def test_find_periodic_points_rejects_bad_period_max(tent):
    for p in (0, -3, 25):
        with pytest.raises(ConfigError):
            find_periodic_points(tent, p)


def _moebius(k):
    sign, q = 1, 2
    while q * q <= k:
        if k % q == 0:
            k //= q
            if k % q == 0:
                return 0
            sign = -sign
        q += 1
    return -sign if k > 1 else sign


def _least_period_counts(res):
    counts = {}
    for _, p, _ in res:
        counts[p] = counts.get(p, 0) + 1
    return counts


def test_find_periodic_points_moebius_counts_logistic4(logistic4):
    # a full two-branch map has sum_{d | p} mu(p/d) 2^d points of least
    # period p
    counts = _least_period_counts(find_periodic_points(logistic4, 10))
    want = {p: sum(_moebius(p // d) * 2 ** d
                   for d in range(1, p + 1) if p % d == 0)
            for p in range(1, 11)}
    assert counts == want
    assert sum(counts.values()) == 1966


def test_find_periodic_points_doubling_lattice_to_period_8(doubling):
    # the doubling map of the circle has 2^n - 1 points of period dividing
    # n, the lattice k/(2^n - 1); the interval adds the fixed point 0
    res = find_periodic_points(doubling, 8)
    counts = _least_period_counts(r for r in res if r[0] != 0.0)
    assert counts == {p: sum(_moebius(p // d) * (2 ** d - 1)
                             for d in range(1, p + 1) if p % d == 0)
                      for p in range(1, 9)}
    assert len(res) == 472
    xs = [x for x, _, _ in res]
    for n in range(1, 9):
        den = 2 ** n - 1
        for k in range(1, den + 1):
            assert min(abs(x - k / den) for x in xs) < 1e-12, (k, den)


_ORACLE_FIXTURES = (
    ("logistic4", lambda: mapdefs.logistic(4.0), 10),
    ("logistic382", lambda: mapdefs.logistic(3.82), 10),
    ("logistic32", lambda: mapdefs.logistic(3.2), 8),
    ("feigenbaum", lambda: mapdefs.logistic(mapdefs.FEIGENBAUM_A), 10),
    ("doubling", mapdefs.doubling, 8),
    ("tent", mapdefs.tent, 8),
    ("neutral", mapdefs.neutral, 6),
    ("two_attractors", mapdefs.two_attractors, 8),
    ("jump_contraction", mapdefs.jump_contraction, 8),
    ("plateau", mapdefs.plateau, 6),
)


def _within_one_ulp_of_sign_change(m, x, d):
    # g = f^d - x as computed: zero at x, or of the other sign (or zero) at
    # a neighbouring float inside the ambient interval
    def g(y):
        z = m.compose(y, d)
        return None if z is None else z - y
    g0 = g(x)
    if g0 == 0.0:
        return True
    lo, hi = m.ambient
    for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        if lo <= y <= hi:
            g1 = g(y)
            if g1 is not None and g0 * g1 <= 0.0:
                return True
    return False


@pytest.mark.parametrize("name,make,period",
                         _ORACLE_FIXTURES, ids=[f[0] for f in _ORACLE_FIXTURES])
def test_find_periodic_points_matches_bisection_oracle(name, make, period):
    # the bisection search that `solve` replaced: the same points and
    # periods, moved by at most 1e-13, each next to a sign change
    m = make()
    new = find_periodic_points(m, period)
    old = refloops.find_periodic_points(m, period)
    assert len(new) == len(old)
    assert [p for _, p, _ in new] == [p for _, p, _ in old]
    for (x, p, _), (y, _, _) in zip(new, old):
        assert abs(x - y) <= 1e-13, (x, y, p)
        assert _within_one_ulp_of_sign_change(m, x, p), (x, p)


def _repr_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except IntervalDynError as e:
        return "%s: %s" % (type(e).__name__, e)


def _recorded_solve_calls(m, period):
    calls = []
    compiled = m.solve

    def rec(*args):
        calls.append(args)
        return compiled(*args)
    m.__dict__["solve"] = rec
    try:
        find_periodic_points(m, period)
    finally:
        m.__dict__["solve"] = compiled
    return calls


def test_solve_matches_reference_loop():
    # every solve call of the searches below, fixed points and cut
    # preimages, then brackets on doubling whose iterates hit the cut 0.5
    # (Brent converges onto the jumps of f^n there) and a bracket inside
    # the doubles that the one-ulp map sends out of the ambient interval
    cases = []
    for m, period in ((mapdefs.logistic(4.0), 8), (mapdefs.logistic(3.82), 8),
                      (mapdefs.two_attractors(), 6), (mapdefs.neutral(), 5),
                      (mapdefs.doubling(), 6), (mapdefs.tent(), 6),
                      (mapdefs.jump_contraction(), 6)):
        cases += [(m, c) for c in _recorded_solve_calls(m, period)]
    assert sum(len(c) == 5 for _, c in cases) > 1000     # fixed points
    assert sum(len(c) == 6 for _, c in cases) > 500      # cut preimages
    dbl = mapdefs.doubling()
    hits = [0]

    class Counted:
        def compose(self, x, n):
            y = dbl.compose(x, n)
            hits[0] += y is None
            return y
    for n in (1, 2, 3, 4, 6):
        for a, b in ((0.1, 0.4), (0.2, 0.3), (0.05, 0.45), (0.6, 0.9),
                     (0.55, 0.95), (0.3, 0.7)):
            for v in (None, 0.5):
                fa = dbl.compose(a, n) - (a if v is None else v)
                fb = dbl.compose(b, n) - (b if v is None else v)
                if fa * fb < 0.0:
                    cases.append((dbl, (a, b, fa, fb, n, v)))
                    refloops.solve(Counted(), a, b, fa, fb, n, v)
    assert hits[0] >= 10
    e = "0.001*4*(x/0.001)*(1-x/0.001)"
    ulp = build_map(MapSpec((BranchSpec((0.0, 5e-4), e),
                             BranchSpec((5e-4, 1e-3), e)), (0.0, 1e-3)))
    a, b = 5e-4 - 3e-15, math.nextafter(5e-4, 0.0)
    cases += [(ulp, (a, b, -1.0, 1.0, 2, v)) for v in (None, 0.0, 5e-4)]
    assert _repr_outcome(ulp.solve, a, b, -1.0, 1.0, 2).startswith(
        "OutOfRangeError")
    for m, args in cases:
        assert (_repr_outcome(m.solve, *args)
                == _repr_outcome(refloops.solve, m, *args)), args


def test_solve_ends_on_adjacent_floats():
    # every root of the searches below, fixed point or cut preimage, is a
    # zero of the computed g or has a neighbouring float where g takes the
    # other sign
    for m, period in ((mapdefs.logistic(4.0), 8),
                      (mapdefs.two_attractors(), 6)):
        for a, b, fa, fb, n, *v in _recorded_solve_calls(m, period):
            v = v[0] if v else None
            x = m.solve(a, b, fa, fb, n, v)
            g = [m.compose(y, n) - (y if v is None else v)
                 for y in (math.nextafter(x, -1.0), x,
                           math.nextafter(x, 2.0))]
            assert g[1] == 0.0 or g[0] * g[1] < 0.0 or g[1] * g[2] < 0.0


def test_solve_compiles_on_first_use():
    # neither build_map nor classify compiles it; the periodic-point
    # search does
    m = mapdefs.logistic(3.82)
    assert "solve" not in vars(m)
    classify_attractors(m, ClassifyConfig(samples=100, burn_in=50,
                                          length=100))
    assert "solve" not in vars(m)
    find_periodic_points(m, 3)
    assert "solve" in vars(m)


def test_least_period_matches_per_step_loop():
    # the periodic points of each search at every n up to the period, then
    # dyadic starts that reach the cut 0.5 of doubling and tent exactly
    # (a short walk) and starts that leave the ambient interval
    cases = []
    for m, period in ((mapdefs.logistic(4.0), 8), (mapdefs.doubling(), 6),
                      (mapdefs.tent(), 6), (mapdefs.neutral(), 5),
                      (mapdefs.jump_contraction(), 6)):
        for x, _, _ in find_periodic_points(m, period):
            cases += [(m, x, n) for n in range(1, period + 1)]
    for m in (mapdefs.doubling(), mapdefs.tent()):
        for x in (0.0, 0.125, 0.25, 0.375, 0.75, 1.0, 0.3):
            cases += [(m, x, n) for n in (1, 2, 3, 5)]
    cases += [(mapdefs.logistic(4.0), x, 3) for x in (-0.5, 1.5, math.nan)]
    assert sum(refloops.least_period(m, x, n) < n for m, x, n in cases
               if m.ambient[0] <= x <= m.ambient[1]) > 100
    for m, x, n in cases:
        assert (_repr_outcome(orbits._least_period, m, x, n)
                == _repr_outcome(refloops.least_period, m, x, n)), (x, n)


def test_find_periodic_points_compositions_counted(monkeypatch):
    # through the per-evaluation reference loops every f^n is one counted
    # `compose`: the grid, the lap ends and each step of `solve`; the
    # points are those of the compiled search
    for period, cap in ((10, 60_000), (12, 220_000)):
        want = find_periodic_points(mapdefs.logistic(4.0), period)
        with monkeypatch.context() as patch:
            calls = refloops.install(patch)
            got = find_periodic_points(mapdefs.logistic(4.0), period)
        assert repr(got) == repr(want)
        assert calls["compose"] <= cap, (period, calls["compose"])


def test_basin_sample_logistic32_finds_two_cycle(logistic32):
    cfg = BasinConfig(burn_in=600, length=120, periodic_scan=8)
    recs = basin_sample(logistic32, 1000, seed=2024, cfg=cfg)
    matched = [r for r in recs if r.periodic
               and r.periodic["period"] == 2]
    assert len(matched) >= 990
    cyc = sorted(matched[0].periodic["points"])
    assert cyc[0] == pytest.approx(0.5130445095326300, abs=1e-9)
    assert cyc[1] == pytest.approx(0.7994554904673700, abs=1e-9)


def test_basin_sample_tent_collapses(tent):
    cfg = BasinConfig(burn_in=100, length=50, periodic_scan=8)
    recs = basin_sample(tent, 100, seed=11, cfg=cfg)
    assert all(r.periodic is None for r in recs)
    # exact dyadic collapse: every double-precision tent orbit dies on the
    # undefined point 0.5 within ~52 steps
    assert all(r.terminated_at is not None for r in recs)


def test_basin_sample_deterministic(logistic32):
    cfg = BasinConfig(burn_in=50, length=30, periodic_scan=4)
    a = basin_sample(logistic32, 3, seed=99, cfg=cfg)
    b = basin_sample(logistic32, 3, seed=99, cfg=cfg)
    assert a == b


def test_basin_bins_beyond_int64():
    # 1e19 bins, and orbits that settle beyond bin 2**63: the record keeps
    # its bins as a tuple of Python ints, and classify clusters them like
    # any other
    m = build_map(MapSpec((BranchSpec((0.0, 1e13), "0.5*x + 4.75e12"),),
                          (0.0, 1e13)))
    cfg = BasinConfig(burn_in=0, length=50, resolution=1e-6)
    for rec in basin_sample(m, 3, 1, cfg):
        assert type(rec.bins) is tuple
        assert rec.bins[-1] >= 2 ** 63
        assert list(rec.bins) == sorted(rec.bins)
    res = classify_attractors(m, ClassifyConfig(
        samples=100, burn_in=0, length=50, resolution=1e-6))
    assert [r.basin_fraction for r in res.reports] == [1.0]


# -- reference: the per-step eval loops that basin sampling and omega
# covers ran before they moved onto the chunked `walk`

def _ref_omega_cover(m, x, burn_in, length, resolution):
    if length == 0:
        return IntervalCover(resolution, [])
    lo, hi = m.ambient
    nbins = max(1, math.ceil((hi - lo) / resolution - 1e-9))
    ks = set()
    total = burn_in + length
    for i in range(total):
        if i >= burn_in:
            k = int((x - lo) / resolution)
            ks.add(min(max(k, 0), nbins - 1))
        if i + 1 < total:
            try:
                x = m.eval(x)
            except ExceptionalPointError:
                if i < burn_in:
                    raise DegenerateOrbitError(
                        "orbit hit undefined point at index %d, before the "
                        "observation window at %d" % (i, burn_in)) from None
                break
    return IntervalCover(resolution,
                         orbits._bins_to_cells(ks, lo, hi, resolution))


def _ref_sample_one(m, idx, x0, cfg):
    x = x0
    try:
        for i in range(cfg.burn_in):
            x = m.eval(x)
    except ExceptionalPointError:
        return RawPointRecord(idx, x0, None, i)
    lo, hi = m.ambient
    res = cfg.resolution
    nbins = max(1, math.ceil((hi - lo) / res - 1e-9))
    ks = set()
    tail = []
    terminated = None
    for i in range(cfg.length):
        ks.add(min(max(int((x - lo) / res), 0), nbins - 1))
        tail.append(x)
        try:
            x = m.eval(x)
        except ExceptionalPointError:
            terminated = cfg.burn_in + i
            break
    periodic = None
    if terminated is None and len(tail) > 1:
        for p in range(1, min(cfg.periodic_scan, len(tail) - 1) + 1):
            if abs(tail[p] - tail[0]) <= cfg.conv_tol:
                try:
                    log_abs, _ = m.deriv_product(tail[0], p)
                    mult = math.exp(log_abs)
                except Exception:
                    break
                if mult <= 1.0 + 1e-9:
                    periodic = {"period": p, "points": tail[:p],
                                "multiplier": mult}
                break
    return RawPointRecord(idx, x0, periodic, terminated,
                          array("q", sorted(ks)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateOrbitError as e:
        return ("degenerate", str(e))


REFERENCE_MAPS = {
    "logistic4": lambda: mapdefs.logistic(4.0),
    "feigenbaum": lambda: mapdefs.logistic(mapdefs.FEIGENBAUM_A),
    "logistic32": lambda: mapdefs.logistic(3.2),
    "tent": mapdefs.tent,
    "doubling": mapdefs.doubling,
}


@pytest.mark.parametrize("chunk", [orbits._CHUNK, 5])
@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_walk_loops_match_per_step_reference(name, chunk, monkeypatch):
    monkeypatch.setattr(orbits, "_CHUNK", chunk)
    m = REFERENCE_MAPS[name]()
    rng = SplitMix64(len(name))
    length = 3 * chunk + 7
    # the dyadic starts collapse onto 0.5 on tent and doubling: before the
    # window, on its first and last iterates, and on the one just past it;
    # the ambient end 1.0 falls one past the last bin and is clamped
    starts = [rng.uniform(0.0, 1.0) for _ in range(3)] + [0.375, 0.3125, 1.0]
    cases = [(b, n) for b in (0, 1, 2, 3, 60) for n in (0, 1, 2, 3, length)]
    cases += [(chunk, 3), (2 * chunk + 1, 2), (chunk - 1, length)]
    for x0 in starts:
        for burn_in, n in cases:
            cfg = BasinConfig(burn_in=burn_in, length=n, resolution=1e-3,
                              periodic_scan=8)
            assert (orbits._sample_one(m, 7, x0, cfg)
                    == _ref_sample_one(m, 7, x0, cfg)), (x0, burn_in, n)
            assert (_outcome(omega_cover, m, x0, burn_in, n, 1e-3)
                    == _outcome(_ref_omega_cover, m, x0, burn_in, n,
                                1e-3)), (x0, burn_in, n)


def test_walk_loops_reference_sees_every_outcome():
    # the comparison above covers degenerate, terminated, periodic and plain
    # records
    cfg = BasinConfig(burn_in=2, length=30, resolution=1e-3, periodic_scan=8)
    tent, log32 = mapdefs.tent(), mapdefs.logistic(3.2)
    assert _ref_sample_one(tent, 0, 0.375, BasinConfig(burn_in=60)) \
        .terminated_at == 2
    assert _ref_sample_one(tent, 0, 0.3125, cfg).terminated_at == 3
    assert _ref_sample_one(log32, 0, 0.3, BasinConfig()).periodic is not None
    with pytest.raises(DegenerateOrbitError):
        _ref_omega_cover(tent, 0.375, 60, 10, 1e-3)


def test_nan_iterate_in_window_is_out_of_range():
    # 0*inf is NaN just right of 0.3, off the validation grid; the per-step
    # loops binned that iterate before stepping it and raised ValueError
    m = build_map(MapSpec((BranchSpec((0.0, 1.0),
                                      "x + 0*(1e300/(x - 0.3))"),)))
    x0 = math.nextafter(0.3, 1.0)
    assert math.isnan(m.eval(x0))
    with pytest.raises(OutOfRangeError):
        omega_cover(m, x0, 0, 5, 1e-3)
    with pytest.raises(OutOfRangeError):
        orbits._sample_one(m, 0, x0, BasinConfig(burn_in=0, length=5))


def test_walk_loops_memory_does_not_grow_with_window():
    m = mapdefs.logistic(4.0)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long_ = 3 * orbits._CHUNK, 200_000
    for run in (lambda n: omega_cover(m, 0.3, 100, n, 1e-3),
                lambda n: basin_sample(m, 1, 5, BasinConfig(length=n))):
        small, big = peak(lambda: run(short)), peak(lambda: run(long_))
        # a list of the 200k window iterates alone would take ~6 MB
        assert big < small + 64 * 1024, (small, big)
        assert big < 1024 * 1024, big


def _binned(fn, m, *args):
    """(sorted bins, nbins, head, hit) of a binned walk, or its error."""
    try:
        ks, nbins, head, hit = fn(m, *args)
    except Exception as e:
        return type(e), str(e)
    return sorted(ks), nbins, head, hit


def _saturation(m, x, burn_in, length, resolution):
    """The index of the first window iterate by which every bin of the
    grid is visited, or None."""
    nbins, bin_of = orbits._nbins(m, resolution), orbits._binner(m, resolution)
    seen = set()
    for j, y in enumerate(orbits._iterates(m, x, burn_in + length)):
        if j >= burn_in:
            seen.add(bin_of(y))
            if len(seen) == nbins:
                return j
    return None


def _shifted_logistic():
    """Logistic a = 4 moved onto the ambient interval (100, 101)."""
    return build_map(MapSpec(
        (BranchSpec((100.0, 100.5), "100 + 4*(x - 100)*(101 - x)"),
         BranchSpec((100.5, 101.0), "100 + 4*(x - 100)*(101 - x)")),
        (100.0, 101.0)))


def test_binned_walk_matches_walk_every_chunk_oracle(monkeypatch):
    # the binned walk that steps with `compose` where it needs no bins, and
    # stops binning once every bin is visited, gives the bins, head, hit and
    # errors of the one that walked and binned every chunk
    log4, feig = mapdefs.logistic(4.0), mapdefs.logistic(mapdefs.FEIGENBAUM_A)
    doubling = mapdefs.doubling()
    shifted = _shifted_logistic()
    nan_map = build_map(MapSpec((BranchSpec((0.0, 1.0),
                                            "x + 0*(1e300/(x - 0.3))"),)))
    huge = build_map(MapSpec((BranchSpec((0.0, 1e13), "0.5*x + 4.75e12"),),
                             (0.0, 1e13)))
    near_half = 0.5 + 1e-9      # f(near_half) rounds to the ambient end 1.0
    nan_start = math.nextafter(0.3, 1.0)
    sat = _saturation(log4, 0.1, 2000, 20000, 1e-3)
    assert 2000 < sat < 22000 - 1
    assert _saturation(feig, 0.3, 2000, 20000, 1e-3) is None
    # (chunk, m, x, steps, burn_in, length, resolution, keep)
    cases = [
        # saturation inside the window, on its last iterate, and on the
        # last iterate of the walk, never stepped
        (None, log4, 0.1, 22000, 2000, 20000, 1e-3, 33),
        (None, log4, 0.1, 22000, 2000, sat - 2000 + 1, 1e-3, 33),
        (None, log4, 0.1, sat, 2000, 20000, 1e-3, 33),
        (5, log4, 0.1, 21999, 2000, 20000, 1e-3, 0),
        (None, feig, 0.3, 22000, 2000, 20000, 1e-3, 33),
        # doubling reaches the cut 0.5 at step 12, in the burn-in; and at
        # step 39, after its 4 bins are visited
        (None, doubling, 2.0 ** -13, 60, 30, 30, 1e-3, 3),
        (5, doubling, 2.0 ** -13, 60, 30, 30, 1e-3, 3),
        (7, doubling, 0x9E3779B97F / 2.0 ** 40, 100, 0, 100, 0.25, 3),
        (7, doubling, 0x9E3779B97F / 2.0 ** 40, 100, 0, 100, 0.25, 30),
        # burn-in at or past the last step
        (None, log4, 0.2, 100, 100, 50, 1e-3, 5),
        (None, log4, 0.2, 100, 200, 50, 1e-3, 5),
        (5, log4, 0.2, 99, 99, 1, 1e-3, 5),
        # steps not a multiple of the chunk, a width not a multiple of the
        # resolution, an ambient interval from 100
        (None, log4, 0.2, 3 * orbits._CHUNK + 7, 1000, 13000, 7e-4,
         33),
        (None, shifted, 100.3, 22000, 2000, 20000, 1e-3, 33),
        (5, shifted, 100.3, 1500, 100, 1400, 3e-3, 0),
        # the unstepped last iterate on the ambient end 1.0 and outside the
        # ambient interval, clamped; a walked iterate, not the last, on the
        # ambient end, whose bin nbins is moved to the last bin, also while
        # the walk bins
        (None, log4, near_half, 1, 0, 2, 1e-3, 2),
        (None, log4, -1e-4, 0, 0, 1, 1e-3, 1),
        (None, log4, -0.5, 0, 0, 1, 1e-3, 1),
        (None, log4, 1.5, 0, 0, 1, 1e-3, 1),
        (None, log4, near_half, 5, 0, 5, 1e-3, 0),
        (None, log4, near_half, 5, 0, 5, 0.5, 0),
        (None, log4, near_half, 5, 0, 5, 1 / 3, 0),
        # NaN and out-of-range iterates, stepped and unstepped, also after
        # the one bin of the grid is visited
        (None, nan_map, nan_start, 1, 0, 2, 1e-3, 0),
        (None, nan_map, nan_start, 1, 0, 2, 1.0, 0),
        (None, log4, 0.2, 100, 10, 90, 1.0, 33),
        (None, nan_map, nan_start, 4, 0, 5, 1e-3, 0),
        (None, nan_map, nan_start, 4, 3, 5, 1e-3, 0),
        (None, log4, math.nan, 0, 0, 1, 1e-3, 0),
        (None, log4, math.inf, 0, 0, 1, 1e-3, 0),
        (None, log4, 1.5, 10, 0, 10, 1e-3, 0),
        (None, log4, 1.5, 10, 5, 10, 1e-3, 0),
        # more than 2**63 bins
        (None, huge, 3e12, 50, 0, 50, 1e-6, 33),
    ]
    kinds = set()
    for chunk, m, *args in cases:
        with monkeypatch.context() as patch:
            if chunk:
                patch.setattr(orbits, "_CHUNK", chunk)
            got = _binned(orbits._binned_walk, m, *args)
        want = _binned(refloops.binned_walk, m, *args)
        assert got == want, args
        kinds.add(want[0] if isinstance(want[0], type) else
                  (len(want[0]) == want[1], want[3] is not None))
    assert kinds == {OutOfRangeError, ValueError, OverflowError,
                     (True, False), (False, False), (True, True),
                     (False, True)}


def _counted_steps(m):
    """A list that the map's `walk`, `compose` and `walk_bins` append
    (shape, steps) to: the steps asked of `walk` and `compose`, and the
    iterates that `walk_bins` binned."""
    calls = []
    for name in ("walk", "compose"):
        def counted(x, n, shape=getattr(m, name), name=name):
            calls.append((name, n))
            return shape(x, n)
        m.__dict__[name] = counted

    def walk_bins(*args, shape=m.walk_bins):
        out = shape(*args)
        calls.append(("walk_bins", out[1]))
        return out
    m.__dict__["walk_bins"] = walk_bins
    return calls


def test_binned_walk_composes_all_it_need_not_bin():
    # a basin record takes every burn-in step with `compose`, bins up to
    # the iterate that visits the last bin and no further, and walks only
    # its head again; an orbit that never visits them all bins its whole
    # window
    cfg = BasinConfig(burn_in=2000, length=20000)
    steps = cfg.burn_in + cfg.length
    for m, x0 in ((mapdefs.logistic(4.0), 0.1),
                  (mapdefs.logistic(mapdefs.FEIGENBAUM_A), 0.3)):
        sat = _saturation(m, x0, cfg.burn_in, cfg.length, cfg.resolution)
        calls = _counted_steps(m)
        orbits._sample_one(m, 0, x0, cfg)
        first = [name for name, _ in calls].index("walk")
        assert {name for name, _ in calls[:first]} == {"compose"}
        assert sum(n for _, n in calls[:first]) == cfg.burn_in
        walked = sum(n for name, n in calls if name == "walk")
        binned = sum(n for name, n in calls if name == "walk_bins")
        assert walked <= cfg.periodic_scan      # keep - 1 head steps
        assert sum(n for name, n in calls if name != "walk") == steps
        if sat is None:
            assert binned == cfg.length
        else:
            assert cfg.burn_in + binned - 1 == sat
            assert binned < cfg.length // 2


def test_one_bin_formula():
    # the bin of a point, (y - lo) / resolution truncated, is written in
    # the package only in `orbits._bins` and in the shape that bins each
    # window iterate in its compiled loop, `PiecewiseMap.walk_bins`: no
    # other function truncates a quotient of a difference, floor-divides a
    # difference by a variable, or maps `operator.truediv`
    pkg = os.path.dirname(orbits.__file__)
    truncs = {"int", "floor", "trunc", "ceil", "round"}
    found = set()

    def is_diff(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)

    def is_bin(node):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                and is_diff(node.left)
                and not isinstance(node.right, ast.Constant)):
            return True
        if isinstance(node, ast.Name) and node.id == "truediv":
            return True
        if isinstance(node, ast.Call) and node.args:
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            arg = node.args[0]
            return (name in truncs and isinstance(arg, ast.BinOp)
                    and isinstance(arg.op, ast.Div) and is_diff(arg.left))
        return False

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            where = "%s:%s" % (where.split(":")[0],
                               getattr(node, "name", "<lambda>"))
        if is_bin(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                visit(ast.parse(fh.read()), name)
    assert found == {"orbits.py:_bins", "mapcore.py:walk_bins"}, sorted(found)


def test_walk_bins_bins_as_bins_does():
    # `walk_bins` bins a point as `_bins` does: every bin edge lo + k*res
    # and the floats on both sides of it, on an ambient interval from 0
    # and from 100, at resolutions that divide its width and that do not,
    # and the ambient end hi, whose bin can lie one past the grid: never
    # below bin 0 and never past bin nbins, the one bin off the grid that
    # `_binned_walk` moves to the last; doubling's cut 0.5 is binned as
    # the exceptional point that stops the walk
    past, hits = set(), set()
    for m in (mapdefs.doubling(), _shifted_logistic()):
        lo, hi = m.ambient
        for res in (1e-3, 0.25, 0.1, 7e-4, 3e-3):
            nbins = orbits._nbins(m, res)
            edges = [lo + k * res for k in range(nbins + 1)] + [hi]
            points = {p for e in edges
                      for p in (math.nextafter(e, -math.inf), e,
                                math.nextafter(e, math.inf))
                      if lo <= p <= hi}
            for y in sorted(points):
                seen = set()
                _, n, hit = m.walk_bins(y, 1, lo, res, seen, nbins + 1)
                assert n == 1
                assert seen == set(orbits._bins((y,), lo, res)), (y, res)
                if hit:
                    hits.add(y)
                assert min(seen) >= 0
                if max(seen) >= nbins:
                    past.add((lo, res))
                    assert seen == {nbins}, (y, res)
    assert hits == {0.5, 100.5}
    assert (0.0, 1e-3) in past and (0.0, 0.1) in past


# ---------------------------------------------------------------------------
# orbit loops on `walk` against the per-step loops they replaced


def _drift_spec():
    """x + 2^-15 below the cut 0.5 and x - 0.5 above it: every step is
    exact in binary64, so a start 0.5 - k * 2^-15 reaches the cut at
    step k, across chunk boundaries too."""
    return MapSpec((BranchSpec((0.0, 0.5), "x + %r" % 2 ** -15),
                    BranchSpec((0.5, 1.0), "x - 0.5")))


def _flip_spec():
    """Slope -0.9 about the cut 0.5: a one-sided orbit comes back to its
    side every second step, 0.81 times closer."""
    return MapSpec((BranchSpec((0.0, 0.5), "0.95 - 0.9*x"),
                    BranchSpec((0.5, 1.0), "0.95 - 0.9*x")))


def _swap_spec():
    # the ambient ends form a 2-cycle: f(0) = 1 and f(1) = 0
    return MapSpec((BranchSpec((0.0, 0.5), "1 - 0.5*x"),
                    BranchSpec((0.5, 1.0), "2 - 2*x")))


def _near_end_spec():
    # a cut within 1e-4 of the ambient end 0
    return MapSpec((BranchSpec((0.0, 5e-5), "2*x"),
                    BranchSpec((5e-5, 1.0), "0.5*x + 0.25")))


def _value_or_error(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as e:
        return type(e).__name__, str(e)


def test_chunked_orbit_checks_stop_within_a_chunk_of_their_answer():
    # `_iterates` gives x_0 .. x_(n-1) of the orbit that `walk` takes, also
    # across chunk ends and where the drift orbit stops on the cut at step
    # n or n - 1
    for n in (0, 1, orbits._CHUNK - 1, orbits._CHUNK, orbits._CHUNK + 1,
              3 * orbits._CHUNK + 5):
        for m, x in ((mapdefs.logistic(3.9), 0.3),
                     (build_map(_drift_spec()), 0.5 - n * 2 ** -15),
                     (build_map(_drift_spec()), 0.5 - (n - 1) * 2 ** -15)):
            assert (list(orbits._iterates(m, x, n))
                    == ([x] + m.walk(x, n))[:n]), (n, x)
    # recurrence_check and is_nice take at most _CHUNK steps per `walk`
    # call, so they hold at most _CHUNK + 1 iterates, and walk less than
    # one chunk past the step where the per-step loop answered, for an
    # orbit length far beyond it (the burn-in alone is 10^5 steps here)
    cases = ((mapdefs.logistic(mapdefs.FEIGENBAUM_A),
              classify.recurrence_check, refloops.recurrence_check,
              (LateralPoint(0.5, "left"), 10 ** 6, 1e-3), True),
             (mapdefs.tent(), induction.is_nice, refloops.is_nice,
              ((0.4, 0.6), 10 ** 8), False))
    for m, new, ref, args, answer in cases:
        evals = []
        m.eval = lambda x, f=m.eval: evals.append(x) or f(x)
        assert ref(m, *args) is answer
        del m.eval
        asked = []
        m.walk = lambda x, n, f=m.walk: asked.append(n) or f(x, n)
        assert new(m, *args) is answer
        assert max(asked) <= orbits._CHUNK, asked
        assert sum(asked) < len(evals) + orbits._CHUNK, (new, asked)


def test_walk_sites_match_per_step_loops(tmp_path, monkeypatch):
    # recurrence_check, is_nice, detect_periodic_like (with its one-sided
    # convergence test), the probes of _verify, cmd_plot and the ambient
    # ends of find_periodic_points give the value, or the error and its
    # message, of the loops they replaced: on the lateral points and
    # ambient ends of each fixture, dyadic starts that reach the cut 0.5
    # of tent and doubling on the first, a middle or the last step, and
    # drift starts that reach it around the chunk boundaries and the last
    # examined step
    specs = {"tent": mapdefs.tent_spec(), "doubling": mapdefs.doubling_spec(),
             "l4": mapdefs.logistic_spec(4.0),
             "feig": mapdefs.logistic_spec(mapdefs.FEIGENBAUM_A),
             "jump": mapdefs.jump_contraction_spec(),
             "neutral": mapdefs.neutral_spec(), "drift": _drift_spec(),
             "flip": _flip_spec(), "swap": _swap_spec(),
             "near_end": _near_end_spec()}
    # a lateral point 0.5 - k * 2^-15 of the drift map has its value at
    # 0.5 - (k - 1) * 2^-15: the orbit stops on step k - 1, around the
    # burn-in (step 1000) and chunk ends of recurrence_check too
    drift_hits = (1, 2, 3, 500, 1000, 1001, 1002, 4095, 4096, 4097, 8193,
                  10_000, 10_001)
    seen = set()

    def same(new, ref, *args):
        got = _value_or_error(new, *args)
        assert got == _value_or_error(ref, *args), (new.__name__, args)
        seen.add((new.__name__, got[1] if got[0] == "ok" else got[0]))

    for key, spec in specs.items():
        m = build_map(spec)
        lo, hi = m.ambient
        points = {lo, hi, 0.25, 0.3, 0.375, 0.5, 0.75, 0.8125}
        points |= {lp.point for lp, _ in m.lateral_values}
        if key == "drift":
            points |= {0.5 - k * 2 ** -15 for k in drift_hits}
            # 1e-4 below these the orbit climbs to the cut and stops
            points |= {0.5 - k * 2 ** -15 + 1e-4 for k in (1, 2, 3)}
        points = sorted(points)
        for p in points:
            for side, sgn in (("left", -1.0), ("right", 1.0)):
                v = LateralPoint(p, side)
                same(classify.recurrence_check, refloops.recurrence_check,
                     m, v, 10_000, 1e-3)
                for l_max in (4, 16, 64):
                    same(orbits.detect_periodic_like,
                         refloops.detect_periodic_like, m, v, l_max)
                for ell in (1, 2, 3):
                    same(orbits._one_sided_convergence,
                         refloops.one_sided_convergence, m, p, sgn, ell)
        # the ambient ends of the periodic-point search
        for period in (1, 2, 3):
            assert ([r for r in find_periodic_points(m, period)
                     if r[0] in (lo, hi)]
                    == [r for r in refloops.find_periodic_points(m, period)
                        if r[0] in (lo, hi)]), (key, period)
        for a, b in zip(points, points[1:]):
            for horizon in (0, 1, 2, 50, 10_000):
                same(induction.is_nice, refloops.is_nice, m, (a, b), horizon)

        # the probes of discovered return and entry maps, and of made-up
        # branches of times up to 60 between each pair of points
        made = [induction.InducedBranch(a, b, t, o, 0.25, 0.75)
                for a, b in zip(points, points[1:])
                for t, o in ((1, 1), (2, -1), (3, 1), (60, -1))]
        for ind in (induction.first_return(m, (0.25, 0.75), 12),
                    induction.first_entry(m, (lo, hi), (0.25, 0.5), 12)):
            for branches in (ind.branches, made):
                for kind in ("first_return", "first_entry"):
                    new, ref = [], []
                    induction._verify(m, branches, ind.base, kind, new)
                    refloops.verify(m, branches, ind.base, kind, ref)
                    assert new == ref, (key, kind)
                    seen.update(("_verify", f.split()[3]) for f in new
                                if f.startswith("probe"))

        path = tmp_path / ("%s.json" % key)
        path.write_text(json.dumps(mapspec_to_dict(spec)))
        for x0 in points:
            for n in (1, 2, 60):
                out = []
                for cmd in (cli.cmd_plot, refloops.cmd_plot):
                    d = tmp_path / ("%s-%d-%r-%d" % (key, len(out), x0, n))
                    with monkeypatch.context() as patch:
                        patch.setattr(cli, "cmd_plot", cmd)
                        code = cli.main(["plot", "--map", str(path),
                                         "--x0", repr(x0), "--n", str(n),
                                         "--out", str(d)])
                    out.append((code, sorted((f, (d / f).read_bytes())
                                             for f in os.listdir(d))))
                assert out[0] == out[1], (key, x0, n)

    # every outcome came up: both answers, a degenerate orbit, None (a
    # start outside the ambient interval among them), a periodic-like
    # point and each probe flag
    assert {("recurrence_check", "True"), ("recurrence_check", "False"),
            ("recurrence_check", "DegenerateOrbitError"),
            ("is_nice", "True"), ("is_nice", "False"),
            ("_one_sided_convergence", "True"),
            ("_one_sided_convergence", "False"),
            ("detect_periodic_like", "None"),
            ("_verify", "enters"), ("_verify", "hit"),
            ("_verify", "misses")} <= seen
    assert any(name == "detect_periodic_like" and value.startswith("Perio")
               for name, value in seen)
    assert detect_periodic_like(build_map(_near_end_spec()),
                                LateralPoint(5e-5, "left")) is None

    # the one change: an orbit that leaves the ambient interval, which only
    # a map that build_map should have rejected has, is an error now
    e = "0.001*4*(x/0.001)*(1-x/0.001)"
    path = tmp_path / "small.json"
    path.write_text(json.dumps(mapspec_to_dict(MapSpec(
        (BranchSpec((0.0, 5e-4), e), BranchSpec((5e-4, 1e-3), e)),
        (0.0, 1e-3)))))
    codes = []
    for cmd in (cli.cmd_plot, refloops.cmd_plot):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "cmd_plot", cmd)
            codes.append(cli.main(["plot", "--map", str(path), "--x0",
                                   "0.0004999999999999976", "--n", "10",
                                   "--out", str(tmp_path / "small")]))
    assert codes == [3, 0]
