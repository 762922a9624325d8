import math
import tracemalloc
from array import array

import pytest

from intervaldyn import orbits
from intervaldyn.classify import ClassifyConfig, classify_attractors, \
    critical_order
from intervaldyn.errors import (
    ConfigError,
    DegenerateOrbitError,
    ExceptionalPointError,
    OutOfRangeError,
)
from intervaldyn.mapcore import BranchSpec, LateralPoint, MapSpec, build_map
from intervaldyn.orbits import (
    BasinConfig,
    IntervalCover,
    RawPointRecord,
    basin_sample,
    cover_symdiff_length,
    cover_total_length,
    cover_union,
    detect_periodic_like,
    find_periodic_points,
    omega_cover,
    orbit,
)
from intervaldyn.rng import SplitMix64
import mapdefs


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


def test_cover_helpers():
    a = IntervalCover(0.1, [(0.0, 0.2), (0.5, 0.6)])
    b = IntervalCover(0.1, [(0.1, 0.3)])
    assert cover_total_length(a) == pytest.approx(0.3)
    u = cover_union(a, b)
    assert u.cells == [(0.0, 0.3), (0.5, 0.6)]
    assert cover_symdiff_length(a, b) == pytest.approx(0.3)
    assert cover_symdiff_length(a, a) == 0.0


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
