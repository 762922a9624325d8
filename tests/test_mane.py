"""Expansion-certificate and derivative-growth tests.

Certificate fixtures are deterministic (seeded harvests), so fitted
values are frozen exactly; the a=3.2 two-cycle violation is additionally
checked against its closed form.
"""

import inspect
import math

import pytest

import mapdefs
import refloops
from intervaldyn import mapcore
from intervaldyn.errors import ConfigError, UNotCoveringError
from intervaldyn.mapcore import BranchSpec, MapSpec, build_map
from intervaldyn.mane import (
    ManeConfig,
    growth_test,
    harvest_segments,
    mane_certificate,
    replay_fraction,
)
from intervaldyn.rng import SplitMix64

TINY_BALL = [(0.5 - 1e-6, 0.5 + 1e-6)]


def test_doubling_certificate(doubling):
    # |Df| = 2 everywhere, so the fit must recover lambda = 2, C = 1 up to
    # float-sum noise; n_max = 40 because binary64 orbits reach the break
    # point exactly after ~52 doublings
    cert = mane_certificate(doubling, TINY_BALL, ManeConfig(n_max=40))
    assert cert.valid
    assert cert.periodic_violations == []
    assert abs(cert.lam - 2.0) <= 1e-9
    assert abs(cert.C - 1.0) <= 1e-9
    assert cert.period_checked == 8
    assert cert.details["segments"] == 200
    assert cert.details["long_segments"] == 100
    assert cert.U == TINY_BALL


def test_logistic4_certificate(logistic4):
    cert = mane_certificate(logistic4, [(0.4, 0.6)], ManeConfig(n_max=30))
    assert cert.valid
    assert cert.periodic_violations == []
    # frozen regression value for the fitted rate (seed 0, 100 samples)
    assert abs(cert.lam - 2.002584475272617) < 1e-12
    assert abs(cert.C - 1.0) <= 1e-9
    assert cert.details["segments"] == 1619
    assert cert.details["long_segments"] == 99


def test_certificate_inequality_on_harvest(logistic4):
    cfg = ManeConfig(n_max=30)
    cert = mane_certificate(logistic4, [(0.4, 0.6)], cfg)
    segs = harvest_segments(logistic4, cert.U, cfg.samples, cfg.n_max,
                            cfg.seed)
    log_c = math.log(cert.C)
    log_lam = math.log(cert.lam)
    assert segs
    for _x0, n, lg in segs:
        assert lg > log_c + n * log_lam


def test_replay_with_fresh_seed(logistic4):
    cert = mane_certificate(logistic4, [(0.4, 0.6)], ManeConfig(n_max=30))
    assert replay_fraction(logistic4, cert, 100, seed=1) >= 0.99


def test_enlarging_u_keeps_validity(logistic4):
    cfg = ManeConfig(n_max=20)
    small = mane_certificate(logistic4, [(0.4, 0.6)], cfg)
    large = mane_certificate(logistic4, [(0.35, 0.65)], cfg)
    assert small.valid
    assert large.valid


def test_logistic32_invalid_two_cycle(logistic32):
    cert = mane_certificate(logistic32, [(0.4, 0.6)], ManeConfig(n_max=30))
    assert not cert.valid
    assert len(cert.periodic_violations) == 1
    v = cert.periodic_violations[0]
    assert v["period"] == 2
    a = 3.2
    outer = ((a + 1.0) + math.sqrt((a - 3.0) * (a + 1.0))) / (2 * a)
    assert abs(v["point"] - outer) < 1e-6
    assert abs(v["multiplier"] - 0.16) < 1e-6
    # the other cycle point 0.513 lies inside U and must not be listed
    assert all(abs(w["point"] - 0.513) > 0.05
               for w in cert.periodic_violations)


def test_u_must_cover_exceptional(logistic4, doubling):
    with pytest.raises(UNotCoveringError):
        mane_certificate(logistic4, [(0.6, 0.7)], ManeConfig())
    with pytest.raises(UNotCoveringError):
        mane_certificate(doubling, [(0.1, 0.2)], ManeConfig())


def test_u_and_cfg_validation(logistic4):
    with pytest.raises(ConfigError):
        mane_certificate(logistic4, [(0.6, 0.4)], ManeConfig())
    with pytest.raises(ConfigError):
        mane_certificate(logistic4, [(0.3, 0.6), (0.5, 0.7)], ManeConfig())
    with pytest.raises(ConfigError):
        mane_certificate(logistic4, [(0.4, 0.6)], ManeConfig(n_max=1))


def test_growth_constant_slope(tent):
    # |Df^n| = 2^n away from the break: the 1e6 bar falls at n = 20
    g = growth_test(tent, 0.3141, [(0.499, 0.501)], 200)
    assert g.status == "GROWTH"
    assert g.steps == 20
    assert g.max_deriv == 2.0 ** 20
    # repelling fixed point 2/3: same bar even with a shrunken ball
    g = growth_test(tent, 2.0 / 3.0, [(0.4999, 0.5001)], 200)
    assert g.status == "GROWTH"
    assert g.steps == 20
    assert g.max_deriv == 2.0 ** 20


def test_growth_bounded_on_contracting_orbit(logistic32):
    # orbit falls into the attracting 2-cycle: derivative products decay
    g = growth_test(logistic32, 0.2, [], 200)
    assert g.status == "BOUNDED"
    assert g.steps == 200
    assert g.max_deriv < 1e6
    assert abs(g.max_deriv - 1.92) < 1e-12   # frozen running max


def test_growth_captured(doubling, tent):
    g = growth_test(doubling, 0.3, [(0.5, 0.7)], 100)
    assert g.status == "CAPTURED"
    assert g.captured_at == 1
    assert g.max_deriv == 2.0
    # exact break-point hit counts as capture even far from `avoid`
    g = growth_test(tent, 0.75, [(0.1, 0.2)], 100)
    assert g.status == "CAPTURED"
    assert g.captured_at == 1
    assert g.max_deriv == 2.0


def test_growth_preconditions(tent):
    with pytest.raises(ConfigError):
        growth_test(tent, 0.5, [(0.499, 0.501)], 100)
    with pytest.raises(ConfigError):
        growth_test(tent, 0.3, [(0.1, 0.2)], 0)


def test_growth_never_bounded_off_periodic_basins(tent, logistic4):
    # reduced form of the consistency property: sampled starts on maps
    # with no periodic-like attractor always grow or get captured
    ball = [(0.499, 0.501)]
    rng = SplitMix64(405)
    for _ in range(40):
        x = rng.uniform(0.0, 1.0)
        assert growth_test(logistic4, x, ball, 200).status != "BOUNDED"
    rng = SplitMix64(406)
    for _ in range(40):
        x = rng.uniform(0.0, 1.0)
        if 0.499 < x < 0.501:
            continue
        assert growth_test(tent, x, ball, 200).status != "BOUNDED"


HARVEST_CASES = {
    "logistic4": (lambda: mapdefs.logistic(4.0), [(0.4, 0.6)], 30),
    "logistic37": (lambda: mapdefs.logistic(3.7), [(0.4, 0.6)], 30),
    # binary64 orbits reach the cut 0.5 after about 52 doublings: inside U
    # here, outside U in the next case
    "doubling_cut_inside": (mapdefs.doubling, [(0.45, 0.55)], 30),
    "doubling_cut_outside": (mapdefs.doubling, [(0.7, 0.8)], 30),
    # the last iterates before the cut are 0.375 or 0.625, then 0.75 or
    # 0.25: the orbits land exactly on U's ends
    "doubling_dyadic_ends": (mapdefs.doubling, [(0.375, 0.625)], 30),
    "doubling_no_u": (mapdefs.doubling, [], 30),
    "doubling_three_components": (
        mapdefs.doubling, [(0.05, 0.1), (0.45, 0.55), (0.8, 0.95)], 30),
    "doubling_n_max_1": (mapdefs.doubling, [(0.45, 0.55)], 1),
}


@pytest.mark.parametrize("name", sorted(HARVEST_CASES))
def test_harvest_matches_reference_loop(name):
    # the compiled `harvest` shape gives the segments of the per-step loop
    # it replaced, bit for bit
    make, U, n_max = HARVEST_CASES[name]
    m = make()
    segs = harvest_segments(m, U, 200, n_max, 5)
    assert segs
    assert repr(segs) == repr(refloops.harvest_segments(m, U, 200, n_max, 5))


def _harvest_outcome(fn, *args):
    """The segments a harvest of one start appended, and the error it
    raised, if any."""
    segs = []
    try:
        fn(segs, *args)
    except Exception as e:
        return repr(segs), type(e).__name__, str(e)
    return repr(segs)


def _compiled(segs, m, U, x, n_max):
    m.harvest(x, 4 * n_max, n_max, U, segs.append)


def _reference(segs, m, U, x, n_max):
    refloops.harvest_from(m, U, x, n_max, segs)


def _assert_harvest_matches_reference(m, U, starts):
    for x in starts:
        for n_max in (1, 2, 5, 30):
            assert (_harvest_outcome(_compiled, m, U, x, n_max)
                    == _harvest_outcome(_reference, m, U, x, n_max)), (
                        U, x, n_max)


def test_harvest_from_hand_picked_starts():
    one = [mapdefs.tent(), mapdefs.doubling(), mapdefs.logistic(4.0),
           mapdefs.neutral(), mapdefs.jump_contraction()]
    for m in one:
        lo, hi = m.ambient
        starts = m.exceptional + [lo, hi, math.nextafter(lo, -math.inf),
                                  math.nextafter(hi, math.inf), -math.inf,
                                  math.inf, float("nan"), 0.3, 0.6875]
        for U in ([], [(0.25, 0.5)], [(0.4, 0.6), (0.6, 0.7)]):
            _assert_harvest_matches_reference(m, U, starts)
    # Df = 3 (x - 0.3)^2 vanishes at 0.3 only, off the validation grid
    cube = build_map(MapSpec((BranchSpec((0.0, 1.0), "0.5 + (x - 0.3)^3"),)))
    # f (log 0) and Df (division by 0) both fail at 0.3: formula errors
    # propagate, Df's outside U and f's inside
    both = build_map(MapSpec((BranchSpec(
        (0.0, 1.0), "0.5 + 0.25*(x - 0.3) + 1e-6*log(abs(x - 0.3))"),)))
    for m in (cube, both):
        for U in ([], [(0.25, 0.35)], [(0.6, 0.8)]):
            _assert_harvest_matches_reference(m, U, [0.3, 0.1, 0.7])
    assert _harvest_outcome(_compiled, cube, [], 0.3, 5) == "[]"
    assert _harvest_outcome(_compiled, both, [], 0.3, 5)[1:] == (
        "ZeroDivisionError", "float division by zero")
    assert _harvest_outcome(_compiled, both, [(0.25, 0.35)], 0.3, 5)[1:] == (
        "ValueError", "math domain error")
    # the doubles just below the cut 5e-4 map one ulp above the ambient
    # end 1e-3, so the next step leaves the ambient interval
    e = "0.001*4*(x/0.001)*(1-x/0.001)"
    ulp = build_map(MapSpec((BranchSpec((0.0, 5e-4), e),
                             BranchSpec((5e-4, 1e-3), e)),
                            ambient=(0.0, 1e-3)))
    x = 5e-4
    for _ in range(100):
        x = math.nextafter(x, 0.0)
        if ulp.eval(x) > 1e-3:
            break
    assert ulp.eval(x) > 1e-3
    starts = [x, math.nextafter(x, 0.0), 5e-4, 2.5e-4]
    for U in ([], [(4e-4, 4.5e-4)], [(4.9e-4, 5.1e-4)]):
        _assert_harvest_matches_reference(ulp, U, starts)
    assert _harvest_outcome(_compiled, ulp, [], x, 5) == repr(
        [(x, 1, math.log(abs(ulp.branch_at(x).df(x))))])


def test_harvest_and_induce_compile_on_first_use():
    # build_map compiles no shape; the first use of each shape compiles it
    # alone; eval, branch_at and deriv_product stay plain methods, which
    # perfbench's tracer patches on the class
    pm = mapcore.PiecewiseMap
    for name in ("eval", "branch_at", "deriv_product"):
        assert inspect.isfunction(pm.__dict__[name])
    uses = {
        "_f": lambda m: m.eval(0.3),
        "walk": lambda m: m.walk(0.3, 2),
        "compose": lambda m: m.compose(0.3, 2),
        "compose_deriv": lambda m: m.deriv_product(0.3, 2),
        "induce": lambda m: m.induce(0.3, 1, 0.0, 0.0, 5, [0.0], [1.0], [1]),
        "harvest": lambda m: harvest_segments(m, [(0.4, 0.6)], 1, 5, 0),
        "solve": lambda m: m.solve(0.6, 0.9, 0.36, -0.54, 1),
    }
    for shape, use in uses.items():
        m = mapdefs.logistic(4.0)
        assert not set(uses) & set(vars(m))
        use(m)
        assert set(uses) & set(vars(m)) == {shape}
