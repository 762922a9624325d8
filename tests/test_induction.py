import ast
import math
from fractions import Fraction

import pytest

from intervaldyn import induction
from intervaldyn.errors import (
    BranchExplosionError,
    ConfigError,
    NeutralCoreNotBracketableError,
    NotDiffeomorphicError,
    NotNiceError,
)
from intervaldyn.mapcore import BranchSpec, MapSpec, build_map
from intervaldyn.orbits import omega_cover
from intervaldyn.rng import SplitMix64
from toymodel import entry_ladder
import mapdefs
import refloops

HALF = Fraction(1, 2)


def tent_exact(x):
    return 2 * x if x < HALF else 2 - 2 * x


def doubling_exact(x):
    y = 2 * x
    return y - 1 if y >= 1 else y


# ---------------------------------------------------------------------------
# is_nice / find_nice_interval


def test_is_nice_horizon_zero(tent):
    assert induction.is_nice(tent, (0.4, 0.6), 0) is True


def test_is_nice_tent_examples(tent):
    # (0.4, 0.6): the lateral values all map to 0.8, and in binary64 the
    # third iterate drifts to 0.40000000000000036, just inside the open
    # interval.  Confirm with an independent inline float orbit.
    x = 2 - 2 * 0.6
    entered = False
    for _ in range(100):
        if 0.4 < x < 0.6:
            entered = True
            break
        x = tent_exact_float(x)
    assert entered
    assert induction.is_nice(tent, (0.4, 0.6), 100) is False

    # Markov-aligned interval: lateral values 1.0 and 0.0 stay on the fixed
    # lattice {0, 0.5, 1} forever (exact in binary64).
    assert induction.is_nice(tent, (0.5, 1.0), 200) is True

    # dyadic endpoints around 2/3: both endpoint orbits reach 0.5 exactly
    # and truncate; verify with exact rational arithmetic.
    jlo, jhi = Fraction(19, 32), Fraction(23, 32)
    for start in (jlo, jhi):
        y = tent_exact(start)
        for _ in range(60):
            assert not (jlo < y < jhi)
            if y == HALF:
                break
            y = tent_exact(y)
        else:
            pytest.fail("endpoint orbit did not truncate")
    assert induction.is_nice(tent, (19 / 32, 23 / 32), 200) is True


def tent_exact_float(x):
    return 2 * x if x < 0.5 else 2 - 2 * x


def test_is_nice_doubling_third_window(doubling):
    lo, hi = 1 / 3 - 1e-3, 1 / 3 + 1e-3
    # independent inline orbit of both lateral values
    for endpoint in (lo, hi):
        x = doubling_exact_float(endpoint)
        for _ in range(100):
            assert not (lo < x < hi)
            if x == 0.5:
                break
            x = doubling_exact_float(x)
    assert induction.is_nice(doubling, (lo, hi), 100) is True


def doubling_exact_float(x):
    y = 2 * x
    return y - 1 if y >= 1 else y


def test_find_nice_interval_tent(tent):
    found = induction.find_nice_interval(tent, 2 / 3, 0.1, 200)
    assert found is not None
    lo, hi = found
    assert lo < 2 / 3 < hi
    # widest candidate wins: the full-delta symmetric interval passes
    assert hi - lo == pytest.approx(0.2, abs=1e-12)
    assert induction.is_nice(tent, found, 200) is True


def test_find_nice_interval_logistic(logistic4):
    found = induction.find_nice_interval(logistic4, 0.3, 0.05, 500)
    assert found is not None
    lo, hi = found
    assert lo < 0.3 < hi
    assert induction.is_nice(logistic4, found, 500) is True


def test_find_nice_interval_preconditions(tent):
    with pytest.raises(ConfigError):
        induction.find_nice_interval(tent, 2 / 3, 0.0, 100)
    with pytest.raises(ConfigError):
        induction.find_nice_interval(tent, 0.5 + 1e-4, 0.1, 100)


# ---------------------------------------------------------------------------
# first_return


def test_first_return_doubling_exact(doubling):
    ret = induction.first_return(doubling, (0.0, 0.5), 20)
    assert ret.kind == "first_return"
    assert len(ret.branches) == 20
    assert not ret.flags
    # exact dyadic ladder: branch t = (r_{t-1}, r_t), r_t = (r_{t-1}+1/2)/2
    r_prev = Fraction(0)
    for t, br in enumerate(ret.branches, start=1):
        r_next = (r_prev + HALF) / 2
        assert br.time == t
        assert br.orientation == 1
        assert br.lo == float(r_prev)
        assert br.hi == float(r_next)
        assert br.img_lo == 0.0 and br.img_hi == 0.5
        r_prev = r_next
    assert ret.coverage == pytest.approx(1 - 2 ** -20, abs=1e-15)


def test_first_return_doubling_fraction_midpoints(doubling):
    # dual route: every branch midpoint, iterated in exact rational
    # arithmetic, first returns to (0, 1/2) at exactly the branch time
    ret = induction.first_return(doubling, (0.0, 0.5), 20)
    for br in ret.branches:
        x = Fraction(br.lo) + (Fraction(br.hi) - Fraction(br.lo)) / 2
        y = x
        hit = None
        for j in range(1, 25):
            y = doubling_exact(y)
            if Fraction(0) < y < HALF:
                hit = j
                break
        assert hit == br.time


def test_first_return_tent_markov_aligned(tent):
    ret = induction.first_return(tent, (0.5, 1.0), 20)
    assert len(ret.branches) == 20
    assert not ret.flags
    for t, br in enumerate(ret.branches, start=1):
        assert br.time == t
        assert br.orientation == -1
        assert br.lo == float(1 - Fraction(1, 2 ** t))
        assert br.hi == float(1 - Fraction(1, 2 ** (t + 1)))
        assert br.img_lo == 0.5 and br.img_hi == 1.0
    assert ret.coverage == pytest.approx(1 - 2 ** -20, abs=1e-15)


def test_first_return_tent_around_two_thirds(tent):
    ret = induction.first_return(tent, (19 / 32, 23 / 32), 10)
    assert not ret.flags          # nice J: full Markov and clean probes
    assert len(ret.branches) == 53
    assert ret.coverage == pytest.approx(0.7324, abs=0.01)
    jlo, jhi = Fraction(19, 32), Fraction(23, 32)
    for br in ret.branches:
        assert br.time >= 1
        x = Fraction(br.lo) + (Fraction(br.hi) - Fraction(br.lo)) / 2
        y = x
        hit = None
        for j in range(1, 14):
            y = tent_exact(y)
            if jlo < y < jhi:
                hit = j
                break
        assert hit == br.time


def test_first_return_coverage_grows_with_horizon(tent):
    c10 = induction.first_return(tent, (19 / 32, 23 / 32), 10).coverage
    c14 = induction.first_return(tent, (19 / 32, 23 / 32), 14).coverage
    assert c14 > c10


def test_first_return_non_markov_flags(doubling):
    # 0.5 is interior to J and the endpoint orbits re-enter: branches are
    # genuinely partial, and the checker must say so while still returning
    # the map
    ret = induction.first_return(doubling, (0.3, 0.8), 6)
    assert ret.branches
    assert any(f.startswith("markov:") for f in ret.flags)
    assert all(b.img_hi - b.img_lo <= 0.5 + 1e-12 for b in ret.branches)


def test_first_return_explosion_cap(tent, monkeypatch):
    monkeypatch.setattr(induction, "MAX_CYLINDERS", 50)
    with pytest.raises(BranchExplosionError):
        induction.first_return(tent, (19 / 32, 23 / 32), 30)


def test_first_return_bad_args(doubling):
    with pytest.raises(ConfigError):
        induction.first_return(doubling, (0.5, 0.5), 10)
    with pytest.raises(ConfigError):
        induction.first_return(doubling, (0.0, 0.5), 0)
    with pytest.raises(ConfigError):
        induction.first_return(doubling, (0.0, 0.5), 200_000)


def test_induced_map_eval_and_deriv(doubling):
    ret = induction.first_return(doubling, (0.0, 0.5), 20)
    assert ret.eval(0.1) == 0.2                 # time-1 branch
    assert ret.deriv_abs(0.3) == pytest.approx(4.0, rel=1e-12)  # time 2
    assert ret.branch_at(0.6) is None
    with pytest.raises(ConfigError):
        ret.eval(0.6)


# ---------------------------------------------------------------------------
# first_entry


def test_first_entry_doubling(doubling):
    ent = induction.first_entry(doubling, (0.0, 1.0), (0.25, 0.5), 10)
    assert not ent.flags
    hist = {}
    for br in ent.branches:
        hist[br.time] = hist.get(br.time, 0) + 1
    assert hist == {t: t + 1 for t in range(11)}
    assert ent.coverage >= 1 - 4 * 2 ** -10
    t0 = [b for b in ent.branches if b.time == 0]
    assert len(t0) == 1 and t0[0].lo == 0.25 and t0[0].hi == 0.5
    # exact rational first-entry times at branch midpoints
    qlo, qhi = Fraction(1, 4), HALF
    for br in ent.branches:
        x = Fraction(br.lo) + (Fraction(br.hi) - Fraction(br.lo)) / 2
        hit = None
        y = x
        for j in range(0, 14):
            if qlo < y < qhi:
                hit = j
                break
            y = doubling_exact(y)
        assert hit == br.time


def test_first_entry_trivial_when_T_equals_J(doubling):
    ent = induction.first_entry(doubling, (0.25, 0.5), (0.25, 0.5), 5)
    assert len(ent.branches) == 1
    br = ent.branches[0]
    assert br.time == 0 and br.lo == 0.25 and br.hi == 0.5
    assert ent.coverage == pytest.approx(1.0, abs=1e-12)


def test_first_entry_requires_containment(doubling):
    with pytest.raises(ConfigError):
        induction.first_entry(doubling, (0.3, 0.6), (0.25, 0.5), 5)


# ---------------------------------------------------------------------------
# distortion


def test_distortion_bound_tent_exact(tent):
    # images stay one branch away from the break: delta = 0.1/0.6 exactly,
    # and the nonlinearity term is 0, so the bound is (7)^2 / 6^2 * 36 = 49
    bound = induction.distortion_bound(tent, (0.05, 0.45), (0.1, 0.4), 1)
    assert bound == pytest.approx(49.0, rel=1e-12)
    # measured distortion of a linear branch is exactly 1
    la, _ = tent.deriv_product(0.2, 1)
    lb, _ = tent.deriv_product(0.3, 1)
    assert math.exp(abs(la - lb)) == 1.0 <= bound


def test_distortion_bound_soundness_logistic(logistic4):
    bound = induction.distortion_bound(logistic4, (0.05, 0.1), (0.06, 0.09), 2)
    logs = []
    for k in range(100):
        x = 0.06 + 0.03 * (k + 0.5) / 100
        la, _ = logistic4.deriv_product(x, 2)
        logs.append(la)
    measured = math.exp(max(logs) - min(logs))
    assert measured <= bound
    assert measured > 1.5       # the pair really is distorted


def test_distortion_bound_not_diffeomorphic(logistic4):
    with pytest.raises(NotDiffeomorphicError):
        induction.distortion_bound(logistic4, (0.1, 0.2), (0.12, 0.18), 2)


def test_distortion_bound_huge_collar_limit(logistic4):
    # with a huge collar the prefactor tends to 1 and the bound approaches
    # exp(Ohat * sum |f^i(J0)|)
    bound = induction.distortion_bound(logistic4, (0.01, 0.49),
                                       (0.2499, 0.2501), 1)
    eps_max = max(0.48, abs(logistic4.eval(0.49) - logistic4.eval(0.01)))
    pure_exp = math.exp(eps_max * logistic4.nonlinearity() * 0.0002)
    assert bound == pytest.approx(pure_exp, rel=0.01)


def test_distortion_bound_finite_up_to_the_float_range(tent, monkeypatch):
    # the case above with a nonlinearity that makes the exponent
    # 0.8 * 0.3 * nonlinearity past 700: exp is finite up to 709.78, and
    # only an exponent beyond that gives inf
    for expo, finite in ((701.0, True), (705.0, True), (710.0, False)):
        monkeypatch.setattr(tent, "nonlinearity", lambda: expo / 0.24)
        bound = induction.distortion_bound(tent, (0.05, 0.45), (0.1, 0.4), 1)
        assert math.isfinite(bound) == finite
        if finite:
            assert bound == pytest.approx(49.0 * math.exp(expo), rel=1e-12)


def test_distortion_bound_bad_args(tent):
    with pytest.raises(ConfigError):
        induction.distortion_bound(tent, (0.1, 0.2), (0.05, 0.15), 1)
    with pytest.raises(ConfigError):
        induction.distortion_bound(tent, (0.1, 0.2), (0.12, 0.18), 0)


def test_measure_distortion_doubling_exactly_one(doubling):
    ret = induction.first_return(doubling, (0.0, 0.5), 20)
    assert induction.measure_distortion(ret, 16) == 1.0
    with pytest.raises(ConfigError):
        induction.measure_distortion(ret, 1)


def test_measure_distortion_tent_nested_ones(tent):
    vals = []
    for w in (0.1, 0.05, 0.025):
        ret = induction.first_return(tent, (2 / 3 - w / 2, 2 / 3 + w / 2), 10)
        vals.append(induction.measure_distortion(ret, 16))
    assert vals[0] >= vals[1] >= vals[2]
    assert vals == [1.0, 1.0, 1.0]      # piecewise-linear: no distortion


def test_measure_distortion_logistic_trend(logistic4):
    vals = []
    for w in (0.1, 0.05, 0.025):
        ret = induction.first_return(logistic4,
                                     (0.3 - w / 2, 0.3 + w / 2), 10)
        vals.append(induction.measure_distortion(ret, 16))
    assert vals[0] > vals[1] > vals[2] >= 1.0


# ---------------------------------------------------------------------------
# expansion analysis


def test_expansion_doubling_uniform(doubling):
    ret = induction.first_return(doubling, (0.0, 0.5), 20)
    rep = induction.expansion_analysis(ret, doubling)
    assert rep.mode == "uniformly_expanding"
    assert rep.min_expansion == pytest.approx(2.0, rel=1e-12)
    assert rep.epsilon == 0.0
    assert rep.K == pytest.approx(5.0, rel=1e-12)   # exp(0) nonlinearity
    assert rep.distortion_Gamma == 1.0              # zero-distortion case
    assert rep.applicable and rep.valid


def test_expansion_tent_uniform(tent):
    ret = induction.first_return(tent, (0.5, 1.0), 20)
    rep = induction.expansion_analysis(ret, tent)
    assert rep.mode == "uniformly_expanding"
    assert rep.min_expansion == pytest.approx(2.0, rel=1e-12)
    assert rep.valid


def test_expansion_requires_return_map(doubling):
    ent = induction.first_entry(doubling, (0.0, 1.0), (0.25, 0.5), 5)
    with pytest.raises(NotNiceError):
        induction.expansion_analysis(ent, doubling)


def test_expansion_neutral_core(neutral_expansion):
    m, ret, rep = neutral_expansion
    q = 2.0 ** -12
    assert ret.coverage == pytest.approx(1.0, abs=1e-12)
    assert len(ret.branches) == 3
    assert rep.mode == "neutral_core"
    assert rep.applicable is True
    assert rep.valid is True
    assert 0.02 < rep.epsilon < 0.033     # measured cubic-branch distortion
    d = rep.details
    assert d["ip0"] == (pytest.approx(q, rel=1e-12),
                        pytest.approx(1 - q, rel=1e-12))
    a, b = d["core"]
    assert abs(a - 0.5) < 1e-8 and abs(b - 0.5) < 1e-8
    ip_lo, ip_hi = d["ip"]
    assert q < ip_lo < 3 * q
    assert 1 - 3 * q < ip_hi < 1 - q
    for stats in d["flank_stats"]:
        assert stats["returned"] == 48
        assert stats["unreturned"] == 0
        assert stats["min_deriv"] > 1000.0    # outer branch slope dominates
    # J is the whole ambient interval: no collar, so the Gamma route is
    # honestly infinite with delta' recorded as 0
    assert d["delta_prime"] == 0.0
    assert rep.distortion_Gamma == math.inf


def test_neutral_core_memory_is_bounded(neutral_expansion, traced_peak):
    # the 2^14-point F^2 grid streams through the grid step, so the scan
    # holds no list of grid points
    m, ret, rep = neutral_expansion
    got = []
    peak = traced_peak(lambda: got.append(induction.expansion_analysis(ret,
                                                                       m)))
    assert got[0].details["core"] == rep.details["core"]
    assert peak < 64 * 1024, peak


def test_neutral_core_of_an_identity_branch_spans_the_grid(monkeypatch):
    # F^2(x) - x is exactly 0 at every grid point of an identity branch:
    # the grid step takes all but the last point, and the neutral core
    # takes the last one too; flank probes that land on the branch never
    # return, so they are cut at 2,000 f-steps
    monkeypatch.setattr(induction, "_FLANK_CAP", 2000)
    m = build_map(MapSpec((BranchSpec((0.0, 0.25), "4*x"),
                           BranchSpec((0.25, 0.75), "x"),
                           BranchSpec((0.75, 1.0), "4*x - 3"))))
    ret = induction.first_return(m, (0.0, 1.0), 3)
    d = induction.expansion_analysis(ret, m).details
    lo, hi = d["ip"]
    grid = induction._FIX_GRID
    assert d["ip"] == (0.25, 0.75)
    assert d["core"] == (lo + (hi - lo) * 0.5 / grid,
                         lo + (hi - lo) * (grid - 0.5) / grid)


# the middle branch's linear slope of the cubic neutral maps; their flank
# probes run to _FLANK_CAP, so the tests below cut it to 2,000 f-steps
CUBIC_SLOPES = (0.9, 0.99, 0.999, 1.01)


def _cubic_return_map(s):
    m = build_map(mapdefs.cubic_neutral_spec(s))
    return m, induction.first_return(m, (0.0, 1.0), 3)


def test_neutral_core_matches_bisection_reference(neutral_expansion):
    # the fixed points of F^2 come from `solve`; on the neutral fixture the
    # bisection to _FIX_TOL found the same core (0.5, 0.5), so whole
    # reports agree
    m, ret, rep = neutral_expansion
    assert rep.details["core"] == (0.5, 0.5)
    assert repr(rep) == repr(refloops.expansion_analysis(ret, m))


@pytest.mark.parametrize("s", CUBIC_SLOPES)
def test_cubic_neutral_core_moves_within_bisection_tolerance(s, monkeypatch):
    monkeypatch.setattr(induction, "_FLANK_CAP", 2000)
    m, ret = _cubic_return_map(s)
    got = induction.expansion_analysis(ret, m)
    want = refloops.expansion_analysis(ret, m)
    assert got.mode == "neutral_core"
    # `solve` ends within 1 ulp of a sign change; the reference returned
    # the midpoint of a bracket of 1e-10
    (a, b), (a_ref, b_ref) = got.details.pop("core"), want.details.pop("core")
    assert abs(a - a_ref) <= 1e-10 and abs(b - b_ref) <= 1e-10
    ip = got.details["ip"]
    assert got.details.pop("connectors") == ((ip[0], a), (b, ip[1]))
    del want.details["connectors"]
    assert repr(got) == repr(want)


def test_unreturned_flank_has_no_min_deriv(monkeypatch):
    # at this cap no flank probe of s = 0.9 returns: min_deriv is None,
    # not an infinite expansion, and the report is not valid
    monkeypatch.setattr(induction, "_FLANK_CAP", 2000)
    m, ret = _cubic_return_map(0.9)
    rep = induction.expansion_analysis(ret, m)
    stats = rep.details["flank_stats"]
    assert [s["returned"] for s in stats] == [0, 0]
    assert [s["min_deriv"] for s in stats] == [None, None]
    assert rep.valid is False


def test_plateau_neutral_core_not_bracketable():
    # F^2 - x keeps one sign on the grid of the plateau's contracting branch
    m = mapdefs.plateau()
    ret = induction.first_return(m, (0.0, 1.0), 3)
    for search in (induction.expansion_analysis, refloops.expansion_analysis):
        with pytest.raises(NeutralCoreNotBracketableError):
            search(ret, m)


@pytest.mark.parametrize("s", (None,) + CUBIC_SLOPES)
def test_second_iterate_is_a_power_of_f_on_ip(s, monkeypatch):
    # both induced steps from ip take the branch p, so F^2 = f^(2 time)
    # there, to the last bit, at every point of the grid
    monkeypatch.setattr(induction, "_FLANK_CAP", 2000)
    if s is None:
        m = mapdefs.neutral()
        ret = induction.first_return(m, (0.0, 1.0), 3)
    else:
        m, ret = _cubic_return_map(s)
    d = induction.expansion_analysis(ret, m).details
    ip_lo, ip_hi = d["ip"]
    (p,) = [b for b in ret.branches if (b.lo, b.hi) == d["ip0"]]
    w = ip_hi - ip_lo
    for k in range(induction._FIX_GRID):
        x = ip_lo + w * (k + 0.5) / induction._FIX_GRID
        y = m.compose(x, 2 * p.time)
        assert (repr(None if y is None else y - x)
                == repr(refloops.f2_gap(ret, x))), x


INDUCE_RETURN_MAPS = {
    # every branch of time 1; the flanks of the neutral core
    "neutral": (mapdefs.neutral, (0.0, 1.0), 3),
    # branch times up to 12
    "logistic4": (lambda: mapdefs.logistic(4.0), (0.25, 0.75), 12),
    # gaps between the branches, so walks leave them
    "logistic4_gaps": (lambda: mapdefs.logistic(4.0), (0.3, 0.45), 12),
    # dyadic starts hit the break 0.5 within a branch's time
    "doubling": (mapdefs.doubling, (0.0, 0.5), 50),
}


@pytest.mark.parametrize("name", sorted(INDUCE_RETURN_MAPS))
def test_induce_matches_reference_loops(name):
    make, J, t_max = INDUCE_RETURN_MAPS[name]
    m = make()
    ret = induction.first_return(m, J, t_max)
    lo, hi = m.ambient
    j_lo, j_hi = J
    rng = SplitMix64(len(name))
    starts = [rng.uniform(j_lo, j_hi) for _ in range(40)]
    for b in ret.branches:
        starts += [b.lo, b.hi, 0.5 * (b.lo + b.hi),
                   math.nextafter(b.lo, b.hi), math.nextafter(b.hi, b.lo)]
    starts += m.exceptional + [lo, hi, lo - 0.5, hi + 0.5,
                               math.nextafter(hi, math.inf), float("nan")]
    stops = ((0.0, 0.0), J, (j_lo, j_lo + (j_hi - j_lo) / 8))
    states = set()
    for x in starts:
        for k in (0, 1, 2, 5):
            for cap in (1, 7, induction._FLANK_CAP):
                for stop in stops:
                    args = (x, k) + stop + (cap,)
                    got = ret.induce(*args)
                    want = refloops.induced_walk(ret, *args)
                    assert (got[0], repr(got[1]), repr(got[2]), got[3]) \
                        == (want[0], repr(want[1]), repr(want[2]),
                            want[3]), args
                    states.add(got[0])
        got = ret.induce(x, 2, 0.0, 0.0)
        got = got[1] - x if got[0] == "done" else None
        assert repr(got) == repr(refloops.f2_gap(ret, x))
    assert states == {"aborted", "unreturned", "returned", "done"}
    # whole flank probes, from the first random starts to J's ends (no
    # return derivative here leaves the float range; see the next test)
    for x in starts[:4]:
        for flank in ((j_lo, x), (x, j_hi)):
            assert (repr(induction._flank_stats(ret, flank))
                    == repr(refloops.flank_stats(ret, flank)))
    if name == "logistic4":
        assert max(b.time for b in ret.branches) == 12


def test_flank_return_derivative_beyond_float_range(logistic4):
    # a probe of this flank returns with log|DF| above log(max float): its
    # derivative counts as inf, where math.exp raised OverflowError
    ret = induction.first_return(logistic4, (0.25, 0.75), 12)
    flank = (0.25, 0.25046019067580827)
    with pytest.raises(OverflowError):
        refloops.flank_stats(ret, flank)
    stats = induction._flank_stats(ret, flank)
    assert stats["returned"] == 32
    assert stats["min_deriv"] == 274907526474.11914
    # exp itself up to log(max float) = 709.78..., with no cut-off below
    for x in (0.0, -1.5, 700.0, 709.78, -math.inf, math.inf):
        assert induction._exp(x) == math.exp(x)
    for x in (709.79, 1e308):
        assert induction._exp(x) == math.inf
    assert math.isnan(induction._exp(math.nan))


def test_expansion_iterated_soundness(doubling):
    # uniformly_expanding certificate: |DF^k(x)| >= (1+eps^2)^k for random
    # starts and k <= 10
    ret = induction.first_return(doubling, (0.0, 0.5), 20)
    rep = induction.expansion_analysis(ret, doubling)
    floor = 1.0 + rep.epsilon ** 2
    rng = SplitMix64(31)
    checked = 0
    while checked < 25:
        x = rng.uniform(0.0, 0.5)
        k = 1 + rng.next_u64() % 10
        total = 0.0
        y = x
        ok = True
        for _ in range(k):
            br = ret.branch_at(y)
            if br is None:
                ok = False
                break
            la, _ = doubling.deriv_product(y, br.time)
            total += la
            y = ret.eval(y)
        if not ok:
            continue
        assert math.exp(total) >= floor ** k - 1e-9
        checked += 1


def test_entry_ladder_toy_bound():
    levels, K, bound = entry_ladder(c=0.05, n_levels=25, probes=12)
    assert K >= 1.0
    for vals in levels:
        for v in vals:
            assert v >= bound


def test_omega_density_on_full_markov_base(logistic4):
    # expanding full-Markov base with near-complete coverage: long orbits
    # of random base points should be eps-dense in J (eps = 10*resolution)
    ret = induction.first_return(logistic4, (0.5, 1.0), 25)
    assert not ret.flags
    assert ret.coverage >= 1 - 1e-3
    rng = SplitMix64(7)
    eps = 10 * 1e-3
    for _ in range(3):
        x = rng.uniform(0.5, 1.0)
        cov = omega_cover(logistic4, x, 1000, 100_000, 1e-3)
        for k in range(201):
            p = 0.5 + 0.5 * k / 200
            assert any(c[0] - eps <= p <= c[1] + eps for c in cov.cells), \
                "gap around %r" % p


# ---------------------------------------------------------------------------
# refine_partition


def test_refine_partition_doubling_dyadic(doubling):
    ret = induction.first_return(doubling, (0.0, 0.5), 4)
    cells0 = induction.refine_partition(ret, 0)
    assert [(c.lo, c.hi) for c in cells0] == \
        [(b.lo, b.hi) for b in ret.branches]
    diams = []
    for n in range(6):
        cells = induction.refine_partition(ret, n)
        assert len(cells) == 4 ** (n + 1)
        assert all(len(c.itinerary) == n + 1 for c in cells)
        assert all(abs(c.distortion - 1.0) < 1e-9 for c in cells)
        diams.append(max(c.hi - c.lo for c in cells))
    for i in range(5):
        assert diams[i + 1] / diams[i] == pytest.approx(0.5, abs=1e-6)


def test_refine_partition_nesting(doubling):
    ret = induction.first_return(doubling, (0.0, 0.5), 4)
    c1 = induction.refine_partition(ret, 1)
    c2 = induction.refine_partition(ret, 2)
    for cell in c2:
        parents = [p for p in c1 if p.itinerary == cell.itinerary[:2]]
        assert len(parents) == 1
        p = parents[0]
        assert p.lo - 1e-12 <= cell.lo and cell.hi <= p.hi + 1e-12


def test_refine_partition_gamma_bound(logistic4):
    ret = induction.first_return(logistic4, (0.2875, 0.3125), 10)
    rep = induction.expansion_analysis(ret, logistic4)
    # the global nonlinearity of the quadratic map blows up at the critical
    # point, so the certificate honestly reports inapplicability and an
    # infinite Gamma; the per-cell distortion still sits below it
    assert rep.applicable is False
    assert rep.distortion_Gamma == math.inf
    cells = induction.refine_partition(ret, 1)
    assert cells
    for c in cells:
        assert 1.0 <= c.distortion <= rep.distortion_Gamma


def test_refine_partition_pulls_each_branch_value_once(logistic4,
                                                      monkeypatch):
    # the nice return map of logistic a=4: 50 branches, 1952 depth-1 cells
    ret = induction.first_return(logistic4, (0.25, 0.75), 40)
    pulls, bisections = [], []
    dom_point, pull = induction._dom_point, induction._pull

    def counting(m, br, target):
        pulls.append((br, target))
        return dom_point(m, br, target)

    def bisecting(*args):
        bisections.append(args)
        return pull(*args)
    monkeypatch.setattr(induction, "_dom_point", counting)
    monkeypatch.setattr(induction, "_pull", bisecting)
    cells = induction.refine_partition(ret, 1)
    assert len(pulls) == len(set(pulls)) == 2600
    # 74 of the values are exact image ends, which need no bisection
    assert len(bisections) == 2526
    pulls.clear()
    want = refloops.refine_partition(ret, 1)
    assert len(pulls) == 5000 and len(set(pulls)) == 2600
    assert len(cells) == 1952
    assert [repr(c) for c in cells] == [repr(c) for c in want]
    # the cells span the base exactly, from its own ends
    assert (cells[0].lo, cells[-1].hi) == (0.25, 0.75)
    assert max(c.distortion for c in cells) == 1.2244170956160025


def test_refine_partition_doubling_starts_at_exact_end(doubling):
    # an exact image end pulls back to the branch's own end, not to a
    # bisection point next to it
    ret = induction.first_return(doubling, (0.0, 0.5), 6)
    cells = induction.refine_partition(ret, 1)
    assert len(cells) == 36
    assert cells[0].lo == 0.0


def test_one_pull_back():
    # `_dom_point` is the one pull-back: no other function calls `_pull`
    with open(induction.__file__) as fh:
        tree = ast.parse(fh.read())
    callers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "_pull"):
                    callers.add(fn.name)
    assert callers == {"_dom_point"}


def test_refine_partition_limits(doubling):
    ret = induction.first_return(doubling, (0.0, 0.5), 20)
    with pytest.raises(ConfigError):
        induction.refine_partition(ret, 9)
    with pytest.raises(BranchExplosionError):
        induction.refine_partition(ret, 5)      # 20^5 > 1e6
