import math
import random
from bisect import bisect_right

import pytest

from intervaldyn.errors import (
    BranchImageError,
    ExceptionalPointError,
    OrbitHitsExceptionalError,
    OutOfRangeError,
    TilingError,
    ZeroDerivativeError,
)
from intervaldyn.mapcore import (
    BranchSpec,
    LateralPoint,
    MapSpec,
    build_map,
    mapspec_from_dict,
    validate_nonflat,
)
from intervaldyn import induction, mapcore
import mapdefs
import refloops


def lateral_dict(m):
    return {(p.point, p.side): v for p, v in m.lateral_values}


def test_build_tent(tent):
    assert tent.exceptional == [0.5]
    lv = lateral_dict(tent)
    assert lv[(0.5, "left")] == 1.0
    assert lv[(0.5, "right")] == 1.0


def test_build_doubling(doubling):
    lv = lateral_dict(doubling)
    assert lv[(0.5, "left")] == 1.0
    assert lv[(0.5, "right")] == 0.0


def test_build_logistic(logistic4):
    lv = lateral_dict(logistic4)
    assert lv[(0.5, "left")] == 1.0
    assert lv[(0.5, "right")] == 1.0


def test_tiling_errors():
    with pytest.raises(TilingError):
        build_map(MapSpec((BranchSpec((0.0, 0.4), "x"),
                           BranchSpec((0.5, 1.0), "x"))))
    with pytest.raises(TilingError):
        build_map(MapSpec((BranchSpec((0.0, 0.6), "x"),
                           BranchSpec((0.5, 1.0), "x"))))


def test_image_and_derivative_validation():
    with pytest.raises(BranchImageError) as ei:
        build_map(MapSpec((BranchSpec((0.0, 0.5), "3*x"),
                           BranchSpec((0.5, 1.0), "x"))))
    assert ei.value.witness is not None
    with pytest.raises(ZeroDerivativeError):
        # cubic inflection placed exactly on a validation grid midpoint
        build_map(MapSpec((
            BranchSpec((0.0, 1.0), "0.5 + (x - 0.501953125)^3"),)))


def test_singular_derivative_rejected():
    # the kink of abs sits on the validation grid point 128.5/256, where the
    # symbolic derivative divides by zero
    with pytest.raises(ZeroDerivativeError) as ei:
        build_map(MapSpec((
            BranchSpec((0.0, 1.0), "0.25 + 0.5*abs(x - 0.501953125)"),)))
    assert "0.501953125" in str(ei.value)


def test_singular_second_derivative_rejected():
    # Df = 0.5 + 0.15*|u|^0.5 is finite on the whole grid, but D2f divides
    # by |u|^0.5 at the grid point 128.5/256
    with pytest.raises(ZeroDerivativeError) as ei:
        build_map(MapSpec((BranchSpec(
            (0.0, 1.0), "0.25 + 0.5*x + 0.1*spow(x - 0.501953125, 1.5)"),)))
    assert "second derivative" in str(ei.value)
    assert "0.501953125" in str(ei.value)


def test_derivative_sign_change_rejected():
    # one branch through the critical point 0.5: the grid derivative 4 - 8x
    # changes sign between the grid points 127.5/256 and 128.5/256
    with pytest.raises(ZeroDerivativeError) as ei:
        build_map(MapSpec((BranchSpec((0.0, 1.0), "4*x*(1-x)"),)))
    assert "0.498046875" in str(ei.value)
    assert "0.501953125" in str(ei.value)


LADDER_MAPS = {
    "tent": mapdefs.tent,
    "doubling": mapdefs.doubling,
    "logistic4": lambda: mapdefs.logistic(4.0),
    "feigenbaum": lambda: mapdefs.logistic(mapdefs.FEIGENBAUM_A),
    "jump_contraction": mapdefs.jump_contraction,
    "plateau": mapdefs.plateau,
    "neutral": mapdefs.neutral,
}


@pytest.mark.parametrize("name", sorted(LADDER_MAPS))
def test_ladder_agrees_with_branches(name):
    m = LADDER_MAPS[name]()
    rng = random.Random(name)
    for b in m.branches:
        for _ in range(200):
            x = rng.uniform(b.lo, b.hi)
            if not b.lo < x < b.hi:
                continue
            assert repr(m.eval(x)) == repr(b.f(x))
            assert repr(m.step(x)) == repr((b.f(x), b.df(x)))
    for c in m.exceptional:
        for fn in (m.eval, m.step):
            with pytest.raises(ExceptionalPointError):
                fn(c)
    # ambient endpoints through their own branch
    lo, hi = m.ambient
    closed = [(lo, m.branches[0]), (hi, m.branches[-1])]
    for x, b in closed:
        assert repr(m.eval(x)) == repr(b.f(x))
        assert repr(m.step(x)) == repr((b.f(x), b.df(x)))
    for x in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
              -math.inf, math.inf, float("nan")):
        for fn in (m.eval, m.step, lambda x: m.walk(x, 5)):
            with pytest.raises(OutOfRangeError):
                fn(x)
    # walk is n repeated evals, bit for bit, stopping short where eval
    # would raise ExceptionalPointError
    starts = [rng.uniform(lo, hi) for _ in range(20)] + [x for x, _ in closed]
    for x in starts:
        want = _evals(m, x, 300)
        assert [repr(y) for y in m.walk(x, 300)] == [repr(y) for y in want]
        assert m.walk(x, 0) == []
    for c in m.exceptional:
        assert m.walk(c, 3) == []
    # compose, compose_deriv and the loops on them agree with the per-step
    # loops they replaced, outcome for outcome: value bits, or error type,
    # message, step index and point
    dyadic = [lo + (hi - lo) * k / 16 for k in range(17)]
    bad = [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
           -math.inf, math.inf, float("nan")]
    for x in starts + dyadic + m.exceptional + bad:
        _assert_shapes_match_reference(m, x)
    # InducedMap.eval on induced maps whose branches are the map's own, at
    # return times 0, 1 and 5
    for t in (0, 1, 5):
        ind = induction.InducedMap(
            (lo, hi), "first_return",
            [induction.InducedBranch(b.lo, b.hi, t, 1, lo, hi)
             for b in m.branches], t, 1.0, [], m, (lo, hi))
        for x in starts + dyadic + m.exceptional + bad:
            assert (_outcome(ind.eval, x)
                    == _outcome(refloops.induced_eval, ind, x))


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as e:
        return (type(e).__name__, str(e), getattr(e, "index", None),
                repr(getattr(e, "point", None)))


def _assert_shapes_match_reference(m, x):
    assert m.compose(x, 0) is x
    assert m.compose_deriv(x, 0) == (x, 0.0, 1)
    assert repr(induction._safe_eval(m, x, 0, 1e-3)) == repr(x)
    for n in (1, 2, 7, 300):
        want_y = _outcome(refloops.compose, m, x, n)
        want_d = _outcome(refloops.deriv_product, m, x, n)
        assert _outcome(m.compose, x, n) == want_y
        assert _outcome(m.deriv_product, x, n) == want_d
        want = want_d
        if want_d[0] == "ok":
            want = "ok", repr((refloops.compose(m, x, n),)
                              + refloops.deriv_product(m, x, n))
        assert _outcome(m.compose_deriv, x, n) == want
        assert (_outcome(induction._induced_step, m, x, n)
                == _outcome(refloops.induced_step, m, x, n))
        for span in (1e-3, 0.25):
            assert (_outcome(induction._safe_eval, m, x, n, span)
                    == _outcome(refloops.safe_eval, m, x, n, span))


def test_compose_shapes_at_hits_and_zero_derivative(doubling):
    # dyadic starts hit the break 0.5: compose returns None, compose_deriv
    # names the step that starts on it
    assert doubling.compose(0.375, 2) == 0.5
    assert doubling.compose(0.375, 3) is None
    assert doubling.compose(0.5, 1) is None
    with pytest.raises(OrbitHitsExceptionalError) as ei:
        doubling.compose_deriv(0.375, 5)
    assert (ei.value.index, ei.value.point) == (2, 0.5)
    with pytest.raises(OrbitHitsExceptionalError) as ei:
        doubling.compose_deriv(0.5, 1)
    assert (ei.value.index, ei.value.point) == (0, 0.5)
    assert doubling.compose_deriv(0.375, 2) == (0.5, 2 * math.log(2.0), 1)
    # Df = 3 (x - 0.3)^2 vanishes off the validation grid, at 0.3 only
    cube = build_map(MapSpec((BranchSpec((0.0, 1.0), "0.5 + (x - 0.3)^3"),)))
    with pytest.raises(ZeroDerivativeError):
        cube.compose_deriv(0.3, 1)
    assert cube.compose(0.3, 1) == 0.5
    # where both formulas fail (f: log 0, Df: division by 0), the
    # derivative shapes raise Df's error and compose raises f's
    both = build_map(MapSpec((BranchSpec(
        (0.0, 1.0), "0.5 + 0.25*(x - 0.3) + 1e-6*log(abs(x - 0.3))"),)))
    with pytest.raises(ZeroDivisionError):
        both.compose_deriv(0.3, 1)
    with pytest.raises(ValueError):
        both.compose(0.3, 1)
    for m in (cube, both):
        for x in (0.3, 0.1, 0.7):
            _assert_shapes_match_reference(m, x)


def _evals(m, x, n):
    out = []
    for _ in range(n):
        try:
            x = m.eval(x)
        except ExceptionalPointError:
            break
        out.append(x)
    return out


def test_walk_stops_at_exceptional_point(doubling):
    # dyadic starts reach the break 0.5 exactly and stop there
    assert doubling.walk(0.375, 10) == [0.75, 0.5]
    assert doubling.walk(0.375, 2) == [0.75, 0.5]
    assert doubling.walk(0.375, 1) == [0.75]
    ys = doubling.walk(0.1, 200)
    assert 0 < len(ys) < 200 and ys[-1] == 0.5
    assert ys == _evals(doubling, 0.1, 200)


def test_eval(tent, doubling):
    assert tent.eval(0.25) == 0.5
    assert doubling.eval(0.75) == 0.5
    with pytest.raises(ExceptionalPointError):
        tent.eval(0.5)
    with pytest.raises(OutOfRangeError):
        tent.eval(1.5)


def test_eval_at_ambient_endpoints(tent):
    assert tent.eval(0.0) == 0.0
    assert tent.eval(1.0) == 0.0


def test_eval_lateral(tent, doubling):
    assert doubling.eval_lateral(LateralPoint(0.5, "left")) == 1.0
    assert doubling.eval_lateral(LateralPoint(0.5, "right")) == 0.0
    assert tent.eval_lateral(LateralPoint(0.5, "left")) == 1.0
    # away from the break both sides agree with eval
    assert tent.eval_lateral(LateralPoint(0.7, "left")) == tent.eval(0.7)
    assert tent.eval_lateral(LateralPoint(0.7, "right")) == tent.eval(0.7)


def test_lateral_consistency(doubling):
    p = 0.5
    target = doubling.eval_lateral(LateralPoint(p, "left"))
    gaps = [abs(doubling.eval(p - eps) - target)
            for eps in (1e-2, 1e-4, 1e-6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_deriv(tent, logistic4):
    assert tent.deriv(0.25) == 2.0
    assert tent.deriv(0.75) == -2.0
    assert logistic4.deriv(0.25) == 2.0  # 4 - 8x


def test_deriv_product(tent, doubling):
    log_abs, sign = tent.deriv_product(0.3, 10)
    assert log_abs == pytest.approx(10 * math.log(2.0), rel=1e-12)
    log_abs, sign = doubling.deriv_product(0.3, 20)
    assert log_abs == pytest.approx(20 * math.log(2.0), rel=1e-12)
    assert sign == 1
    assert doubling.deriv_product(0.3, 0) == (0.0, 1)


def test_deriv_product_chain_rule(logistic4):
    x = 0.137
    n = 12
    log_abs, sign = logistic4.deriv_product(x, n)
    prod = 1.0
    y = x
    for _ in range(n):
        prod *= logistic4.deriv(y)
        y = logistic4.eval(y)
    assert math.exp(log_abs) == pytest.approx(abs(prod), rel=1e-9)
    assert sign == (1 if prod > 0 else -1)


def test_deriv_product_reports_exceptional_hit(doubling):
    # 0.25 -> 0.5 exactly; the step at index 1 finds the undefined point
    with pytest.raises(OrbitHitsExceptionalError) as ei:
        doubling.deriv_product(0.25, 5)
    assert ei.value.index == 1


def test_nonflat_orders(tent, logistic4):
    assert tent.orders[(0.5, "left")] == 1.0
    assert tent.orders[(0.5, "right")] == 1.0
    assert logistic4.orders[(0.5, "left")] == 2.0
    assert logistic4.orders[(0.5, "right")] == 2.0


def test_structural_spow_order():
    m = build_map(MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                           BranchSpec((0.5, 1.0), "0.5 + spow(x-0.5, 2)"))))
    assert m.orders[(0.5, "right")] == 2.0


def test_validate_nonflat_tent(tent):
    rep = validate_nonflat(tent)
    assert rep.ok
    for b in rep.branches:
        assert b["min_abs_deriv"] == pytest.approx(2.0)
        assert b["nonlinearity"] == 0.0
    for e in rep.exceptional:
        assert e["fitted_order"] == pytest.approx(1.0, abs=0.05)
        assert not e["flat_violation"]


def test_validate_nonflat_logistic(logistic4):
    rep = validate_nonflat(logistic4)
    for e in rep.exceptional:
        assert e["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_validate_nonflat_spow_branch():
    m = build_map(MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                           BranchSpec((0.5, 1.0), "0.5 + spow(x-0.5, 2)"))))
    rep = validate_nonflat(m)
    right = [e for e in rep.exceptional if e["side"] == "right"][0]
    assert right["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_validate_nonflat_flags_flat_point():
    m = build_map(MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                           BranchSpec((0.5, 1.0), "0.5 + 0.4*sqrt(x-0.5)"))))
    rep = validate_nonflat(m)
    right = [e for e in rep.exceptional if e["side"] == "right"][0]
    assert right["fitted_order"] == pytest.approx(0.5, abs=0.05)
    assert right["flat_violation"]
    assert not rep.ok


def _reference_validate_nonflat(m, grid_size=256):
    """validate_nonflat as it was before build_map recorded the grid survey:
    its own midpoint-grid walk over every branch."""
    rep = mapcore.ValidationReport()
    for b in m.branches:
        min_d = float("inf")
        nonlin = 0.0
        for k in range(grid_size):
            x = b.lo + (k + 0.5) * (b.hi - b.lo) / grid_size
            d = abs(b.df(x))
            min_d = min(min_d, d)
            if d > 0.0:
                nonlin = max(nonlin, abs(b.ddf(x)) / d)
        rep.branches.append({
            "domain": [b.lo, b.hi],
            "expr": b.source,
            "min_abs_deriv": min_d,
            "nonlinearity": nonlin,
        })
        if min_d == 0.0:
            rep.flags.append(
                "zero derivative inside branch %r" % (b.source,))
    for c in m.exceptional:
        i = bisect_right(m._cuts, c) - 1
        for side, br, sgn in (("left", m.branches[i - 1], -1.0),
                              ("right", m.branches[i], 1.0)):
            fit = mapcore._fitted_order(br, c, sgn)
            declared = m.orders.get((c, side))
            entry = {
                "point": c,
                "side": side,
                "fitted_order": fit,
                "declared_order": declared,
                "flat_violation": bool(fit is not None and fit < 0.95),
            }
            rep.exceptional.append(entry)
            if entry["flat_violation"]:
                rep.flags.append(
                    "flat point at %r (%s side): fitted order %.3f < 1"
                    % (c, side, fit))
    return rep


def _reference_nonlinearity(m, grid_size=256):
    """nonlinearity() as it was before the grid survey: one more walk."""
    worst = 0.0
    for b in m.branches:
        for k in range(grid_size):
            x = b.lo + (k + 0.5) * (b.hi - b.lo) / grid_size
            d = b.df(x)
            if d != 0.0:
                worst = max(worst, abs(b.ddf(x)) / abs(d))
    return worst


SURVEY_MAPS = dict(
    LADDER_MAPS,
    flat_sqrt=lambda: build_map(MapSpec((
        BranchSpec((0.0, 0.5), "2*x"),
        BranchSpec((0.5, 1.0), "0.5 + 0.4*sqrt(x-0.5)")))),
    bump=lambda: build_map(MapSpec((BranchSpec(
        (0.0, 1.0), "0.5*x + 0.25 + 0.002/(1 + ((x - 0.5)/0.0005)^2)"),))),
)


@pytest.mark.parametrize("name", sorted(SURVEY_MAPS))
def test_grid_survey_matches_reference(name):
    m = SURVEY_MAPS[name]()
    assert (repr(validate_nonflat(m).to_dict())
            == repr(_reference_validate_nonflat(m).to_dict()))
    assert repr(m.nonlinearity()) == repr(_reference_nonlinearity(m))


def test_mapspec_from_dict_roundtrip():
    doc = {"ambient": [0.0, 1.0],
           "branches": [{"domain": [0.0, 0.5], "expr": "2*x"},
                        {"domain": [0.5, 1.0], "expr": "2 - 2*x"}]}
    m = build_map(mapspec_from_dict(doc))
    assert m.eval(0.25) == 0.5
