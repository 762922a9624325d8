import math
import random

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
    extend_map,
    mapspec_from_dict,
    validate_nonflat,
)
import mapdefs


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
    "extended_tent": lambda: extend_map(mapdefs.tent()),
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
    # ambient endpoints through their own branch, collar knots (cuts that
    # are not exceptional) through the branch on their right
    lo, hi = m.ambient
    closed = [(lo, m.branches[0]), (hi, m.branches[-1])]
    closed += [(b.lo, b) for b in m.branches[1:]
               if b.lo not in m.exceptional]
    if name == "extended_tent":
        assert len(closed) >= 4          # the old ambient ends are knots
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
    assert logistic4.deriv2(0.25) == -8.0


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
    rep = validate_nonflat(tent, 256)
    assert rep.ok
    for b in rep.branches:
        assert b["min_abs_deriv"] == pytest.approx(2.0)
        assert b["nonlinearity"] == 0.0
    for e in rep.exceptional:
        assert e["fitted_order"] == pytest.approx(1.0, abs=0.05)
        assert not e["flat_violation"]


def test_validate_nonflat_logistic(logistic4):
    rep = validate_nonflat(logistic4, 256)
    for e in rep.exceptional:
        assert e["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_validate_nonflat_spow_branch():
    m = build_map(MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                           BranchSpec((0.5, 1.0), "0.5 + spow(x-0.5, 2)"))))
    rep = validate_nonflat(m, 256)
    right = [e for e in rep.exceptional if e["side"] == "right"][0]
    assert right["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_validate_nonflat_flags_flat_point():
    m = build_map(MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                           BranchSpec((0.5, 1.0), "0.5 + 0.4*sqrt(x-0.5)"))))
    rep = validate_nonflat(m, 256)
    right = [e for e in rep.exceptional if e["side"] == "right"][0]
    assert right["fitted_order"] == pytest.approx(0.5, abs=0.05)
    assert right["flat_violation"]
    assert not rep.ok


def test_mapspec_from_dict_roundtrip():
    doc = {"ambient": [0.0, 1.0],
           "branches": [{"domain": [0.0, 0.5], "expr": "2*x"},
                        {"domain": [0.5, 1.0], "expr": "2 - 2*x"}]}
    m = build_map(mapspec_from_dict(doc))
    assert m.eval(0.25) == 0.5


# -- extension ---------------------------------------------------------------

def test_extend_corners(tent, doubling):
    for m in (tent, doubling):
        ext = extend_map(m)
        assert ext.ambient == (-1.0, 2.0)
        assert ext.eval(-1.0) in (-1.0, 2.0)
        assert ext.eval(2.0) in (-1.0, 2.0)
        assert ext.exceptional == m.exceptional


def test_extend_fixes_interior(tent):
    ext = extend_map(tent)
    for k in range(1, 1000):
        x = k / 1000.0
        if x in (0.5,):
            continue
        assert ext.eval(x) == tent.eval(x)


def test_extend_is_c1_at_seams(logistic4):
    ext = extend_map(logistic4)
    for x in (0.0, 1.0):
        left = ext.eval_lateral(LateralPoint(x, "left"))
        right = ext.eval_lateral(LateralPoint(x, "right"))
        assert left == pytest.approx(right, abs=1e-12)
        dl = ext.deriv_lateral(LateralPoint(x, "left"))
        dr = ext.deriv_lateral(LateralPoint(x, "right"))
        assert dl == pytest.approx(dr, rel=1e-9)


def test_extend_collar_dichotomy(doubling):
    ext = extend_map(doubling)
    x = 1.5
    entered = False
    for _ in range(100):
        x = ext.eval(x)
        if 0.0 <= x <= 1.0:
            entered = True
            break
    assert entered or abs(x - 2.0) < 1e-3 or abs(x + 1.0) < 1e-3


def test_extend_collar_dichotomy_left(tent):
    ext = extend_map(tent)
    x = -0.5
    entered = False
    for _ in range(200):
        x = ext.eval(x)
        if 0.0 <= x <= 1.0:
            entered = True
            break
    assert entered or abs(x + 1.0) < 1e-3


def test_extend_steep_boundary(neutral_map):
    # boundary slope 4096 forces the knot-insertion fallback
    ext = extend_map(neutral_map)
    assert ext.eval(-1.0) == -1.0
    assert ext.eval(2.0) == 2.0
    assert ext.deriv_lateral(LateralPoint(0.0, "left")) == pytest.approx(
        4096.0, rel=1e-9)
    # collar must be strictly monotone (a local diffeomorphism)
    for k in range(1, 400):
        x = -1.0 + k / 400.0
        assert ext.deriv(x) > 0.0


def test_extend_neutral_orders_preserved(neutral_map):
    ext = extend_map(neutral_map)
    assert ext.orders == neutral_map.orders
