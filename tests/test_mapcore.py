import ast
import importlib.util
import inspect
import math
import os
import random
import re
import textwrap
from bisect import bisect_right

import pytest

from intervaldyn.errors import (
    BranchImageError,
    ExceptionalPointError,
    IntervalDynError,
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
import exprref
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
    # the grid images stay inside (0, 0.1), but the closure rounds to
    # 0.10000000000000002 at the cut
    e = "4*x*(0.1 - x)/0.1"
    with pytest.raises(BranchImageError) as ei:
        build_map(MapSpec((BranchSpec((0.0, 0.05), e),
                           BranchSpec((0.05, 0.1), e)), (0.0, 0.1)))
    assert ei.value.witness == 0.05
    assert "0.10000000000000002" in str(ei.value)
    # defined on the whole grid, singular at the ambient end 0
    with pytest.raises(BranchImageError, match="undefined at domain end"):
        build_map(MapSpec((BranchSpec((0.0, 1.0), "0.5*x*(1 - log(x))"),)))
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
    "two_attractors": mapdefs.two_attractors,
    # five branches: jumps at 0.2, 0.35 and 0.7, both orientations, and the
    # critical cut 0.5, where Df of both sides vanishes
    "five_branches": lambda: build_map(MapSpec((
        BranchSpec((0.0, 0.2), "0.1 + 2*x"),
        BranchSpec((0.2, 0.35), "0.9 - 2*(x - 0.2)"),
        BranchSpec((0.35, 0.5), "4*x*(1 - x)"),
        BranchSpec((0.5, 0.7), "4*x*(1 - x)"),
        BranchSpec((0.7, 1.0), "0.05 + 0.3*(x - 0.7)")))),
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
    for c in m.exceptional:
        with pytest.raises(ExceptionalPointError):
            m.eval(c)
    # ambient endpoints through their own branch
    lo, hi = m.ambient
    closed = [(lo, m.branches[0]), (hi, m.branches[-1])]
    for x, b in closed:
        assert repr(m.eval(x)) == repr(b.f(x))
    for x in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
              -math.inf, math.inf, float("nan")):
        for fn in (m.eval, lambda x: m.walk(x, 5)):
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
        ind = _own_branches(m, t)
        for x in starts + dyadic + m.exceptional + bad:
            assert (_outcome(ind.eval, x)
                    == _outcome(refloops.induced_eval, ind, x))
    _assert_induce_matches_reference(m, starts + dyadic + m.exceptional + bad)


def _own_branches(m, t):
    lo, hi = m.ambient
    return induction.InducedMap(
        (lo, hi), "first_return",
        [induction.InducedBranch(b.lo, b.hi, t, 1, lo, hi)
         for b in m.branches], t, 1.0, [], m, (lo, hi))


def _assert_induce_matches_reference(m, starts):
    """`InducedMap.induce` against the loop it replaced, outcome for
    outcome, on the map's own branches at return times 0, 1 and 5; on one
    branch three ambient widths wide, at times 1 and 2, whose steps meet
    the cuts and leave the ambient interval inside the branch; and on two
    overlapping branches of times 1 and 2, where `branch_at` takes the
    second."""
    lo, hi = m.ambient
    w = hi - lo
    maps = [_own_branches(m, t) for t in (0, 1, 5)]
    for table in ([(lo - w, hi + w, 1)], [(lo - w, hi + w, 2)],
                  [(lo, lo + 0.6 * w, 1), (lo + 0.4 * w, hi, 2)]):
        maps.append(induction.InducedMap(
            (lo, hi), "first_return",
            [induction.InducedBranch(a, b, t, 1, lo, hi)
             for a, b, t in table], 2, 1.0, [], m, (lo, hi)))
    stops = ((0.0, 0.0), (lo + w / 3, hi - w / 3))
    for ind in maps:
        for x in starts:
            for k, cap in ((0, 7), (1, 1), (2, 7), (3, 1), (5, math.inf)):
                for stop in stops:
                    args = (x, k) + stop + (cap,)
                    assert (_induce_outcome(ind.induce, *args)
                            == _induce_outcome(refloops.induced_walk, ind,
                                               *args)), (ind.branches, args)


def _induce_outcome(fn, *args):
    try:
        state, x, logsum, fsteps = fn(*args)
    except Exception as e:
        return type(e).__name__, str(e)
    return state, repr(x), repr(logsum), fsteps


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as e:
        return (type(e).__name__, str(e), getattr(e, "index", None),
                repr(getattr(e, "point", None)))


def _assert_shapes_match_reference(m, x):
    assert m.compose(x, 0) is x
    assert m.compose_deriv(x, 0) == (x, 0.0, 1)
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
    # pull-backs whose first midpoint is x, in either orientation
    lo, hi = m.ambient
    for n in (0, 1, 2, 7, 300):
        for span in (1e-3, 0.25):
            for ends in ((lo, hi), (hi, lo)):
                args = (m, x - span, x + span, n) + ends + (
                    lo + (hi - lo) / 3,)
                assert (_outcome(induction._pull, *args)
                        == _outcome(refloops.pull, *args))


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
        _assert_induce_matches_reference(m, [0.3, 0.1, 0.7])


def test_formula_error_points_at_template():
    # log(0) at x = 0.3 raises inside the compiled compose; the innermost
    # frame is the template line of compose that holds F, in mapcore.py
    m = build_map(MapSpec((BranchSpec(
        (0.0, 1.0), "0.5 + 0.25*(x - 0.3) + 1e-6*log(abs(x - 0.3))"),)))
    with pytest.raises(ValueError) as ei:
        m.compose(0.3, 1)
    tb = ei.value.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename == mapcore.__file__
    with open(mapcore.__file__) as fh:
        source = fh.read()
    (template,) = [node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "compose"]
    assert template.lineno < tb.tb_lineno <= template.end_lineno
    assert source.splitlines()[tb.tb_lineno - 1].strip() == "x = F"


def test_shapes_are_python_source_not_strings():
    # mapcore holds no shape source in a string constant (no `def` line, no
    # statement but a bare expression), and never hands exec, eval or
    # compile a string, so linters, coverage and tracebacks see the shapes
    with open(mapcore.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            assert not re.search(r"^\s*def ", text, re.M), text
            try:
                body = ast.parse(textwrap.dedent(text)).body
            except (SyntaxError, ValueError):
                continue
            assert all(isinstance(s, ast.Expr) for s in body), text
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("exec", "eval", "compile")):
            arg = node.args[0]
            assert not isinstance(arg, (ast.Constant, ast.JoinedStr,
                                        ast.BinOp)), ast.dump(arg)
            assert not (isinstance(arg, ast.Call)
                        and isinstance(arg.func, ast.Attribute)
                        and arg.func.attr in ("join", "format")), \
                ast.dump(arg)


def test_template_scan_matches_inspect():
    # `_template` reads a shape template's lines by their indentation:
    # every shape parses to the tree, line numbers included, that
    # `inspect.getsourcelines` gives, and its compiled function starts at
    # the template's `def` line
    m = mapdefs.logistic(4.0)
    shapes = {name: prop.func.__wrapped__
              for name, prop in vars(mapcore.PiecewiseMap).items()
              if hasattr(getattr(prop, "func", None), "__wrapped__")}
    assert sorted(shapes) == ["_f", "compose", "compose_deriv", "harvest",
                              "induce", "solve", "walk", "walk_bins"]
    for name, template in shapes.items():
        lines, first = inspect.getsourcelines(template)
        src = "\n" * (first - 2) + "if 1:\n" + "".join(lines)
        want = ast.parse(src).body[0].body[0]
        assert (ast.dump(mapcore._template(template), include_attributes=True)
                == ast.dump(want, include_attributes=True)), name
        assert want.decorator_list[0].lineno == first
        assert getattr(m, name).__code__.co_firstlineno == want.lineno, name


def test_no_per_step_eval_loop_outside_mapcore():
    # orbits outside mapcore step with `walk` or another compiled shape:
    # no module calls an attribute named eval in the body of a for or
    # while loop, or in a comprehension
    pkg = os.path.dirname(mapcore.__file__)
    found = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "mapcore.py":
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.While)):
                inner = node.body + node.orelse
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                inner = [node]
            else:
                continue
            found |= {"%s:%d" % (name, call.lineno)
                      for part in inner for call in ast.walk(part)
                      if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Attribute)
                      and call.func.attr == "eval"}
    assert not found, sorted(found)


def test_no_private_bisection_outside_the_root_finders():
    # the package's root finders are `PiecewiseMap.solve` and
    # `induction._pull` (whose dyadic midpoints refine and doubling's
    # coverage depend on): no other function halves a bracket, a midpoint
    # 0.5 * (a + b) of two names, in a loop or comprehension
    pkg = os.path.dirname(mapcore.__file__)
    found = set()

    def is_midpoint(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return False
        for half, s in ((node.left, node.right), (node.right, node.left)):
            if (isinstance(half, ast.Constant) and half.value == 0.5
                    and isinstance(s, ast.BinOp) and isinstance(s.op, ast.Add)
                    and isinstance(s.left, ast.Name)
                    and isinstance(s.right, ast.Name)):
                return True
        return False

    def visit(node, where, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            where = "%s:%s" % (where.split(":")[0],
                               getattr(node, "name", "<lambda>"))
            in_loop = False
        elif isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                               ast.GeneratorExp, ast.DictComp)):
            in_loop = True
        elif in_loop and is_midpoint(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_loop)

    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                visit(ast.parse(fh.read()), name, False)
    assert found == {"mapcore.py:solve", "induction.py:_pull"}, sorted(found)


def test_no_module_defines_a_name_twice():
    # a second top-level `def` or `class` of a name silently replaces the
    # first at import, in the package and in the tests alike
    tests = os.path.dirname(os.path.abspath(__file__))
    found = []
    for folder in (os.path.dirname(mapcore.__file__), tests):
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name)) as fh:
                tree = ast.parse(fh.read())
            seen = set()
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if node.name in seen:
                        found.append("%s:%s" % (name, node.name))
                    seen.add(node.name)
    assert not found, found


def test_structural_orders_match_tree_walking_oracle(monkeypatch):
    # `_structural_order` evaluates each pow/spow argument at the cut with
    # `compile_fn`; the tree-walking oracle gives the same orders
    specs = [MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                      BranchSpec((0.5, 1.0), right)))
             for right in ("0.5 + 4*(x - 0.5)^3",
                           "0.5 + 4*spow(x - 0.5, 3)")]
    got = [build_map(spec).orders for spec in specs]
    monkeypatch.setattr(mapcore, "_structural_order",
                        exprref.structural_order)
    assert got == [build_map(spec).orders for spec in specs]
    assert got[0] == got[1] == {(0.5, "left"): 1.0, (0.5, "right"): 3.0}


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


def _perfbench_map_docs():
    """Every map file that the perfbench workloads write, at seeds 1-3."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    docs = [wl.logistic(4.0), wl.logistic(wl.FEIGENBAUM_A), wl.doubling(),
            wl.jump_contraction(), wl.neutral()]
    docs += [wl.logistic(a) for seed in (1, 2, 3)
             for a in wl.sweep_parameters(seed)]
    return docs


def _survey_outcome(survey, b, lo, hi):
    """The repr of a survey's (min |Df|, sup |D2f|/|Df|), or its error's
    type, message and witness."""
    try:
        return repr(survey(b, lo, hi))
    except IntervalDynError as e:
        return type(e), str(e), getattr(e, "witness", None)


def test_survey_matches_per_point_oracle():
    # the one-loop survey gives the values, or the error, message and
    # witness, of the per-point survey it replaced, on every fixture map,
    # every perfbench map and branches that fail each check; where two
    # checks fail, the earlier grid point is the one named
    specs = [mapdefs.tent_spec(), mapdefs.doubling_spec(),
             mapdefs.logistic_spec(4.0), mapdefs.logistic_spec(3.2),
             mapdefs.logistic_spec(mapdefs.FEIGENBAUM_A),
             mapdefs.jump_contraction_spec(), mapdefs.plateau_spec(),
             mapdefs.two_attractors_spec(), mapdefs.neutral_spec(),
             mapdefs.cubic_neutral_spec(0.9), mapdefs.cubic_neutral_spec(1.1)]
    specs += [mapspec_from_dict(doc) for doc in _perfbench_map_docs()]
    branches = [(b.domain, b.expr, spec.ambient)
                for spec in specs for b in spec.branches]
    faulty = [
        # f undefined, outside, NaN at a grid point; f undefined and
        # outside at a domain end
        ((0.0, 1.0), "log(x - 0.3)", (0.0, 1.0)),
        ((0.0, 0.5), "3*x", (0.0, 1.0)),
        ((0.0, 1.0), "x*1e300*1e300*0", (0.0, 1.0)),
        ((0.0, 1.0), "0.5*x*(1 - log(x))", (0.0, 1.0)),
        ((0.0, 0.05), "4*x*(0.1 - x)/0.1", (0.0, 0.1)),
        # Df undefined, zero and changing sign, D2f undefined
        ((0.0, 1.0), "0.25 + 0.5*abs(x - 0.501953125)", (0.0, 1.0)),
        ((0.0, 1.0), "0.5 + (x - 0.501953125)^3", (0.0, 1.0)),
        ((0.0, 1.0), "4*x*(1-x)", (0.0, 1.0)),
        ((0.0, 1.0), "0.25 + 0.5*x + 0.1*spow(x - 0.501953125, 1.5)",
         (0.0, 1.0)),
        # a slope that blows up at a domain end, and an image well inside
        # a wide ambient interval
        ((0.5, 1.0), "0.5 + 0.4*sqrt(x-0.5)", (0.0, 1.0)),
        ((0.0, 1.0), "0.5 - 0.1*sqrt(1.5 - x)", (-5.0, 5.0)),
    ]
    twice = [
        # Df singular at the first grid point, f outside from 0.5 on
        ((0.0, 1.0), "2*x + 0.5*abs(x - 0.001953125)", (0.0, 1.0),
         ZeroDerivativeError, "0.001953125"),
        # f outside at the first grid point, Df singular at the last
        ((0.0, 1.0), "2.5 - 2*x + 0.1*abs(x - 0.998046875)", (0.0, 1.0),
         BranchImageError, "0.001953125"),
        # f outside from 0.345703125 on, Df changing sign after 0.498046875
        ((0.0, 1.0), "4*x*(1-x)", (0.0, 0.9),
         BranchImageError, "0.345703125"),
    ]
    kinds = set()
    for (a, b), e, (lo, hi), *named in branches + faulty + twice:
        br = mapcore.Branch.from_source(a, b, e)
        got = _survey_outcome(mapcore._survey, br, lo, hi)
        assert got == _survey_outcome(refloops.survey, br, lo, hi), e
        kinds.add(got[0] if isinstance(got, tuple) else float)
        if named:
            kind, where = named
            assert got[0] is kind and "grid point %s" % where in got[1], got
    assert kinds == {float, BranchImageError, ZeroDerivativeError}


def test_mapspec_from_dict_roundtrip():
    doc = {"ambient": [0.0, 1.0],
           "branches": [{"domain": [0.0, 0.5], "expr": "2*x"},
                        {"domain": [0.5, 1.0], "expr": "2 - 2*x"}]}
    m = build_map(mapspec_from_dict(doc))
    assert m.eval(0.25) == 0.5
