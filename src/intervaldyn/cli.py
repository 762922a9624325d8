"""Command-line entry point.

Five subcommands over a map-definition JSON file:

  analyze     smoothness validation, lateral values, periodic points
  classify    attractor classification report + cover strip SVG
  return-map  first-return map: branch CSV, distortion, expansion, SVG
  mane        expansion certificate JSON for orbits avoiding --avoid
  plot        cobweb SVG and orbit CSV from a single start

Exit codes: 0 success (scientific negatives like an invalid certificate
are data, not errors), 2 configuration problems (invalid map files
included), 3 computation failures.
"""

import argparse
import functools
import json
import os
import sys

from . import serialize, svgplot
from .classify import ClassifyConfig, classify_attractors
from .errors import ConfigError, IntervalDynError, UNotCoveringError
from .induction import (
    expansion_analysis,
    first_return,
    measure_distortion,
    refine_partition,
)
from .mane import ManeConfig, mane_certificate
from .mapcore import build_map, mapspec_from_dict, validate_nonflat
from .orbits import find_periodic_points


def _load_map(path):
    if not os.path.exists(path):
        raise ConfigError("map file not found: %s" % path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("cannot read map file %s: %s" % (path, e))
    try:
        return build_map(mapspec_from_dict(doc))
    except (KeyError, TypeError, ValueError, IndexError,
            IntervalDynError) as e:
        raise ConfigError("malformed map definition %s: %r" % (path, e))


def _parse_pairs(text, what):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        vals = []
    if not vals or len(vals) % 2:
        raise ConfigError("%s needs an even number of comma-separated "
                          "endpoints, got %r" % (what, text))
    return [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def cmd_analyze(args):
    m = _load_map(args.map)
    out = _outdir(args)
    validation = validate_nonflat(m)
    report = {
        "ambient": list(m.ambient),
        "exceptional": list(m.exceptional),
        "validation": dict(validation.to_dict(), ok=validation.ok),
        "lateral_values": [
            {"point": lp.point, "side": lp.side, "value": v}
            for lp, v in m.lateral_values
        ],
        "periodic_points": [
            {"point": x, "period": d, "multiplier": mult}
            for x, d, mult in find_periodic_points(m, args.period_max)
        ],
    }
    serialize.write_json(os.path.join(out, "report.json"), report)
    return 0


def cmd_classify(args):
    m = _load_map(args.map)
    out = _outdir(args)
    cfg = ClassifyConfig(samples=args.samples, seed=args.seed,
                         burn_in=args.burn_in, length=args.length,
                         resolution=args.resolution)
    result = classify_attractors(m, cfg)
    serialize.write_json(os.path.join(out, "report.json"), result.to_dict())
    svgplot.cover_strips(result.reports, m.ambient,
                         os.path.join(out, "cover.svg"))
    return 0


def cmd_return_map(args):
    m = _load_map(args.map)
    out = _outdir(args)
    j = _parse_pairs(args.j, "--j")
    if len(j) != 1:
        raise ConfigError("--j takes exactly one interval, got %r" % args.j)
    ind = first_return(m, j[0], args.t_max)
    rows = []
    for br in ind.branches:
        derivs = [ind.deriv_abs(br.lo + (br.hi - br.lo) * (k + 0.5) / 9.0)
                  for k in range(9)]
        rows.append((br.lo, br.hi, br.time, br.orientation,
                     min(derivs), max(derivs)))
    _write_csv(os.path.join(out, "branches.csv"),
               ("lo", "hi", "time", "orientation", "min_abs_df",
                "max_abs_df"), rows)
    report = {
        "base": list(ind.base),
        "branch_count": len(ind.branches),
        "coverage": ind.coverage,
        "truncation": ind.truncation,
        "flags": list(ind.flags),
        "measure_distortion": measure_distortion(ind),
        "expansion": expansion_analysis(ind, m).to_dict(),
    }
    if args.refine:
        cells = refine_partition(ind, args.refine)
        report["refined_cells"] = len(cells)
        report["refined_max_distortion"] = max(c.distortion for c in cells)
    serialize.write_json(os.path.join(out, "report.json"), report)
    svgplot.return_map_graph(ind, os.path.join(out, "return_map.svg"))
    return 0


def cmd_mane(args):
    m = _load_map(args.map)
    out = _outdir(args)
    cfg = ManeConfig(period_max=args.period_max, samples=args.samples,
                     n_max=args.nmax, seed=args.seed)
    cert = mane_certificate(m, _parse_pairs(args.avoid, "--avoid"), cfg)
    serialize.write_json(os.path.join(out, "certificate.json"),
                         cert.to_dict())
    return 0


def cmd_plot(args):
    m = _load_map(args.map)
    out = _outdir(args)
    lo, hi = m.ambient
    if not (lo <= args.x0 <= hi):
        raise ConfigError("--x0 %r outside the ambient interval" % args.x0)
    orbit = [args.x0] + m.walk(args.x0, args.n)
    svgplot.cobweb(m, orbit, args.n, os.path.join(out, "cobweb.svg"))
    _write_csv(os.path.join(out, "orbit.csv"), ("step", "x"),
               enumerate(orbit))
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process.  Each subcommand
    stores the name of its `cmd_*` function, which `main` looks up at call
    time, so a replaced `cmd_*` is the one that runs."""
    p = argparse.ArgumentParser(
        prog="intervaldyn",
        description="piecewise-smooth interval dynamics toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--map", required=True, help="map definition JSON")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("analyze", help="validate map, list lateral values "
                        "and periodic points")
    common(sp)
    sp.add_argument("--period-max", type=int, default=8)
    sp.set_defaults(fn="cmd_analyze")

    sp = sub.add_parser("classify", help="attractor classification")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=400)
    sp.add_argument("--burn-in", type=int, default=2000)
    sp.add_argument("--length", type=int, default=1000)
    sp.add_argument("--resolution", type=float, default=1e-3)
    sp.set_defaults(fn="cmd_classify")

    sp = sub.add_parser("return-map", help="first-return map analysis")
    common(sp)
    sp.add_argument("--j", required=True, help="base interval a,b")
    sp.add_argument("--t-max", type=int, default=20)
    sp.add_argument("--refine", type=int, default=0,
                    help="also refine the partition to this depth")
    sp.set_defaults(fn="cmd_return_map")

    sp = sub.add_parser("mane", help="expansion certificate")
    common(sp)
    sp.add_argument("--avoid", required=True,
                    help="components a,b[,a2,b2...] covering all "
                         "break/critical points")
    sp.add_argument("--period-max", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--nmax", type=int, default=200)
    sp.set_defaults(fn="cmd_mane")

    sp = sub.add_parser("plot", help="cobweb plot and orbit table")
    common(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--n", type=int, default=60)
    sp.set_defaults(fn="cmd_plot")
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return globals()[args.fn](args)
    except (ConfigError, UNotCoveringError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (IntervalDynError, ValueError, ZeroDivisionError,
            OverflowError) as e:
        # the last three: a branch formula outside its math domain at a
        # point that `build_map` did not check
        print("computation failed: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
