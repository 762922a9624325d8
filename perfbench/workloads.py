"""Workload definitions: generated map files, CLI jobs and output invariants.

A workload is a list of jobs.  Each job is one `intervaldyn` command line
(without `--out`) plus a check that reads the artifacts the command wrote
and returns None when they are correct, or a one-line reason when not.
Everything is a pure function of the workload seed.
"""

import csv
import json
import os
import random
from dataclasses import dataclass

FEIGENBAUM_A = 3.569945672

# param_sweep: logistic parameters, one per stratum of [SWEEP_LO, SWEEP_HI).
# Each sits at its stratum centre plus a seeded jitter of at most
# SWEEP_JITTER of the stratum width (+-0.0012).  Classify costs about seven
# times as much on a chaotic parameter as on a periodic one, so a jitter
# that let a parameter cross into or out of a periodic window would make
# the work of a round depend on the seed.  In a 0.005-step scan of [3.4, 4)
# the centres (3.46, 3.58, 3.70, 3.82, 3.94) all lie at least 0.005 from
# the chaos onset (3.5745) and from the windows near 3.63, 3.74 and 3.83.
SWEEP_LO, SWEEP_HI = 3.4, 4.0
SWEEP_MAPS = 5
SWEEP_JITTER = 0.01


# ---------------------------------------------------------------------------
# maps (the same definitions as the test fixtures, written as map files)

def logistic(a):
    e = "%r*x*(1-x)" % a
    return {"ambient": [0.0, 1.0],
            "branches": [{"domain": [0.0, 0.5], "expr": e},
                         {"domain": [0.5, 1.0], "expr": e}]}


def doubling():
    return {"ambient": [0.0, 1.0],
            "branches": [{"domain": [0.0, 0.5], "expr": "2*x"},
                         {"domain": [0.5, 1.0], "expr": "2*x - 1"}]}


def jump_contraction():
    """Both lateral limits at the break equal the break point 0.6, so the
    critical-orbit recurrence check of classify ends at once."""
    return {"ambient": [0.0, 1.0],
            "branches": [{"domain": [0.0, 0.6],
                          "expr": "x + 0.5*x*(0.6 - x)/0.6"},
                         {"domain": [0.6, 1.0], "expr": "0.5*x + 0.3"}]}


def neutral():
    """Steep full edge branches around a slowly repelling middle branch
    that fixes 0.5: the return map to (0, 1) needs a neutral-core
    certificate."""
    a = 2.0 ** -12
    b = 1.0 - a
    c2 = 2.0 ** -10
    w = 0.5 - a
    s = (0.5 - c2 * w ** 3) / w
    mid = "0.5 - %r*(x - 0.5) - %r*(x - 0.5)^3" % (s, c2)
    return {"ambient": [0.0, 1.0],
            "branches": [{"domain": [0.0, a], "expr": "4096*x"},
                         {"domain": [a, b], "expr": mid},
                         {"domain": [b, 1.0], "expr": "4096*(x - %r)" % b}]}


def sweep_parameters(seed):
    rng = random.Random(seed)
    width = (SWEEP_HI - SWEEP_LO) / SWEEP_MAPS
    return [SWEEP_LO + width * (k + 0.5 + SWEEP_JITTER * (2.0 * rng.random()
                                                         - 1.0))
            for k in range(SWEEP_MAPS)]


# ---------------------------------------------------------------------------
# invariants


def _load(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _csv_rows(outdir, name):
    with open(os.path.join(outdir, name), newline="") as fh:
        return list(csv.reader(fh))[1:]


def least_period_count(n):
    """Points of least period p <= n of a full two-branch map (logistic
    a=4): sum over p of the Moebius sum over d | p of mu(p/d) 2^d."""
    def mu(k):
        sign, q = 1, 2
        while q * q <= k:
            if k % q == 0:
                k //= q
                if k % q == 0:
                    return 0
                sign = -sign
            q += 1
        return -sign if k > 1 else sign
    return sum(mu(p // d) * 2 ** d
               for p in range(1, n + 1) for d in range(1, p + 1) if p % d == 0)


def classify_ok(samples):
    """Basin fractions plus the unclassified fraction sum to 1 and the
    report echoes the sample count."""
    def check(outdir):
        r = _load(outdir, "report.json")
        if r["samples"] != samples:
            return "samples echoed as %r, not %d" % (r["samples"], samples)
        total = r["unclassified_fraction"] + sum(
            rep["basin_fraction"] for rep in r["reports"])
        if abs(total - 1.0) > 1e-9:
            return "basin fractions sum to %r" % total
        return None
    return check


def classify_kinds(samples, kinds):
    """classify_ok, and the reports are exactly `kinds`."""
    common = classify_ok(samples)

    def check(outdir):
        bad = common(outdir)
        if bad:
            return bad
        got = [rep["kind"] for rep in _load(outdir, "report.json")["reports"]]
        return None if got == kinds else "kinds %r, expected %r" % (got, kinds)
    return check


def mane_ok(samples, n_max, lam=None):
    def check(outdir):
        c = _load(outdir, "certificate.json")
        if c["samples"] != samples or c["n_max"] != n_max:
            return "certificate echoes samples %r, n_max %r" % (
                c["samples"], c["n_max"])
        if lam is not None:
            if not c["valid"]:
                return "certificate not valid"
            if abs(c["lambda"] - lam) > 0.05:
                return "lambda %r, expected near %r" % (c["lambda"], lam)
        return None
    return check


def return_map_ok(branches=None, coverage=None, mode=None):
    """The branch table has one sorted row per reported branch, inside the
    base; optionally the branch count, coverage and certificate mode."""
    def check(outdir):
        r = _load(outdir, "report.json")
        rows = _csv_rows(outdir, "branches.csv")
        if len(rows) != r["branch_count"]:
            return "%d csv rows for %d branches" % (len(rows),
                                                   r["branch_count"])
        lo, hi = r["base"]
        prev = lo
        for row in rows:
            a, b = float(row[0]), float(row[1])
            if not (prev <= a < b <= hi):
                return "branch (%r, %r) out of order or outside the base" % (
                    a, b)
            prev = b
        if not 0.0 < r["coverage"] <= 1.0:
            return "coverage %r" % r["coverage"]
        if branches is not None and r["branch_count"] != branches:
            return "%d branches, expected %d" % (r["branch_count"], branches)
        if coverage is not None and r["coverage"] != coverage:
            return "coverage %r, expected %r" % (r["coverage"], coverage)
        if mode is not None:
            ex = r["expansion"]
            if ex["mode"] != mode or ex["valid"] is not True:
                return "expansion %s valid=%r, expected %s valid" % (
                    ex["mode"], ex["valid"], mode)
        return None
    return check


def analyze_ok(points=None, period_max=None):
    def check(outdir):
        r = _load(outdir, "report.json")
        pts = r["periodic_points"]
        if points is not None and len(pts) != points:
            return "%d periodic points, expected %d" % (len(pts), points)
        if period_max is not None and any(
                not 1 <= p["period"] <= period_max for p in pts):
            return "a periodic point has period outside 1..%d" % period_max
        return None
    return check


def plot_ok(x0, n):
    def check(outdir):
        rows = _csv_rows(outdir, "orbit.csv")
        if not 1 <= len(rows) <= n + 1 or float(rows[0][1]) != x0:
            return "orbit.csv has %d rows starting %r" % (
                len(rows), rows[0] if rows else None)
        with open(os.path.join(outdir, "cobweb.svg")) as fh:
            if not fh.read().startswith("<svg"):
                return "cobweb.svg is not an svg document"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Job:
    name: str
    map_name: str
    args: list        # subcommand and flags, without --map and --out
    check: object     # outdir -> None | reason

    def argv(self, map_path, outdir):
        return [self.args[0], "--map", map_path, "--out", outdir] \
            + self.args[1:]


def long_orbits(seed):
    s = str(seed)
    maps = {"logistic4": logistic(4.0),
            "feigenbaum": logistic(FEIGENBAUM_A),
            "neutral": neutral()}
    jobs = [
        Job("classify_logistic4", "logistic4",
            ["classify", "--samples", "100", "--length", "20000",
             "--seed", s],
            classify_kinds(100, ["interval_cycle"])),
        Job("classify_feigenbaum", "feigenbaum",
            ["classify", "--samples", "100", "--seed", s],
            classify_kinds(100, ["cantor"])),
        Job("mane_logistic4", "logistic4",
            ["mane", "--avoid", "0.4,0.6", "--nmax", "30",
             "--samples", "1000", "--seed", s],
            mane_ok(1000, 30, lam=2.0)),
        Job("return_map_neutral", "neutral",
            ["return-map", "--j", "0,1", "--t-max", "3"],
            return_map_ok(branches=3, mode="neutral_core")),
    ]
    return maps, jobs


CYLINDER_PERIOD_MAX = 10


def cylinders(seed):
    del seed  # the combinatorial jobs are seed-free
    maps = {"logistic4": logistic(4.0), "doubling": doubling()}
    jobs = [
        Job("analyze_logistic4", "logistic4",
            ["analyze", "--period-max", str(CYLINDER_PERIOD_MAX)],
            analyze_ok(points=least_period_count(CYLINDER_PERIOD_MAX),
                       period_max=CYLINDER_PERIOD_MAX)),
        Job("return_map_not_nice", "logistic4",
            ["return-map", "--j", "0.3,0.45", "--t-max", "12"],
            return_map_ok()),
        Job("return_map_nice", "logistic4",
            ["return-map", "--j", "0.25,0.75", "--t-max", "40",
             "--refine", "1"],
            return_map_ok(branches=50)),
        Job("return_map_doubling", "doubling",
            ["return-map", "--j", "0,0.5", "--t-max", "50"],
            return_map_ok(branches=26, coverage=1.0 - 2.0 ** -26)),
    ]
    return maps, jobs


def param_sweep(seed):
    s = str(seed)
    maps = {}
    jobs = []
    for k, a in enumerate(sweep_parameters(seed)):
        name = "logistic_%d" % k
        maps[name] = logistic(a)
        jobs += [
            Job(name + "_analyze", name, ["analyze", "--period-max", "6"],
                analyze_ok(period_max=6)),
            Job(name + "_classify", name,
                ["classify", "--samples", "100", "--burn-in", "200",
                 "--length", "600", "--seed", s],
                classify_ok(100)),
            Job(name + "_mane", name,
                ["mane", "--avoid", "0.45,0.55", "--samples", "20",
                 "--nmax", "50", "--seed", s],
                mane_ok(20, 50)),
            Job(name + "_plot", name, ["plot", "--x0", "0.3", "--n", "60"],
                plot_ok(0.3, 60)),
        ]
    return maps, jobs


def touch():
    """One small call of each subcommand, appended to every workload's
    round (about 50 ms, 1-2% of a round).  It makes every traced layer fire
    on every workload, so no per-layer time is a structural zero."""
    maps = {"touch_doubling": doubling(), "touch_jump": jump_contraction()}
    jobs = [
        Job("touch_analyze", "touch_doubling",
            ["analyze", "--period-max", "3"], analyze_ok(period_max=3)),
        Job("touch_classify", "touch_jump",
            ["classify", "--samples", "100", "--burn-in", "20",
             "--length", "40"],
            classify_ok(100)),
        Job("touch_mane", "touch_doubling",
            ["mane", "--avoid", "0.45,0.55", "--samples", "5", "--nmax", "10",
             "--period-max", "2"],
            mane_ok(5, 10)),
        Job("touch_plot", "touch_doubling",
            ["plot", "--x0", "0.3", "--n", "10"], plot_ok(0.3, 10)),
        Job("touch_return_map", "touch_doubling",
            ["return-map", "--j", "0,0.5", "--t-max", "6", "--refine", "1"],
            return_map_ok(branches=6)),
    ]
    return maps, jobs


WORKLOADS = {"long_orbits": long_orbits, "cylinders": cylinders,
             "param_sweep": param_sweep}


def build(workload, seed):
    """Maps (name -> map document) and the job list of one round."""
    maps, jobs = WORKLOADS[workload](seed)
    touch_maps, touch_jobs = touch()
    return dict(maps, **touch_maps), jobs + touch_jobs


def write_maps(maps, directory):
    """Write each map as <name>.json under directory; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in maps.items():
        paths[name] = os.path.join(directory, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    return paths

