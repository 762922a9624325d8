"""CLI, canonical-JSON, and SVG plumbing tests."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import mapdefs
import intervaldyn
import refloops
from intervaldyn import cli, induction, serialize, svgplot
from intervaldyn.cli import main
from intervaldyn.errors import ConfigError
from intervaldyn.mapcore import BranchSpec, MapSpec, mapspec_to_dict


def _map_file(tmp_path, spec, name):
    p = tmp_path / name
    p.write_text(json.dumps(mapspec_to_dict(spec)))
    return str(p)


def _assert_clean_svg(path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    for el in root.iter():
        assert not el.tag.endswith("script")
        for attr in el.attrib:
            assert "href" not in attr.lower()
    return root


# ---------------------------------------------------------------------------
# canonical JSON


def test_serialize_canonical_form():
    s = serialize.dumps({"b": 1, "a": [1.5, True, None, "x"]})
    assert s == '{"a": [1.5, true, null, "x"], "b": 1}'
    assert serialize.dumps(0.1) == "0.10000000000000001"
    assert serialize.dumps(math.inf) == '"inf"'
    assert serialize.dumps(-math.inf) == '"-inf"'
    assert serialize.dumps(math.nan) == '"nan"'
    assert serialize.dumps((1, 2)) == "[1, 2]"
    with pytest.raises(ConfigError):
        serialize.dumps({1: "x"})
    with pytest.raises(ConfigError):
        serialize.dumps(object())


def test_serialize_round_trips_through_stdlib():
    doc = {"v": [0.1, 2.0, 37], "flag": False, "name": "run"}
    assert json.loads(serialize.dumps(doc)) == {
        "v": [0.1, 2.0, 37], "flag": False, "name": "run"}


# ---------------------------------------------------------------------------
# analyze


def test_analyze_report(tmp_path):
    mp = _map_file(tmp_path, mapdefs.tent_spec(), "tent.json")
    assert main(["analyze", "--map", mp, "--out", str(tmp_path / "a")]) == 0
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep["validation"]["ok"] is True
    assert rep["exceptional"] == [0.5]
    assert [lv["value"] for lv in rep["lateral_values"]] == [1.0, 1.0]
    periodic = {round(p["point"], 6): p["period"]
                for p in rep["periodic_points"]}
    assert periodic[0.0] == 1
    assert periodic[0.666667] == 1


def test_analyze_jump_map(tmp_path):
    mp = _map_file(tmp_path, mapdefs.jump_contraction_spec(), "jump.json")
    assert main(["analyze", "--map", mp, "--out", str(tmp_path / "a")]) == 0
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep["validation"]["ok"] is True
    assert [lv["value"] for lv in rep["lateral_values"]] == [0.6, 0.6]


# ---------------------------------------------------------------------------
# classify


def test_classify_outputs(tmp_path):
    mp = _map_file(tmp_path, mapdefs.logistic_spec(3.2), "l32.json")
    out = tmp_path / "c"
    assert main(["classify", "--map", mp, "--samples", "150", "--seed", "7",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert [r["kind"] for r in rep["reports"]] == ["periodic_like"]
    assert rep["reports"][0]["periodic"]["period"] == 2
    assert rep["unclassified_fraction"] == 0.0
    _assert_clean_svg(out / "cover.svg")


def test_classify_reports_byte_identical(tmp_path):
    mp = _map_file(tmp_path, mapdefs.logistic_spec(3.2), "l32.json")
    args = ["classify", "--map", mp, "--samples", "150", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert b1 == b2


def test_classify_outputs_stay_small_on_a_chaotic_map(tmp_path):
    # one report per attractor: a report per sample wrote megabytes here
    mp = _map_file(tmp_path, mapdefs.logistic_spec(3.82), "l382.json")
    out = tmp_path / "c"
    assert main(["classify", "--map", mp, "--out", str(out)]) == 0
    for name in ("report.json", "cover.svg"):
        assert (out / name).stat().st_size < 64 * 1024, name
    rep = json.loads((out / "report.json").read_text())
    assert [r["kind"] for r in rep["reports"]] == ["interval_cycle"]
    assert rep["reports"][0]["basin_fraction"] == 1.0
    assert rep["finiteness_check"] == "ok"
    assert rep["config"] == {"seed": 0, "burn_in": 2000, "length": 1000,
                             "resolution": 0.001}
    _assert_clean_svg(out / "cover.svg")


# ---------------------------------------------------------------------------
# return-map


def test_return_map_outputs(tmp_path):
    mp = _map_file(tmp_path, mapdefs.doubling_spec(), "doubling.json")
    out = tmp_path / "r"
    assert main(["return-map", "--map", mp, "--j", "0,0.5",
                 "--t-max", "10", "--refine", "2", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["branch_count"] == 10
    assert rep["coverage"] == 1.0 - 2.0 ** -10
    assert rep["measure_distortion"] == 1.0
    assert rep["expansion"]["mode"] == "uniformly_expanding"
    assert rep["expansion"]["valid"] is True
    assert rep["refined_cells"] > 10
    lines = (out / "branches.csv").read_text().strip().split("\n")
    assert lines[0] == "lo,hi,time,orientation,min_abs_df,max_abs_df"
    assert len(lines) == 11
    times = set()
    for ln in lines[1:]:
        lo, hi, t, orient, dmin, dmax = ln.split(",")
        times.add(int(t))
        # branch derivative 2^t, up to the log-space product round-off
        expect = 2.0 ** int(t)
        assert abs(float(dmin) - expect) < 1e-9 * expect
        assert dmin == dmax
        assert int(orient) == 1
    assert times == set(range(1, 11))
    _assert_clean_svg(out / "return_map.svg")


# ---------------------------------------------------------------------------
# mane


def test_mane_certificates(tmp_path):
    mp4 = _map_file(tmp_path, mapdefs.logistic_spec(4.0), "l4.json")
    out = tmp_path / "m4"
    assert main(["mane", "--map", mp4, "--avoid", "0.4,0.6",
                 "--nmax", "30", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["valid"] is True
    assert cert["lambda"] == 2.002584475272617
    assert cert["periodic_violations"] == []
    # an invalid certificate is still a successful run
    mp32 = _map_file(tmp_path, mapdefs.logistic_spec(3.2), "l32.json")
    out = tmp_path / "m32"
    assert main(["mane", "--map", mp32, "--avoid", "0.4,0.6",
                 "--nmax", "30", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["valid"] is False
    assert len(cert["periodic_violations"]) == 1


# ---------------------------------------------------------------------------
# plot


def test_plot_outputs(tmp_path):
    mp = _map_file(tmp_path, mapdefs.logistic_spec(4.0), "l4.json")
    out = tmp_path / "p"
    assert main(["plot", "--map", mp, "--x0", "0.137", "--n", "40",
                 "--out", str(out)]) == 0
    _assert_clean_svg(out / "cobweb.svg")
    lines = (out / "orbit.csv").read_text().strip().split("\n")
    assert lines[0] == "step,x"
    assert len(lines) == 42           # header + steps 0..40
    assert float(lines[1].split(",")[1]) == 0.137


def test_plot_truncates_on_exceptional_hit(tmp_path):
    mp = _map_file(tmp_path, mapdefs.tent_spec(), "tent.json")
    out = tmp_path / "p"
    assert main(["plot", "--map", mp, "--x0", "0.75", "--n", "40",
                 "--out", str(out)]) == 0
    lines = (out / "orbit.csv").read_text().strip().split("\n")
    # 0.75 -> 0.5 lands on the break: rows for steps 0 and 1 only
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# exit codes


def test_artifacts_byte_identical_with_reference_loops(tmp_path,
                                                       monkeypatch):
    # the compiled compose, induce and harvest shapes, the pull-back memo,
    # the SVG graphs and the orbit loops on `walk` change no output byte
    # against the per-step loops they replaced
    mp = _map_file(tmp_path, mapdefs.logistic_spec(4.0), "l4.json")
    neutral = _map_file(tmp_path, mapdefs.neutral_spec(), "neutral.json")
    feig = _map_file(tmp_path, mapdefs.logistic_spec(mapdefs.FEIGENBAUM_A),
                     "feig.json")
    runs = ((mp, ["return-map", "--j", "0.25,0.75", "--t-max", "12",
                  "--refine", "1"]),
            (mp, ["analyze", "--period-max", "6"]),
            (neutral, ["return-map", "--j", "0,1", "--t-max", "3"]),
            (mp, ["mane", "--avoid", "0.4,0.6", "--nmax", "30",
                  "--samples", "200"]),
            (mp, ["plot", "--x0", "0.137", "--n", "40"]),
            (feig, ["classify", "--samples", "100", "--burn-in", "200",
                    "--length", "600"]))

    def artifacts(tag):
        out = {}
        for i, (path, args) in enumerate(runs):
            d = tmp_path / ("%s%d" % (tag, i))
            assert main([args[0], "--map", path, "--out", str(d)]
                        + args[1:]) == 0
            for name in os.listdir(d):
                out[i, name] = (d / name).read_bytes()
        return out

    new = artifacts("new")
    with monkeypatch.context() as patch:
        calls = refloops.install(patch)
        ref = artifacts("ref")
    assert all(calls.values()), calls
    assert sorted(new) == sorted(ref)
    for key in new:
        assert new[key] == ref[key], key


def _overlapping(m, table):
    lo, hi = m.ambient
    return induction.InducedMap(
        (lo, hi), "first_return",
        [induction.InducedBranch(a, b, t, 1, lo, hi) for a, b, t in table],
        2, 1.0, [], m, (lo, hi))


def test_svg_graphs_byte_identical_with_reference():
    # return maps found by cylinder refinement, then hand-made induced maps
    # whose branches overlap (the first one's samples above the second
    # one's start go through `branch_at`, which picks the second), reach
    # past the ambient interval, hit the cut 0.5 of doubling and have
    # time 0
    l4 = mapdefs.logistic(4.0)
    dbl = mapdefs.doubling()
    inds = [induction.first_return(l4, (0.3, 0.45), 12),
            induction.first_return(dbl, (0.0, 0.5), 20)]
    for m in (l4, dbl, mapdefs.neutral()):
        inds += [_overlapping(m, [(0.0, 0.6, 1), (0.4, 1.0, 2)]),
                 _overlapping(m, [(0.1, 0.7, 3), (0.2, 0.3, 1),
                                  (0.25, 0.9, 0)]),
                 _overlapping(m, [(-0.5, 0.5, 1), (0.5, 1.5, 2)])]
    for ind in inds:
        assert (svgplot.return_map_graph(ind)
                == refloops.return_map_graph(ind))
    for m in (l4, dbl, mapdefs.tent(), mapdefs.neutral()):
        for orbit in ([0.137, 0.5, 1.0], [0.75, 0.5], [0.3]):
            assert (svgplot.cobweb(m, orbit, 9)
                    == refloops.cobweb(m, orbit, 9))


def test_parser_built_once_and_commands_looked_up_at_call_time(
        tmp_path, monkeypatch):
    mp = _map_file(tmp_path, mapdefs.tent_spec(), "tent.json")
    cli._build_parser.cache_clear()
    assert main(["analyze", "--map", mp, "--period-max", "2",
                 "--out", str(tmp_path / "a")]) == 0
    seen = []

    def patched(args):
        seen.append(args.period_max)
        return 0
    monkeypatch.setattr(cli, "cmd_analyze", patched)
    assert main(["analyze", "--map", mp, "--period-max", "3",
                 "--out", str(tmp_path / "b")]) == 0
    assert seen == [3]
    assert not (tmp_path / "b").exists()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_exit_code_config_errors(tmp_path):
    mp = _map_file(tmp_path, mapdefs.tent_spec(), "tent.json")
    assert main(["analyze", "--map", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--map", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["return-map", "--map", mp, "--j", "0.1,0.2,0.3",
                 "--out", str(tmp_path)]) == 2
    assert main(["return-map", "--map", mp, "--j", "0.1,abc",
                 "--out", str(tmp_path)]) == 2
    assert main(["classify", "--map", mp, "--samples", "50",
                 "--out", str(tmp_path)]) == 2
    # classify settings are checked before any sampling
    for flag, value in (("--resolution", "0"), ("--resolution", "-0.001"),
                        ("--resolution", "1e-7"), ("--resolution", "nan"),
                        ("--resolution", "inf"), ("--burn-in", "-5"),
                        ("--length", "0")):
        assert main(["classify", "--map", mp, flag, value,
                     "--out", str(tmp_path / "cls")]) == 2, (flag, value)
    assert not (tmp_path / "cls" / "report.json").exists()
    for value in ("0", "-3"):
        assert main(["analyze", "--map", mp, "--period-max", value,
                     "--out", str(tmp_path / "an")]) == 2, value
    assert not (tmp_path / "an" / "report.json").exists()
    assert main(["mane", "--map", mp, "--avoid", "0.6,0.7",
                 "--out", str(tmp_path)]) == 2
    assert main(["plot", "--map", mp, "--x0", "7", "--out", str(tmp_path)]) == 2
    # invalid branch definitions: a tiling gap, an expression syntax error,
    # a branch whose image leaves the ambient interval, and a first and a
    # second derivative that are singular at a validation grid point
    for name, branches in (
            ("gap.json", [((0.0, 0.4), "2*x"), ((0.5, 1.0), "2 - 2*x")]),
            ("syntax.json", [((0.0, 0.5), "2*x +"), ((0.5, 1.0), "2 - 2*x")]),
            ("image.json", [((0.0, 0.5), "3*x"), ((0.5, 1.0), "2 - 2*x")]),
            ("singular.json",
             [((0.0, 1.0), "0.25 + 0.5*abs(x - 0.501953125)")]),
            ("singular_d2.json",
             [((0.0, 1.0),
               "0.25 + 0.5*x + 0.1*spow(x - 0.501953125, 1.5)")])):
        spec = MapSpec(tuple(BranchSpec(d, e) for d, e in branches))
        assert main(["analyze", "--map", _map_file(tmp_path, spec, name),
                     "--out", str(tmp_path)]) == 2
    # lateral values at the cut 0.05 that round one ulp above the ambient
    # end 0.1 fail at load, not in the middle of the run
    e = "4*x*(0.1 - x)/0.1"
    spec = MapSpec((BranchSpec((0.0, 0.05), e), BranchSpec((0.05, 0.1), e)),
                   (0.0, 0.1))
    assert main(["analyze", "--map",
                 _map_file(tmp_path, spec, "overshoot.json"),
                 "--out", str(tmp_path)]) == 2
    # unknown command / missing required flag come back as 2, not a crash
    assert main(["frobnicate"]) == 2
    assert main(["analyze"]) == 2


def test_seed_only_where_it_is_read(tmp_path):
    # classify and mane sample seeded orbits; analyze, return-map and plot
    # are seed-free, so --seed is an unknown flag there
    mp = _map_file(tmp_path, mapdefs.doubling_spec(), "doubling.json")
    seed = ["--seed", "3", "--out", str(tmp_path / "s")]
    for args in (["analyze", "--period-max", "3"],
                 ["return-map", "--j", "0,0.5", "--t-max", "6"],
                 ["plot", "--x0", "0.3", "--n", "10"]):
        assert main([args[0], "--map", mp] + args[1:] + seed) == 2, args
    assert not (tmp_path / "s").exists()
    for args in (["classify", "--samples", "100", "--burn-in", "20",
                  "--length", "40"],
                 ["mane", "--avoid", "0.45,0.55", "--samples", "5",
                  "--nmax", "10", "--period-max", "2"]):
        assert main([args[0], "--map", mp] + args[1:] + seed) == 0, args
    rep = json.loads((tmp_path / "s" / "report.json").read_text())
    assert rep["config"]["seed"] == 3


def test_exit_code_computation_error(tmp_path):
    # 20 return branches refined to depth 8 overflows the cell budget
    mp = _map_file(tmp_path, mapdefs.doubling_spec(), "doubling.json")
    assert main(["return-map", "--map", mp, "--j", "0,0.5",
                 "--t-max", "20", "--refine", "8",
                 "--out", str(tmp_path)]) == 3


def test_exit_code_domain_error_mid_run(tmp_path, capsys):
    # the validation grid misses 0.3, so the map builds; its formula is
    # undefined there, and the orbit from 0.3 fails with exit 3
    spec = MapSpec((BranchSpec(
        (0.0, 1.0), "0.5 + 0.25*(x - 0.3) + 1e-6*log(abs(x - 0.3))"),))
    mp = _map_file(tmp_path, spec, "log.json")
    assert main(["analyze", "--map", mp, "--period-max", "1",
                 "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(["plot", "--map", mp, "--x0", "0.3", "--n", "5",
                 "--out", str(tmp_path / "p")]) == 3
    assert "computation failed: math domain error" in capsys.readouterr().err


def test_plot_exits_3_when_the_orbit_leaves_the_ambient_interval(
        tmp_path, capsys):
    # the map builds, as its grid misses the peak at the cut 5e-4, but the
    # doubles just below the cut map one ulp above the ambient end 1e-3;
    # the orbit is an error, not a table that ends outside the interval
    e = "0.001*4*(x/0.001)*(1-x/0.001)"
    spec = MapSpec((BranchSpec((0.0, 5e-4), e), BranchSpec((5e-4, 1e-3), e)),
                   (0.0, 1e-3))
    mp = _map_file(tmp_path, spec, "small.json")
    out = tmp_path / "p"
    assert main(["plot", "--map", mp, "--x0", "0.0004999999999999976",
                 "--n", "10", "--out", str(out)]) == 3
    assert ("computation failed: x=0.0010000000000000002 outside the "
            "ambient interval") in capsys.readouterr().err
    assert not (out / "orbit.csv").exists()


def test_every_error_type_derives_from_the_package_base():
    # one flat layer: the CLI maps IntervalDynError onto exit 3 and two of
    # its subclasses onto exit 2, and nothing catches a class in between
    from intervaldyn import errors
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert len(classes) > 10
    for c in classes:
        assert issubclass(c, errors.IntervalDynError), c
        if c is not errors.IntervalDynError:
            assert c.__bases__ == (errors.IntervalDynError,), c


def _perfbench_spans():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_perfbench_tracer_finds_every_traced_name(tmp_path):
    # the benchmark's tracer wraps functions by name: installing it fails
    # on a traced name that was removed, renamed or no longer imported, and
    # a traced count that the run bypasses reads 0 here
    from intervaldyn import classify
    original = classify.match_omega
    tracer = _perfbench_spans().Tracer()
    try:
        tracer.install()
        assert classify.match_omega is not original
        mp = _map_file(tmp_path, mapdefs.jump_contraction_spec(), "jump.json")
        assert main(["classify", "--map", mp, "--samples", "100",
                     "--burn-in", "20", "--length", "40",
                     "--out", str(tmp_path / "c")]) == 0
        lp = _map_file(tmp_path, mapdefs.logistic_spec(4.0), "l4.json")
        assert main(["analyze", "--map", lp, "--period-max", "3",
                     "--out", str(tmp_path / "a")]) == 0
    finally:
        tracer.uninstall()
    assert classify.match_omega is original
    assert tracer.counts["classify.reports"] == 1
    assert tracer.counts["classify.match_omega.calls"] == 1
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert len(report["periodic_points"]) == 10     # 2 + 2 + 6
    assert tracer.counts["orbits.periodic_points"] == 10


def test_module_entrypoint_runs(tmp_path):
    mp = _map_file(tmp_path, mapdefs.tent_spec(), "tent.json")
    # the child process imports the package this test imported
    pkg_root = os.path.dirname(os.path.dirname(intervaldyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "intervaldyn.cli", "analyze",
         "--map", mp, "--out", str(tmp_path / "a")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pkg_root))
    assert proc.returncode == 0
    assert (tmp_path / "a" / "report.json").exists()


def test_svg_escape_matches_saxutils():
    # the SVG writer's own escape replaces the saxutils one byte for byte;
    # saxutils is imported here only
    from xml.sax.saxutils import escape
    labels = ["a & b", "<g>", "x > y < z", "&amp; &lt;", "'q' \"qq\"",
              "Mañé λ ≥ 2 — ω(c) ⊂ [0, 1]", "", "&&<<>>", "plain"]
    for s in labels:
        assert svgplot.escape(s) == escape(s)
        assert svgplot._text(1.0, 2.0, s) == (
            '<text x="1.00" y="2.00" font-family="monospace" '
            'font-size="11" fill="#222">%s</text>' % escape(s))


def test_cli_import_loads_no_network_or_xml_stack():
    # a fresh interpreter: the modules `import intervaldyn.cli` adds to the
    # interpreter's own set (its `site` may already hold urllib.parse)
    pkg_root = os.path.dirname(os.path.dirname(intervaldyn.__file__))
    code = ("import sys; before = set(sys.modules); import intervaldyn.cli; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=pkg_root))
    added = proc.stdout.split()
    assert "intervaldyn.svgplot" in added
    banned = {"xml", "urllib", "http", "email", "ssl", "socket"}
    assert [n for n in added if n.split(".")[0] in banned] == []


def test_package_imports_only_stdlib():
    # the package promises to run on the standard library alone
    pkg_dir = os.path.dirname(intervaldyn.__file__)
    names = sorted(n for n in os.listdir(pkg_dir) if n.endswith(".py"))
    assert "mapcore.py" in names
    for name in names:
        with open(os.path.join(pkg_dir, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            for mod in mods:
                top = mod.split(".")[0]
                assert (top in sys.stdlib_module_names
                        or top == "intervaldyn"), (name, mod)
