"""Outside-in benchmark of the intervaldyn command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in this one process as
a closed loop with a single client: rounds of sequential, in-process
`intervaldyn.cli.main` calls, each on map files and arguments generated
from the seed, until the next round would end after S seconds (at least
one round).  Every job's artifacts are checked against its invariant and
hashed; each round must reproduce the first round's hashes byte for byte.

With --trace 0 the end-to-end metrics are reported (see BENCHMARK.json and
perfbench/README.md); their times are rescaled to a nominal machine speed
by the speed probe in speedref.py.
With --trace 1 rounds alternate untraced and traced, and the per-layer
metrics of the traced rounds are reported together with the tracing
overhead.  The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads
from spans import Tracer
from speedref import NOMINAL_SAMPLE_S, speed_sample

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_PROBES = 9
MICRO_STEPS = 100_000
MICRO_REPEATS = 5

_now = time.perf_counter


class SpeedSampler:
    """Tracks this machine's speed while a job runs.

    Every TICK seconds a timer signal interrupts the job to take a speed
    sample.  `norm` is the sum, over the slices between samples, of slice
    length divided by the sample time that began the slice, so a slice run
    at half speed counts half; `overhead` is the time spent sampling."""

    TICK = 0.025

    def _tick(self, signum, frame):
        t0, t1 = speed_sample()
        self.norm += (t0 - self.last) / self.sample
        self.overhead += t1 - t0
        self.sample, self.last = t1 - t0, t1

    def __enter__(self):
        self.norm = self.overhead = 0.0
        t0, self.last = speed_sample()
        self.sample = self.last - t0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.norm += (_now() - self.last) / self.sample
        return False


def setup_probe(map_paths):
    """One start-to-ready time of setup_probe.py in a fresh process, less
    the probe's own speed sampling: (raw seconds, seconds rescaled to the
    nominal speed by the probe's speed samples)."""
    t0 = _now()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py")] + map_paths,
        stdout=subprocess.PIPE, cwd=ROOT, text=True)
    line = proc.stdout.readline().split()
    elapsed = _now() - t0
    proc.stdout.close()
    if proc.wait() != 0 or len(line) != 4 or line[0] != "ready":
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    before, after, sampling = map(float, line[1:])
    raw = elapsed - sampling
    return raw, raw * NOMINAL_SAMPLE_S / (0.5 * (before + after))


def digest_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@dataclass
class JobResult:
    name: str
    seconds: float        # wall time of the cli.main call, less sampling
    failure: object       # None, or why the job failed
    artifacts: dict       # file name -> sha256
    counters: dict        # traced rounds: counter deltas of this job
    norm: float = None    # untraced rounds: time in speed samples


def run_job(cli, job, map_path, outroot, tracer, sampler=None):
    """One CLI call; returns a JobResult whose `failure` is None when the
    call exited 0 and its artifacts meet the job's invariant."""
    outdir = os.path.join(outroot, job.name)
    shutil.rmtree(outdir, ignore_errors=True)
    before = dict(tracer.counts) if tracer else None
    failure = None
    with sampler or contextlib.nullcontext():
        t0 = _now()
        try:
            rc = cli.main(job.argv(map_path, outdir))
        except Exception as e:  # a crash is a failed job, not a failed run
            rc = None
            failure = "raised %s: %s" % (type(e).__name__, e)
        seconds = _now() - t0
    counters = None
    if tracer:
        counters = {k: v - before[k] for k, v in tracer.counts.items()}
    artifacts = {}
    if failure is None and rc != 0:
        failure = "exit code %r" % rc
    if failure is None:
        try:
            failure = job.check(outdir)
            artifacts = digest_dir(outdir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            failure = "unreadable output: %s: %s" % (type(e).__name__, e)
    return JobResult(job.name, seconds, failure, artifacts, counters)


def run_round(cli, jobs, map_paths, outroot, tracer=None):
    """Run every job once, traced or with a SpeedSampler; sampling time is
    taken out of each job's seconds."""
    if tracer:
        tracer.reset()
        tracer.install()
        try:
            return [run_job(cli, job, map_paths[job.map_name], outroot,
                            tracer) for job in jobs]
        finally:
            tracer.uninstall()
    results = []
    sampler = SpeedSampler()
    for job in jobs:
        res = run_job(cli, job, map_paths[job.map_name], outroot, None,
                      sampler)
        res.seconds -= sampler.overhead
        res.norm = sampler.norm
        results.append(res)
    return results


def compare_rounds(first, later):
    """Mark a job failed if its artifacts or counters differ from round 1."""
    for ref, res in zip(first, later):
        if res.failure is None and ref.failure is None and (
                res.artifacts != ref.artifacts
                or (res.counters is not None and ref.counters is not None
                    and res.counters != ref.counters)):
            res.failure = "output differs from the first round"


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer):
    """Per-layer metrics of one traced round, by name: (value, unit)."""
    st, c = tracer.self_time, tracer.counts

    def s(name):
        return st.get(name, 0.0)

    out = {"cli.self.s": (sum(v for k, v in st.items()
                              if k.startswith("cli.")), "s")}
    for cmd in ("analyze", "classify", "return-map", "mane", "plot"):
        out["cli.%s.s" % cmd] = (s("cli." + cmd), "s")
    for span in ("expr.compile_fn", "mapcore.build_map",
                 "mapcore.validate_nonflat", "orbits.basin_sample",
                 "orbits.find_periodic_points", "orbits.omega_cover",
                 "classify.classify_attractors", "classify.match_omega",
                 "classify.recurrence_check", "induction.first_return",
                 "induction.refine_partition", "induction.measure_distortion",
                 "induction.induced_eval", "induction.expansion_analysis",
                 "mane.mane_certificate", "mane.harvest_segments",
                 "serialize.write_json", "svgplot"):
        out[span + ".s"] = (s(span), "s")
    for name in ("expr.compile_fn.calls", "mapcore.build_map.calls",
                 "mapcore.eval.calls", "mapcore.branch_at.calls",
                 "orbits.terminated_samples", "orbits.periodic_points",
                 "orbits.omega_cover.calls", "classify.match_omega.calls",
                 "classify.recurrence_check.calls", "classify.reports",
                 "induction.branches", "induction.flags", "induction.cells",
                 "induction.induced_eval.calls", "mane.segments",
                 "mapcore.deriv_product.steps", "orbits.basin_sample.steps"):
        out[name] = (c[name], "count")
    out["serialize.bytes"] = (c["serialize.bytes"], "bytes")
    out["svgplot.bytes"] = (c["svgplot.bytes"], "bytes")
    out["induction.coverage_loss"] = (c["induction.coverage_loss"], "ratio")
    out["classify.unresolved_frac"] = (
        c["classify.unresolved_reports"] / max(1, c["classify.reports"]),
        "ratio")
    out["mane.long_segment_frac"] = (
        c["mane.long_segments"] / max(1, c["mane.segments"]), "ratio")
    return out


def micro_metrics(seed):
    """Microbenchmarks on seeded logistic a=4 orbits, tracing off: median ns
    per step over MICRO_REPEATS starts; a start whose orbit hits the break
    point is replaced by the next one."""
    from intervaldyn import expr
    from intervaldyn.errors import IntervalDynError
    from intervaldyn.mapcore import build_map, mapspec_from_dict

    m = build_map(mapspec_from_dict(workloads.logistic(4.0)))
    f = expr.compile_fn(expr.parse("4.0*x*(1-x)"))

    def closure_n(x, n):
        for _ in range(n):
            x = f(x)

    def eval_n(x, n):
        step = m.eval
        for _ in range(n):
            x = step(x)

    def ns_per_step(step_n):
        rng = random.Random(seed)
        times = []
        while len(times) < MICRO_REPEATS:
            x0 = rng.uniform(0.01, 0.99)
            t0 = _now()
            try:
                step_n(x0, MICRO_STEPS)
            except IntervalDynError:
                continue
            times.append(_now() - t0)
        return statistics.median(times) / MICRO_STEPS * 1e9

    return {"expr.closure_ns": (ns_per_step(closure_n), "ns"),
            "mapcore.eval_ns": (ns_per_step(eval_n), "ns"),
            "mapcore.deriv_product_ns": (ns_per_step(m.deriv_product), "ns")}


# ---------------------------------------------------------------------------
# running a workload


def measure(args, maps, jobs):
    """Set up, run rounds of `jobs` for args.seconds, check and summarise.
    Returns the result object that main() prints."""
    from intervaldyn import cli

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    rundir = os.path.join(WORK, "%s-%d" % (tag, os.getpid()))
    try:
        map_paths = workloads.write_maps(maps, os.path.join(rundir, "maps"))
        probe_maps = sorted(map_paths.values())
        outroot = os.path.join(rundir, "out")
        tracer = Tracer() if args.trace else None

        # Set-up probes are spread over the run, two before each round and
        # the rest at the end, so that they see the same machine-speed
        # phases as the rounds do.
        rounds, traced, walls, layers, setups = [], [], [], [], []
        start = _now()
        while True:
            if not tracer:
                setups += [setup_probe(probe_maps) for _ in range(
                    min(2, SETUP_PROBES - len(setups)))]
            res = run_round(cli, jobs, map_paths, outroot)
            walls.append(sum(r.seconds for r in res))
            rounds.append(res)
            if tracer:
                res = run_round(cli, jobs, map_paths, outroot, tracer)
                traced.append(res)
                tracer.keep_spans = False
                layers.append(layer_metrics(tracer))
            elapsed = _now() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        if not tracer:
            setups += [setup_probe(probe_maps)
                       for _ in range(SETUP_PROBES - len(setups))]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    every = rounds + traced
    for later in every[1:]:
        compare_rounds(every[0], later)
    for later in traced[1:]:
        compare_rounds(traced[0], later)
    attempted = sum(len(r) for r in every)
    failures = [(i, r.name, r.failure) for i, res in enumerate(every)
                for r in res if r.failure is not None]
    for i, name, why in failures:
        print("round %d job %s failed: %s" % (i + 1, name, why),
              file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "jobs": {r.name: {"artifacts": r.artifacts} for r in every[0]}}
    if tracer:
        for r in traced[0]:
            record["jobs"][r.name]["counters"] = r.counters
    blob = json.dumps(record, sort_keys=True, indent=1)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, tag + ".digests.json"), "w") as fh:
        fh.write(blob + "\n")
    print("digest %s %s" % (tag, hashlib.sha256(blob.encode()).hexdigest()))

    if tracer:
        with open(os.path.join(WORK, tag + ".spans.json"), "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
        metrics = {}
        for name, (_v, unit) in layers[0].items():
            vals = [layer[name][0] for layer in layers]
            metrics[name] = (statistics.median(vals), unit)
        metrics.update(micro_metrics(args.seed))
        traced_walls = [sum(r.seconds for r in res) for res in traced]
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0,
            "ratio")
    else:
        norm = statistics.median(sum(r.norm for r in res) for res in rounds)
        print("info rounds=%d raw_wall_s=%.4f raw_setup_s=%.4f"
              % (len(rounds), statistics.median(walls),
                 statistics.median(raw for raw, _ in setups)))
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "wall_s": (norm * NOMINAL_SAMPLE_S, "s"),
            "wall_norm": (norm, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - len(failures) / attempted, "ratio"),
        }
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run(args):
    maps, jobs = workloads.build(args.workload, args.seed)
    return measure(args, maps, jobs)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "intervaldyn", "cli.py")):
        print("error: %s/intervaldyn not found; run from the root of an "
              "intervaldyn checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
