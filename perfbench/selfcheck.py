"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout (about two minutes).  It confirms that:

1. a job forced to miss its invariant is counted as failed, lowering
   `ok_frac` and clearing `correct`;
2. every workload, traced and untraced, emits exactly the metrics that
   BENCHMARK.json names, each with its unit, and passes its own checks;
3. traced and untraced runs of one seed write byte-identical artifacts;
4. without the program's sources the benchmark exits nonzero and prints
   no result.

Exits 0 when all hold, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")


def check(ok, what, problems):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        problems.append(what)


def forced_miss(problems):
    """Run the doubling return map with an invariant it cannot meet (27
    branches instead of 26) next to the touch jobs, for one round."""
    sys.path.insert(0, run.SRC)
    maps, jobs = workloads.cylinders(0)
    bad = [j for j in jobs if j.name == "return_map_doubling"][0]
    bad.check = workloads.return_map_ok(branches=27)
    touch_maps, touch_jobs = workloads.touch()
    args = argparse.Namespace(workload="selfcheck", seed=0, seconds=0,
                              trace=0)
    result = run.measure(args, dict(maps, **touch_maps), [bad] + touch_jobs)
    attempted = result["attempted"]
    ok_frac = result["metrics"]["ok_frac"]["value"]
    check(result["failed"] == 1 and not result["correct"]
          and ok_frac == 1.0 - 1.0 / attempted,
          "forced invariant miss counted: failed=%d of %d, ok_frac=%r"
          % (result["failed"], attempted, ok_frac), problems)


def invoke(cwd, workload, seed, trace, seconds=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def emitted_metrics(problems):
    with open(BENCH) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            rc, lines, err = invoke(run.ROOT, w["name"], 0, trace)
            if rc != 0 or not lines:
                check(False, "%s trace %d exited %d: %s"
                      % (w["name"], trace, rc, err.strip()[-300:]), problems)
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace %d: %d metrics with units as declared, "
                  "correct=%r" % (w["name"], trace, len(got),
                                  result["correct"]), problems)


def artifacts_agree(problems):
    for w in workloads.WORKLOADS:
        docs = []
        for trace in (0, 1):
            path = os.path.join(run.WORK, "%s-seed0-trace%d.digests.json"
                                % (w, trace))
            with open(path) as fh:
                jobs = json.load(fh)["jobs"]
            docs.append({k: v["artifacts"] for k, v in jobs.items()})
        check(docs[0] == docs[1],
              "%s: traced and untraced artifacts identical" % w, problems)


def no_program(problems):
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH, bare)
    try:
        rc, lines, _err = invoke(bare, "cylinders", 0, 0, seconds=1)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and not any(line.startswith("{") for line in lines),
          "without src/ the benchmark exits %d and prints no result" % rc,
          problems)


def main():
    problems = []
    check(workloads.least_period_count(11) == 4012,
          "least-period count of logistic a=4 to period 11 is 4012",
          problems)
    forced_miss(problems)
    emitted_metrics(problems)
    artifacts_agree(problems)
    no_program(problems)
    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
