"""Set-up probe: import the CLI, build each given map file once, report.

    python3 perfbench/setup_probe.py MAP.json [MAP.json ...]

Prints `ready BEFORE AFTER SAMPLING`: the speed-sample times taken before
the import and after the last build, and the seconds those samples took.
run.py times this process from its start to that line, less SAMPLING:
one raw `setup_s` sample, which it rescales by this process's own speed.
"""

import json
import os
import sys
import time

import speedref

t0 = time.perf_counter()
before = speedref.speed()
t1 = time.perf_counter()

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
from intervaldyn import cli  # noqa: E402,F401  (the import is the set-up)
from intervaldyn.mapcore import build_map, mapspec_from_dict  # noqa: E402

for path in sys.argv[1:]:
    with open(path) as fh:
        build_map(mapspec_from_dict(json.load(fh)))

t2 = time.perf_counter()
after = speedref.speed()
sys.stdout.write("ready %r %r %r\n" % (before, after,
                                       (t1 - t0) + (time.perf_counter() - t2)))
sys.stdout.flush()
