"""Spans and counters recorded around calls into intervaldyn, from outside.

`Tracer.install()` replaces each traced function with a wrapper under every
name it is looked up by at call time: its defining module, each module
that imported it by name, or its class.  `uninstall()` puts the originals
back.  No file of the program is edited.

A span's self time is its duration minus the durations of its direct
children, so `induction.induced_eval` spans opened by
`svgplot.return_map_graph` are not counted as SVG time.
"""

import os
import time

_now = time.perf_counter

# Counter names; every one is deterministic for a fixed job list.
COUNTERS = (
    "expr.compile_fn.calls", "mapcore.build_map.calls", "mapcore.eval.calls",
    "mapcore.branch_at.calls", "mapcore.deriv_product.steps",
    "orbits.basin_sample.steps", "orbits.terminated_samples",
    "orbits.periodic_points", "orbits.omega_cover.calls",
    "classify.match_omega.calls", "classify.recurrence_check.calls",
    "classify.reports", "classify.unresolved_reports",
    "induction.branches", "induction.coverage_loss", "induction.flags",
    "induction.cells", "induction.induced_eval.calls",
    "mane.segments", "mane.long_segments",
    "serialize.bytes", "svgplot.bytes",
)


class Tracer:
    def __init__(self):
        self.self_time = {}    # span name -> summed self time (s)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans = []        # (id, parent id, name, start, end)
        self.keep_spans = True
        self._stack = []       # open spans: [id, name, start, child time]
        self._next_id = 0
        self._patches = []

    def reset(self):
        """Zero the times and counters; spans already kept stay."""
        self.self_time = {}
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    def enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, _now(), 0.0])

    def exit(self):
        end = _now()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if self.keep_spans:
            self.spans.append((sid, parent, name, start, end))

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self.counts, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name, amount=None):
        counts = self.counts
        if amount is None:
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
        else:
            def wrapper(*args):
                counts[name] += amount(args)
                return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    def _basin_sample(self, fn):
        """Span plus the map steps taken inside it."""
        counts = self.counts
        span = self._span(fn, "orbits.basin_sample")

        def wrapper(*args, **kwargs):
            before = counts["mapcore.eval.calls"]
            records = span(*args, **kwargs)
            counts["orbits.basin_sample.steps"] += \
                counts["mapcore.eval.calls"] - before
            counts["orbits.terminated_samples"] += sum(
                1 for r in records if r.terminated_at is not None)
            return records
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owners, attr, make):
        original = getattr(owners[0], attr)
        wrapper = make(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError("%s.%s is not the function the tracer "
                                   "expects" % (owner.__name__, attr))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self):
        from intervaldyn import (classify, cli, expr, induction, mane,
                                 mapcore, orbits, serialize, svgplot)
        span, counter, patch = self._span, self._counter, self._patch

        def bump(name, amount=lambda args, result: 1):
            def after(counts, args, result):
                counts[name] += amount(args, result)
            return after

        def file_bytes(name, index):
            def after(counts, args, result):
                counts[name] += os.path.getsize(args[index])
            return after

        patch([cli], "main", lambda f: span(f, "cli.main"))
        for cmd, attr in (("analyze", "cmd_analyze"),
                          ("classify", "cmd_classify"),
                          ("return-map", "cmd_return_map"),
                          ("mane", "cmd_mane"), ("plot", "cmd_plot")):
            patch([cli], attr, lambda f, n="cli." + cmd: span(f, n))

        patch([expr], "compile_fn", lambda f: span(
            f, "expr.compile_fn", bump("expr.compile_fn.calls")))
        patch([mapcore, cli], "build_map", lambda f: span(
            f, "mapcore.build_map", bump("mapcore.build_map.calls")))
        patch([mapcore, cli], "validate_nonflat",
              lambda f: span(f, "mapcore.validate_nonflat"))
        pm = mapcore.PiecewiseMap
        patch([pm], "eval", lambda f: counter(f, "mapcore.eval.calls"))
        patch([pm], "branch_at",
              lambda f: counter(f, "mapcore.branch_at.calls"))
        patch([pm], "deriv_product", lambda f: counter(
            f, "mapcore.deriv_product.steps", lambda args: args[2]))

        patch([orbits, classify], "basin_sample", self._basin_sample)
        patch([orbits, cli, mane], "find_periodic_points", lambda f: span(
            f, "orbits.find_periodic_points",
            bump("orbits.periodic_points", lambda a, r: len(r))))
        patch([orbits, classify], "omega_cover", lambda f: span(
            f, "orbits.omega_cover", bump("orbits.omega_cover.calls")))

        def reports(counts, args, result):
            counts["classify.reports"] += len(result.reports)
            counts["classify.unresolved_reports"] += sum(
                1 for r in result.reports if r.kind == "unresolved")
        patch([classify, cli], "classify_attractors", lambda f: span(
            f, "classify.classify_attractors", reports))
        patch([classify], "match_omega", lambda f: span(
            f, "classify.match_omega", bump("classify.match_omega.calls")))
        patch([classify], "recurrence_check", lambda f: span(
            f, "classify.recurrence_check",
            bump("classify.recurrence_check.calls")))

        def induced(counts, args, result):
            counts["induction.branches"] += len(result.branches)
            counts["induction.coverage_loss"] += 1.0 - result.coverage
            counts["induction.flags"] += len(result.flags)
        patch([induction, cli], "first_return",
              lambda f: span(f, "induction.first_return", induced))
        patch([induction, cli], "refine_partition", lambda f: span(
            f, "induction.refine_partition",
            bump("induction.cells", lambda a, r: len(r))))
        patch([induction, cli], "measure_distortion",
              lambda f: span(f, "induction.measure_distortion"))
        patch([induction, cli], "expansion_analysis",
              lambda f: span(f, "induction.expansion_analysis"))
        for attr in ("eval", "deriv_abs"):
            patch([induction.InducedMap], attr, lambda f: span(
                f, "induction.induced_eval",
                bump("induction.induced_eval.calls")))

        def harvested(counts, args, result):
            n_max = args[3]
            counts["mane.segments"] += len(result)
            counts["mane.long_segments"] += sum(
                1 for _x, n, _lg in result if n >= n_max / 2)
        patch([mane, cli], "mane_certificate",
              lambda f: span(f, "mane.mane_certificate"))
        patch([mane], "harvest_segments",
              lambda f: span(f, "mane.harvest_segments", harvested))

        patch([serialize], "write_json", lambda f: span(
            f, "serialize.write_json", file_bytes("serialize.bytes", 0)))
        for attr in ("cover_strips", "cobweb", "return_map_graph"):
            patch([svgplot], attr, lambda f: span(
                f, "svgplot", file_bytes("svgplot.bytes", -1)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
