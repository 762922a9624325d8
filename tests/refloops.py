"""Reference orbit loops: the per-step Python loops that the compiled
`compose` and `compose_deriv` ladder shapes replaced, kept verbatim so the
tests can check the shapes against them bit for bit.

`install(monkeypatch)` swaps every one of them back into the package and
returns a dict that counts the calls each reference receives.
"""

import math

from intervaldyn import cli, induction, mapcore
from intervaldyn.errors import (
    ConfigError,
    ExceptionalPointError,
    IntervalDynError,
    OrbitHitsExceptionalError,
    ZeroDerivativeError,
)


def deriv_product(m, x, n):
    """`PiecewiseMap.deriv_product`: (sum of log|Df|, sign product)."""
    log_abs = 0.0
    sign = 1
    for i in range(n):
        try:
            y, d = m.step(x)
        except ExceptionalPointError:
            raise OrbitHitsExceptionalError(i, x) from None
        if d == 0.0:
            raise ZeroDerivativeError(
                "derivative vanishes at x=%r" % (x,))
        log_abs += math.log(abs(d))
        if d < 0.0:
            sign = -sign
        x = y
    return log_abs, sign


def compose(m, x, n):
    """`orbits._compose`: f^n(x) for n >= 1, or None when the orbit reaches
    the exceptional set first."""
    ys = m.walk(x, n)
    return ys[-1] if len(ys) == n else None


def safe_eval(m, x, t, span):
    """`induction._safe_eval`: f^t(x) with one inward-nudge retry."""
    try:
        ys = m.walk(x, t)
    except IntervalDynError:
        ys = None
    if ys is None or len(ys) < t:
        x += span * 1e-9
        ys = m.walk(x, t)
        if len(ys) < t:
            raise ExceptionalPointError(ys[-1] if ys else x)
    return ys[-1] if t else x


def induced_step(m, x, time):
    """`induction._induced_step`: (f^time(x), log |Df^time(x)|) or None."""
    logd = 0.0
    try:
        for _ in range(time):
            x, d = m.step(x)
            if d == 0.0:
                return None
            logd += math.log(abs(d))
    except IntervalDynError:
        return None
    return x, logd


def induced_eval(ind, x):
    """`InducedMap.eval`: the branch's f^time, one `eval` per step."""
    b = ind.branch_at(x)
    if b is None:
        raise ConfigError("point %r lies in no discovered branch" % (x,))
    for _ in range(b.time):
        x = ind.map.eval(x)
    return x


def refine_partition(ind, n):
    """`induction.refine_partition` without the pull-back memo: two
    `_branch_pull` calls per overlapping (branch, cell) pair."""
    n = int(n)
    if not (0 <= n <= 8):
        raise ConfigError("n must be in [0, 8]")
    count = len(ind.branches)
    if count == 0:
        raise ConfigError("induced map has no branches")
    if count ** max(n, 1) > 1_000_000:
        raise induction.BranchExplosionError(
            "branch_count^n = %d^%d exceeds 1e6" % (count, n))
    level = [(br.lo, br.hi, (i,)) for i, br in enumerate(ind.branches)]
    for _ in range(n):
        nxt = []
        for i, br in enumerate(ind.branches):
            for (c_lo, c_hi, itin) in level:
                ov_lo = max(c_lo, br.img_lo)
                ov_hi = min(c_hi, br.img_hi)
                if ov_hi - ov_lo <= induction._SLIVER:
                    continue
                u0, _ = induction._branch_pull(ind, br, ov_lo)
                u1, _ = induction._branch_pull(ind, br, ov_hi)
                d_lo, d_hi = (u0, u1) if u0 <= u1 else (u1, u0)
                if d_hi - d_lo <= induction._SLIVER:
                    continue
                nxt.append((d_lo, d_hi, (i,) + itin))
        level = nxt
    cells = []
    for (c_lo, c_hi, itin) in sorted(level):
        w = c_hi - c_lo
        logs = []
        for q in (0.25, 0.5, 0.75):
            x = c_lo + w * q
            total = 0.0
            for k in range(n):
                s = induction._induced_step(
                    ind.map, x, ind.branches[itin[k]].time)
                if s is None:
                    break
                x, log_abs = s
                total += log_abs
            else:
                logs.append(total)
        distortion = math.exp(max(logs) - min(logs)) if len(logs) >= 2 else 1.0
        cells.append(induction.PartitionCell(c_lo, c_hi, itin, distortion))
    return cells


def install(monkeypatch):
    """Patch the reference loops in where the package looks them up."""
    calls = {}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    pm = mapcore.PiecewiseMap
    monkeypatch.setattr(pm, "deriv_product",
                        counted("deriv_product", deriv_product))
    monkeypatch.setattr(pm, "compose", counted("compose", compose))
    monkeypatch.setattr(induction, "_safe_eval",
                        counted("safe_eval", safe_eval))
    monkeypatch.setattr(induction, "_induced_step",
                        counted("induced_step", induced_step))
    monkeypatch.setattr(induction.InducedMap, "eval",
                        counted("induced_eval", induced_eval))
    refine = counted("refine_partition", refine_partition)
    monkeypatch.setattr(induction, "refine_partition", refine)
    monkeypatch.setattr(cli, "refine_partition", refine)
    return calls
