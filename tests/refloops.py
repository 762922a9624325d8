"""Reference orbit loops: the per-step Python loops that the compiled
`compose`, `compose_deriv` and `induce` ladder shapes replaced, kept
verbatim so the tests can check the shapes against them bit for bit.

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
    """`induction._safe_eval`: f^t(x) with one inward-nudge retry if an
    iterate lands exactly on an exceptional point or outside the ambient
    interval."""
    try:
        y = m.compose(x, t)
    except IntervalDynError:
        y = None
    if y is None:
        x += span * 1e-9
        y = m.compose(x, t)
        if y is None:
            ys = m.walk(x, t)
            raise ExceptionalPointError(ys[-1] if ys else x)
    return y


def pull(m, u_lo, u_hi, t, y_at_lo, y_at_hi, target):
    """`induction._pull`: monotone bisection through `safe_eval`."""
    increasing = y_at_lo <= y_at_hi
    a, b = u_lo, u_hi
    if abs(y_at_lo - target) <= abs(y_at_hi - target):
        best_x, best_y = u_lo, y_at_lo
    else:
        best_x, best_y = u_hi, y_at_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= min(a, b) or mid >= max(a, b):
            break
        try:
            y = safe_eval(m, mid, t, b - a)
        except IntervalDynError:
            break
        if abs(y - target) < abs(best_y - target):
            best_x, best_y = mid, y
        if abs(y - target) <= induction._IMG_TOL:
            return mid, y
        if (y < target) == increasing:
            a = mid
        else:
            b = mid
    return best_x, best_y


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


def flank_stats(ind, flank):
    """`induction._flank_stats`: one `branch_at` and one `_induced_step`
    per induced step of each probe."""
    lo, hi = flank
    w = hi - lo
    returned = []
    unreturned = 0
    aborted = 0
    max_steps = 0
    for k in range(induction._FLANK_PROBES):
        x = lo + w * (k + 0.5) / induction._FLANK_PROBES
        logsum = 0.0
        fsteps = 0
        while True:
            br = ind.branch_at(x)
            if br is None:
                aborted += 1
                break
            fsteps += br.time
            if fsteps > induction._FLANK_CAP:
                unreturned += 1
                break
            step = induction._induced_step(ind.map, x, br.time)
            if step is None:
                aborted += 1
                break
            x, logd = step
            logsum += logd
            if lo < x < hi:
                returned.append(math.exp(logsum))
                max_steps = max(max_steps, fsteps)
                break
    min_deriv = min(returned) if returned else math.inf
    return {
        "returned": len(returned),
        "unreturned": unreturned,
        "aborted": aborted,
        "min_deriv": min_deriv,
        "max_fsteps": max_steps,
    }


def f2_gap(ind, x):
    """The `f2_gap` of `induction.expansion_analysis`: F(F(x)) - x, or
    None where F is undefined on the way."""
    y = x
    for _ in range(2):
        br = ind.branch_at(y)
        s = None if br is None else induction._induced_step(
            ind.map, y, br.time)
        if s is None:
            return None
        y = s[0]
    return y - x


def induced_walk(ind, x, k, lo, hi, cap=math.inf):
    """`InducedMap.induce`: the probe loop of `flank_stats`, stopped after
    k induced steps, returning (state, x, log sum, f-steps) at the stop."""
    logsum = 0.0
    fsteps = 0
    for _ in range(k):
        br = ind.branch_at(x)
        if br is None:
            return "aborted", x, logsum, fsteps
        fsteps += br.time
        if fsteps > cap:
            return "unreturned", x, logsum, fsteps
        step = induction._induced_step(ind.map, x, br.time)
        if step is None:
            return "aborted", x, logsum, fsteps
        x, logd = step
        logsum += logd
        if lo < x < hi:
            return "returned", x, logsum, fsteps
    return "done", x, logsum, fsteps


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
    monkeypatch.setattr(induction, "_pull", counted("pull", pull))
    monkeypatch.setattr(induction, "_induced_step",
                        counted("induced_step", induced_step))
    monkeypatch.setattr(induction.InducedMap, "eval",
                        counted("induced_eval", induced_eval))
    monkeypatch.setattr(induction.InducedMap, "induce",
                        counted("induce", induced_walk))
    refine = counted("refine_partition", refine_partition)
    monkeypatch.setattr(induction, "refine_partition", refine)
    monkeypatch.setattr(cli, "refine_partition", refine)
    return calls
