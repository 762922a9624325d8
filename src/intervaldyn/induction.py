"""Nice intervals, first-entry/first-return induced Markov maps, and
distortion/expansion certificates.

Branch discovery is cylinder refinement: track maximal intervals on which
some iterate is monotone, split them at preimages of the exceptional set,
and peel off the portions whose image overlaps the target interval.  The
search is horizon-truncated and cylinders thinner than _MIN_WIDTH are
pruned, so coverage < 1 is reported honestly instead of claiming
completeness.  Every pull-back, here and in `refine_partition` and the
neutral core, goes through `_dom_point`.

All certificates produced here are floating-point evidence (probe-based),
not computer-assisted proofs; there is no interval arithmetic or directed
rounding.
"""

import bisect
import math
from dataclasses import dataclass, field

from .errors import (
    BranchExplosionError,
    ConfigError,
    ExceptionalPointError,
    IntervalDynError,
    NeutralCoreNotBracketableError,
    NotDiffeomorphicError,
    NotNiceError,
)
from .mapcore import LateralPoint
from .orbits import _grid_roots, _iterates

MAX_CYLINDERS = 10_000_000

# Active cylinders thinner than this are pruned (their mass is simply never
# reported as covered).  Discovered branches narrower than _SLIVER are
# dropped as numerical noise.
_MIN_WIDTH = 1e-8
_SLIVER = 1e-13
_IMG_TOL = 1e-12

_MAX_FLAGS = 200


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class InducedBranch:
    """One monotone branch of an induced map: f^time maps (lo, hi) onto
    (img_lo, img_hi) with the given orientation.  Cylinder refinement
    holds its cylinders in the same record."""

    lo: float
    hi: float
    time: int
    orientation: int
    img_lo: float
    img_hi: float


@dataclass
class InducedMap:
    base: tuple          # target interval J
    kind: str            # "first_entry" | "first_return"
    branches: list       # InducedBranch, sorted by domain
    truncation: int      # horizon used
    coverage: float      # fraction of the search domain in branches
    flags: list          # human-readable Markov/probe violations
    map: object          # the underlying PiecewiseMap
    source: tuple        # search domain: T for entry, J for return
    _los: list = field(init=False, repr=False, default=None)
    _his: list = field(init=False, repr=False, default=None)
    _times: list = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self._los = [b.lo for b in self.branches]
        # clipped to the next branch's lo, so that `PiecewiseMap.induce`
        # keeps a branch exactly where `branch_at` would find it again
        self._his = [min(b.hi, nxt) for b, nxt in
                     zip(self.branches, self._los[1:] + [math.inf])]
        self._times = [b.time for b in self.branches]

    def branch_at(self, x):
        i = bisect.bisect_right(self._los, x) - 1
        if 0 <= i < len(self.branches):
            b = self.branches[i]
            if b.lo < x < b.hi:
                return b
        return None

    def induce(self, x, k, lo, hi, cap=math.inf):
        """`PiecewiseMap.induce` on this map's branches: up to k induced
        steps from x, stopping on a return into (lo, hi) or past cap
        f-steps."""
        return self.map.induce(x, k, lo, hi, cap, self._los, self._his,
                               self._times)

    def eval(self, x):
        b = self.branch_at(x)
        if b is None:
            raise ConfigError("point %r lies in no discovered branch" % (x,))
        y = self.map.compose(x, b.time)
        if y is None:
            ys = self.map.walk(x, b.time)
            raise ExceptionalPointError(ys[-1] if ys else x)
        return y

    def deriv_abs(self, x):
        b = self.branch_at(x)
        if b is None:
            raise ConfigError("point %r lies in no discovered branch" % (x,))
        if b.time == 0:
            return 1.0
        log_abs, _ = self.map.deriv_product(x, b.time)
        return _exp(log_abs)


@dataclass
class ExpansionReport:
    epsilon: float
    K: float
    mode: str            # "uniformly_expanding" | "neutral_core"
    min_expansion: float
    distortion_Gamma: float
    applicable: bool     # epsilon < (6K)^-1 held
    valid: bool
    details: dict

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "K": self.K,
            "mode": self.mode,
            "min_expansion": self.min_expansion,
            "distortion_Gamma": self.distortion_Gamma,
            "applicable": self.applicable,
            "valid": self.valid,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class PartitionCell:
    lo: float
    hi: float
    itinerary: tuple
    distortion: float


# ---------------------------------------------------------------------------
# shared numerics


def _exp(lg):
    """exp of a log-derivative (or of a difference of two): inf where it
    overflows the float range, exp itself everywhere else."""
    try:
        return math.exp(lg)
    except OverflowError:
        return math.inf


def _pull(m, u_lo, u_hi, t, y_at_lo, y_at_hi, target):
    """Find u in [u_lo, u_hi] with f^t(u) = target by monotone bisection.
    Returns (u, achieved image value); the achieved value is the honest
    measurement used for the Markov check.  A midpoint whose orbit lands
    exactly on an exceptional point or outside the ambient interval is
    retried once, nudged inward by 1e-9 of the bracket; a second failure
    ends the search."""
    compose = m.compose
    increasing = y_at_lo <= y_at_hi
    a, b = u_lo, u_hi
    if abs(y_at_lo - target) <= abs(y_at_hi - target):
        best_x, best_y = u_lo, y_at_lo
    else:
        best_x, best_y = u_hi, y_at_hi
    best_d = abs(best_y - target)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not (a < mid < b or b < mid < a):
            break
        try:
            y = compose(mid, t)
        except IntervalDynError:
            y = None
        if y is None:
            try:
                y = compose(mid + (b - a) * 1e-9, t)
            except IntervalDynError:
                break
            if y is None:
                break
        d = abs(y - target)
        if d < best_d:
            best_x, best_y, best_d = mid, y, d
        if d <= _IMG_TOL:
            return mid, y
        if (y < target) == increasing:
            a = mid
        else:
            b = mid
    return best_x, best_y


# ---------------------------------------------------------------------------
# cylinder refinement


def _dom_point(m, cyl, img_value):
    """Domain point of a cylinder (or branch) mapping to img_value, plus the
    f^time value actually achieved there: an end of the cylinder at an
    exact image end, a `_pull` bisection elsewhere."""
    # f^time maps the cylinder's ends lo and hi to a and b
    a, b = cyl.img_lo, cyl.img_hi
    if cyl.orientation < 0:
        a, b = b, a
    if img_value == a:
        return cyl.lo, a
    if img_value == b:
        return cyl.hi, b
    return _pull(m, cyl.lo, cyl.hi, cyl.time, a, b, img_value)


def _segments(m, lo, hi):
    cuts = [c for c in m.exceptional if lo < c < hi]
    pts = [lo] + cuts + [hi]
    return [(u, v) for u, v in zip(pts, pts[1:]) if v - u > _SLIVER]


def _advance(m, cyl, flags):
    """Split a cylinder at the exceptional preimages inside its image and
    apply f once to every piece."""
    amb_lo, amb_hi = m.ambient
    out = []
    dom = {}        # each interior cut ends one segment and starts the next
    for s0, s1 in _segments(m, cyl.img_lo, cyl.img_hi):
        for s in (s0, s1):
            if s not in dom:
                dom[s], _ = _dom_point(m, cyl, s)
        u0, u1 = dom[s0], dom[s1]
        d_lo, d_hi = (u0, u1) if u0 <= u1 else (u1, u0)
        if d_hi - d_lo <= _SLIVER:
            continue
        try:
            y0 = m.eval_lateral(LateralPoint(s0, "right"))
            y1 = m.eval_lateral(LateralPoint(s1, "left"))
        except IntervalDynError:
            _flag(flags, "advance: dropped segment (%r, %r) at time %d"
                  % (s0, s1, cyl.time))
            continue
        y0 = min(max(y0, amb_lo), amb_hi)
        y1 = min(max(y1, amb_lo), amb_hi)
        orient = cyl.orientation * (1 if y1 >= y0 else -1)
        img_a, img_b = (y0, y1) if y0 <= y1 else (y1, y0)
        if img_b - img_a <= _SLIVER:
            continue
        out.append(InducedBranch(d_lo, d_hi, cyl.time + 1, orient, img_a,
                                 img_b))
    return out


def _extract(m, cyl, target):
    """Peel off the part of a cylinder whose image overlaps the open target.
    Returns (branch-or-None, remnant cylinders)."""
    alpha, beta = target
    ov_lo = max(cyl.img_lo, alpha)
    ov_hi = min(cyl.img_hi, beta)
    if ov_hi - ov_lo <= _SLIVER:
        return None, [cyl]
    u0, y0 = _dom_point(m, cyl, ov_lo)
    u1, y1 = _dom_point(m, cyl, ov_hi)
    d_lo, d_hi = (u0, u1) if u0 <= u1 else (u1, u0)
    branch = None
    if d_hi - d_lo > _SLIVER:
        branch = InducedBranch(d_lo, d_hi, cyl.time, cyl.orientation,
                               min(y0, y1), max(y0, y1))
    # the cylinder's own ends map to its image ends, by its orientation
    a_dom, b_dom = ((cyl.lo, cyl.hi) if cyl.orientation > 0
                    else (cyl.hi, cyl.lo))
    remnants = []
    for seg_a, seg_b, va, vb in ((cyl.img_lo, ov_lo, a_dom, u0),
                                 (ov_hi, cyl.img_hi, u1, b_dom)):
        if seg_b - seg_a <= _SLIVER:
            continue
        r_lo, r_hi = (va, vb) if va <= vb else (vb, va)
        if r_hi - r_lo <= _SLIVER:
            continue
        remnants.append(InducedBranch(r_lo, r_hi, cyl.time,
                                       cyl.orientation, seg_a, seg_b))
    return branch, remnants


def _flag(flags, message):
    if len(flags) < _MAX_FLAGS:
        flags.append(message)
    elif len(flags) == _MAX_FLAGS:
        flags.append("... further flags suppressed")


def _verify(m, branches, target, kind, flags):
    alpha, beta = target
    width_j = beta - alpha
    for i, br in enumerate(branches):
        ratio = (br.img_hi - br.img_lo) / width_j
        if not (1.0 - 1e-6 <= ratio <= 1.0 + 1e-6):
            _flag(flags, "markov: branch %d image/base ratio %.9f" % (i, ratio))
        if br.time == 0:
            continue
        w = br.hi - br.lo
        finals = []
        for q in (0.25, 0.5, 0.75):
            xs = [br.lo + w * q]
            xs += m.walk(xs[0], br.time)
            entry = [j for j, x in enumerate(xs[:br.time])
                     if (kind == "first_entry" or j > 0) and alpha < x < beta]
            if entry:
                _flag(flags, "probe: branch %d enters target at step %d"
                      % (i, entry[0]))
            elif len(xs) <= br.time:
                _flag(flags, "probe: branch %d hit an exceptional point" % i)
            else:
                finals.append(xs[-1])
                if not (alpha - 1e-9 <= xs[-1] <= beta + 1e-9):
                    _flag(flags, "probe: branch %d misses target (%r)"
                          % (i, xs[-1]))
        if len(finals) == 3:
            span = finals[2] - finals[0]
            if span * br.orientation <= 0:
                _flag(flags, "probe: branch %d not monotone as recorded" % i)


def _discover(m, source, target, t_max, kind):
    alpha, beta = target
    branches = []
    flags = []
    active = []
    if kind == "first_entry":
        branches.append(InducedBranch(alpha, beta, 0, 1, alpha, beta))
        s_lo, s_hi = source
        for p_lo, p_hi in ((s_lo, alpha), (beta, s_hi)):
            if p_hi - p_lo > _SLIVER:
                for u, v in _segments(m, p_lo, p_hi):
                    active.append(InducedBranch(u, v, 0, 1, u, v))
    else:
        for u, v in _segments(m, alpha, beta):
            active.append(InducedBranch(u, v, 0, 1, u, v))

    total = len(active)
    for _ in range(t_max):
        if not active:
            break
        nxt = []
        for cyl in active:
            for adv in _advance(m, cyl, flags):
                br, remnants = _extract(m, adv, target)
                if br is not None:
                    branches.append(br)
                for r in remnants:
                    if r.hi - r.lo >= _MIN_WIDTH:
                        nxt.append(r)
        total += len(nxt)
        if total > MAX_CYLINDERS:
            raise BranchExplosionError(
                "cylinder refinement exceeded %d cylinders" % MAX_CYLINDERS)
        active = nxt

    branches.sort(key=lambda b: b.lo)
    _verify(m, branches, target, kind, flags)
    denom = (beta - alpha) if kind == "first_return" else (source[1] - source[0])
    coverage = sum(b.hi - b.lo for b in branches) / denom
    return InducedMap(base=tuple(target), kind=kind, branches=branches,
                      truncation=t_max, coverage=coverage, flags=flags,
                      map=m, source=tuple(source))


def _check_interval(name, iv, outer=None):
    lo, hi = iv
    if not (lo < hi):
        raise ConfigError("%s = %r is not a nontrivial interval" % (name, iv))
    if outer is not None and not (outer[0] <= lo and hi <= outer[1]):
        raise ConfigError("%s = %r not inside %r" % (name, iv, outer))
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# nice intervals


def is_nice(m, J, horizon):
    """True iff the forward orbits of the four lateral values at J's
    endpoints avoid the open interval J for `horizon` iterates.  Orbits
    truncated by an exceptional hit count as avoiding thereafter."""
    alpha, beta = _check_interval("J", J, m.ambient)
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    amb_lo, amb_hi = m.ambient
    starts = []
    for pt in (alpha, beta):
        for side in ("left", "right"):
            if (pt == amb_lo and side == "left") or \
               (pt == amb_hi and side == "right"):
                continue
            starts.append(m.eval_lateral(LateralPoint(pt, side)))
    for x in starts:
        for y in _iterates(m, x, horizon):
            if alpha < y < beta:
                return False
    return True


_OFFSETS = ((1.0, 1.0), (1.0, 0.618), (0.618, 1.0), (1.0, 0.382), (0.382, 1.0))


def find_nice_interval(m, p, delta, horizon):
    """Search a shrinking ladder of candidate intervals around p; return the
    first (widest) candidate passing is_nice, or None."""
    if delta <= 0:
        raise ConfigError("delta must be positive")
    amb_lo, amb_hi = m.ambient
    guard = list(m.exceptional) + [amb_lo, amb_hi]
    if min(abs(p - g) for g in guard) < delta:
        raise ConfigError("p = %r is within delta of the exceptional set or "
                          "the ambient boundary" % p)
    for k in range(21):
        d = delta * 0.5 ** k
        for off_l, off_r in _OFFSETS:
            cand = (p - off_l * d, p + off_r * d)
            if is_nice(m, cand, horizon):
                return cand
    return None


# ---------------------------------------------------------------------------
# induced maps


def first_entry(m, T, J, t_max):
    T = _check_interval("T", T, m.ambient)
    J = _check_interval("J", J, T)
    t_max = int(t_max)
    if not (1 <= t_max <= 100_000):
        raise ConfigError("t_max must be in [1, 1e5]")
    return _discover(m, T, J, t_max, "first_entry")


def first_return(m, J, t_max):
    J = _check_interval("J", J, m.ambient)
    t_max = int(t_max)
    if not (1 <= t_max <= 100_000):
        raise ConfigError("t_max must be in [1, 1e5]")
    return _discover(m, J, J, t_max, "first_return")


# ---------------------------------------------------------------------------
# distortion


def distortion_bound(m, T0, J0, n):
    """Koebe-style bound ((1+delta)/delta)^2 * exp(Ohat * sum |f^i(J0)|) for
    the distortion of f^n on J0, tracking the images of T0 and J0 forward.
    Raises NotDiffeomorphicError if an image of T0 swallows an exceptional
    point."""
    t_lo, t_hi = _check_interval("T0", T0, m.ambient)
    j_lo, j_hi = _check_interval("J0", J0, (t_lo, t_hi))
    n = int(n)
    if n < 1:
        raise ConfigError("n must be >= 1")
    eps_max = 0.0
    sum_j = 0.0
    for step in range(n):
        eps_max = max(eps_max, t_hi - t_lo)
        sum_j += j_hi - j_lo
        for c in m.exceptional:
            if t_lo < c < t_hi:
                raise NotDiffeomorphicError(
                    "image of T0 contains exceptional point %r at step %d"
                    % (c, step))
        try:
            ty0 = m.eval_lateral(LateralPoint(t_lo, "right"))
            ty1 = m.eval_lateral(LateralPoint(t_hi, "left"))
            jy0 = m.eval_lateral(LateralPoint(j_lo, "right"))
            jy1 = m.eval_lateral(LateralPoint(j_hi, "left"))
        except IntervalDynError as exc:
            raise NotDiffeomorphicError(
                "iterate undefined while tracking T0: %s" % exc) from exc
        t_lo, t_hi = (ty0, ty1) if ty0 <= ty1 else (ty1, ty0)
        j_lo, j_hi = (jy0, jy1) if jy0 <= jy1 else (jy1, jy0)
    eps_max = max(eps_max, t_hi - t_lo)
    L = j_lo - t_lo
    R = t_hi - j_hi
    if min(L, R) <= 0.0:
        return math.inf
    delta = min(L, R) / (j_hi - j_lo)
    o_hat = eps_max * m.nonlinearity()
    return ((1.0 + delta) / delta) ** 2 * _exp(o_hat * sum_j)


def measure_distortion(ind, probes=16):
    """Max over branches of the max probe-pair derivative ratio
    |DF(x)/DF(y)|."""
    probes = int(probes)
    if probes < 2:
        raise ConfigError("need at least 2 probes")
    worst = 1.0
    for br in ind.branches:
        if br.time == 0:
            continue
        w = br.hi - br.lo
        vals = []
        for k in range(probes):
            x = br.lo + w * (k + 0.5) / probes
            try:
                log_abs, _ = ind.map.deriv_product(x, br.time)
            except IntervalDynError:
                continue
            vals.append(log_abs)
        if len(vals) >= 2:
            worst = max(worst, _exp(max(vals) - min(vals)))
    return worst


# ---------------------------------------------------------------------------
# expansion certificate


_FIX_GRID = 1 << 14
_FLANK_PROBES = 48
_FLANK_CAP = 250_000     # budget of f-steps per flank probe
_EXPANSION_PROBES = 25   # interior probes per branch for min |D(f^t)|


def _flank_stats(ind, flank):
    lo, hi = flank
    w = hi - lo
    returned = []
    unreturned = 0
    aborted = 0
    max_steps = 0
    for k in range(_FLANK_PROBES):
        x = lo + w * (k + 0.5) / _FLANK_PROBES
        # return times are at least 1, so the cap stops the walk first
        state, _, logsum, fsteps = ind.induce(x, _FLANK_CAP + 1, lo, hi,
                                              _FLANK_CAP)
        if state == "returned":
            returned.append(_exp(logsum))
            max_steps = max(max_steps, fsteps)
        elif state == "unreturned":
            unreturned += 1
        else:
            aborted += 1
    min_deriv = min(returned) if returned else None
    return {
        "returned": len(returned),
        "unreturned": unreturned,
        "aborted": aborted,
        "min_deriv": min_deriv,
        "max_fsteps": max_steps,
    }


def _gamma_bound(m, ind, eps, o1, length_i, details):
    if eps == 0.0:
        return 1.0
    amb_lo, amb_hi = m.ambient
    j_lo, j_hi = ind.base
    dprime = min(j_lo - amb_lo, amb_hi - j_hi) / (j_hi - j_lo)
    details["delta_prime"] = dprime
    e1 = _exp(o1)
    if dprime <= 0.0 or e1 == math.inf:
        return math.inf
    K0 = ((1.0 + dprime) / dprime) ** 2 * e1
    gamma0 = o1 + 2.0 / (j_hi - j_lo)
    gamma = K0 * gamma0 / length_i
    details["K0"] = K0
    details["gamma"] = gamma
    expo = gamma * (1.0 + 1.0 / (eps * eps))
    return _exp(expo)


def expansion_analysis(ind, m):
    """Certify the return map as uniformly expanding, or locate the neutral
    core and probe the composed flank-return derivative."""
    if ind.kind != "first_return":
        raise NotNiceError("expansion analysis needs a first-return map")
    if not ind.branches:
        raise ConfigError("induced map has no branches")
    dist = measure_distortion(ind, probes=32)
    eps2 = max(dist - 1.0, 0.0)
    eps = math.sqrt(eps2)
    o1 = m.nonlinearity()
    K = 5.0 * _exp(o1)
    applicable = eps < 1.0 / (6.0 * K) if math.isfinite(K) else False
    details = {"distortion": dist, "o_one": o1}

    offsets = ([1e-4]
               + [(k + 0.5) / _EXPANSION_PROBES
                  for k in range(_EXPANSION_PROBES)]
               + [1.0 - 1e-4])
    per_branch = []
    for br in ind.branches:
        w = br.hi - br.lo
        vals = []
        for q in offsets:
            x = br.lo + w * q
            try:
                log_abs, _ = m.deriv_product(x, br.time)
            except IntervalDynError:
                continue
            vals.append(_exp(log_abs))
        if vals:
            per_branch.append((min(vals), br))
    if not per_branch:
        raise ConfigError("no branch admitted derivative probes")
    min_expansion = min(v for v, _ in per_branch)

    if min_expansion > 1.0 + eps2:
        gamma_len = ind.base[1] - ind.base[0]
        Gamma = _gamma_bound(m, ind, eps, o1, gamma_len, details)
        valid = applicable
        return ExpansionReport(eps, K, "uniformly_expanding", min_expansion,
                               Gamma, applicable, valid, details)

    # neutral core: pull the offending branch back into itself and bracket
    # the fixed points of the second iterate
    _, p_br = min(per_branch, key=lambda t: t[0])
    ip0 = (p_br.lo, p_br.hi)
    lo_t = max(p_br.lo, p_br.img_lo)
    hi_t = min(p_br.hi, p_br.img_hi)
    u0, _ = _dom_point(ind.map, p_br, lo_t)
    u1, _ = _dom_point(ind.map, p_br, hi_t)
    ip = (u0, u1) if u0 <= u1 else (u1, u0)

    # both F steps on ip take p's branch, so F^2 is f^(2 time) there
    n = 2 * p_br.time
    xs = []
    gs = []
    w_ip = ip[1] - ip[0]
    for k in range(_FIX_GRID):
        x = ip[0] + w_ip * (k + 0.5) / _FIX_GRID
        y = m.compose(x, n)
        if y is not None:
            xs.append(x)
            gs.append(y - x)
    roots = _grid_roots(m, xs, gs, n)
    if gs and gs[-1] == 0.0:
        roots.append(xs[-1])
    if not roots:
        raise NeutralCoreNotBracketableError(
            "no fixed point of the second-iterate return map bracketable "
            "in %r" % (ip,))
    core = (min(roots), max(roots))

    j_lo, j_hi = ind.base
    flanks = ((j_lo, ip[0]), (ip[1], j_hi))
    connectors = ((ip[0], core[0]), (core[1], ip[1]))
    stats = []
    for fl in flanks:
        if fl[1] - fl[0] > _SLIVER:
            stats.append(_flank_stats(ind, fl))
        else:
            stats.append(None)
    candidates = [i for i, s in enumerate(stats) if s is not None]
    if not candidates:
        raise NeutralCoreNotBracketableError("both flanks are degenerate")
    best = max(candidates,
               key=lambda i: (stats[i]["returned"],
                              stats[i]["min_deriv"] if stats[i]["returned"]
                              else -math.inf))
    chosen = stats[best]
    details.update({
        "ip0": ip0,
        "ip": ip,
        "core": core,
        "flanks": flanks,
        "connectors": connectors,
        "ell": best,
        "flank_stats": stats,
    })
    Gamma = _gamma_bound(m, ind, eps, o1,
                         max(flanks[best][1] - flanks[best][0], _SLIVER),
                         details)
    valid = applicable and chosen["returned"] >= 1 and chosen["min_deriv"] > 3.0
    return ExpansionReport(eps, K, "neutral_core", min_expansion, Gamma,
                           applicable, valid, details)


# ---------------------------------------------------------------------------
# cylinder partition


def refine_partition(ind, n):
    """Depth-n cylinder partition of the induced map, with the empirical
    distortion of the depth-n derivative over each cell."""
    n = int(n)
    if not (0 <= n <= 8):
        raise ConfigError("n must be in [0, 8]")
    count = len(ind.branches)
    if count == 0:
        raise ConfigError("induced map has no branches")
    if count ** max(n, 1) > 1_000_000:
        raise BranchExplosionError(
            "branch_count^n = %d^%d exceeds 1e6" % (count, n))
    pulls = {}      # (branch index, value) -> pulled-back domain point

    def pull(i, v):
        if (i, v) not in pulls:
            pulls[i, v] = _dom_point(ind.map, ind.branches[i], v)[0]
        return pulls[i, v]

    level = [(br.lo, br.hi, (i,)) for i, br in enumerate(ind.branches)]
    for _ in range(n):
        nxt = []
        for i, br in enumerate(ind.branches):
            for (c_lo, c_hi, itin) in level:
                ov_lo = max(c_lo, br.img_lo)
                ov_hi = min(c_hi, br.img_hi)
                if ov_hi - ov_lo <= _SLIVER:
                    continue
                u0 = pull(i, ov_lo)
                u1 = pull(i, ov_hi)
                d_lo, d_hi = (u0, u1) if u0 <= u1 else (u1, u0)
                if d_hi - d_lo <= _SLIVER:
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
                try:
                    x, log_abs, _ = ind.map.compose_deriv(
                        x, ind.branches[itin[k]].time)
                except IntervalDynError:
                    break
                total += log_abs
            else:
                logs.append(total)
        distortion = _exp(max(logs) - min(logs)) if len(logs) >= 2 else 1.0
        cells.append(PartitionCell(c_lo, c_hi, itin, distortion))
    return cells
