"""Uniform expansion certificates away from the critical set.

Orbits that avoid a neighborhood U of the break/critical points are
expected to pick up derivative growth |Df^n(x)| > C * lambda^n with
lambda > 1, provided no non-expanding periodic orbit survives outside U.
This module checks the periodic obstruction up to a period horizon,
harvests avoid-segments from seeded orbits on the compiled
`PiecewiseMap.harvest` ladder shape, and fits (C, lambda) empirically;
growth_test probes a single starting point.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError, IntervalDynError, UNotCoveringError
from .induction import _exp
from .orbits import find_periodic_points
from .rng import SplitMix64

_GROWTH_LOG = math.log(1e6)
_EXPANDING = 1.0 + 1e-9


@dataclass
class ManeConfig:
    period_max: int = 8
    samples: int = 100
    n_max: int = 200
    seed: int = 0


@dataclass
class GrowthRecord:
    status: str            # GROWTH | CAPTURED | BOUNDED
    max_deriv: float       # attained running max of |Df^n(x)|, n >= 0
    steps: int             # iterates examined before stopping
    captured_at: int = None

    def to_dict(self):
        return {"status": self.status, "max_deriv": self.max_deriv,
                "steps": self.steps, "captured_at": self.captured_at}


@dataclass
class ManeCertificate:
    U: list
    period_checked: int
    periodic_violations: list
    C: float
    lam: float
    n_max: int
    samples: int
    valid: bool
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "U": [list(c) for c in self.U],
            "period_checked": self.period_checked,
            "periodic_violations": [dict(v) for v in self.periodic_violations],
            "C": self.C,
            "lambda": self.lam,
            "n_max": self.n_max,
            "samples": self.samples,
            "valid": self.valid,
            "details": dict(self.details),
        }


def _norm_components(U):
    out = []
    for comp in U:
        a, b = comp
        a, b = float(a), float(b)
        if not (a < b):
            raise ConfigError("degenerate component %r" % (comp,))
        out.append((a, b))
    out.sort()
    for (a0, b0), (a1, b1) in zip(out, out[1:]):
        if a1 < b0:
            raise ConfigError("overlapping components %r and %r"
                              % ((a0, b0), (a1, b1)))
    return out


def _inside(x, U):
    return any(a < x < b for a, b in U)


def growth_test(m, x, avoid, n_max):
    """Track the running max of |Df^n(x)| while the orbit of x stays out
    of `avoid`: GROWTH once the max exceeds 1e6, CAPTURED when the orbit
    enters `avoid` (or lands exactly on an undefined point), BOUNDED if
    n_max iterates pass without either."""
    avoid = _norm_components(avoid) if avoid else []
    n_max = int(n_max)
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    if _inside(x, avoid):
        raise ConfigError("start %r lies inside the avoided set" % x)
    logsum = 0.0
    maxlog = 0.0           # n = 0 term: |Df^0| = 1
    for k in range(n_max):
        try:
            x, d = m.step(x)
        except IntervalDynError:
            d = 0.0
        if d == 0.0:
            # exact hit of an undefined point (or a critical point): the
            # singular core of the avoided region
            return GrowthRecord("CAPTURED", _exp(maxlog), k,
                                captured_at=k)
        logsum += math.log(abs(d))
        maxlog = max(maxlog, logsum)
        if maxlog > _GROWTH_LOG:
            return GrowthRecord("GROWTH", _exp(maxlog), k + 1)
        if _inside(x, avoid):
            return GrowthRecord("CAPTURED", _exp(maxlog), k + 1,
                                captured_at=k + 1)
    return GrowthRecord("BOUNDED", _exp(maxlog), n_max)


def harvest_segments(m, U, samples, n_max, seed):
    """Maximal avoid-U runs of seeded orbits, sliced at n_max steps.
    Each sample orbit is followed for 4*n_max iterates by one call of the
    compiled `PiecewiseMap.harvest` shape; returns a list of
    (start, n, log|Df^n(start)|)."""
    rng = SplitMix64(seed)
    lo, hi = m.ambient
    segs = []
    harvest, put = m.harvest, segs.append
    for _ in range(samples):
        harvest(rng.uniform(lo, hi), 4 * n_max, n_max, U, put)
    return segs


def mane_certificate(m, U, cfg=None):
    cfg = cfg or ManeConfig()
    if cfg.period_max < 1 or cfg.samples < 1 or cfg.n_max < 2:
        raise ConfigError("period_max >= 1, samples >= 1, n_max >= 2 required")
    U = _norm_components(U)
    for c in m.exceptional:
        if not _inside(c, U):
            raise UNotCoveringError(
                "break/critical point %r is not inside any component of U" % c)

    periodic = find_periodic_points(m, cfg.period_max)
    violations = []
    for x, d, mult in periodic:
        if _inside(x, U):
            continue
        if not (mult > _EXPANDING):      # NaN multiplier is also flagged
            violations.append({"point": x, "period": d, "multiplier": mult})

    segments = harvest_segments(m, U, cfg.samples, cfg.n_max, cfg.seed)
    long_means = [lg / n for _x0, n, lg in segments if n >= cfg.n_max / 2]
    details = {"segments": len(segments), "long_segments": len(long_means)}
    if long_means:
        log_lam = min(long_means)
        lam = _exp(log_lam)
        raw_log_c = min(lg - n * log_lam for _x0, n, lg in segments)
        # a hair below the achieved minimum, so the certified inequality
        # |Df^n| > C * lambda^n is strict on every harvested segment
        c_val = _exp(raw_log_c) * (1.0 - 1e-12)
        details["log_lambda"] = log_lam
        details["raw_log_C"] = raw_log_c
    else:
        lam = math.nan
        c_val = math.nan
    valid = (not violations) and bool(long_means) \
        and lam > 1.0 and math.isfinite(lam) \
        and c_val > 0.0 and math.isfinite(c_val)
    return ManeCertificate(
        U=U, period_checked=cfg.period_max, periodic_violations=violations,
        C=c_val, lam=lam, n_max=cfg.n_max, samples=cfg.samples,
        valid=valid, details=details)


def replay_fraction(m, cert, samples, seed):
    """Soundness replay: fraction of freshly harvested segments that
    still satisfy the certified inequality |Df^n| > C * lambda^n."""
    if not cert.valid:
        raise ConfigError("replay requires a valid certificate")
    segs = harvest_segments(m, cert.U, samples, cert.n_max, seed)
    if not segs:
        return 1.0
    log_c = math.log(cert.C)
    log_lam = math.log(cert.lam)
    good = sum(1 for _x0, n, lg in segs if lg > log_c + n * log_lam)
    return good / len(segs)
