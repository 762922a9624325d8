"""Exception types shared across the package.

Everything user-facing derives from IntervalDynError so CLI code can catch one
base class and map it onto exit codes.  Parse-time errors carry enough position
info to print a caret diagnostic.
"""


class IntervalDynError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# expression layer


class ExprSyntaxError(IntervalDynError):
    """Raised by the tokenizer/parser.  Carries the byte offset of the
    offending token and (when known) the set of things that would have been
    accepted there."""

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = sorted(expected) if expected else []
        tail = ""
        if self.expected:
            tail = " (expected: %s)" % ", ".join(self.expected)
        super().__init__("%s at offset %d%s" % (message, offset, tail))


class NonLiteralExponent(IntervalDynError):
    """Exponents of ^ and the order argument of spow must be numeric literals,
    otherwise symbolic differentiation of |u|^a would need log terms we do not
    support."""


# ---------------------------------------------------------------------------
# map layer


class TilingError(IntervalDynError):
    """Branch domains fail to tile the ambient interval exactly."""


class BranchImageError(IntervalDynError):
    """A branch maps some sample point outside the ambient interval.  Carries
    a witness point."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ZeroDerivativeError(IntervalDynError):
    """A branch derivative vanishes, changes sign or is undefined at an
    interior sample point, or the second derivative is undefined there
    (branches must be C2 diffeomorphisms onto their images)."""


class ExceptionalPointError(IntervalDynError):
    """The map was evaluated exactly at a point where it is undefined."""

    def __init__(self, point):
        self.point = point
        super().__init__("map undefined at x=%r" % (point,))


class OutOfRangeError(IntervalDynError):
    def __init__(self, point):
        self.point = point
        super().__init__("x=%r outside the ambient interval" % (point,))


class OrbitHitsExceptionalError(IntervalDynError):
    """An orbit landed exactly on an undefined point mid-flight.  `index` is
    the number of successful steps taken before the hit."""

    def __init__(self, index, point):
        self.index = index
        self.point = point
        super().__init__(
            "orbit hit undefined point x=%r after %d steps" % (point, index)
        )


# ---------------------------------------------------------------------------
# orbit / statistics layer


class DegenerateOrbitError(IntervalDynError):
    """An orbit terminated before producing the samples a statistic needed."""


# ---------------------------------------------------------------------------
# induction layer


class NotNiceError(IntervalDynError):
    """The requested base interval is not nice, so induced first entry /
    return maps are not well defined for the construction used here."""


class BranchExplosionError(IntervalDynError):
    """Return-map discovery exceeded the piece budget.  Honest failure mode:
    we never prune pieces silently."""


class NotDiffeomorphicError(IntervalDynError):
    """An iterate restricted to an interval crosses a branch boundary, so it
    is not a single smooth piece."""


class NeutralCoreNotBracketableError(IntervalDynError):
    """Could not isolate the neutral core: fixed points of the second-iterate
    return map would not bracket."""


# ---------------------------------------------------------------------------
# certificate layer


class UNotCoveringError(IntervalDynError):
    """The supplied neighbourhood does not contain every undefined point, so
    the expansion-off-U certificate is meaningless."""


# ---------------------------------------------------------------------------
# CLI layer


class ConfigError(IntervalDynError):
    """Bad user input at the CLI boundary (missing file, malformed JSON,
    values out of range)."""
