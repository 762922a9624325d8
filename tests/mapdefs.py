"""Map fixtures shared by the unit tests and the acceptance suite."""

from intervaldyn.mapcore import BranchSpec, MapSpec, build_map

FEIGENBAUM_A = 3.569945672  # close to the period-doubling accumulation point


def tent_spec():
    return MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                    BranchSpec((0.5, 1.0), "2 - 2*x")))


def doubling_spec():
    return MapSpec((BranchSpec((0.0, 0.5), "2*x"),
                    BranchSpec((0.5, 1.0), "2*x - 1")))


def logistic_spec(a):
    e = "%r*x*(1-x)" % a
    return MapSpec((BranchSpec((0.0, 0.5), e), BranchSpec((0.5, 1.0), e)))


def jump_contraction_spec():
    """Both lateral limits at the break equal the break point 0.6 and both
    one-sided slopes are 0.5, so 0.6 carries an attracting periodic-like
    orbit whose basin is the whole open interval."""
    return MapSpec((
        BranchSpec((0.0, 0.6), "x + 0.5*x*(0.6 - x)/0.6"),
        BranchSpec((0.6, 1.0), "0.5*x + 0.3"),
    ))


def plateau_spec():
    """Identity plateau on (0.3, 0.7) flanked by contractions onto its
    endpoints: every plateau point is a neutral fixed point, so sampling
    sees a continuum of period-1 orbits rather than one attractor."""
    return MapSpec((
        BranchSpec((0.0, 0.3), "0.3*x + 0.21"),
        BranchSpec((0.3, 0.7), "x"),
        BranchSpec((0.7, 1.0), "0.5*x + 0.35"),
    ))


def two_attractors_spec():
    """Two copies of logistic a = 3.9, rescaled into (0, 0.5) and (0.5, 1):
    each half is invariant and carries its own chaotic attractor."""
    left = "3.9*x*(1-2*x)"
    right = "0.5 + 0.5*3.9*(2*x-1)*(2-2*x)"
    return MapSpec((
        BranchSpec((0.0, 0.25), left), BranchSpec((0.25, 0.5), left),
        BranchSpec((0.5, 0.75), right), BranchSpec((0.75, 1.0), right),
    ))


def neutral_spec():
    """Three branches: steep full linear branches on tiny edge intervals and
    a slowly repelling orientation-reversing middle branch fixing 0.5 with
    |slope| barely above 1.  The middle fixed point makes the first-return
    map to (0,1) fail uniform expansion, while every escape through an edge
    branch picks up slope 4096.
    """
    a = 2.0 ** -12
    b = 1.0 - a
    c2 = 2.0 ** -10
    w = 0.5 - a
    s = (0.5 - c2 * w ** 3) / w
    mid = "0.5 - %r*(x - 0.5) - %r*(x - 0.5)^3" % (s, c2)
    return MapSpec((
        BranchSpec((0.0, a), "4096*x"),
        BranchSpec((a, b), mid),
        BranchSpec((b, 1.0), "4096*(x - %r)" % b),
    ))


def cubic_neutral_spec(s):
    """`neutral_spec` with the middle branch's linear slope -s fixed and its
    cubic term fitted to keep the branch onto (0, 1): for s < 1 the fixed
    point 0.5 attracts and F^2 has fixed points away from it, for s > 1
    0.5 is the only one."""
    a = 2.0 ** -12
    b = 1.0 - a
    w = 0.5 - a
    c = (0.5 - s * w) / w ** 3
    mid = "0.5 - %r*(x - 0.5) - %r*(x - 0.5)^3" % (s, c)
    return MapSpec((
        BranchSpec((0.0, a), "4096*x"),
        BranchSpec((a, b), mid),
        BranchSpec((b, 1.0), "4096*(x - %r)" % b),
    ))


def tent():
    return build_map(tent_spec())


def doubling():
    return build_map(doubling_spec())


def logistic(a):
    return build_map(logistic_spec(a))


def jump_contraction():
    return build_map(jump_contraction_spec())


def plateau():
    return build_map(plateau_spec())


def neutral():
    return build_map(neutral_spec())


def two_attractors():
    return build_map(two_attractors_spec())
