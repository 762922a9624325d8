"""Hand-rolled static SVG output: attractor cover strips, cobweb plots,
and induced-map branch graphs.  Everything is plain shapes and text in a
single self-contained file (no scripts, no external references)."""

from .errors import IntervalDynError

_W = 640
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _svg(width, height, body, path):
    """The document as a string, also written to path unless it is None."""
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (width, height, width, height))
    svg = head + "".join(body) + "</svg>"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(svg + "\n")
    return svg


def _rect(x, y, w, h, fill, extra=""):
    return ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
            'fill="%s"%s/>' % (x, y, w, h, fill, extra))


def escape(s):
    """s with &, < and > as XML entities, the same replacements in the same
    order as `xml.sax.saxutils.escape`, whose import would pull the whole
    urllib/http/email stack into every CLI process."""
    return s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x, y, s, size=11, fill="#222"):
    return ('<text x="%.2f" y="%.2f" font-family="monospace" '
            'font-size="%d" fill="%s">%s</text>'
            % (x, y, size, fill, escape(s)))


def _polyline(flat, stroke, width=1.0):
    """A polyline through the points of the flat list [x0, y0, x1, ...]."""
    coords = " ".join(["%.2f,%.2f"] * (len(flat) // 2)) % tuple(flat)
    return ('<polyline points="%s" fill="none" stroke="%s" '
            'stroke-width="%.2f"/>' % (coords, stroke, width))


def _line(x1, y1, x2, y2, stroke, width=1.0, dash=None):
    d = ' stroke-dasharray="%s"' % dash if dash else ""
    return ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
            'stroke-width="%.2f"%s/>' % (x1, y1, x2, y2, stroke, width, d))


def cover_strips(reports, ambient, path=None):
    """One horizontal strip per attractor report: the ambient interval as
    a grey rail with the cover cells filled in."""
    lo, hi = ambient
    span = hi - lo
    margin, strip_h, gap = 50.0, 26.0, 14.0
    rail_w = _W - 2 * margin
    n = max(1, len(reports))
    height = int(30 + n * (strip_h + gap))
    body = []

    def sx(x):
        return margin + (x - lo) / span * rail_w

    if not reports:
        body.append(_text(margin, 40, "no attractor reports"))
    for i, rep in enumerate(reports):
        y = 20.0 + i * (strip_h + gap)
        color = _PALETTE[i % len(_PALETTE)]
        body.append(_rect(margin, y, rail_w, strip_h, "#e8e8e8"))
        for a, b in rep.cover.cells:
            body.append(_rect(sx(a), y, max(0.8, sx(b) - sx(a)), strip_h,
                              color))
        label = "%s  basin=%.3f" % (rep.kind, rep.basin_fraction)
        body.append(_text(margin, y - 3.0, label))
    return _svg(_W, height, body, path)


def _graph_frame(lo, hi, size, margin):
    """The frame and diagonal of a graph over [lo, hi]^2, and its view
    (margin, lo, scale, bottom): a point (x, y) is drawn at (margin +
    (x - lo) * scale, bottom - (y - lo) * scale)."""
    scale = (size - 2 * margin) / (hi - lo)
    bottom = size - margin
    frame = [
        _rect(margin, margin, size - 2 * margin, size - 2 * margin,
              "none", ' stroke="#444" stroke-width="1"'),
        _line(margin, bottom, margin + (hi - lo) * scale,
              bottom - (hi - lo) * scale, "#bbb", dash="4,3"),
    ]
    return (margin, lo, scale, bottom), frame


def _branch_polyline(m, t, lo, hi, top, slow, view, color, samples=160):
    """The graph of f^t on (lo, hi), sampled at samples + 1 points.  A
    sample x with lo < x < top takes one `m.compose` call, any other
    slow(x); one where either finds an undefined point or raises
    `IntervalDynError` is left out."""
    margin, base, scale, bottom = view
    compose = m.compose
    flat = []
    w = hi - lo
    for j in range(samples + 1):
        x = lo + w * (j + 0.5) / (samples + 1.0)
        try:
            y = compose(x, t) if lo < x < top else slow(x)
        except IntervalDynError:
            continue
        if y is not None:
            flat += (margin + (x - base) * scale, bottom - (y - base) * scale)
    return _polyline(flat, color, 1.4) if len(flat) >= 4 else ""


def cobweb(m, orbit, n, path=None):
    """Branch graphs plus the staircase of an orbit list [x0, f(x0), ...]
    of at most n steps; an exact hit of an undefined point leaves it
    shorter."""
    lo, hi = m.ambient
    size, margin = 480, 40.0
    view, body = _graph_frame(lo, hi, size, margin)
    for i, br in enumerate(m.branches):
        body.append(_branch_polyline(m, 1, br.lo, br.hi, br.hi, m.eval,
                                     view, _PALETTE[i % len(_PALETTE)]))
    _, _, scale, bottom = view
    flat = [margin + (orbit[0] - lo) * scale, bottom]
    for x, y in zip(orbit, orbit[1:]):
        sy = bottom - (y - lo) * scale
        flat += (margin + (x - lo) * scale, sy, margin + (y - lo) * scale, sy)
    body.append(_polyline(flat, "#222", 0.9))
    body.append(_text(margin, size - 12.0, "x0=%g  n=%d" % (orbit[0], n)))
    return _svg(size, size, body, path)


def return_map_graph(ind, path=None):
    """Graphs of every branch of an induced map over its base interval,
    colored by return time.  A sample below the branch's clipped upper end
    `ind._his[i]` lies in no other branch, so f^time gives its value;
    `ind.eval` takes the others, which only overlapping branches have."""
    lo, hi = ind.base
    size, margin = 480, 40.0
    view, body = _graph_frame(lo, hi, size, margin)
    tmax = max((b.time for b in ind.branches), default=1)
    for br, top in zip(ind.branches, ind._his):
        color = _PALETTE[br.time % len(_PALETTE)]
        body.append(_branch_polyline(ind.map, br.time, br.lo, br.hi, top,
                                     ind.eval, view, color))
    body.append(_text(margin, size - 12.0,
                      "%d branches, deepest time %d"
                      % (len(ind.branches), tmax)))
    return _svg(size, size, body, path)
