"""Hand-rolled static SVG output: attractor cover strips, cobweb plots,
and induced-map branch graphs.  Everything is plain shapes and text in a
single self-contained file (no scripts, no external references)."""

from xml.sax.saxutils import escape

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


def _text(x, y, s, size=11, fill="#222"):
    return ('<text x="%.2f" y="%.2f" font-family="monospace" '
            'font-size="%d" fill="%s">%s</text>'
            % (x, y, size, fill, escape(s)))


def _polyline(pts, stroke, width=1.0):
    coords = " ".join("%.2f,%.2f" % (x, y) for x, y in pts)
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
    span = hi - lo
    scale = (size - 2 * margin) / span

    def sx(x):
        return margin + (x - lo) * scale

    def sy(y):
        return size - margin - (y - lo) * scale

    frame = [
        _rect(margin, margin, size - 2 * margin, size - 2 * margin,
              "none", ' stroke="#444" stroke-width="1"'),
        _line(sx(lo), sy(lo), sx(hi), sy(hi), "#bbb", dash="4,3"),
    ]
    return sx, sy, frame


def _branch_polyline(f, lo, hi, sx, sy, color, samples=160):
    pts = []
    for j in range(samples + 1):
        x = lo + (hi - lo) * (j + 0.5) / (samples + 1.0)
        try:
            pts.append((sx(x), sy(f(x))))
        except IntervalDynError:
            continue
    return _polyline(pts, color, 1.4) if len(pts) >= 2 else ""


def cobweb(m, orbit, n, path=None):
    """Branch graphs plus the staircase of an orbit list [x0, f(x0), ...]
    of at most n steps; an exact hit of an undefined point leaves it
    shorter."""
    lo, hi = m.ambient
    size, margin = 480, 40.0
    sx, sy, body = _graph_frame(lo, hi, size, margin)
    for i, br in enumerate(m.branches):
        body.append(_branch_polyline(m.eval, br.lo, br.hi, sx, sy,
                                     _PALETTE[i % len(_PALETTE)]))
    pts = [(sx(orbit[0]), sy(lo))]
    for x, y in zip(orbit, orbit[1:]):
        pts.append((sx(x), sy(y)))
        pts.append((sx(y), sy(y)))
    body.append(_polyline(pts, "#222", 0.9))
    body.append(_text(margin, size - 12.0, "x0=%g  n=%d" % (orbit[0], n)))
    return _svg(size, size, body, path)


def return_map_graph(ind, path=None):
    """Graphs of every branch of an induced map over its base interval,
    colored by return time."""
    lo, hi = ind.base
    size, margin = 480, 40.0
    sx, sy, body = _graph_frame(lo, hi, size, margin)
    tmax = max((b.time for b in ind.branches), default=1)
    for br in ind.branches:
        color = _PALETTE[br.time % len(_PALETTE)]
        body.append(_branch_polyline(ind.eval, br.lo, br.hi, sx, sy, color))
    body.append(_text(margin, size - 12.0,
                      "%d branches, deepest time %d"
                      % (len(ind.branches), tmax)))
    return _svg(size, size, body, path)
