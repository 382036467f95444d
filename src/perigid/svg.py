"""Deterministic SVG rendering of covering windows.

Line-drawing conventions: bars solid, cables dashed, struts thick.  Output is
byte-stable for fixed inputs so renders can be golden-file diffed.

The drawing reads the window's index arrays.  Each node's position is its
point plus the lattice image of its shift, from one matrix product over all
shifts; the canvas coordinates are one vector expression; each line takes the
style of the edge that it lifts.  Every canvas coordinate is printed once,
by ``"%.4f"``, and the lines and circles are filled in from those strings.
For a finite input every canvas coordinate lies in [40, 600], so none
prints as "-0.0000".
"""

from __future__ import annotations

import numpy as np

from .errors import FlatLattice, ParseError
from .framework import Realization, point_matrix
from .gain import CoveringWindow, GainGraph
from .tolerances import ToleranceVault

_STYLES = {
    "bar": 'stroke="#1f3552" stroke-width="1.6"',
    "cable": 'stroke="#1f7a4d" stroke-width="1.6" stroke-dasharray="6 4"',
    "strut": 'stroke="#8a2f2f" stroke-width="3.4"',
}

_CANVAS = 640.0
_MARGIN = 40.0

_LINE = '<line x1="%s" y1="%s" x2="%s" y2="%s" %s/>\n'
_CIRCLE = '<circle cx="%s" cy="%s" r="3.0" fill="#10151c"/>\n'


def render_covering(
    graph: GainGraph, real: Realization, window: int, tol: ToleranceVault
) -> tuple[CoveringWindow, bytes]:
    """The covering restricted to lattice shifts in [-w, w]^d and its SVG
    bytes, from one window build."""
    if not real.non_flat(tol):
        raise FlatLattice("rendering needs a nonsingular lattice")
    if graph.dimension != 2:
        raise ParseError("SVG rendering is two-dimensional only")
    cover = graph.covering_window(window)
    offsets = cover._shifts @ real.lattice.T
    coords = (point_matrix(graph, real).T[:, None] + offsets).reshape(-1, 2)  # in node order
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (_CANVAS - 2 * _MARGIN) / float(span.max())
    x = _MARGIN + (coords[:, 0] - lo[0]) * scale
    y = _CANVAS - _MARGIN - (coords[:, 1] - lo[1]) * scale  # SVG y-axis points down

    # text[node] is the node's (x, y), all printed in one pass
    canvas = np.column_stack([x, y]).ravel().tolist()
    text = np.array(("%.4f " * len(canvas) % tuple(canvas)).split(), dtype=object).reshape(-1, 2)
    styles = np.array([_STYLES[m] for m in graph.markings()], dtype=object)
    ends = np.hstack([text[cover._lo], text[cover._hi], styles[cover._edge, None]])
    return cover, (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">\n'
        f"<!-- covering window w={window}, {len(cover.vertices)} vertices, "
        f"{len(cover.edges)} edges -->\n"
        + _LINE * len(cover.edges) % tuple(ends.ravel().tolist())
        + _CIRCLE * len(cover.vertices) % tuple(text.ravel().tolist())
        + "</svg>\n"
    ).encode("utf-8")
