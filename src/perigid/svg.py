"""Deterministic SVG rendering of covering windows.

Line-drawing conventions: bars solid, cables dashed, struts thick.  Output is
byte-stable for fixed inputs so renders can be golden-file diffed.
"""

from __future__ import annotations

import numpy as np

from .errors import FlatLattice, ParseError
from .framework import Realization
from .gain import CoveringWindow, GainGraph
from .tolerances import ToleranceVault

_STYLES = {
    "bar": 'stroke="#1f3552" stroke-width="1.6"',
    "cable": 'stroke="#1f7a4d" stroke-width="1.6" stroke-dasharray="6 4"',
    "strut": 'stroke="#8a2f2f" stroke-width="3.4"',
}

_CANVAS = 640.0
_MARGIN = 40.0


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def render_covering(
    graph: GainGraph, real: Realization, window: int, tol: ToleranceVault
) -> bytes:
    """SVG bytes for the covering restricted to lattice shifts in [-w, w]^d."""
    return _render(graph, real, window, tol)[1]


def _render(
    graph: GainGraph, real: Realization, window: int, tol: ToleranceVault
) -> tuple[CoveringWindow, bytes]:
    """The covering window and its SVG bytes, from one window build."""
    if not real.non_flat(tol):
        raise FlatLattice("rendering needs a nonsingular lattice")
    if graph.dimension != 2:
        raise ParseError("SVG rendering is two-dimensional only")
    cover = graph.covering_window(window)
    pos = {
        node: real.points[node[0]] + real.lattice @ np.array(node[1], dtype=float)
        for node in cover.vertices
    }
    coords = np.array(list(pos.values()))
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (_CANVAS - 2 * _MARGIN) / float(span.max())

    def to_canvas(p: np.ndarray) -> tuple[float, float]:
        x = _MARGIN + (p[0] - lo[0]) * scale
        y = _CANVAS - _MARGIN - (p[1] - lo[1]) * scale  # SVG y-axis points down
        return x, y

    # a covering edge (u, alpha) - (v, beta) lifts the one edge class (u, v, beta - alpha)
    marking_of = {}
    for e in graph.edges:
        marking_of[e.tail, e.head, e.gain] = e.marking
        marking_of[e.head, e.tail, tuple(-g for g in e.gain)] = e.marking

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">',
        f"<!-- covering window w={window}, {len(cover.vertices)} vertices, "
        f"{len(cover.edges)} edges -->",
    ]
    for a, b in cover.edges:
        xa, ya = to_canvas(pos[a])
        xb, yb = to_canvas(pos[b])
        shift = tuple(y - x for x, y in zip(a[1], b[1]))
        style = _STYLES[marking_of[a[0], b[0], shift]]
        lines.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" {style}/>'
        )
    for node in cover.vertices:
        x, y = to_canvas(pos[node])
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" fill="#10151c"/>')
    lines.append("</svg>")
    return cover, ("\n".join(lines) + "\n").encode("utf-8")
