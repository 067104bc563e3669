"""Deterministic SVG box plots.

Each variable gets a fixed 200x400 panel laid out left to right; all
panels share one linear value scale spanning the extremes (whiskers and
outliers included) of every summary, so side-by-side panels are directly
comparable.  Mild outliers are open circles, extreme outliers filled.
Output depends only on the input summaries: coordinates are formatted
with three decimals and elements are emitted in a fixed order, so
identical input yields byte-identical SVG.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import CodaError
from .stats import BoxSummary

PANEL_W = 200
PANEL_H = 400
BAND_TOP = 20
BAND_BOTTOM = 380

_BOX_HALF = 40  # box spans center +- 40
_CAP_HALF = 20  # whisker caps span center +- 20
_GLYPH_R = 4

_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")  # no XML 1.0 Char
# markup, and tab, LF and CR as references: an XML reader reads them raw as spaces or LF
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _line(x1, y1, x2, y2) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'


def _extent(summaries) -> tuple[float, float]:  # outliers ascend: the first and last suffice
    lo = min(min(b.q1, b.whiskers[0], *b.outliers[:1].tolist()) for _, b in summaries)
    hi = max(max(b.q3, b.whiskers[1], *b.outliers[-1:].tolist()) for _, b in summaries)
    return lo, hi


def emit_boxplot_svg(summaries) -> bytes:
    """Render (name, BoxSummary) pairs as one standalone SVG document."""
    summaries = list(summaries)
    if not summaries:
        raise CodaError("box plot summaries: need at least one element")
    for name, box in summaries:
        if not isinstance(box, BoxSummary):
            raise TypeError(f"expected BoxSummary for {name!r}, got {type(box).__name__}")
        if _NOT_XML.search(name):
            raise CodaError(f"variable {name!r} holds a character that an SVG cannot carry")

    vmin, vmax = _extent(summaries)
    span = vmax - vmin
    # the largest intermediate of scale(); once it is finite, every y is
    if not np.isfinite(span * (BAND_BOTTOM - BAND_TOP)):
        raise CodaError(f"box plot values from {vmin!r} to {vmax!r} span too wide a range")

    def scale(v):  # a float, or an array scaled elementwise by the same operations
        if span == 0.0:
            return (BAND_TOP + BAND_BOTTOM) / 2.0
        return BAND_TOP + (vmax - v) * (BAND_BOTTOM - BAND_TOP) / span

    width = PANEL_W * len(summaries)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{PANEL_H}" '
        f'viewBox="0 0 {width} {PANEL_H}">',
        '<g stroke="black" fill="none" stroke-width="1">',
    ]
    for i, (name, box) in enumerate(summaries):
        cx = i * PANEL_W + PANEL_W / 2
        x_box_l, x_box_r = cx - _BOX_HALF, cx + _BOX_HALF
        x_cap_l, x_cap_r = cx - _CAP_HALF, cx + _CAP_HALF
        y_q1, y_med, y_q3 = scale(box.q1), scale(box.median), scale(box.q3)
        y_wlo, y_whi = scale(box.whiskers[0]), scale(box.whiskers[1])
        lines += [
            f'<g data-variable="{name.translate(_ESCAPES)}">',
            # whisker stems (vertical) and caps (horizontal)
            _line(cx, y_q3, cx, y_whi),
            _line(cx, y_q1, cx, y_wlo),
            _line(x_cap_l, y_whi, x_cap_r, y_whi),
            _line(x_cap_l, y_wlo, x_cap_r, y_wlo),
            # box and median
            f'<rect x="{_fmt(x_box_l)}" y="{_fmt(y_q3)}" width="{_fmt(2 * _BOX_HALF)}" '
            f'height="{_fmt(y_q1 - y_q3)}"/>',
            _line(x_box_l, y_med, x_box_r, y_med),
        ]
        # open circles mild, filled extreme: each glyph is a reference, not a copy of its text.
        # An outlier is not at q1 or q3, so span > 0, 20 <= y <= 380 and %.3f writes as _fmt
        if box.outliers.size:
            v = box.outliers
            extreme = (v < box.outer_fences[0]) | (v > box.outer_fences[1])
            circle = f'<circle cx="{_fmt(cx)}" cy="%.3f" r="{_GLYPH_R}"'
            glyph = np.array([circle + "/>", circle + ' fill="black"/>'], dtype=object)
            lines.append("\n".join(glyph[extreme.astype(int)].tolist()) % tuple(scale(v).tolist()))
        lines.append("</g>")
    lines.append("</g>")
    lines += [
        f'<text x="{_fmt(i * PANEL_W + PANEL_W / 2)}" y="394" font-size="12" font-family="sans-serif" '
        f'fill="black" text-anchor="middle">{name.translate(_ESCAPES)}</text>'
        for i, (name, _) in enumerate(summaries)
    ]
    lines += ["</svg>", ""]  # the empty last line ends the document with "\n"
    return "\n".join(lines).encode("utf-8")
