"""Deterministic SVG line charts for downsampled series.

Fixed canvas, fixed decimal formatting, no timestamps or generator
metadata: identical input always renders byte-identical SVG.
"""

from __future__ import annotations

from typing import Sequence
from xml.sax.saxutils import escape

WIDTH = 800
HEIGHT = 400
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 40


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_line_chart(
    points: Sequence[tuple[float, float]],
    title: str = "",
    x_label: str = "time (s)",
    y_label: str = "value",
) -> str:
    """Render (x, y) points as a single polyline with min/max axis labels.
    The title and labels are text, escaped for XML."""
    if not points:
        raise ValueError("cannot plot an empty series")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / x_span * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_min) / y_span * plot_h

    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    bottom = MARGIN_TOP + plot_h
    right = MARGIN_LEFT + plot_w
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{bottom}" '
        f'stroke="black"/>',
        f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        f'<text x="{MARGIN_LEFT}" y="{bottom + 16}" font-size="11" '
        f'text-anchor="middle">{_fmt(x_min)}</text>',
        f'<text x="{right}" y="{bottom + 16}" font-size="11" '
        f'text-anchor="middle">{_fmt(x_max)}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{bottom}" font-size="11" '
        f'text-anchor="end">{_fmt(y_min)}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 10}" font-size="11" '
        f'text-anchor="end">{_fmt(y_max)}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 6}" font-size="12" '
        f'text-anchor="middle">{escape(x_label)}</text>',
        f'<text x="{WIDTH // 2}" y="18" font-size="13" text-anchor="middle">{escape(title)}</text>',
        f'<text x="14" y="{MARGIN_TOP + plot_h // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {MARGIN_TOP + plot_h // 2})">{escape(y_label)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
