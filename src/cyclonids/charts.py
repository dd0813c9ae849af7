"""Tiny dependency-free SVG bar charts for run reports.

Output is deterministic text, so charts from identical runs are
byte-identical and easy to diff.
"""

from __future__ import annotations

import math
from html import escape

_WIDTH = 640
_BAR_AREA_HEIGHT = 320
_MARGIN_LEFT = 60
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 90


def bar_chart_svg(title: str, labels: list[str], values: list[float]) -> str:
    """Vertical bar chart; bars are labeled underneath, values on top."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    n = max(len(values), 1)
    height = _MARGIN_TOP + _BAR_AREA_HEIGHT + _MARGIN_BOTTOM
    plot_width = _WIDTH - _MARGIN_LEFT - 20
    slot = plot_width / n
    bar_width = slot * 0.7
    peak = max((v for v in values if 0 < v < math.inf), default=1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{escape(title, quote=False)}</text>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + _BAR_AREA_HEIGHT}" '
        f'x2="{_WIDTH - 20}" y2="{_MARGIN_TOP + _BAR_AREA_HEIGHT}" stroke="black"/>',
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        frac = min(max(value, 0.0) / peak, 1.0)  # an infinite value fills the bar area
        bar_h = frac * _BAR_AREA_HEIGHT
        x = _MARGIN_LEFT + i * slot + (slot - bar_width) / 2
        y = _MARGIN_TOP + _BAR_AREA_HEIGHT - bar_h
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_width:.1f}" '
                     f'height="{bar_h:.1f}" fill="#4878a8"/>')
        parts.append(f'<text x="{x + bar_width / 2:.1f}" y="{y - 4:.1f}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{_fmt(value)}</text>')
        lx = x + bar_width / 2
        ly = _MARGIN_TOP + _BAR_AREA_HEIGHT + 12
        parts.append(f'<text x="{lx:.1f}" y="{ly:.1f}" font-size="11" text-anchor="end" '
                     f'font-family="sans-serif" transform="rotate(-45 {lx:.1f} {ly:.1f})">'
                     f'{escape(str(label), quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fmt(value: float) -> str:
    if math.isinf(value):
        return str(value)
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"
