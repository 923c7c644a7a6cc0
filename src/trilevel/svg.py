"""Minimal self-contained SVG 1.1 line charts for simulation output.

Convenience display only; the CSV files are the normative output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 46
_WIDTH = 720
_HEIGHT = 440
_TICKS = 6


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * span:
        ticks.append(0.0 if value == 0 else value)
        value += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_chart(path, x, series, *, title: str = "", ylabel: str = "") -> None:
    """Write a line chart of several named series against a shared x axis ``t``.

    ``series`` is a sequence of (label, values) pairs, each as long as ``x``.
    """
    x = np.asarray(x, dtype=float)
    series = [(label, np.asarray(ys, dtype=float)) for label, ys in series]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = float(min(ys.min() for _, ys in series))
    y_hi = float(max(ys.max() for _, ys in series))
    if y_hi == y_lo:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # both take a float or an array of floats
    def px(v):
        return _MARGIN_LEFT + ((v - x_lo) / (x_hi - x_lo) * plot_w if x_hi > x_lo else 0.0 * v)

    def py(v):
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = []
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')

    for tick in _nice_ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{_MARGIN_TOP}" x2="{tx:.2f}" '
                     f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{tx:.2f}" y="{_MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{ty:.2f}" x2="{_MARGIN_LEFT + plot_w}" '
                     f'y2="{ty:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 6}" y="{ty + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>')

    parts.append(f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">t</text>')
    if ylabel:
        cy = _MARGIN_TOP + plot_h / 2
        parts.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>')

    # x pixels are formatted once and shared by every series' polyline
    coords = [None] * (2 * len(x))
    coords[::2] = ["%.2f" % v for v in px(x).tolist()]
    template = " ".join(["%s,%.2f"] * len(x))
    for i, (label, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords[1::2] = py(ys).tolist()
        points = template % tuple(coords)
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.3"/>')

    legend_y = _MARGIN_TOP + 8
    for i, (label, _) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = legend_y + 16 * i
        lx = _MARGIN_LEFT + plot_w - 120
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
