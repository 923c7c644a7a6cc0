"""Minimal self-contained SVG 1.1 line charts for simulation output.

Convenience display only; the CSV files are the normative output.  The
polyline points are the '%.2f' text of their pixel values; numpy makes their
digits from word tables, as ``cli.write_csv`` makes its '%.11e' digits, and a
series it cannot prove right takes Python's '%' instead.  A chart is written
as bytes, so a line ends in "\n" on every platform.
"""

from __future__ import annotations

import math

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


def _words(*columns) -> np.ndarray:
    """Four ASCII codes a word, one from each column (broadcast together),
    packed into uint32 words that lay the four bytes out in order."""
    codes = np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8)
    return codes.view(np.uint32)[..., 0].ravel()


# '%.2f' of a value v in [0, 999.995) is written as two words, "ddd." from
# _UNITS[m // 100] and "dd," from _CENTS[m % 100], m = rint(100 v); a y takes
# "dd " from _CENTS[m % 100 + 100].  A byte 0 (a leading digit of a short
# integer part and the last byte) is deleted.
_N = np.arange(1000)
_UNITS = _words(np.where(_N >= 100, ord("0") + _N // 100, 0),
                np.where(_N >= 10, ord("0") + _N // 10 % 10, 0), ord("0") + _N % 10, ord("."))
_CENTS = _words(ord("0") + _N[:100] // 10, ord("0") + _N[:100] % 10,
                [[ord(",")], [ord(" ")]], 0)


def _points(xy: np.ndarray) -> bytes:
    """'%.2f,%.2f' of each (x, y) pixel pair of ``xy`` (n, 2), joined by spaces.

    100 v is within 1e-11 of its exact value below 1e5, so where it is more
    than 0.5 - 1e-6 from a tie, rint(100 v) holds the digits '%.2f' prints.
    A series with a value near a tie, below +0.0 (-0.0 prints "-0.00"), from
    999.995 up, nan or inf takes '%' for every point.
    """
    # 100 v only once every v is in range: a huge v would overflow
    fast = not np.signbit(xy).any() and bool((xy < 999.995).all())
    if fast:
        s = xy * 100.0
        m = np.rint(s)
        fast = bool((np.abs(s - m) < 0.5 - 1e-6).all())
    if not fast:
        return (" ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())).encode()
    cents = m.astype(np.intp)
    units = cents // 100
    cents -= 100 * units
    words = np.empty(xy.shape + (2,), dtype=np.uint32)
    words[..., 0] = _UNITS[units]
    words[..., 1] = _CENTS[cents + [0, 100]]
    # no space after the last y
    return words.tobytes().translate(None, b"\0")[:-1]


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / _TICKS
    if lo + raw == lo:      # a span of a few ulps, or one that underflows to a 0 step
        return [0.0 if lo == 0 else lo]
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
        if value + step == value:           # a span of a few ulps: value cannot advance
            break
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

    chart = ["\n".join(parts).encode()]
    xy = np.empty((len(x), 2))
    xy[:, 0] = px(x)
    for i, (_, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)].encode()
        xy[:, 1] = py(ys)
        chart.append(b'<polyline points="%s" fill="none" stroke="%s" stroke-width="1.3"/>'
                     % (_points(xy), color))

    parts = []
    legend_y = _MARGIN_TOP + 8
    for i, (label, _) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = legend_y + 16 * i
        lx = _MARGIN_LEFT + plot_w - 120
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')

    parts.append("</svg>\n")
    chart.append("\n".join(parts).encode())
    with open(path, "wb") as out:
        out.write(b"\n".join(chart))
