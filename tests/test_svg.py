import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilevel import cli, fields, observables, svg


def _polylines_and_labels(path):
    body = path.read_text(encoding="utf-8")
    return (re.findall(r'<polyline points="[^"]*"', body),
            re.findall(r'font-size="11">([^<]*)</text>', body))


def test_line_chart_bytes_are_pinned(tmp_path):
    # y spans [0, 2] padded by 4 %: py(0) = 36 + 2.08 / 2.16 * 358 = 380.74
    svg.line_chart(tmp_path / "a.svg", [0, 1, 2],
                   [("rise", [0.0, 0.5, 2.0]), ("flat", [0.25, 0.25, 0.25])],
                   title="T", ylabel="y")
    lines, labels = _polylines_and_labels(tmp_path / "a.svg")
    assert lines == ['<polyline points="64.00,380.74 384.00,297.87 704.00,49.26"',
                     '<polyline points="64.00,339.31 384.00,339.31 704.00,339.31"']
    assert labels == ["0", "0.5", "1", "1.5", "2",        # x ticks
                      "0", "0.5", "1", "1.5", "2",        # y ticks
                      "rise", "flat"]                     # legend

    # a constant chart (y_hi == y_lo) widens to [y - 0.5, y + 0.5] and centres it
    svg.line_chart(tmp_path / "b.svg", [0, 1, 2], [("flat", [0.25, 0.25, 0.25])])
    lines, labels = _polylines_and_labels(tmp_path / "b.svg")
    assert lines == ['<polyline points="64.00,215.00 384.00,215.00 704.00,215.00"']
    assert labels == ["0", "0.5", "1", "1.5", "2", "-0.2", "0", "0.2", "0.4", "0.6", "flat"]


def _percent_points(xy):
    """The '%' template ``line_chart`` used for every polyline before its
    digits came from numpy: the reference for ``svg._points``."""
    return (" ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())).encode()


def _tie(k, ulps):
    # k/100 + 0.005, a '%.2f' rounding tie in decimal, moved by ulps
    value = k / 100 + 0.005
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
    return value


_TIES = st.builds(_tie, st.integers(0, 99_999), st.integers(-2, 2))
# in range: 0.015 and 2.675 print as 0.01 and 2.67, though 100 v rounds to a tie
_IN_RANGE = [0.0, 5e-324, 0.005, 0.015, 0.125, 2.675, 704.0, 999.994999,
             float(np.nextafter(999.995, 0.0))]
_EDGES = _IN_RANGE + [-0.0, -0.004, -0.0049999, -5e-324, math.nan, math.inf, -math.inf,
                      999.995, 999.997, 999.999, 1000.0, 1234.5678, 1e300]
_FAST = st.floats(0.0, 999.99) | _TIES | st.sampled_from(_IN_RANGE)
_ANY = st.floats() | _TIES | st.sampled_from(_EDGES)


@pytest.mark.parametrize("pixels", [_FAST, _ANY], ids=["in-range", "any-float64"])
def test_points_are_the_percent_format_of_every_pixel_pair(pixels):
    # in-range series mostly take the word tables, except near a tie; any
    # -0.0, negative, nan, inf or value from 999.995 up sends the series to '%'
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(pixels, pixels), min_size=1, max_size=40))
    def check(pairs):
        xy = np.array(pairs, dtype=float)
        assert svg._points(xy) == _percent_points(xy)

    check()


@pytest.mark.parametrize("value", _EDGES + [_tie(k, u) for k in (0, 1, 12, 267, 99_999)
                                            for u in (-2, -1, 0, 1, 2)])
def test_points_of_one_edge_value_among_fast_ones(value):
    xy = np.array([[64.0, 36.0], [value, 215.5], [704.0, value], [384.0, 394.0]])
    assert svg._points(xy) == _percent_points(xy)


@pytest.mark.parametrize("name", fields.preset_names())
def test_every_polyline_of_a_preset_is_the_percent_format_of_its_pixels(tmp_path, name):
    args = cli.build_parser().parse_args(["figure", name])
    spec = cli.load_run_spec({"preset": name, "tol": "1e-10", "quantities": "all"}, args)
    trajectory = cli.solve(spec)
    columns = dict(zip(observables.CSV_FIELDS, trajectory.table.T))
    written = cli.write_svg_panels(tmp_path / f"{name}.svg", trajectory, spec.quantities)
    # line_chart's pixel maps, operation for operation: a 640 x 358 plot at (64, 36)
    x = trajectory.grid
    x_px = 64 + (x - float(x.min())) / (float(x.max()) - float(x.min())) * 640
    for q, path in zip(spec.quantities, written):
        ys = [columns[col] for _, col in cli._PANEL_SERIES[q]]
        lo, hi = float(min(y.min() for y in ys)), float(max(y.max() for y in ys))
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.04 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        expected = [_percent_points(np.column_stack((x_px, 36 + (hi - y) / (hi - lo) * 358)))
                    for y in ys]
        lines, _ = _polylines_and_labels(path)
        assert [line.encode() for line in lines] == [
            b'<polyline points="' + points + b'"' for points in expected]


def test_ticks_of_a_span_of_one_ulp_end(tmp_path):
    # y spans one ulp of 1.0: the tick step, about 5e-17, cannot advance 1.0;
    # in a child process, so that a hang fails the test instead of the suite
    code = textwrap.dedent(f"""
        from trilevel import svg
        svg.line_chart({str(tmp_path / "ulp.svg")!r}, [0, 1, 2],
                       [("a", [1.0, 1.0 + 2**-52, 1.0])])
    """)
    src = str(Path(svg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    lines, labels = _polylines_and_labels(tmp_path / "ulp.svg")
    assert lines == ['<polyline points="64.00,394.00 384.00,36.00 704.00,394.00"']
    assert labels == ["0", "0.5", "1", "1.5", "2", "1", "a"]


@pytest.mark.parametrize("ys", [[0.0, 5e-324, 0.0], [1.0, 1.0 + 2**-52, 1.0]])
def test_ticks_of_a_degenerate_span_lie_inside_it(tmp_path, ys):
    # one subnormal, whose tick step span / 6 underflows to 0, and one ulp of
    # 1.0, on which ceil(lo / step) * step rounds a whole span below lo
    svg.line_chart(tmp_path / "a.svg", [0, 1, 2], [("a", ys)])
    pad = 0.04 * (max(ys) - min(ys))
    lo, hi = min(ys) - pad, max(ys) + pad
    ticks = svg._nice_ticks(lo, hi)
    assert ticks and all(lo <= tick <= hi for tick in ticks)
    # the y grid lines span the plot's width; every one lies between its top and bottom edges
    body = (tmp_path / "a.svg").read_text(encoding="utf-8")
    rows = [float(y) for y in re.findall(r'<line x1="64" y1="([^"]*)" x2="704"', body)]
    assert len(rows) == len(ticks) and all(36.0 <= y <= 394.0 for y in rows)
