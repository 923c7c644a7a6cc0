import re

from trilevel import svg


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
