import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from coda_ratios import box_summary, emit_boxplot_svg
from coda_ratios.boxplot_svg import BAND_BOTTOM, BAND_TOP, PANEL_W, _extent, _fmt
from coda_ratios.errors import CodaError


def _svg_text(summaries) -> str:
    return emit_boxplot_svg(summaries).decode("utf-8")


def test_single_panel_without_outliers():
    svg = _svg_text([("y1", box_summary([1, 2, 3, 4, 5]))])
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="200" height="400"')
    assert "<circle" not in svg
    assert svg.count("<rect") == 1
    assert svg.count("<line") == 5  # 2 stems + 2 caps + median
    assert '>y1</text>' in svg
    assert 'data-variable="y1"' in svg


def test_extreme_outlier_is_filled_circle():
    svg = _svg_text([("v", box_summary([1, 2, 3, 4, 100]))])
    assert svg.count("<circle") == 1
    assert svg.count('fill="black"/>') == 1


def test_mild_outlier_is_open_circle():
    svg = _svg_text([("v", box_summary([1, 2, 3, 4, 8]))])
    circles = re.findall(r"<circle[^/]*/>", svg)
    assert len(circles) == 1
    assert 'fill' not in circles[0]


def test_panels_lay_out_left_to_right():
    boxes = [("a", box_summary([1, 2, 3])), ("b", box_summary([2, 3, 4]))]
    svg = _svg_text(boxes)
    assert 'width="400"' in svg
    # panel centers at x = 100 and x = 300
    assert 'x1="100.000"' in svg or 'cx="100.000"' in svg
    assert 'x1="300.000"' in svg or 'cx="300.000"' in svg
    assert svg.index(">a</text>") < svg.index(">b</text>")


def test_shared_scale_across_panels():
    # 3.0 is the first panel's median and the second panel's lower whisker: one scale over
    # both extents puts the two lines at one y, a scale per panel at 200 and at 380
    boxes = [
        ("a", box_summary([1.0, 2.0, 3.0, 4.0, 5.0])),
        ("b", box_summary([3.0, 4.0, 5.0, 6.0, 7.0])),
    ]
    panels = re.findall(r'<g data-variable="(\w)">(.*?)</g>', _svg_text(boxes), re.S)
    # each panel's line y1: upper stem, lower stem, upper cap, lower cap, median
    y1 = {name: re.findall(r'<line x1="[\d.]+" y1="([\d.]+)"', body) for name, body in panels}
    assert y1["a"][4] == y1["b"][3] == _fmt(BAND_TOP + (7.0 - 3.0) * (BAND_BOTTOM - BAND_TOP) / 6.0)


def test_degenerate_span_centers_glyphs():
    svg = _svg_text([("c", box_summary([7.0, 7.0, 7.0]))])
    assert 'y1="200.000"' in svg


def test_mirror_symmetry_under_negation():
    # negated data produce the vertically mirrored picture: every y
    # coordinate maps to top + bottom - y
    rng = np.random.default_rng(42)
    data = rng.standard_t(df=2, size=40)
    svg_pos = _svg_text([("v", box_summary(data))])
    svg_neg = _svg_text([("v", box_summary(-data))])

    def y_coords(svg):
        # a rect mirrors onto a rect whose top edge is the original's
        # bottom edge, so collect both edges, not the raw y attribute
        ys = []
        for attr in ("y1", "y2", "cy"):
            ys.extend(float(v) for v in re.findall(rf'(?<![a-z]){attr}="([-\d.]+)"', svg))
        for m in re.finditer(r'<rect[^>]*\sy="([-\d.]+)"[^>]*height="([-\d.]+)"', svg):
            top, height = float(m.group(1)), float(m.group(2))
            ys.extend([top, top + height])
        return sorted(ys)

    pos = y_coords(svg_pos)
    neg = y_coords(svg_neg)
    assert len(pos) == len(neg)
    mirrored = sorted(20.0 + 380.0 - y for y in neg)
    assert pos == pytest.approx(mirrored, abs=2e-3)


def test_deterministic_bytes():
    boxes = [("a", box_summary([1, 2, 3, 4, 100])), ("b", box_summary([5, 6, 7]))]
    assert emit_boxplot_svg(boxes) == emit_boxplot_svg(boxes)


def test_name_escaping():
    svg = _svg_text([('a<b>&"c', box_summary([1, 2, 3]))])
    assert 'a&lt;b&gt;&amp;&quot;c' in svg
    assert "<b>" not in svg


def test_empty_input_rejected():
    with pytest.raises(CodaError, match="^box plot summaries: need at least one element$"):
        emit_boxplot_svg([])


def test_non_box_summary_rejected():
    with pytest.raises(TypeError):
        emit_boxplot_svg([("v", (1.0, 2.0, 3.0))])


def test_all_values_rendered_within_viewbox():
    rng = np.random.default_rng(9)
    boxes = [
        (f"v{i}", box_summary(rng.standard_t(df=2, size=30))) for i in range(4)
    ]
    svg = _svg_text(boxes)
    for attr in ("y1", "y2", "cy"):
        for raw in re.findall(rf'{attr}="([-\d.]+)"', svg):
            assert 20.0 <= float(raw) <= 380.0


def _circles_one_by_one(summaries) -> list[str]:
    """Each outlier's <circle> line, scaled and formatted one value at a time."""
    vmin, vmax = _extent(summaries)
    span = vmax - vmin

    def scale(v: float) -> float:
        return BAND_TOP + (vmax - v) * (BAND_BOTTOM - BAND_TOP) / span

    lines = []
    for i, (_, box) in enumerate(summaries):
        cx = i * PANEL_W + PANEL_W / 2
        extreme = set(box.extreme_outliers)
        for v in box.outliers:
            fill = ' fill="black"' if v in extreme else ""
            lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(scale(v))}" r="4"{fill}/>')
    return lines


@pytest.mark.parametrize("seed", range(20))
def test_circles_equal_the_per_value_lines(seed):
    rng = np.random.default_rng(seed)
    # -2 and 5 lie exactly on the outer fences, so they are mild outliers
    summaries = [("edge", box_summary([-2, 1, 1, 1, 1, 2, 2, 2, 2, 5]))]
    for i in range(int(rng.integers(0, 5))):
        n = int(rng.integers(1, 400))
        if rng.random() < 0.3:
            data = rng.lognormal(0.0, 2.0, size=n)
        else:
            data = rng.standard_t(df=rng.uniform(0.5, 4), size=n) * 10.0 ** rng.integers(-5, 6)
        summaries.append((f"v{i}", box_summary(data)))
    svg = _svg_text(summaries).splitlines()
    assert [line for line in svg if line.startswith("<circle")] == _circles_one_by_one(summaries)


# every character XML 1.0 has no Char for: C0 controls but tab, LF and CR, surrogates, U+FFFE, U+FFFF
@pytest.mark.parametrize(
    "bad", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"]
)
def test_a_name_that_xml_cannot_carry_is_an_error_naming_the_variable(bad):
    name = f"r{bad}x"
    with pytest.raises(CodaError, match=re.escape(repr(name))):
        emit_boxplot_svg([("y1", box_summary([1, 2, 3])), (name, box_summary([1, 2, 3]))])


def test_names_xml_can_carry_parse_back():
    # tab, LF and CR are written as references: raw, an XML reader reads each as a
    # space in an attribute, and a CR or CR LF in text as an LF
    names = ["t\tx", "l\nx", "c\rx", "n\r\nx", "\x7f\x85\ud7ff\ue000\ufffd", "\U0001f4c8", '<&"\'>']
    svg = emit_boxplot_svg([(name, box_summary([1, 2, 3])) for name in names])
    assert b'data-variable="t&#9;x"' in svg and b">n&#13;&#10;x</text>" in svg
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert [g.get("data-variable") for g in root.iter(f"{ns}g") if "data-variable" in g.attrib] == names
    assert [el.text for el in root.iter(f"{ns}text")] == names


def test_the_pieces_go_before_the_document_is_encoded():
    # the pieces, the joined text and its UTF-8 bytes would be three copies of the document
    rng = np.random.default_rng(11)
    boxes = [(f"v{i}", box_summary(rng.standard_t(2, size=20_000))) for i in range(6)]
    size = len(emit_boxplot_svg(boxes))
    tracemalloc.start()
    try:
        emit_boxplot_svg(boxes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size
