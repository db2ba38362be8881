"""Tests for the dependency-free SVG chart renderer."""

import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlearn import charts

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    root = ET.fromstring(svg_text)
    assert root.tag == f"{SVG_NS}svg"
    return root


def tags(root, name):
    return root.findall(f".//{SVG_NS}{name}")


LINE_SERIES = {
    "es-pt": [(20.0, 0.5), (60.0, 0.8), (100.0, 1.0)],
    "es-it": [(20.0, 0.4), (60.0, 0.7), (100.0, 1.0)],
}

SCATTER_POINTS = [
    (74.71, 86.40, "es-pt", False),
    (70.48, 62.27, "ro-fr", True),
    (75.12, 84.56, "pt-es", False),
]


class TestLineChart:
    def test_valid_xml_with_expected_elements(self):
        root = parse(charts.line_chart("t", "x", "y", LINE_SERIES))
        assert len(tags(root, "polyline")) == 2
        # one circle per data point
        assert len(tags(root, "circle")) == 6
        texts = [el.text for el in tags(root, "text")]
        for expected in ("t", "x", "y", "es-pt", "es-it"):
            assert expected in texts

    def test_deterministic_and_order_insensitive(self):
        a = charts.line_chart("t", "x", "y", LINE_SERIES)
        reversed_series = dict(reversed(list(LINE_SERIES.items())))
        b = charts.line_chart("t", "x", "y", reversed_series)
        assert a == b

    def test_point_order_within_series_is_normalized(self):
        shuffled = {"es-pt": list(reversed(LINE_SERIES["es-pt"]))}
        a = charts.line_chart("t", "x", "y", {"es-pt": LINE_SERIES["es-pt"]})
        b = charts.line_chart("t", "x", "y", shuffled)
        assert a == b

    def test_distinct_series_colors(self):
        root = parse(charts.line_chart("t", "x", "y", LINE_SERIES))
        strokes = {el.get("stroke") for el in tags(root, "polyline")}
        assert len(strokes) == 2
        assert strokes <= set(charts.PALETTE)

    def test_labels_escaped(self):
        svg = charts.line_chart("a < b", "x & y", "z", {"s": [(0.0, 0.0), (1.0, 1.0)]})
        parse(svg)  # would raise on raw < or &
        assert "a &lt; b" in svg

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="non-empty series"):
            charts.line_chart("t", "x", "y", {})
        with pytest.raises(ValueError, match="non-empty series"):
            charts.line_chart("t", "x", "y", {"s": []})


class TestScatterChart:
    def test_valid_xml_with_markers_and_labels(self):
        root = parse(charts.scatter_chart("t", "x", "y", SCATTER_POINTS))
        assert len(tags(root, "circle")) == 3
        texts = [el.text for el in tags(root, "text")]
        for label in ("es-pt", "ro-fr", "pt-es"):
            assert label in texts

    def test_excluded_points_are_hollow(self):
        root = parse(charts.scatter_chart("t", "x", "y", SCATTER_POINTS))
        hollow = [el for el in tags(root, "circle") if el.get("fill") == "white"]
        filled = [el for el in tags(root, "circle") if el.get("fill") == "#0072B2"]
        assert len(hollow) == 1
        assert len(filled) == 2
        assert hollow[0].get("stroke") == "#D55E00"

    def test_deterministic_under_input_order(self):
        a = charts.scatter_chart("t", "x", "y", SCATTER_POINTS)
        b = charts.scatter_chart("t", "x", "y", list(reversed(SCATTER_POINTS)))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            charts.scatter_chart("t", "x", "y", [])

    def test_single_point_renders(self):
        # degenerate ranges (zero spread) must not divide by zero
        svg = charts.scatter_chart("t", "x", "y", [(5.0, 5.0, "only", False)])
        root = parse(svg)
        assert len(tags(root, "circle")) == 1


class TestChartGeometry:
    def test_fixed_canvas_size(self):
        root = parse(charts.line_chart("t", "x", "y", LINE_SERIES))
        assert root.get("width") == str(charts.WIDTH)
        assert root.get("height") == str(charts.HEIGHT)

    def test_coordinates_inside_canvas(self):
        root = parse(charts.scatter_chart("t", "x", "y", SCATTER_POINTS))
        for el in tags(root, "circle"):
            assert 0 <= float(el.get("cx")) <= charts.WIDTH
            assert 0 <= float(el.get("cy")) <= charts.HEIGHT

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
            min_size=1,
            max_size=6,
        )
    )
    def test_every_coordinate_is_rounded_to_2_decimals(self, values):
        # Tick labels and point labels sit at an offset from a rounded
        # coordinate; the offset must not bring back float noise such as
        # y="257.53999999999996".
        points = [(x, y, f"p{i}", i % 2 == 0) for i, (x, y) in enumerate(values)]
        for svg in (
            charts.scatter_chart("t", "x", "y", points),
            charts.line_chart("t", "x", "y", {"a-b": values}),
        ):
            for el in parse(svg).iter():
                for name in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "points"):
                    for number in re.split("[ ,]", el.get(name, "")) if el.get(name) else ():
                        assert re.fullmatch(r"-?\d+(\.\d{1,2})?", number), (name, number)

    def test_gridlines_and_ticks_present(self):
        root = parse(charts.line_chart("t", "x", "y", LINE_SERIES))
        lines = tags(root, "line")
        assert len(lines) > 4  # axes plus gridlines plus legend swatches
