"""Deterministic SVG chart output."""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import chbreak
from chbreak.cli import main
from chbreak.svg import PALETTE, Series, _fmt, _nice_ticks, write_line_chart

SRC = os.path.dirname(os.path.dirname(chbreak.__file__))

RAMP = Series("ramp", tuple(i * 0.1 for i in range(11)),
              tuple(i * 0.1 for i in range(11)))


def _read(path):
    text = path.read_text(encoding="utf-8")
    return text, ET.fromstring(text)


def _polylines(root):
    return root.findall(".//{http://www.w3.org/2000/svg}polyline")


class TestChartStructure:
    def test_well_formed_with_expected_elements(self, tmp_path):
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "title", "x", "y", [RAMP])
        text, root = _read(p)
        assert root.tag.endswith("svg")
        assert len(_polylines(root)) == 1
        assert "title" in text
        assert text.endswith("</svg>\n")

    def test_labels_escaped(self, tmp_path):
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "a < b & c", "x", "y", [RAMP])
        text, _ = _read(p)
        assert "a &lt; b &amp; c" in text
        assert "a < b" not in text

    def test_every_label_escapes_as_xml_sax_saxutils_did(self, tmp_path):
        # the texts xml.sax.saxutils.escape gave for these labels
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "T & <m>", "x<1 & y>0", "&amp; >>",
                         [Series("u&u_x <0>", RAMP.xs, RAMP.ys)])
        text, root = _read(p)
        for escaped in ("T &amp; &lt;m&gt;", "x&lt;1 &amp; y&gt;0", "&amp;amp; &gt;&gt;",
                        "u&amp;u_x &lt;0&gt;"):
            assert f">{escaped}</text>" in text
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert {"T & <m>", "x<1 & y>0", "&amp; >>", "u&u_x <0>"} <= set(labels)

    def test_dashed_series(self, tmp_path):
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "t", "x", "y",
                         [RAMP, Series("fit", RAMP.xs, RAMP.ys, dashed=True)])
        _, root = _read(p)
        dashes = [pl.get("stroke-dasharray") for pl in _polylines(root)]
        assert dashes == [None, "6,4"]

    def test_palette_cycles(self, tmp_path):
        p = tmp_path / "chart.svg"
        many = [Series(f"s{i}", RAMP.xs, tuple(y + i for y in RAMP.ys))
                for i in range(len(PALETTE) + 1)]
        write_line_chart(str(p), "t", "x", "y", many)
        _, root = _read(p)
        colors = [pl.get("stroke") for pl in _polylines(root)]
        assert colors[:len(PALETTE)] == list(PALETTE)
        assert colors[-1] == PALETTE[0]


class TestDataHandling:
    def test_nan_points_dropped(self, tmp_path):
        p = tmp_path / "chart.svg"
        ys = (0.0, math.nan, 2.0, math.inf, 4.0)
        write_line_chart(str(p), "t", "x", "y",
                         [Series("gaps", (0.0, 1.0, 2.0, 3.0, 4.0), ys)])
        _, root = _read(p)
        (line,) = _polylines(root)
        assert len(line.get("points").split()) == 3

    def test_all_nan_series_skipped(self, tmp_path):
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "t", "x", "y",
                         [RAMP, Series("void", (0.0, 1.0), (math.nan, math.nan))])
        _, root = _read(p)
        assert len(_polylines(root)) == 1

    def test_empty_chart_still_valid(self, tmp_path):
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "t", "x", "y", [])
        _, root = _read(p)
        assert not _polylines(root)

    def test_constant_series_has_nonzero_range(self, tmp_path):
        # degenerate y-span must not divide by zero
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "t", "x", "y",
                         [Series("flat", (0.0, 1.0, 2.0), (5.0, 5.0, 5.0))])
        _, root = _read(p)
        (line,) = _polylines(root)
        for pair in line.get("points").split():
            px, py = map(float, pair.split(","))
            assert math.isfinite(px) and math.isfinite(py)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        series = [RAMP, Series("curve", RAMP.xs,
                               tuple(math.sin(x) for x in RAMP.xs), dashed=True)]
        write_line_chart(str(a), "t", "x", "y", series)
        write_line_chart(str(b), "t", "x", "y", series)
        assert a.read_bytes() == b.read_bytes()


class TestTicks:
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-3.7, 11.2), (0.02, 0.07),
                                       (-1e6, 1e6), (2.0, 2.0)])
    def test_ticks_inside_range_with_round_step(self, lo, hi):
        ticks = _nice_ticks(lo, hi)
        top = hi if hi > lo else lo + 1.0
        assert 2 <= len(ticks) <= 12
        assert all(lo - 1e-9 <= t <= top + 1e-6 * (top - lo) for t in ticks)
        step = ticks[1] - ticks[0]
        mantissa = step / 10.0 ** math.floor(math.log10(step))
        assert min(abs(mantissa - m) for m in (1.0, 2.0, 5.0)) < 1e-9

    def test_zero_tick_is_clean(self):
        assert 0.0 in _nice_ticks(-1.0, 1.0)

    @pytest.mark.parametrize("value,label", [(0.5, "0.5"), (-0.0, "0"),
                                             (1234567.0, "1.23457e+06"),
                                             (0.1 + 0.2, "0.3")])
    def test_fmt(self, value, label):
        assert _fmt(value) == label


# two energies one ulp apart: after the 4% pad the tick step is below half
# an ulp of the energy, so adding it leaves the tick where it was
ONE_ULP = (0.022155673136318943, 0.022155673136318946)

# an undamped run this short keeps its energy to the last bit or two
FLAT_ENERGY = """\
[grid]
half_length = 30.0
n_points = 1024

[datum]
family = gaussian_derivative
amplitude = 0.1
width = 1.0

[dissipation]
kind = constant
value = 0.0

[solver]
t_end = 0.001
"""


def _finishes(code: str, tmp_path) -> subprocess.CompletedProcess:
    """Run code in a child interpreter that must finish within 3 s: a tick
    loop that never ends fails here instead of filling memory."""
    try:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=3.0, cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC})
    except subprocess.TimeoutExpired:
        pytest.fail("did not finish within 3 s")


class TestSpanOfOneUlp:
    def test_ticks_and_chart_finish(self, tmp_path):
        lo, hi = ONE_ULP
        assert math.nextafter(lo, hi) == hi
        code = ("from chbreak.svg import Series, _nice_ticks, write_line_chart\n"
                f"print(len(_nice_ticks({lo!r}, {hi!r})))\n"
                "write_line_chart('chart.svg', 'E', 't', 'E', "
                f"[Series('E', (0.0, 1.0), ({lo!r}, {hi!r}))])\n")
        proc = _finishes(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert 1 <= int(proc.stdout) <= 12
        _read(tmp_path / "chart.svg")

    def test_simulate_writes_every_chart(self, tmp_path):
        (tmp_path / "flat.ini").write_text(FLAT_ENERGY)
        code = ("import sys; from chbreak.cli import main\n"
                "sys.exit(main(['simulate', 'flat.ini', '--plots-dir', 'plots']))\n")
        proc = _finishes(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name in ("slope_min.svg", "reciprocal_slope.svg", "energy_law.svg"):
            _read(tmp_path / "plots" / name)


class TestSpansAtTheEndsOfTheFloats:
    def test_span_of_one_subnormal(self):
        # span / 5 underflows to zero: the step is the smallest subnormal
        assert _nice_ticks(0.0, 5e-324) == [0.0, 5e-324]

    def test_span_past_the_largest_float(self):
        # hi - lo overflows to inf: the ticks of the halved range, doubled
        assert _nice_ticks(-1e308, 1e308) == [-8e307, -4e307, 0.0, 4e307, 8e307]

    def test_simulate_over_one_subnormal_writes_every_chart(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(FLAT_ENERGY.replace("t_end = 0.001", "t_end = 5e-324"))
        plots = tmp_path / "plots"
        assert main(["simulate", str(ini), "--plots-dir", str(plots)]) == 0
        for name in ("slope_min.svg", "reciprocal_slope.svg", "energy_law.svg"):
            _read(plots / name)

    def test_y_span_past_the_largest_float_writes_a_finite_chart(self, tmp_path):
        # the 4% pad of a span that overflows reached +-inf and raised
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "t", "x", "y", [Series("s", (0.0, 1.0), (1e308, -1e308))])
        _assert_every_position_finite(p)

    def test_x_span_past_the_largest_float_writes_finite_coordinates(self, tmp_path):
        # (x - lo) / (hi - lo) with hi - lo = inf gave nan coordinates
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "t", "x", "y", [Series("s", (1e308, -1e308), (0.0, 1.0))])
        _assert_every_position_finite(p)

    def test_ticks_up_to_the_largest_float_are_finite(self):
        # hi + 1e-9 * span overflows, so the tick past the largest float was kept as inf
        assert _nice_ticks(0.0, sys.float_info.max) == [0.0, 5e307, 1e308, 1.5e308]

    def test_constant_series_that_absorbs_one_writes_a_chart(self, tmp_path):
        # 1e20 + 1 is 1e20: the empty range widens by an ulp instead
        p = tmp_path / "chart.svg"
        write_line_chart(str(p), "t", "x", "y", [Series("s", (0.0, 1.0), (1e20, 1e20))])
        _assert_every_position_finite(p)


def _assert_every_position_finite(path):
    """Every coordinate and tick label the chart holds is a finite number."""
    text, root = _read(path)
    values = []
    for el in root.iter():
        for name in ("x", "y", "x1", "y1", "x2", "y2"):
            if el.get(name) is not None:
                values.append(float(el.get(name)))
        if el.tag.endswith("polyline"):
            values += [float(v) for pair in el.get("points").split() for v in pair.split(",")]
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    values += [float(t) for t in labels if t and t[0] in "-0123456789"]
    assert values and all(math.isfinite(v) for v in values)
    assert "nan" not in text and "inf" not in text
