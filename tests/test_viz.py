"""Tests for :mod:`repro.viz` — the renderers must be pure, deterministic,
and degrade gracefully on divergent (non-finite) data, because the CLI
feeds them raw experiment output including diverged runs."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.viz import bar_chart, format_table, heatmap, line_plot, sparkline
from repro.viz.heatmap import DIVERGED_CELL


class TestLinePlot:
    def test_flat_series_renders_without_degenerate_scale(self):
        out = line_plot({"flat": ([0, 1, 2], [5.0, 5.0, 5.0])})
        assert "flat" in out
        assert "|" in out

    def test_title_and_labels_appear(self):
        out = line_plot(
            {"s": ([0, 1], [0.0, 1.0])},
            title="Loss vs step",
            ylabel="loss",
            xlabel="step",
        )
        assert out.splitlines()[0] == "Loss vs step"
        assert "loss" in out
        assert "step" in out

    def test_markers_distinct_per_series(self):
        out = line_plot({"a": ([0, 1], [0, 1]), "b": ([0, 1], [1, 0])})
        assert "* a" in out
        assert "o b" in out

    def test_nonfinite_points_dropped(self):
        out = line_plot({"d": ([0, 1, 2, 3], [1.0, 2.0, math.inf, math.nan])})
        # Renders only the finite prefix — no crash, no inf in axis labels.
        assert "inf" not in out
        assert "nan" not in out

    def test_all_nonfinite_yields_placeholder(self):
        out = line_plot({"d": ([0, 1], [math.nan, math.inf])})
        assert "(no finite data)" in out

    def test_logy_drops_nonpositive(self):
        out = line_plot({"s": ([0, 1, 2], [0.0, -1.0, 10.0])}, logy=True)
        assert "1e" in out  # log-scale labels

    def test_empty_series_dict_rejected(self):
        with pytest.raises(ValueError):
            line_plot({})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            line_plot({"s": ([0, 1], [1.0])})

    def test_tiny_plot_area_rejected(self):
        with pytest.raises(ValueError):
            line_plot({"s": ([0], [0.0])}, width=4, height=2)

    def test_extremes_land_on_grid_corners(self):
        out = line_plot({"s": ([0, 10], [0.0, 1.0])}, width=10, height=5)
        rows = [l for l in out.splitlines() if "|" in l]
        # max y on the top plot row, min y on the bottom one
        assert "*" in rows[0]
        assert "*" in rows[-1]

    @given(
        ys=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @example(ys=[5e-324])  # flat subnormal series: the relative pad underflows
    @settings(max_examples=50, deadline=None)
    def test_any_finite_series_renders(self, ys):
        out = line_plot({"s": (list(range(len(ys))), ys)})
        assert isinstance(out, str)
        assert "s" in out


class TestHeatmap:
    def test_ramp_maps_min_to_first_max_to_last(self):
        out = heatmap([[0.0, 1.0]], ramp=" #", cell_width=1)
        row = out.splitlines()[0]
        assert row == " #"

    def test_nonfinite_cells_marked_diverged(self):
        out = heatmap([[1.0, math.inf], [math.nan, 2.0]], cell_width=1)
        grid_rows = out.splitlines()[:2]
        assert grid_rows[0][1] == DIVERGED_CELL
        assert grid_rows[1][0] == DIVERGED_CELL
        assert "diverged" in out.splitlines()[-1]

    def test_constant_grid_no_zero_division(self):
        out = heatmap(np.full((3, 3), 7.0))
        assert "scale:" in out

    def test_row_labels_aligned(self):
        out = heatmap([[0.0], [1.0]], row_labels=["t=1", "t=10"])
        lines = out.splitlines()
        assert lines[0].startswith(" t=1 ")
        assert lines[1].startswith("t=10 ")

    def test_col_labels_thinned_into_footer(self):
        out = heatmap(
            [[0.0, 0.5, 1.0]],
            col_labels=["a", "b", "c"],
            cell_width=2,
        )
        footer = out.splitlines()[1]
        assert "a" in footer

    def test_label_length_validation(self):
        with pytest.raises(ValueError):
            heatmap([[0.0]], row_labels=["a", "b"])
        with pytest.raises(ValueError):
            heatmap([[0.0]], col_labels=["a", "b"])

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            heatmap(np.zeros(3))

    def test_short_ramp_rejected(self):
        with pytest.raises(ValueError):
            heatmap([[0.0]], ramp="#")

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_shape_of_output_matches_grid(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        out = heatmap(rng.normal(size=(rows, cols)), cell_width=2)
        body = out.splitlines()[:rows]
        assert len(body) == rows
        assert all(len(line) == cols * 2 for line in body)


class TestBarChart:
    def test_peak_bar_fills_width(self):
        out = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert "#" * 10 in lines[1]
        assert "#" * 5 in lines[0]

    def test_zero_values_render_empty_bars(self):
        out = bar_chart(["z"], [0.0], width=10)
        assert "#" not in out

    def test_negative_clamped_to_zero(self):
        out = bar_chart(["n", "p"], [-5.0, 5.0], width=10)
        assert out.splitlines()[0].count("#") == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [math.inf])

    def test_empty_chart_is_title(self):
        assert bar_chart([], [], title="t") == "t"

    def test_values_printed_at_line_ends(self):
        out = bar_chart(["x"], [3.25], fmt=".2f")
        assert out.endswith("3.25")


class TestSparkline:
    def test_monotone_series_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3], ramp=".:#")
        assert s[0] == "."
        assert s[-1] == "#"

    def test_divergence_marked(self):
        s = sparkline([1.0, 2.0, math.inf, math.nan])
        assert s.endswith("!!")

    def test_all_nonfinite(self):
        assert sparkline([math.nan, math.inf]) == "!!"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_mid_ramp(self):
        s = sparkline([5, 5, 5], ramp="ab")
        assert set(s) == {"b"}

    @given(
        ys=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=32),
            max_size=64,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_one_char_per_point(self, ys):
        assert len(sparkline(ys)) == len(ys)


class TestFormatTable:
    def test_numeric_columns_right_aligned_text_left(self):
        out = format_table(
            ["method", "speedup"],
            [["GPipe", 1.0], ["PipeMare", 3.3]],
        )
        lines = out.splitlines()
        assert lines[0].startswith("method")
        assert lines[2].startswith("GPipe")
        assert lines[3].rstrip().endswith("3.3")

    def test_none_renders_dash(self):
        out = format_table(["m", "v"], [["PipeDream", None]])
        assert out.splitlines()[-1].rstrip().endswith("-")

    def test_float_fmt_applied(self):
        out = format_table(["v"], [[0.123456]], float_fmt=".2f")
        assert "0.12" in out

    def test_title_first_line(self):
        out = format_table(["a"], [[1]], title="Table 2")
        assert out.splitlines()[0] == "Table 2"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_no_rows_is_header_plus_rule(self):
        out = format_table(["a", "b"], [])
        assert len(out.splitlines()) == 2

    @given(
        nrows=st.integers(0, 6),
        ncols=st.integers(1, 5),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_rows_same_rendered_width_modulo_rstrip(self, nrows, ncols, seed):
        rng = np.random.default_rng(seed)
        headers = [f"c{i}" for i in range(ncols)]
        rows = [[float(rng.normal()) for _ in range(ncols)] for _ in range(nrows)]
        out = format_table(headers, rows)
        lines = out.splitlines()
        rule = lines[1]
        assert set(rule) <= {"-", " "}
        # numeric columns right-align, so every row ends at the rule's width
        assert all(len(line.rstrip()) == len(rule) for line in lines)
