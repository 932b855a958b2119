"""ASCII charts."""

import pytest

from repro.analysis.charts import line_chart, scaling_chart


# ----------------------------------------------------------------------
# line_chart
# ----------------------------------------------------------------------

def test_line_chart_contains_series_glyphs_and_legend():
    out = line_chart([4, 8, 16], {"lru": [1.0, 1.0, 1.0],
                                  "care": [1.1, 1.13, 1.17]})
    assert "o=lru" in out and "x=care" in out
    assert "o" in out and "x" in out


def test_line_chart_extremes_on_boundary_rows():
    out = line_chart([0, 1], {"s": [0.0, 10.0]}, height=5, width=10)
    lines = out.splitlines()
    assert lines[0].startswith("  10.000")
    assert "s" not in lines[0]          # glyph row, but max is first series row
    # min value printed on the bottom axis row
    assert any(l.startswith("   0.000") for l in lines)


def test_line_chart_validation():
    with pytest.raises(ValueError):
        line_chart([], {"a": []})
    with pytest.raises(ValueError):
        line_chart([1], {})
    with pytest.raises(ValueError):
        line_chart([1, 2], {"a": [1.0]})
    with pytest.raises(ValueError):
        line_chart([1], {str(i): [1.0] for i in range(9)})


def test_line_chart_flat_series_does_not_divide_by_zero():
    out = line_chart([1, 2, 3], {"flat": [2.0, 2.0, 2.0]})
    assert "flat" in out


def test_scaling_chart_shape():
    table = {4: {"lru": 1.0, "care": 1.1},
             8: {"lru": 1.0, "care": 1.14},
             16: {"lru": 1.0, "care": 1.18}}
    out = scaling_chart(table)
    assert "cores" in out and "speedup over LRU" in out
    assert "care" in out
