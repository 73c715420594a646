import pytest

from rwl1.svgplot import render_lines


@pytest.mark.parametrize("series,log_x,fragment", [
    ([], False, "no data points"),
    ([("l1", []), ("w1", [])], False, "no data points"),
    ([("k=3", [(0.0, 0.5), (0.1, 1.0)])], True, "positive x values"),
], ids=["no-series", "empty-series", "log-x-at-zero"])
def test_unplottable_series_rejected(series, log_x, fragment):
    with pytest.raises(ValueError, match=fragment):
        render_lines(series, x_label="k", log_x=log_x)


def test_title_is_escaped_and_centred():
    series = [("l1", [(1, 0.5), (2, 1.0)])]
    title = '<text x="380" y="22" text-anchor="middle" font-size="14">p &lt; q &amp; k</text>'
    assert title in render_lines(series, x_label="k", title="p < q & k")
    assert 'font-size="14"' not in render_lines(series, x_label="k")
