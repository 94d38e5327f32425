"""Heat map colours: the array ramp against the per-cell rule."""

import re

import numpy as np

from ozonet.metrics import GridField
from ozonet.svgout import _STOPS, _colors, heatmap_svg


def ramp_oracle(t: float) -> str:
    """The per-cell rule, in plain Python: clip t, take the two stops around
    it, and round each channel half to even."""
    t = min(1.0, max(0.0, t))
    (t0, c0), (t1, c1) = _STOPS[:2] if t <= _STOPS[1][0] else _STOPS[1:]
    f = (t - t0) / (t1 - t0)
    return "rgb({},{},{})".format(*(round(a + (b - a) * f) for a, b in zip(c0, c1)))


def test_colors_equal_the_per_cell_rule():
    rng = np.random.default_rng(5)
    # 0, 0.5 and 1 are the stops; 0.25 and 0.75 put channels on exact .5
    # ties (149.5, 186.5, 109.5), which round to even; the rest clip
    edges = [0.0, 0.5, 1.0, 0.25, 0.75, np.nextafter(0.5, 0), np.nextafter(0.5, 1),
             -0.0, -1e-300, -3.0, 1.0 + 1e-16, 7.0]
    t = np.concatenate([edges, rng.uniform(-0.2, 1.2, 5000), rng.uniform(0, 1, 5000)])
    assert _colors(t) == [ramp_oracle(float(v)) for v in t]
    assert [ramp_oracle(v) for v in (0.25, 0.75)] == ["rgb(150,189,186)", "rgb(235,140,110)"]


def grid(values):
    values = np.asarray(values, dtype=np.float64)
    n_lat, n_lon = values.shape
    return GridField(0.0, 1.0, 0.0, 2.0, 0.5, np.arange(n_lat) + 0.5,
                     np.arange(n_lon) + 0.5, values)


def rect_fills(path):
    return re.findall(r'<rect [^>]*fill="([^"]*)"', path.read_text())


def test_heatmap_cells_take_the_rule_of_their_share_of_the_span(tmp_path):
    # two panels on one scale, each drawn row by row
    first = grid([[30.0, 40.0, 50.0, 60.0], [35.0, 45.0, 55.0, 20.0]])
    second = grid(first.values * 0.5 + 10.0)
    heatmap_svg([("first", first), ("second", second)], tmp_path / "m.svg")
    values = np.concatenate([first.values, second.values]).ravel()
    t = (values - values.min()) / (values.max() - values.min())
    assert rect_fills(tmp_path / "m.svg") == [ramp_oracle(float(v)) for v in t]


def test_flat_field_takes_the_first_stop(tmp_path):
    # a flat field has no span: every cell is at t = 0
    heatmap_svg([("flat", grid([[12.5] * 4] * 3))], tmp_path / "flat.svg")
    assert rect_fills(tmp_path / "flat.svg") == [ramp_oracle(0.0)] * 12
