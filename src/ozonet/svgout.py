"""Minimal SVG output for report embedding: heat maps and score charts.

Hand-rolled on purpose: outputs are simple vector files any browser or
office tool can open, with no plotting-stack dependency.
"""

from __future__ import annotations

from html import escape

import numpy as np

from ozonet.io import atomic_write

# blue -> pale yellow -> red
_STOPS = ((0.0, (44, 123, 182)), (0.5, (255, 255, 191)), (1.0, (215, 25, 28)))
_PANEL_PX = 360     # side of one heat map panel


def _colors(t: np.ndarray) -> list:
    """The ramp's "rgb(r,g,b)" of each t, clipped to [0, 1], in C order:
    between the two stops around t, each channel a + (b - a) * f rounded
    half to even."""
    t = np.clip(t, 0.0, 1.0).ravel()
    (t0, c0), (t1, c1), (t2, c2) = _STOPS
    low = (t <= t1)[:, None]
    f = np.where(low, ((t - t0) / (t1 - t0))[:, None], ((t - t1) / (t2 - t1))[:, None])
    a, b = np.where(low, c0, c1), np.where(low, c1, c2)
    return [f"rgb({r},{g},{b})" for r, g, b in np.rint(a + (b - a) * f).astype(int).tolist()]


def _write_svg(path, width, height, font_size, parts):
    """Write `parts`, SVG elements, as one document of the given size."""
    with atomic_write(path) as handle:
        handle.write("\n".join([
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'font-family="sans-serif" font-size="{font_size}">', *parts, "</svg>", ""]))


def heatmap_svg(panels, path, sites=None):
    """Write one or more gridded fields side by side.

    `panels` is a sequence of (label, GridField); `sites` an optional list
    of (lat, lon) drawn as markers on every panel. All panels share one
    colour scale so they are directly comparable.
    """
    panels = list(panels)
    if not panels:
        raise ValueError("no panels to draw")
    vmin = min(float(np.min(g.values)) for _, g in panels)
    vmax = max(float(np.max(g.values)) for _, g in panels)
    span = (vmax - vmin) or 1.0

    margin, title_h = 10, 18
    width = margin + len(panels) * (_PANEL_PX + margin)
    parts = []
    for p, (label, grid) in enumerate(panels):
        x0 = margin + p * (_PANEL_PX + margin)
        y0 = title_h
        n_lat, n_lon = grid.values.shape
        cw = _PANEL_PX / n_lon
        ch = _PANEL_PX / n_lat
        parts.append(f'<text x="{x0}" y="{title_h - 5}">{escape(label)}</text>')
        colors = _colors((grid.values - vmin) / span)
        xs = [f"{x0 + j * cw:.1f}" for j in range(n_lon)]
        size = f'width="{cw + 0.5:.1f}" height="{ch + 0.5:.1f}"'
        for i in range(n_lat):
            # latitude increases upward
            y = f"{y0 + (n_lat - 1 - i) * ch:.1f}"
            parts.extend(f'<rect x="{x}" y="{y}" {size} fill="{color}"/>'
                         for x, color in zip(xs, colors[i * n_lon:(i + 1) * n_lon]))
        if sites:
            for lat, lon in sites:
                if grid.lat_min <= lat <= grid.lat_max and grid.lon_min <= lon <= grid.lon_max:
                    fx = (lon - grid.lon_min) / (grid.lon_max - grid.lon_min)
                    fy = (lat - grid.lat_min) / (grid.lat_max - grid.lat_min)
                    parts.append(
                        f'<circle cx="{x0 + fx * _PANEL_PX:.1f}" '
                        f'cy="{y0 + (1 - fy) * _PANEL_PX:.1f}" r="3" fill="none" '
                        f'stroke="black" stroke-width="1.2"/>'
                    )
        parts.append(
            f'<text x="{x0}" y="{y0 + _PANEL_PX + 16}">'
            f'{vmin:.1f} - {vmax:.1f} ppb</text>'
        )
    _write_svg(path, width, title_h + _PANEL_PX + 28, 11, parts)


_BAR_COLORS = {"ks": "#1b9e77", "offset": "#d95f02", "gain": "#7570b3"}


def proxy_eval_svg(scores, path):
    """Per-strategy panels: alarm-time fraction bars per site, MAB labels."""
    scores = list(scores)
    if not scores:
        raise ValueError("no scores to draw")
    strategies = sorted({s.strategy for s in scores})
    sites = sorted({s.site_id for s in scores})
    bar_w, group_w, panel_h, left = 14, 70, 130, 50
    width = left + group_w * len(sites) + 20
    panel_total = panel_h + 58
    parts = []
    by_key = {(s.site_id, s.strategy): s for s in scores}
    for p, strategy in enumerate(strategies):
        top = 10 + p * panel_total
        base = top + 16 + panel_h
        parts.append(f'<text x="8" y="{top + 12}" font-size="12">{escape(strategy)}</text>')
        parts.append(f'<line x1="{left}" y1="{base}" x2="{width - 10}" y2="{base}" '
                     f'stroke="black" stroke-width="1"/>')
        for k, site in enumerate(sites):
            score = by_key.get((site, strategy))
            gx = left + k * group_w
            parts.append(f'<text x="{gx}" y="{base + 12}">{escape(site)}</text>')
            if score is None:
                parts.append(f'<text x="{gx}" y="{base + 24}">n/a</text>')
                continue
            fractions = (("ks", score.alarm_fraction_ks),
                         ("offset", score.alarm_fraction_offset),
                         ("gain", score.alarm_fraction_gain))
            for b, (name, frac) in enumerate(fractions):
                h = frac * panel_h
                parts.append(
                    f'<rect x="{gx + b * (bar_w + 2)}" y="{base - h:.1f}" '
                    f'width="{bar_w}" height="{h:.1f}" fill="{_BAR_COLORS[name]}"/>'
                )
            r2 = "" if score.r2 is None else f" r2={score.r2:.2f}"
            parts.append(f'<text x="{gx}" y="{base + 24}">mab={score.mab:.1f}{r2}</text>')
    _write_svg(path, width, panel_total * len(strategies) + 10, 10, parts)
