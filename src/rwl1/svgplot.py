"""Minimal deterministic SVG line plots for success-probability curves.

Pure string construction with fixed-precision coordinates, so a given
series list always renders to byte-identical output.  One polyline per
series, y the success rate in [0, 1], optional log10 x axis for eps studies.
"""

from __future__ import annotations

import math

__all__ = ["render_lines"]

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 40, 60
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2", "#7f7f7f", "#bcbd22"]


def _f(v: float) -> str:
    return f"{v:.2f}"


def render_lines(series: list[tuple[str, list[tuple[float, float]]]],
                 x_label: str, title: str = "", log_x: bool = False) -> str:
    """Render labelled (x, y) series with y in [0, 1] to an SVG document."""
    if not series or all(not pts for _, pts in series):
        raise ValueError("nothing to plot: no data points")
    xs = sorted({x for _, pts in series for x, _ in pts})
    if log_x:
        if any(x <= 0 for x in xs):
            raise ValueError("log x axis requires positive x values")
        tx = {x: math.log10(x) for x in xs}
    else:
        tx = {x: float(x) for x in xs}
    lo, hi = tx[xs[0]] / 2, tx[xs[-1]] / 2  # halved: hi - lo of two finite floats can overflow
    span = hi - lo if hi > lo else 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (tx[x] / 2 - lo) / span * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (1.0 - y) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="14">{_esc(title)}</text>')

    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for i in range(6):  # y ticks 0.0 .. 1.0
        yv = i / 5.0
        yy = py(yv)
        out.append(f'<line x1="{x0 - 4}" y1="{_f(yy)}" x2="{x0}" y2="{_f(yy)}" stroke="black"/>')
        out.append(f'<text x="{x0 - 8}" y="{_f(yy + 4)}" text-anchor="end">{yv:.1f}</text>')
    ticks = xs if len(xs) <= 14 else xs[:: max(1, len(xs) // 13)]
    for x in ticks:
        xx = px(x)
        out.append(f'<line x1="{_f(xx)}" y1="{y0}" x2="{_f(xx)}" y2="{y0 + 4}" stroke="black"/>')
        out.append(f'<text x="{_f(xx)}" y="{y0 + 18}" text-anchor="middle">{_tick(x)}</text>')
    out.append(f'<text x="{x0 + plot_w // 2}" y="{HEIGHT - 16}" text-anchor="middle">{_esc(x_label)}</text>')
    out.append(
        f'<text x="18" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h // 2})">success rate</text>'
    )

    # data + legend
    legend_x = WIDTH - MARGIN_R + 16
    for idx, (label, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in sorted(pts))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{_f(px(x))}" cy="{_f(py(y))}" r="2.5" fill="{color}"/>')
        ly = MARGIN_T + 14 + 18 * idx
        out.append(f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{legend_x + 28}" y="{ly}">{_esc(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tick(x: float) -> str:
    if x == int(x) and abs(x) < 1e6:
        return str(int(x))
    return f"{x:g}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
