"""Dependency-free SVG charts for report bundles.

Only two chart kinds are needed: learning-curve line charts (one polyline
per target language) and AUC-vs-intelligibility scatter plots. Output is
plain SVG text with all coordinates rounded to 2 decimals, so identical
inputs give byte-identical files and tests can diff them.
"""

from __future__ import annotations

import html
import math

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 150
MARGIN_TOP = 50
MARGIN_BOTTOM = 55

# Okabe-Ito palette: distinguishable under common color-vision deficiencies.
PALETTE = ("#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9")


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi] at a power-of-ten-ish step."""
    raw_step = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mag * mult
        if step >= raw_step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt_tick(value: float) -> str:
    return f"{value:g}"


class _Frame:
    """Maps data coordinates onto the SVG plot rectangle."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.px_left = MARGIN_LEFT
        self.px_right = WIDTH - MARGIN_RIGHT
        self.px_top = MARGIN_TOP
        self.px_bottom = HEIGHT - MARGIN_BOTTOM

    def x(self, v: float) -> float:
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return round(self.px_left + frac * (self.px_right - self.px_left), 2)

    def y(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return round(self.px_bottom - frac * (self.px_bottom - self.px_top), 2)


def _pad_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.06 or max(abs(hi), 1.0) * 0.05
    return lo - pad, hi + pad


def _chart_shell(title: str, xlabel: str, ylabel: str, frame: _Frame,
                 body: list[str]) -> str:
    x_ticks = _nice_ticks(frame.x_lo, frame.x_hi)
    y_ticks = _nice_ticks(frame.y_lo, frame.y_hi)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{html.escape(title, quote=False)}</text>',
    ]
    # Gridlines and tick labels.
    for t in x_ticks:
        px = frame.x(t)
        parts.append(
            f'<line x1="{px}" y1="{frame.px_top}" x2="{px}" '
            f'y2="{frame.px_bottom}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px}" y="{frame.px_bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    for t in y_ticks:
        py = frame.y(t)
        parts.append(
            f'<line x1="{frame.px_left}" y1="{py}" x2="{frame.px_right}" '
            f'y2="{py}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{frame.px_left - 8}" y="{round(py + 4, 2)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    # Axes.
    parts.append(
        f'<line x1="{frame.px_left}" y1="{frame.px_bottom}" '
        f'x2="{frame.px_right}" y2="{frame.px_bottom}" stroke="black" '
        f'stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{frame.px_left}" y1="{frame.px_top}" '
        f'x2="{frame.px_left}" y2="{frame.px_bottom}" stroke="black" '
        f'stroke-width="1.5"/>'
    )
    # Axis labels.
    parts.append(
        f'<text x="{(frame.px_left + frame.px_right) // 2}" '
        f'y="{HEIGHT - 14}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">{html.escape(xlabel, quote=False)}</text>'
    )
    mid_y = (frame.px_top + frame.px_bottom) // 2
    parts.append(
        f'<text x="20" y="{mid_y}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {mid_y})">{html.escape(ylabel, quote=False)}</text>'
    )
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(title: str, xlabel: str, ylabel: str,
               series: dict[str, list[tuple[float, float]]]) -> str:
    """Render named (x, y) series as colored polylines with a legend.

    Series are drawn in sorted-name order so output is stable no matter how
    the dict was built.
    """
    if not series or all(not pts for pts in series.values()):
        raise ValueError("line_chart needs at least one non-empty series")
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    frame = _Frame(*_pad_range(xs), *_pad_range(ys))

    body: list[str] = []
    legend_y = MARGIN_TOP + 10
    for i, name in enumerate(sorted(series)):
        pts = sorted(series[name])
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{frame.x(x)},{frame.y(y)}" for x, y in pts)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in pts:
            body.append(
                f'<circle cx="{frame.x(x)}" cy="{frame.y(y)}" r="3" '
                f'fill="{color}"/>'
            )
        body.append(
            f'<line x1="{frame.px_right + 12}" y1="{legend_y}" '
            f'x2="{frame.px_right + 34}" y2="{legend_y}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        body.append(
            f'<text x="{frame.px_right + 40}" y="{legend_y + 4}" '
            f'font-family="sans-serif" font-size="12">{html.escape(name, quote=False)}</text>'
        )
        legend_y += 20
    return _chart_shell(title, xlabel, ylabel, frame, body)


def scatter_chart(title: str, xlabel: str, ylabel: str,
                  points: list[tuple[float, float, str, bool]]) -> str:
    """Render labeled scatter points; excluded ones are hollow.

    Each point is (x, y, label, excluded). Excluded points still appear so
    a reader can see what the filtered correlation dropped.
    """
    if not points:
        raise ValueError("scatter_chart needs at least one point")
    frame = _Frame(
        *_pad_range([p[0] for p in points]),
        *_pad_range([p[1] for p in points]),
    )
    body: list[str] = []
    for x, y, label, excluded in sorted(points, key=lambda p: (p[2], p[0], p[1])):
        px, py = frame.x(x), frame.y(y)
        if excluded:
            body.append(
                f'<circle cx="{px}" cy="{py}" r="4" fill="white" '
                f'stroke="#D55E00" stroke-width="1.5"/>'
            )
        else:
            body.append(f'<circle cx="{px}" cy="{py}" r="4" fill="#0072B2"/>')
        body.append(
            f'<text x="{round(px + 6, 2)}" y="{round(py - 5, 2)}" font-family="sans-serif" '
            f'font-size="10" fill="#444444">{html.escape(label, quote=False)}</text>'
        )
    return _chart_shell(title, xlabel, ylabel, frame, body)
