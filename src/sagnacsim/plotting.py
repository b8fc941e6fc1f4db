"""Self-contained SVG rendering for fringe scans and phase-shift summaries.

No plotting dependency: the campaign output must stay reproducible from the
CSV/JSON files alone, so the SVG is a convenience view only.
"""

from __future__ import annotations

import numpy as np

from .analysis import FitResult, _model
from .sagnac import FringeScan

PANEL_W = 460
PANEL_H = 250
MARGIN_L = 56
MARGIN_B = 40
MARGIN_T = 28
MARGIN_R = 16
SERIES_COLORS = ("#000000", "#cc2222", "#2244cc", "#22aa66", "#aa22aa")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, color="#888888", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    # circles and polyline take coordinates already formatted by _coords
    def polyline(self, xs, ys, color, width=1.2, dash=None):
        pts = " ".join(f"{x},{y}" for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra}/>'
        )

    def circles(self, xs, ys, r, color, fill=True):
        fill_attr = color if fill else "none"
        tail = f'" r="{r:.1f}" fill="{fill_attr}" stroke="{color}"/>'  # the same for every circle
        self.parts.extend(f'<circle cx="{x}" cy="{y}{tail}' for x, y in zip(xs, ys))

    def square(self, x, y, half, color):
        self.parts.append(
            f'<rect x="{x - half:.1f}" y="{y - half:.1f}" width="{2 * half:.1f}" '
            f'height="{2 * half:.1f}" fill="{color}"/>'
        )

    def text(self, x, y, s, size=11, anchor="start", color="#222222"):
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{color}">{_esc(s)}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def _coords(pixels) -> list[str]:
    values = np.asarray(pixels, dtype=float).tolist()
    return ("%.1f " * len(values) % tuple(values)).split()  # one format call per column


def _axis_map(lo, hi, pix_lo, pix_hi):
    """Linear map from data to pixels, for a number or a whole array."""
    span = hi - lo if hi > lo else 1.0
    return lambda v: pix_lo + (np.asarray(v) - lo) / span * (pix_hi - pix_lo)


def _fringe_panel(canvas: _Canvas, ox: float, oy: float, title: str,
                  pairs: list[tuple[FringeScan, FitResult]]):
    """Draw one fringe panel with origin (ox, oy) at its top-left corner.

    Each (scan, fit) pair is one series: the scan's points, joined by the
    fitted curve when the fit defines a phase, else by straight lines.
    """
    x0, x1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
    y0, y1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T
    thetas_deg = [np.rad2deg(scan.thetas) for scan, _ in pairs]  # increasing, as scans are
    theta_max = max(float(th[-1]) for th in thetas_deg)
    theta_min = min(float(th[0]) for th in thetas_deg)
    v_max = max(float(scan.values.max()) for scan, _ in pairs)
    v_max = v_max if v_max > 0 else 1.0
    to_x = _axis_map(theta_min, theta_max, x0, x1)
    to_y = _axis_map(0.0, 1.05 * v_max, y0, y1)

    canvas.line(x0, y0, x1, y0)
    canvas.line(x0, y0, x0, y1)
    for tick in np.arange(0.0, theta_max + 1e-9, 45.0):
        if tick < theta_min:
            continue
        canvas.line(to_x(tick), y0, to_x(tick), y0 + 4)
        canvas.text(to_x(tick), y0 + 16, f"{tick:g}", anchor="middle")
    for frac in (0.0, 0.5, 1.0):
        val = frac * v_max
        canvas.line(x0 - 4, to_y(val), x0, to_y(val))
        canvas.text(x0 - 7, to_y(val) + 4, f"{val:g}", anchor="end")
    canvas.text((x0 + x1) / 2, oy + PANEL_H - 6, "phase shifter angle (deg)", anchor="middle")
    canvas.text(ox + 10, oy + 16, title, size=12)

    for idx, ((scan, fit), theta_deg) in enumerate(zip(pairs, thetas_deg)):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        xs, ys = _coords(to_x(theta_deg)), _coords(to_y(scan.values))
        canvas.circles(xs, ys, 2.0, color)
        if fit.b_defined:
            dense_deg = np.linspace(float(theta_deg[0]), float(theta_deg[-1]), 200)
            curve = _model(np.deg2rad(dense_deg),
                           (fit.amplitude, fit.visibility, fit.frequency, fit.phase))
            canvas.polyline(_coords(to_x(dense_deg)), _coords(to_y(curve)), color,
                            dash="4,3" if idx == 1 else None)
        else:
            canvas.polyline(xs, ys, color)
        canvas.text(x1 - 64, y1 + 14 * (idx + 1), f"t = {scan.t:g}", color=color)


def _shift_panel(canvas: _Canvas, ox: float, oy: float, shifts: list[dict]):
    x0, x1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
    y0, y1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T
    dims = [s["dim"] for s in shifts]
    d_lo, d_hi = min(dims) - 0.5, max(dims) + 0.5
    top = max(max(s["shift_deg"] for s in shifts), max(s["theory_deg"] for s in shifts))
    to_x = _axis_map(d_lo, d_hi, x0, x1)
    to_y = _axis_map(0.0, 1.15 * top, y0, y1)

    canvas.line(x0, y0, x1, y0)
    canvas.line(x0, y0, x0, y1)
    for d in dims:
        canvas.line(to_x(d), y0, to_x(d), y0 + 4)
        canvas.text(to_x(d), y0 + 16, str(d), anchor="middle")
    for val in range(0, 361, 90):
        if val <= 1.15 * top:
            canvas.line(x0 - 4, to_y(val), x0, to_y(val))
            canvas.text(x0 - 7, to_y(val) + 4, str(val), anchor="end")
    canvas.text((x0 + x1) / 2, oy + PANEL_H - 6, "qudit dimension d", anchor="middle")
    canvas.text(ox + 10, oy + 16, "fringe shift vs dimension", size=12)

    for s in shifts:
        x = to_x(s["dim"])
        canvas.circles(_coords([x + 6]), _coords([to_y(s["theory_deg"])]), 4.0, "#888888",
                       fill=False)
        y = to_y(s["shift_deg"])
        canvas.square(x, y, 4.0, "#cc2222")
        err = s["sigma_deg"] * 3.0
        if err > 0:
            canvas.line(x, to_y(s["shift_deg"] - err), x, to_y(s["shift_deg"] + err),
                        color="#cc2222", width=1.2)
    canvas.text(x1 - 150, y1 + 14, "measured (squares)", color="#cc2222")
    canvas.text(x1 - 150, y1 + 28, "expected (circles)", color="#888888")


def render_campaign_svg(panels: list[tuple[str, list[tuple[FringeScan, FitResult]]]],
                        shifts: list[dict]) -> str:
    """Build the campaign figure: one fringe panel per dimension, then the shift chart.

    ``panels`` holds a (title, [(scan, fit), ...]) entry per dimension, and
    ``shifts`` the summary's per-dimension results.
    """
    cols = 2
    rows = len(panels) // cols + 1  # the shift chart takes the cell after the last panel
    canvas = _Canvas(cols * PANEL_W, rows * PANEL_H)
    for i, (title, pairs) in enumerate(panels):
        _fringe_panel(canvas, (i % cols) * PANEL_W, (i // cols) * PANEL_H, title, pairs)
    i = len(panels)
    _shift_panel(canvas, (i % cols) * PANEL_W, (i // cols) * PANEL_H, shifts)
    return canvas.render()
