"""Self-contained SVG rendering of run results (no plotting dependency).

Two panels: planar trajectories with the leader hull drawn at snapshot times,
and the stacked containment error norm on a log scale.
"""
from __future__ import annotations

import math

import numpy as np

from .comm import floor_ticks
from .sim import Trace, convex_hull_2d

_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

WIDTH = 560
HEIGHT = 420
MARGIN = 50


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>']

    def line(self, x1, y1, x2, y2, color="#000", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>')

    def polyline(self, pts, color, width=1.2, closed=False, fill="none",
                 opacity=1.0, dash=None):
        if len(pts) < 2:
            return
        body = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        tag = "polygon" if closed else "polyline"
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<{tag} points="{body}" fill="{fill}" stroke="{color}" '
            f'stroke-width="{width}" opacity="{opacity:.2f}"{d}/>')

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>')

    def text(self, x, y, s, size=11, anchor="start", color="#000"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}" '
            f'fill="{color}">{s}</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _scaler(lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0

    def f(v):
        return out_lo + (v - lo) / span * (out_hi - out_lo)

    return f


def render_trajectories(trace: Trace, snapshot_times=(0.0, 10.0, 20.0, 40.0)
                        ) -> str:
    if trace.p.shape[2] != 2:
        raise ValueError("trajectory rendering needs planar agents")
    c = _Canvas(title="trajectories")
    n, m = trace.p.shape[1], trace.m
    lo, hi = trace.p.min(axis=(0, 1)), trace.p.max(axis=(0, 1))
    pad = 0.05 * (hi - lo + 1e-9)           # per axis
    sx = _scaler(lo[0] - pad[0], hi[0] + pad[0], MARGIN, WIDTH - MARGIN)
    sy = _scaler(lo[1] - pad[1], hi[1] + pad[1], HEIGHT - MARGIN, 30)

    # Each snapshot is drawn, and labelled, at the last step up to its time;
    # one before step 0 or after step K (its tick rounded up) is left out.
    dt, K = trace.meta["dt"], len(trace.times) - 1
    snaps = [floor_ticks(t, dt) for t in snapshot_times
             if floor_ticks(t, dt) >= 0 and -floor_ticks(-t, dt) <= K]
    hulls, sizes = convex_hull_2d(trace.p[snaps, m:])
    for si, k in enumerate(snaps):
        pts = [(sx(q[0]), sy(q[1])) for q in hulls[si, :sizes[si]]]
        fade = 0.25 + 0.75 * si / max(1, len(snaps) - 1)
        c.polyline(pts, "#444", width=1.0, closed=len(pts) > 2,
                   fill="none", opacity=fade)
        c.text(pts[0][0] + 3, pts[0][1] - 3, f"t={trace.times[k]:g}",
               size=9, color="#444")

    for i in range(n):
        color = _COLORS[i % len(_COLORS)]
        pts = [(sx(x), sy(y)) for x, y in trace.p[:, i]]
        c.polyline(pts, color, width=1.1, dash=None if i < m else "4,3")
        c.circle(*pts[0], 3, color)
        c.text(pts[-1][0] + 4, pts[-1][1], str(i + 1), size=9, color=color)
    c.text(MARGIN, HEIGHT - 12,
           "solid: followers, dashed: leaders, gray: leader hull snapshots",
           size=10, color="#333")
    return c.render()


def render_error(trace: Trace) -> str:
    c = _Canvas(title="containment error")
    err = np.maximum(trace.err_pos_norm, 1e-16)
    logs = np.log10(err)
    lo = math.floor(logs.min())
    hi = math.ceil(max(logs.max(), lo + 1))
    sx = _scaler(trace.times[0], trace.times[-1], MARGIN, WIDTH - MARGIN)
    sy = _scaler(lo, hi, HEIGHT - MARGIN, 30)
    for dec in range(int(lo), int(hi) + 1):
        y = sy(dec)
        c.line(MARGIN, y, WIDTH - MARGIN, y, color="#ddd")
        c.text(MARGIN - 6, y + 4, f"1e{dec}", size=9, anchor="end")
    for tt in np.linspace(trace.times[0], trace.times[-1], 5):
        x = sx(tt)
        c.line(x, HEIGHT - MARGIN, x, HEIGHT - MARGIN + 4)
        c.text(x, HEIGHT - MARGIN + 16, f"{tt:g}", size=9, anchor="middle")
    pts = [(sx(t), sy(lv)) for t, lv in zip(trace.times, logs)]
    c.polyline(pts, "#1f77b4", width=1.4)
    c.text(WIDTH / 2, HEIGHT - 12, "time (s)", size=10, anchor="middle")
    return c.render()


def write_report_svg(trace: Trace, path: str,
                     snapshot_times=(0.0, 10.0, 20.0, 40.0)) -> None:
    """Stack both panels into one document."""
    traj = render_trajectories(trace, snapshot_times)
    errp = render_error(trace)

    def body(doc):
        start = doc.index(">") + 1
        end = doc.rindex("</svg>")
        return doc[start:end]

    total_h = 2 * HEIGHT + 10
    doc = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{total_h}" viewBox="0 0 {WIDTH} {total_h}">',
           body(traj),
           f'<g transform="translate(0,{HEIGHT + 10})">', body(errp), "</g>",
           "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(doc) + "\n")
