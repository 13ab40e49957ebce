"""Minimal deterministic SVG plotting: line plots and space-time heatmaps.

Writes static vector graphics with no plotting-library dependency so that
reproduction outputs are byte-stable across runs.
"""
from __future__ import annotations

import math

import numpy as np

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 48


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 6):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / max(n - 1, 1)))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(v)
        v += step
    return ticks or [lo]


def _axes(parts, x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel, ylog):
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return _ML + pw * (x - x_lo) / (x_hi - x_lo) if x_hi > x_lo else _ML

    def sy(y):
        return _MT + ph * (1.0 - (y - y_lo) / (y_hi - y_lo)) if y_hi > y_lo else _MT + ph

    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_MT + ph}" x2="{_fmt(px)}" '
                     f'y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_MT + ph + 18}" font-size="11" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        label = _fmt(10.0 ** t) if ylog else _fmt(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_MT - 12}" font-size="14" '
                 f'text-anchor="middle">{title}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 10}" font-size="12" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_MT + ph / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 {_MT + ph / 2})">'
                 f'{ylabel}</text>')
    return sx, sy


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def line_plot(path, x, ys, labels, title="", xlabel="", ylabel="",
              ylog: bool = False) -> None:
    """Write a multi-series line plot; ys is a list of series."""
    x = np.asarray(x, dtype=float)
    series = [np.asarray(y, dtype=float) for y in ys]
    if ylog:
        floor = 1e-300
        series = [np.log10(np.maximum(np.abs(y), floor)) for y in series]
    y_all = np.concatenate([s[np.isfinite(s)] for s in series]) if series else np.zeros(1)
    if y_all.size == 0:
        y_all = np.zeros(1)
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    sx, sy = _axes(parts, float(x.min()), float(x.max()), y_lo, y_hi,
                   title, xlabel, ylabel, ylog)
    px = np.broadcast_to(sx(x), x.shape)  # sx gives a scalar when all x are equal
    for i, s in enumerate(series):
        ok = np.isfinite(s)
        pts = " ".join(map("{},{}".format, map(_fmt, px[ok].tolist()),
                           map(_fmt, sy(s[ok]).tolist())))
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.4"/>')
        if labels and i < len(labels):
            ly = _MT + 16 + 16 * i
            parts.append(f'<line x1="{_W - 150}" y1="{ly - 4}" x2="{_W - 126}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{_W - 120}" y="{ly}" font-size="11">'
                         f'{labels[i]}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def heatmap(path, times, xs, z, title="", xlabel="t", ylabel="x",
            max_cells: int = 160) -> None:
    """Write a space-time surface as a colored-cell SVG; decimates to at
    most max_cells per axis."""
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    z = np.asarray(z, dtype=float)  # shape (len(times), len(xs))
    ti = np.linspace(0, len(times) - 1, min(len(times), max_cells)).astype(int)
    xi = np.linspace(0, len(xs) - 1, min(len(xs), max_cells)).astype(int)
    zs = z[np.ix_(ti, xi)]
    lo, hi = float(np.min(zs)), float(np.max(zs))
    span = hi - lo if hi > lo else 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    nt, nxp = len(ti), len(xi)
    cw, chh = pw / nt, ph / nxp
    # a cell's markup: its column's x, its row's y and the size, its colour
    cols = [f'<rect x="{_fmt(p)}" y="' for p in (_ML + np.arange(nt) * cw).tolist()]
    rows = [f'{_fmt(p)}" width="{_fmt(cw + 0.5)}" height="{_fmt(chh + 0.5)}" fill="rgb('
            for p in ((_MT + ph) - np.arange(1, nxp + 1) * chh).tolist()]
    v = (zs - lo) / span
    rgb = zip(*((255 * v).astype(int).tolist(),
                (80 + 100 * (0.5 - np.abs(v - 0.5))).astype(int).tolist(),
                (255 * (1.0 - v)).astype(int).tolist()))
    for col, cells in zip(cols, rgb):
        parts.extend(f'{col}{row}{r},{g},{b})"/>' for row, r, g, b in zip(rows, *cells))
    _axes(parts, float(times.min()), float(times.max()),
          float(xs.min()), float(xs.max()), title, xlabel, ylabel, False)
    parts.append(f'<text x="{_W - _MR - 4}" y="{_MT - 12}" font-size="11" '
                 f'text-anchor="end">range [{_fmt(lo)}, {_fmt(hi)}]</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
