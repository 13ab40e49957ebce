"""Deterministic SVG plots of a `reproduce` run, the two it writes: the
tracking error norm ||u~|| on a log10 axis against t (`error_norm.svg`),
and follower 1's deviation over t and x as a heatmap of at most CELLS x
CELLS cells (`error_surface.svg`).

Writes static vector graphics with no plotting-library dependency so that
reproduction outputs are byte-stable across runs.
"""
from __future__ import annotations

import math

import numpy as np

CELLS = 160  # the heatmap's most cells along each axis
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 48
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # the plot area
_HEAD = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">\n'
         f'<rect width="{_W}" height="{_H}" fill="white"/>')


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
    """Append the frame, ticks and labels (the y ticks read 10^y when
    ylog); return the maps sx, sy from data to picture coordinates."""

    def sx(x):
        return _ML + _PW * (x - x_lo) / (x_hi - x_lo) if x_hi > x_lo else _ML

    def sy(y):
        return _MT + _PH * (1.0 - (y - y_lo) / (y_hi - y_lo)) if y_hi > y_lo else _MT + _PH

    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_MT + _PH}" x2="{_fmt(px)}" '
                     f'y2="{_MT + _PH + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_MT + _PH + 18}" font-size="11" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="11" '
                     f'text-anchor="end">{_fmt(10.0 ** t if ylog else t)}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_MT - 12}" font-size="14" '
                 f'text-anchor="middle">{title}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 10}" font-size="12" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_MT + _PH / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 {_MT + _PH / 2})">'
                 f'{ylabel}</text>')
    return sx, sy


def _write(path, parts) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([_HEAD, *parts, "</svg>"]))


def line_plot(path, x, y, label, title, xlabel, ylabel) -> None:
    """Write one series, labelled `label`, as log10 |y| (|y| floored at
    1e-300) against x; non-finite points are left out."""
    x = np.asarray(x, dtype=float)
    y = np.log10(np.maximum(np.abs(np.asarray(y, dtype=float)), 1e-300))
    ok = np.isfinite(y)
    y_lo, y_hi = (float(y[ok].min()), float(y[ok].max())) if ok.any() else (0.0, 0.0)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    parts = []
    sx, sy = _axes(parts, float(x.min()), float(x.max()), y_lo, y_hi,
                   title, xlabel, ylabel, True)
    px = np.broadcast_to(sx(x), x.shape)  # sx gives a scalar when all x are equal
    pts = " ".join(map("{:.6g},{:.6g}".format, px[ok].tolist(), sy(y[ok]).tolist()))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.4"/>')
    parts.append(f'<line x1="{_W - 150}" y1="{_MT + 12}" x2="{_W - 126}" '
                 f'y2="{_MT + 12}" stroke="#1f77b4" stroke-width="2"/>')
    parts.append(f'<text x="{_W - 120}" y="{_MT + 16}" font-size="11">{label}</text>')
    _write(path, parts)


def heatmap(path, times, xs, z, title) -> None:
    """Write a space-time surface z[time, x] as coloured cells over the axes
    t and x, each axis decimated to at most CELLS."""
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    z = np.asarray(z, dtype=float)  # shape (len(times), len(xs))
    ti = np.linspace(0, len(times) - 1, min(len(times), CELLS)).astype(int)
    xi = np.linspace(0, len(xs) - 1, min(len(xs), CELLS)).astype(int)
    zs = z[np.ix_(ti, xi)]
    lo, hi = float(np.min(zs)), float(np.max(zs))
    span = hi - lo if hi > lo else 1.0
    nt, nxp = len(ti), len(xi)
    cw, chh = _PW / nt, _PH / nxp
    # a cell's markup: its column's x, its row's y and the size, its colour
    cols = [f'<rect x="{_fmt(p)}" y="' for p in (_ML + np.arange(nt) * cw).tolist()]
    rows = [f'{_fmt(p)}" width="{_fmt(cw + 0.5)}" height="{_fmt(chh + 0.5)}" fill="rgb('
            for p in ((_MT + _PH) - np.arange(1, nxp + 1) * chh).tolist()]
    v = (zs - lo) / span
    rgb = zip(*((255 * v).astype(int).tolist(),
                (80 + 100 * (0.5 - np.abs(v - 0.5))).astype(int).tolist(),
                (255 * (1.0 - v)).astype(int).tolist()))
    parts = []
    for col, cells in zip(cols, rgb):
        parts.extend(f'{col}{row}{r},{g},{b})"/>' for row, r, g, b in zip(rows, *cells))
    _axes(parts, float(times.min()), float(times.max()),
          float(xs.min()), float(xs.max()), title, "t", "x", False)
    parts.append(f'<text x="{_W - _MR - 4}" y="{_MT - 12}" font-size="11" '
                 f'text-anchor="end">range [{_fmt(lo)}, {_fmt(hi)}]</text>')
    _write(path, parts)
