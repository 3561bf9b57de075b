"""Minimal static SVG line charts, no plotting dependency.

Output is deterministic text: fixed palette, fixed geometry, repr-stable
numbers, so chart files can be diffed across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ("#1f6fb2", "#d95f02", "#2a9d50", "#7a4fa3", "#6b6b6b")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 18, 42, 52
_BIG = math.nextafter(math.inf, 0.0)   # the largest float
_TICK_TARGET = 5   # about this many ticks per axis


def _escape(text: str) -> str:
    """Text for an SVG element: &, < and > as entities (xml.sax.saxutils
    would load urllib, and with it ssl and email, into every command)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple
    dashed: bool = False


def _finite_pairs(xs, ys):
    return [(float(x), float(y)) for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)]


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """hi > lo: an empty range widens by 1, or by an ulp where lo absorbs 1."""
    if hi > lo:
        return lo, hi
    step = 1.0 if lo + 1.0 > lo else math.ulp(lo)
    return (lo, lo + step) if lo + step < math.inf else (lo - step, lo)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    lo, hi = _widened(lo, hi)
    span = hi - lo
    if span == math.inf and math.isfinite(lo) and math.isfinite(hi):
        # the width overflows: the ticks of the halved range, doubled (both exact)
        return [2.0 * t for t in _nice_ticks(0.5 * lo, 0.5 * hi)]
    # a span of a few subnormals steps by the smallest one, not by zero
    raw = max(span / _TICK_TARGET, math.ulp(0.0))
    mag = max(10.0 ** math.floor(math.log10(raw)), math.ulp(0.0))
    step = next((m * mag for m in (1.0, 2.0, 5.0) if raw <= m * mag), 10.0 * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span and math.isfinite(t):
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:   # a step below half an ulp of t leaves t where it is
            break
        t += step
    return ticks


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out in ("-0", "-0.0") else out


def write_line_chart(path: str, title: str, xlabel: str, ylabel: str, series) -> None:
    """Write a line chart; series is an iterable of Series."""
    pts_per = [_finite_pairs(s.xs, s.ys) for s in series]
    all_pts = [p for pts in pts_per for p in pts]
    if all_pts:
        x_lo = min(p[0] for p in all_pts)
        x_hi = max(p[0] for p in all_pts)
        y_lo = min(p[1] for p in all_pts)
        y_hi = max(p[1] for p in all_pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    x_lo, x_hi = _widened(x_lo, x_hi)
    y_lo, y_hi = _widened(y_lo, y_hi)
    pad = min(0.04 * (y_hi - y_lo), 0.04 * _BIG)
    y_lo = max(y_lo - pad, -_BIG)
    y_hi = min(y_hi + pad, _BIG)
    # a span past the largest float maps at scale 2^-12: exact, and finite times the width
    kx, ky = (1.0 if math.isfinite(b - a) else 2.0**-12 for a, b in ((x_lo, x_hi), (y_lo, y_hi)))
    inner_w = _W - _ML - _MR
    inner_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + inner_w * (kx * x - kx * x_lo) / (kx * x_hi - kx * x_lo)

    def sy(y: float) -> float:
        return _MT + inner_h * (1.0 - (ky * y - ky * y_lo) / (ky * y_hi - ky * y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]
    for tx in _nice_ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" y2="{_H - _MB}" '
                   'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
    for ty in _nice_ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" '
                   'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 6}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{inner_w}" height="{inner_h}" '
               'fill="none" stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{_ML + inner_w // 2}" y="{_H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{_MT + inner_h // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {_MT + inner_h // 2})">{_escape(ylabel)}</text>')
    for i, (s, pts) in enumerate(zip(series, pts_per)):
        if not pts:
            continue
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"{dash}/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 122}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="1.6"{dash}/>')
        out.append(f'<text x="{_W - _MR - 116}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="11">{_escape(s.label)}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
