"""Plot emission for experiment tables: CSV in, self-contained SVG out.

No plotting dependency: the files are assembled as text, so identical
tables produce byte-identical figures on every platform. Two kinds are
supported. "line" draws one polyline per series against the first numeric
column; series come either from the values of non-numeric columns (long
tables such as solver trends) or, failing that, one per remaining numeric
column. "heatmap" reads the first two numeric columns as cell coordinates
and colors cells by the last column, collapsing duplicates by max.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import tempfile

__all__ = ["emit_plot"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 24, 28, 46
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # the plot area inside the margins
_PALETTE = ("#1f5fa8", "#c24f33", "#3a8a43", "#7b4fa0", "#b08a1e", "#3e8ba0")


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(c.strip() for c in r)]
    if len(rows) < 2:
        raise ValueError(f"table {path!r} has no data rows")
    header, data = rows[0], rows[1:]
    width = len(header)
    if any(len(r) != width for r in data):
        raise ValueError(f"table {path!r} has ragged rows")
    numeric = []
    for i in range(width):
        try:
            col = [float(r[i]) for r in data]
        except ValueError:
            numeric.append(None)
        else:
            numeric.append(col)
    return header, data, numeric


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _frame() -> str:
    """The outline of the plot area."""
    return (
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
        'fill="none" stroke="#888" stroke-width="1"/>'
    )


def _axis_labels(x_label: str, y_label: str) -> list:
    """The x label under the plot area and the y label, rotated, left of it."""
    return [
        f'<text x="{_ML + _PW / 2:.2f}" y="{_H - 8}" font-size="12" '
        f'text-anchor="middle" fill="#222">{_esc(x_label)}</text>',
        f'<text x="14" y="{_MT + _PH / 2:.2f}" font-size="12" text-anchor="middle" '
        f'fill="#222" transform="rotate(-90 14 {_MT + _PH / 2:.2f})">{_esc(y_label)}</text>',
    ]


def _x_tick_label(x, value) -> str:
    """A tick label under the plot area at x."""
    return (
        f'<text x="{x:.2f}" y="{_MT + _PH + 16}" font-size="10" '
        f'text-anchor="middle" fill="#444">{_fmt(value)}</text>'
    )


def _y_tick_label(y, value) -> str:
    """A tick label left of the plot area at y."""
    return (
        f'<text x="{_ML - 6}" y="{y + 3:.2f}" font-size="10" '
        f'text-anchor="end" fill="#444">{_fmt(value)}</text>'
    )


def _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * _PW

    def sy(v):
        return _MT + _PH - (v - y_lo) / (y_hi - y_lo) * _PH

    parts = [_frame()]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT + _PH}" x2="{x:.2f}" y2="{_MT + _PH + 4}" '
            'stroke="#888"/>'
        )
        parts.append(_x_tick_label(x, t))
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#888"/>'
        )
        parts.append(_y_tick_label(y, t))
    parts += _axis_labels(x_label, y_label)
    return parts, sx, sy


def _median(vals):
    s = sorted(vals)
    k = len(s)
    mid = k // 2
    return s[mid] if k % 2 else 0.5 * (s[mid - 1] + s[mid])


def _line_svg(header, data, numeric):
    num_idx = [i for i, c in enumerate(numeric) if c is not None]
    cat_idx = [i for i, c in enumerate(numeric) if c is None]
    if not num_idx:
        raise ValueError("line plot needs at least one numeric column")
    xi = num_idx[0]
    if cat_idx:
        yi = num_idx[-1]
        if yi == xi:
            raise ValueError("line plot needs two distinct numeric columns")
        series = {}
        for r in data:
            key = " ".join(r[i] for i in cat_idx)
            series.setdefault(key, {}).setdefault(float(r[xi]), []).append(float(r[yi]))
        series = {
            k: sorted((x, _median(v)) for x, v in pts.items())
            for k, pts in series.items()
        }
        y_label = header[yi]
    else:
        if len(num_idx) < 2:
            raise ValueError("line plot needs two distinct numeric columns")
        xs = numeric[xi]
        series = {}
        for i in num_idx[1:]:
            pts = {}
            for x, y in zip(xs, numeric[i]):
                pts.setdefault(x, []).append(y)
            series[header[i]] = sorted((x, _median(v)) for x, v in pts.items())
        y_label = header[num_idx[1]] if len(num_idx) == 2 else "value"

    all_x = [x for pts in series.values() for x, _ in pts]
    all_y = [y for pts in series.values() for _, y in pts]
    lo_y, hi_y = min(all_y), max(all_y)
    # anchor at zero unless the whole series sits well away from it
    if not (lo_y > 0 and lo_y > 0.2 * hi_y):
        lo_y = min(lo_y, 0.0)
    parts, sx, sy = _axes(min(all_x), max(all_x), lo_y, hi_y, header[xi], y_label)
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.2" fill="{color}"/>'
            )
        ly = _MT + 14 + 14 * idx
        parts.append(
            f'<line x1="{_W - _MR - 110}" y1="{ly - 4}" x2="{_W - _MR - 92}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 88}" y="{ly}" font-size="10" fill="#333">{_esc(name)}</text>'
        )
    return parts


def _heat_color(t: float) -> str:
    # light parchment to deep blue, monotone in t
    r = round(245 - 197 * t)
    g = round(242 - 152 * t)
    b = round(232 - 74 * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _heatmap_svg(header, data, numeric):
    num_idx = [i for i, c in enumerate(numeric) if c is not None]
    if len(num_idx) < 3:
        raise ValueError("heatmap needs three numeric columns (x, y, value)")
    xi, yi, vi = num_idx[0], num_idx[1], num_idx[-1]
    cells = {}
    for r in data:
        key = (float(r[xi]), float(r[yi]))
        v = float(r[vi])
        cells[key] = max(cells.get(key, -math.inf), v)
    xs = sorted({k[0] for k in cells})
    ys = sorted({k[1] for k in cells})
    v_lo = min(cells.values())
    v_hi = max(cells.values())
    span = (v_hi - v_lo) or 1.0
    cw, ch = _PW / len(xs), _PH / len(ys)
    col = {x: i for i, x in enumerate(xs)}
    row = {y: i for i, y in enumerate(ys)}
    parts = []
    for (x, y), v in sorted(cells.items()):
        px = _ML + col[x] * cw
        py = _MT + _PH - (row[y] + 1) * ch
        parts.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
            f'fill="{_heat_color((v - v_lo) / span)}"/>'
        )
    parts += [_x_tick_label(_ML + (i + 0.5) * cw, x) for i, x in enumerate(xs)]
    parts += [_y_tick_label(_MT + _PH - (j + 0.5) * ch, y) for j, y in enumerate(ys)]
    parts.append(_frame())
    parts += _axis_labels(header[xi], header[yi])
    parts.append(
        f'<text x="{_ML}" y="{_MT - 10}" font-size="11" fill="#333">'
        f"{_esc(header[vi])}: {_fmt(v_lo)} (light) to {_fmt(v_hi)} (dark)</text>"
    )
    return parts


def emit_plot(table_path, kind: str) -> str:
    """Render a CSV table to an SVG next to it; returns the SVG path."""
    if kind not in ("line", "heatmap"):
        raise ValueError("kind must be 'line' or 'heatmap'")
    header, data, numeric = _read_table(table_path)
    parts = (_line_svg if kind == "line" else _heatmap_svg)(header, data, numeric)
    body = "\n".join(parts)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
    return _atomic_write(os.path.splitext(str(table_path))[0] + ".svg", svg)


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text file that becomes path when the block ends: it is written as a
    temp file and renamed, so readers never see partial output, and it is
    removed if the block or the rename raises. Experiment tables stream
    their lines into it."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> str:
    """Write text to path through _atomic_open; returns path."""
    with _atomic_open(path) as fh:
        fh.write(text)
    return path
