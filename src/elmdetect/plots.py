"""Minimal deterministic SVG emitter for ROC curves and metric deltas.

Plain string building, fixed canvas and decimal formatting, so identical
inputs produce byte-identical files.
"""
from __future__ import annotations

from typing import Mapping, Sequence

WIDTH, HEIGHT = 640, 480
MARGIN = 60
X0, Y0 = MARGIN, HEIGHT - MARGIN  # the canvas point of the axes' origin
SPAN_X, SPAN_Y = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN
COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _text(x: float, y: float, s: str, size: int = 13, anchor: str = "start") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
    )


def _chart(
    title: str,
    x_label: str,
    y_label: str,
    guide: tuple[str, str, str, str],
    lines: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    extra: Sequence[str] = (),
) -> str:
    """A whole SVG: axes and labels, a dashed guide line between the
    written points (x1, y1) and (x2, y2), the extra elements, then one
    polyline and one legend row per (label, xs, ys), in canvas coordinates."""
    gx1, gy1, gx2, gy2 = guide
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white" />',
        f'<line x1="{X0}" y1="{Y0}" x2="{WIDTH - MARGIN}" y2="{Y0}" stroke="black" />',
        f'<line x1="{X0}" y1="{Y0}" x2="{X0}" y2="{MARGIN}" stroke="black" />',
        _text(WIDTH / 2, 28, title, size=16, anchor="middle"),
        _text(WIDTH / 2, HEIGHT - 18, x_label, anchor="middle"),
        _text(18, HEIGHT / 2, y_label, anchor="middle"),
        f'<line x1="{gx1}" y1="{gy1}" x2="{gx2}" y2="{gy2}" stroke="#999999" stroke-dasharray="6,4" />',
        *extra,
    ]
    for i, (label, xs, ys) in enumerate(lines):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        ly = MARGIN + 18 + 18 * i
        parts += [
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}" />',
            f'<line x1="{WIDTH - 240}" y1="{ly - 4}" x2="{WIDTH - 216}" y2="{ly - 4}" stroke="{color}" stroke-width="2" />',
            _text(WIDTH - 210, ly, label),
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_roc_svg(curves: Mapping[str, tuple[Sequence[float], Sequence[float], float]]) -> str:
    """One ROC polyline per variant; the legend carries the AUC."""
    if not curves:
        raise ValueError("no curves to plot")
    lines = [
        (f"{variant} (AUC={auc_value:.4f})", [X0 + v * SPAN_X for v in fprs], [Y0 - v * SPAN_Y for v in tprs])
        for variant, (fprs, tprs, auc_value) in sorted(curves.items())
    ]
    guide = tuple(map(_fmt, (X0, Y0, WIDTH - MARGIN, MARGIN)))
    return _chart("ROC curves", "false positive rate", "true positive rate", guide, lines)


def render_improvement_svg(
    metric_names: Sequence[str], deltas: Mapping[str, Mapping[str, float]]
) -> str:
    """Per-metric improvement (variant minus base) as one line per variant."""
    if not deltas:
        raise ValueError("no deltas to plot")
    values = [d[m] for d in deltas.values() for m in metric_names]
    lo = min(0.0, min(values))
    hi = max(0.0, max(values))
    if hi == lo:
        hi = lo + 1.0
    pad = 0.1 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sy(v: float) -> float:
        return Y0 - (v - lo) / (hi - lo) * SPAN_Y

    xs = [X0 + (i + 0.5) * SPAN_X / len(metric_names) for i in range(len(metric_names))]
    lines = [(variant, xs, [sy(dmap[m]) for m in metric_names]) for variant, dmap in sorted(deltas.items())]
    names = [_text(x, HEIGHT - MARGIN + 20, name, size=11, anchor="middle") for x, name in zip(xs, metric_names)]
    guide = (str(X0), _fmt(sy(0.0)), str(WIDTH - MARGIN), _fmt(sy(0.0)))
    return _chart("Improvement over base", "metric", "delta", guide, lines, names)
