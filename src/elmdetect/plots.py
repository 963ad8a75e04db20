"""Minimal deterministic SVG emitter for ROC curves and metric deltas.

Plain string building, fixed canvas and decimal formatting, so identical
inputs produce byte-identical files.
"""
from __future__ import annotations

from typing import Mapping, Sequence

WIDTH, HEIGHT = 640, 480
MARGIN = 60
COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _polyline(xs: Sequence[float], ys: Sequence[float], color: str) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}" />'


def _text(x: float, y: float, s: str, size: int = 13, anchor: str = "start") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
    )


def _legend(i: int, color: str, label: str) -> list[str]:
    """Row i of the legend: a swatch of the line's color and its label."""
    ly = MARGIN + 18 + 18 * i
    return [
        f'<line x1="{WIDTH - 240}" y1="{ly - 4}" x2="{WIDTH - 216}" y2="{ly - 4}" stroke="{color}" stroke-width="2" />',
        _text(WIDTH - 210, ly, label),
    ]


def _frame(title: str, x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white" />',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" />',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" />',
        _text(WIDTH / 2, 28, title, size=16, anchor="middle"),
        _text(WIDTH / 2, HEIGHT - 18, x_label, anchor="middle"),
        _text(18, HEIGHT / 2, y_label, anchor="middle"),
    ]


def render_roc_svg(curves: Mapping[str, tuple[Sequence[float], Sequence[float], float]]) -> str:
    """One ROC polyline per variant; the legend carries the AUC."""
    if not curves:
        raise ValueError("no curves to plot")
    x0, y0 = MARGIN, HEIGHT - MARGIN
    span_x = WIDTH - 2 * MARGIN
    span_y = HEIGHT - 2 * MARGIN

    def sx(v: float) -> float:
        return x0 + v * span_x

    def sy(v: float) -> float:
        return y0 - v * span_y

    parts = _frame("ROC curves", "false positive rate", "true positive rate")
    parts.append(
        f'<line x1="{_fmt(sx(0))}" y1="{_fmt(sy(0))}" x2="{_fmt(sx(1))}" y2="{_fmt(sy(1))}" '
        'stroke="#999999" stroke-dasharray="6,4" />'
    )
    for i, (variant, (fprs, tprs, auc_value)) in enumerate(sorted(curves.items())):
        color = COLORS[i % len(COLORS)]
        parts.append(_polyline([sx(v) for v in fprs], [sy(v) for v in tprs], color))
        parts += _legend(i, color, f"{variant} (AUC={auc_value:.4f})")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    x0, y0 = MARGIN, HEIGHT - MARGIN
    span_x = WIDTH - 2 * MARGIN
    span_y = HEIGHT - 2 * MARGIN

    def sx(i: int) -> float:
        return x0 + (i + 0.5) * span_x / len(metric_names)

    def sy(v: float) -> float:
        return y0 - (v - lo) / (hi - lo) * span_y

    parts = _frame("Improvement over base", "metric", "delta")
    zero_y = sy(0.0)
    parts.append(
        f'<line x1="{x0}" y1="{_fmt(zero_y)}" x2="{WIDTH - MARGIN}" y2="{_fmt(zero_y)}" '
        'stroke="#999999" stroke-dasharray="6,4" />'
    )
    for i, name in enumerate(metric_names):
        parts.append(_text(sx(i), HEIGHT - MARGIN + 20, name, size=11, anchor="middle"))
    for i, (variant, dmap) in enumerate(sorted(deltas.items())):
        color = COLORS[i % len(COLORS)]
        xs = [sx(j) for j in range(len(metric_names))]
        ys = [sy(dmap[m]) for m in metric_names]
        parts.append(_polyline(xs, ys, color))
        parts += _legend(i, color, variant)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
