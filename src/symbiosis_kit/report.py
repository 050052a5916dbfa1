"""Report generation over evaluation results: TEXT, JSON and SVG.

All three formats are deterministic: the same model and logs produce the
same bytes, which is what makes golden-file testing workable.
"""

from __future__ import annotations

import html

from .expr import format_number, to_text
from .model import MetricDef, Model
from .pipeline import ActionDirective, EvaluationResult, route_result


class UnknownFormat(ValueError):
    pass


def _escape(text: str) -> str:
    """Escape `&`, `<` and `>` for SVG text content."""
    return html.escape(text, quote=False)


# Fixed band palette by position: first band red, last green, interior amber
# shades in order. A single band renders green.
_RED = "#c0392b"
_GREEN = "#27ae60"
_AMBERS = ("#e67e22", "#f39c12", "#f1c40f", "#d4ac0d")
_FAIL_COLOR = "#7f8c8d"


def band_palette(metric: MetricDef) -> dict[str, str]:
    """Map band label -> colour, by the bands' positions on the axis."""
    ordered = metric.bands_by_position()
    n = len(ordered)
    colors: dict[str, str] = {}
    for i, band in enumerate(ordered):
        if n == 1 or i == n - 1:
            color = _GREEN
        elif i == 0:
            color = _RED
        else:
            color = _AMBERS[(i - 1) % len(_AMBERS)]
        colors.setdefault(band.label, color)
    return colors


def _directives_cell(directives: list[ActionDirective]) -> str:
    parts = [f"{d.kind.value}: {', '.join(d.stakeholders) or '-'}" for d in directives]
    return "; ".join(parts) if parts else "-"


def _value_cell(result: EvaluationResult) -> str:
    return str(result.value) if result.value is not None else "-"


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[col]) for col, cell in enumerate(row)]
        lines.append("  " + " | ".join(cells).rstrip())
    return lines


def _grouped(results: list[EvaluationResult]) -> list[tuple[str, list[EvaluationResult]]]:
    by_metric: dict[str, list[EvaluationResult]] = {}
    for result in results:
        by_metric.setdefault(result.metric_id, []).append(result)
    return sorted(by_metric.items())


def render_text(results: list[EvaluationResult], model: Model) -> str:
    out: list[str] = ["measurement report", ""]
    for metric_id, group in _grouped(results):
        metric = model.metrics.get(metric_id)
        out.append(f"metric {metric_id}")
        if metric is not None:
            if metric.description:
                out.append(f"  {metric.description}")
            if metric.function is not None:
                out.append(f"  function: {to_text(metric.function)}")
            if metric.schedule is not None:
                out.append(f"  schedule: {metric.schedule.notation()}")
        out.append("")
        rows = [["period", "value", "band", "actions", "affected objectives"]]
        footnotes: list[str] = []
        for result in group:
            directives = route_result(result, model)
            band = result.band.label if result.band else "FAILED"
            affected = ", ".join(result.affected_objectives) or "-"
            rows.append(
                [result.period, _value_cell(result), band, _directives_cell(directives), affected]
            )
            if result.failure:
                footnotes.append(f"  note {result.period}: {result.failure}")
            for warning in result.density_warnings:
                footnotes.append(f"  note {result.period}: {warning}")
        out.extend(_table(rows))
        out.extend(footnotes)
        out.append("")
    return "\n".join(out)


def result_json_obj(result: EvaluationResult, model: Model) -> dict:
    """One result with its routed directives, as eval and report print it."""
    obj = result.to_json_obj()
    obj["directives"] = [d.to_json_obj() for d in route_result(result, model)]
    return obj


def render_json(results: list[EvaluationResult], model: Model) -> str:
    from .payload import dumps

    payload: dict = {"report": "measurement", "metrics": []}
    for metric_id, group in _grouped(results):
        metric = model.metrics.get(metric_id)
        entry: dict = {
            "metric": metric_id,
            "description": metric.description if metric else None,
            "function": to_text(metric.function) if metric and metric.function else None,
            "schedule": metric.schedule.notation() if metric and metric.schedule else None,
            "results": [result_json_obj(result, model) for result in group],
        }
        payload["metrics"].append(entry)
    return dumps(payload)


# -- SVG ----------------------------------------------------------------------

_CHART_W = 640
_MARGIN_L = 72
_MARGIN_R = 24
_TITLE_H = 34
_PLOT_H = 180
_LABEL_H = 26
_LEGEND_H = 26
_CHART_GAP = 22
_CHART_H = _TITLE_H + _PLOT_H + _LABEL_H + _LEGEND_H


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _svg_chart(
    metric: MetricDef,
    group: list[EvaluationResult],
    y_offset: int,
    parts: list[str],
) -> None:
    palette = band_palette(metric)
    domain = metric.effective_domain()
    lo, hi = domain.lo, domain.hi
    span = hi - lo or 1.0

    plot_top = y_offset + _TITLE_H
    plot_bottom = plot_top + _PLOT_H
    plot_left = _MARGIN_L
    plot_right = _CHART_W - _MARGIN_R
    plot_width = plot_right - plot_left

    parts.append(
        f'<text x="{plot_left}" y="{y_offset + 22}" class="title">{_escape(metric.id)}</text>'
    )

    # y axis with a tick at every band boundary plus the domain ends
    ticks = sorted({lo, hi} | {b.interval.lo for b in metric.bands} | {b.interval.hi for b in metric.bands})
    ticks = [t for t in ticks if lo <= t <= hi]
    parts.append(
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" y2="{plot_bottom}" class="axis"/>'
    )
    parts.append(
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" class="axis"/>'
    )
    for tick in ticks:
        y = plot_bottom - (tick - lo) / span * _PLOT_H
        parts.append(
            f'<line x1="{plot_left - 4}" y1="{_fmt(y)}" x2="{plot_left}" y2="{_fmt(y)}" class="axis"/>'
        )
        parts.append(
            f'<text x="{plot_left - 8}" y="{_fmt(y + 4)}" class="ytick">{_escape(format_number(tick))}</text>'
        )

    slot = plot_width / max(len(group), 1)
    bar_width = min(56.0, slot * 0.6)
    for i, result in enumerate(group):
        cx = plot_left + slot * i + slot / 2
        label_y = plot_bottom + 18
        parts.append(
            f'<text x="{_fmt(cx)}" y="{label_y}" class="xtick">{_escape(result.period)}</text>'
        )
        if result.value is None:
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(plot_bottom - 8)}" class="missing">no value</text>'
            )
            continue
        band = result.band
        color = palette.get(band.label, _FAIL_COLOR) if band else _FAIL_COLOR
        height = (result.value - lo) / span * _PLOT_H
        x = cx - bar_width / 2
        y = plot_bottom - height
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_width)}" '
            f'height="{_fmt(height)}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(y - 5)}" class="value">{_escape(str(result.value))}</text>'
        )

    legend_y = plot_bottom + _LABEL_H + 12
    x = plot_left
    for band in metric.bands_by_position():
        color = palette[band.label]
        parts.append(f'<rect x="{_fmt(x)}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>')
        text = f"{band.label} {band.interval.notation()}"
        parts.append(f'<text x="{_fmt(x + 16)}" y="{legend_y}" class="legend">{_escape(text)}</text>')
        x += 16 + 7 * len(text) + 18


def render_svg(results: list[EvaluationResult], model: Model) -> str:
    grouped = _grouped(results)
    total_h = len(grouped) * (_CHART_H + _CHART_GAP)
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{total_h}" '
        f'viewBox="0 0 {_CHART_W} {total_h}">',
        "<style>",
        "text { font-family: Helvetica, Arial, sans-serif; fill: #2c3e50; }",
        ".title { font-size: 15px; font-weight: bold; }",
        ".axis { stroke: #95a5a6; stroke-width: 1; }",
        ".ytick { font-size: 10px; text-anchor: end; }",
        ".xtick { font-size: 11px; text-anchor: middle; }",
        ".value { font-size: 11px; text-anchor: middle; }",
        ".missing { font-size: 11px; text-anchor: middle; fill: #7f8c8d; }",
        ".legend { font-size: 10px; }",
        "</style>",
        f'<rect x="0" y="0" width="{_CHART_W}" height="{total_h}" fill="#ffffff"/>',
    ]
    y = 0
    for metric_id, group in grouped:
        metric = model.metrics.get(metric_id)
        if metric is None:
            continue
        _svg_chart(metric, group, y, parts)
        y += _CHART_H + _CHART_GAP
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_RENDERERS = {"text": render_text, "json": render_json, "svg": render_svg}
FORMATS = tuple(_RENDERERS)


def generate_report(results: list[EvaluationResult], model: Model, format: str) -> bytes:
    render = _RENDERERS.get(format)
    if render is None:
        raise UnknownFormat(f"unknown report format {format!r} (choose from {', '.join(FORMATS)})")
    if not results:
        raise ValueError("no results to report")
    return render(results, model).encode("utf-8")
