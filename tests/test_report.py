"""Report rendering: text, json, svg; palette and determinism."""

import json
import xml.etree.ElementTree as ET

import pytest

from symbiosis_kit.graph import build_graph
from symbiosis_kit.parser import parse
from symbiosis_kit.pipeline import evaluate_metrics, ingest_lines
from symbiosis_kit.report import (
    FORMATS,
    UnknownFormat,
    band_palette,
    generate_report,
    render_json,
    render_svg,
    render_text,
)

MODEL_SRC = """
stakeholder s { name: "S" }
universe org { facets: a }
objective BO1 { object: "x" scope: org.* purpose: "p" viewpoint: s context: "c" }
goal MG1 { object: "g" scope: "sc" purpose: "p" focus: "f" criteria: "c"
           viewpoint: s context: "c" measures: BO1 }
question Q1 { goal: MG1 text: "?" status: answered }
base g { description: "d" mode: direct aggregation: latest }
metric M {
    description: "the gauge"
    goal: MG1
    answers: Q1
    uses: g
    method: "m"
    function: g
    domain: [0, 100]
    band: [0, 40) -> bad { notify s }
    band: [40, 70) -> mid { log s }
    band: [70, 100] -> good { log s }
    schedule: monthly / monthly
    stakeholders: s
}
"""


@pytest.fixture(scope="module")
def model():
    parsed, diags = parse(MODEL_SRC)
    assert not diags
    return parsed


@pytest.fixture(scope="module")
def results(model):
    graph = build_graph(model)
    log = ingest_lines(
        [
            '{"timestamp": "2014-01-10", "base": "g", "value": 85}',
            '{"timestamp": "2014-02-10", "base": "g", "value": 55}',
        ],
        "log",
        model,
    )
    months = ["2014-01", "2014-02", "2014-03"]  # March has no data
    results, skipped = evaluate_metrics(model, graph, log, ["M"], months)
    assert not skipped
    return results


def test_band_palette_positions(model):
    assert band_palette(model.metrics["M"]) == {
        "bad": "#c0392b",
        "mid": "#e67e22",
        "good": "#27ae60",
    }


def test_band_palette_single_band_is_green():
    single, _ = parse("metric M { band: [0, 100] -> only { log t } }")
    assert band_palette(single.metrics["M"]) == {"only": "#27ae60"}


def test_render_text_table_and_footnotes(model, results):
    text = render_text(results, model)
    assert text.startswith("measurement report\n")
    assert "metric M" in text
    assert "  the gauge" in text
    assert "  function: g" in text
    assert "  schedule: monthly / monthly" in text
    assert "period " in text and "| band" in text
    assert "2014-01" in text and "85.0" in text and "good" in text
    assert "2014-02" in text and "55.0" in text and "mid" in text
    assert "FAILED" in text  # March
    assert "note 2014-03: no value bound for base measurement 'g'" in text


def test_render_json_shape(model, results):
    payload = json.loads(render_json(results, model))
    assert payload["report"] == "measurement"
    (entry,) = payload["metrics"]
    assert entry["metric"] == "M"
    assert entry["description"] == "the gauge"
    assert [r["period"] for r in entry["results"]] == ["2014-01", "2014-02", "2014-03"]
    ok, _, failed = entry["results"]
    assert ok["value"] == 85.0 and ok["band"] == "good"
    assert failed["value"] is None and failed["failure"]
    assert failed["directives"][0]["action"] == "notify"
    assert failed["directives"][0]["stakeholders"] == ["s"]


def test_render_svg_parses_and_colors_bars(model, results):
    svg = render_svg(results, model)
    root = ET.fromstring(svg)  # well-formed XML
    assert root.tag.endswith("svg")
    assert 'fill="#27ae60"' in svg  # the 85.0 bar
    assert 'fill="#e67e22"' in svg  # the 55.0 bar
    assert ">no value</text>" in svg  # March
    assert "bad [0, 40)" in svg  # legend carries interval notation


def test_generate_report_bytes_and_formats(model, results):
    for fmt in FORMATS:
        payload = generate_report(results, model, fmt)
        assert isinstance(payload, bytes)
        assert payload == generate_report(results, model, fmt)  # deterministic
    with pytest.raises(UnknownFormat):
        generate_report(results, model, "pdf")


def test_empty_results_rejected(model):
    for fmt in FORMATS:
        with pytest.raises(ValueError):
            generate_report([], model, fmt)
