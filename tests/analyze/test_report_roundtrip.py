"""JSON report round trips: every machine report the analyze CLI writes
(`--lint --json`, `--predict --json`, `layout --json`) must load back
field-for-field through the matching ``from_json_dict`` inverse."""

from __future__ import annotations

import json

from repro.cli import main
from repro.analyze.detlint import lint_source
from repro.analyze.layout import LayoutReport, Remedy
from repro.analyze.predict import Prediction, predict
from repro.analyze.report import (
    LintReport,
    merge_sections,
    sections_from_json_dict,
)

HAZARDOUS = (
    "import time\n"
    "t = time.monotonic()\n"
    "for x in {1, 2}:  # detlint: ok(set-iter)\n"
    "    print(x)\n"
)


def test_lint_sections_round_trip():
    sections = {
        "src": lint_source(HAZARDOUS, "a.py"),
        "helpers": lint_source("x = 1\n", "b.py"),
    }
    doc = json.loads(json.dumps(merge_sections(sections)))
    assert doc["ok"] is False
    assert sorted(doc["sections"]) == ["helpers", "src"]
    back = sections_from_json_dict(doc)
    assert back == sections
    # The derived verdict survives the trip too.
    assert back["src"].ok is False and back["helpers"].ok is True
    assert any(f.suppressed for f in back["src"].findings)


def test_lint_report_round_trips_field_for_field():
    report = lint_source(HAZARDOUS, "a.py")
    doc = json.loads(json.dumps(report.to_json_dict()))
    back = LintReport.from_json_dict(doc)
    assert back == report
    assert back.to_json_dict() == report.to_json_dict()


def test_prediction_round_trips_field_for_field():
    pred = predict("Barnes", "16K", 8)
    assert pred.conflict_pages, "Barnes must predict ww pages"
    doc = json.loads(json.dumps(pred.to_json_dict()))
    back = Prediction.from_json_dict(doc)
    assert back == pred
    assert back.to_json_dict() == pred.to_json_dict()


def test_layout_report_round_trips_field_for_field():
    concrete = Remedy(
        kind="hot-cold-split",
        array="grid",
        unit_bytes=8192,
        segments=((0, 12288), (12288, 86016)),
        note="isolate hot runs",
        ww_units_before=0,
        ww_units_after=0,
        useless_words_before=14336,
        useless_words_after=0,
        useless_units_before=14,
        useless_units_after=0,
    )
    advisory = Remedy(
        kind="per-proc-blocking",
        array="cells",
        unit_bytes=4096,
        segments=(),
        note="re-block the iteration space",
        ww_units_before=5,
        ww_units_after=5,
        useless_words_before=0,
        useless_words_after=0,
        useless_units_before=0,
        useless_units_after=0,
    )
    report = LayoutReport(
        app="Jacobi",
        dataset="1Kx1K",
        nprocs=8,
        baseline={8192: {"ww_units": 0, "useless_words": 14336,
                         "useless_units": 14}},
        remedies=[concrete, advisory],
    )
    doc = json.loads(json.dumps(report.to_json_dict()))
    back = LayoutReport.from_json_dict(doc)
    assert back == report
    assert back.to_json_dict() == report.to_json_dict()


# ------------------------------------------------------------- CLI level
def test_cli_lint_json_loads_back(tmp_path, capsys):
    hazard = tmp_path / "hazard.py"
    hazard.write_text(HAZARDOUS)
    out = tmp_path / "lint.json"
    rc = main(["analyze", "--lint", "--paths", str(hazard), "--json", str(out)])
    capsys.readouterr()
    assert rc == 1  # one active wall-clock finding
    doc = json.loads(out.read_text())
    back = sections_from_json_dict(doc)
    assert set(back) == {"src"}
    assert doc["ok"] is False and back["src"].ok is False
    assert [f.rule for f in back["src"].active] == ["wall-clock"]


def test_cli_predict_json_loads_back(tmp_path, capsys):
    out = tmp_path / "predict.json"
    rc = main(["analyze", "--predict", "Barnes", "--json", str(out)])
    capsys.readouterr()
    assert rc == 0
    back = Prediction.from_json_dict(json.loads(out.read_text()))
    assert back == predict("Barnes", "16K", 8)


def test_cli_layout_json_loads_back(tmp_path, capsys):
    out = tmp_path / "layout.json"
    rc = main(["analyze", "layout", "--apps", "Jacobi", "--json", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"Jacobi"}
    back = LayoutReport.from_json_dict(doc["Jacobi"])
    assert back.app == "Jacobi" and back.nprocs == 8
    assert back.to_json_dict() == doc["Jacobi"]
    # The full-advice run proposes the pinned Jacobi remedy.
    assert back.best("grid", 8192, "hot-cold-split") is not None
