"""Engine-level tests: suppression bookkeeping, parse errors, the
committed fixture tree, and the CLI exit-code contract."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.analyze.detlint import (
    iter_python_files,
    lint_paths,
    lint_source,
    parse_suppressions,
    repo_roots,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO = pathlib.Path(__file__).resolve().parents[2]


def test_parse_error_is_a_finding():
    report = lint_source("def broken(:\n", "bad.py")
    assert [f.rule for f in report.findings] == ["parse-error"]
    assert not report.ok


def test_suppression_only_in_comments_not_docstrings():
    src = '"""docs say detlint: ok(set-iter) but mean nothing."""\n'
    assert parse_suppressions(src) == {}
    # ... while a trailing comment on the same construct does count.
    src = "x = 1  # detlint: ok(set-iter, id-order)\n"
    assert parse_suppressions(src) == {1: {"set-iter", "id-order"}}


def test_stale_suppression_fails_the_gate():
    report = lint_source("x = 1  # detlint: ok(set-iter)\n", "f.py")
    assert [f.rule for f in report.active] == ["unused-suppression"]
    assert not report.ok


def test_unknown_rule_in_suppression_fails_the_gate():
    report = lint_source("x = 1  # detlint: ok(no-such-rule)\n", "f.py")
    assert [f.rule for f in report.active] == ["unused-suppression"]
    assert "unknown rule" in report.active[0].message


def test_suppression_is_per_line():
    src = "import time\nt = time.time()  # detlint: ok(wall-clock)\nu = time.time()\n"
    report = lint_source(src, "f.py")
    assert [(f.line, f.suppressed) for f in report.findings] == [
        (2, True),
        (3, False),
    ]


# ---------------------------------------------------------------- fixtures
def test_fixture_tree_findings_are_pinned():
    report = lint_paths([FIXTURES])
    assert not report.ok
    by_file = {}
    for f in report.active:
        by_file.setdefault(pathlib.Path(f.path).name, []).append(
            (f.line, f.rule)
        )
    assert by_file == {
        "bad_set_iter.py": [
            (9, "set-iter"),
            (13, "set-iter"),
            (16, "set-iter"),
            (19, "set-iter"),
        ],
        "bad_entropy.py": [
            (12, "wall-clock"),
            (13, "wall-clock"),
            (14, "global-random"),
            (15, "global-random"),
            (16, "global-random"),
            (17, "global-random"),
        ],
        "bad_identity.py": [
            (6, "id-order"),
            (7, "id-order"),
            (8, "id-order"),
            (13, "golden-float"),
            (14, "golden-float"),
        ],
    }
    # clean.py: nothing active, exactly one justified suppression.
    suppressed = [f for f in report.findings if f.suppressed]
    assert [pathlib.Path(f.path).name for f in suppressed] == ["clean.py"]


def test_iter_python_files_sorted_and_no_pycache():
    files = iter_python_files(FIXTURES)
    names = [f.name for f in files]
    assert names == sorted(names)
    assert all("__pycache__" not in f.parts for f in files)


def test_repo_roots_resolve_without_cwd():
    roots = repo_roots()
    assert roots == [REPO / "src" / "repro"]


# ---------------------------------------------------------------- CLI
def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analyze", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


@pytest.fixture(scope="module")
def lint_repo():
    """One ``repro analyze --lint`` run over the repository, shared by
    the tests that read its result."""
    return _cli("--lint")


def test_cli_lint_repo_is_clean(lint_repo):
    proc = lint_repo
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout


def test_cli_lint_fixture_tree_fails_and_reports_json(tmp_path):
    out = tmp_path / "report.json"
    proc = _cli("--lint", "--paths", "tests/analyze/fixtures",
                "--json", str(out))
    assert proc.returncode == 1
    data = json.loads(out.read_text())
    assert data["ok"] is False
    section = data["sections"]["src"]
    assert section["files_checked"] == 4
    rules = {f["rule"] for f in section["findings"]}
    assert {"set-iter", "wall-clock", "global-random", "id-order",
            "golden-float"} <= rules


def test_cli_lint_default_run_reports_both_sections(lint_repo):
    proc = lint_repo
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "== src ==" in proc.stdout
    assert "== helpers ==" in proc.stdout
