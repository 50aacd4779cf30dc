"""End-to-end golden regression gate against the committed baselines.

This is the test-suite twin of ``python -m repro.bench --check``: every
application's smallest paper dataset at each consistency unit, plus the
microbenchmarks, must match ``benchmarks/golden/`` counter-for-counter;
three cheap applications do the same under the other protocols.
Any protocol, simulator, or application change that shifts a message,
byte, fault, or simulated-time counter fails here with a field-level
diff; if the shift is intended, regenerate the baselines with
``python -m repro.bench --refresh-golden`` and commit the diff.
"""

import json

import pytest

from repro.bench import golden
from repro.bench.golden import (
    GOLDEN_DIR,
    GOLDEN_LABELS,
    SMALL_DATASETS,
    _protocol_extra,
    compare_case,
    load_app_golden,
)
from repro.bench.harness import ResultCache
from repro.sim.config import DEFAULT_PROTOCOL


def test_baselines_are_committed_for_all_eight_apps():
    assert GOLDEN_DIR.is_dir(), (
        f"missing {GOLDEN_DIR}; run python -m repro.bench --refresh-golden"
    )
    for app in SMALL_DATASETS:
        assert load_app_golden(GOLDEN_DIR, app) is not None, app
    assert (GOLDEN_DIR / "micro.json").is_file()


def assert_matches_golden(app, protocol=DEFAULT_PROTOCOL):
    ds = SMALL_DATASETS[app]
    gold = load_app_golden(GOLDEN_DIR, app, protocol)
    mismatches = []
    for label in GOLDEN_LABELS:
        entry = gold.get(ds, {}).get(label)
        assert entry is not None, f"no {protocol} baseline for {app}/{ds}@{label}"
        case = ResultCache.get(app, ds, label, **_protocol_extra(protocol))
        mismatches.extend(
            compare_case(f"{protocol} {app}/{ds}@{label}", case, entry)
        )
    assert not mismatches, "\n" + "\n".join(m.render() for m in mismatches)


@pytest.mark.parametrize("app", sorted(SMALL_DATASETS))
def test_app_matches_golden_baselines(app):
    """One exact-match check per application (split per app so a failure
    names the culprit and the rest still report)."""
    assert_matches_golden(app)


@pytest.mark.parametrize("protocol", ["erc", "hlrc", "swi"])
@pytest.mark.parametrize("app", ["ILINK", "Jacobi", "Water"])
def test_zoo_protocol_matches_golden_baselines(app, protocol):
    """The other protocols' cost counters on three cheap applications
    (the whole matrix runs in CI): whole-unit fetch, eager flush/push
    and ownership transfer each move a counter one of these pins."""
    assert_matches_golden(app, protocol)


def test_micro_matches_golden_baselines():
    from repro.bench import micro

    gold = json.loads((GOLDEN_DIR / "micro.json").read_text())
    assert micro.snapshot(micro.run_all()) == gold


def test_full_check_passes_and_is_deterministic():
    """The gate itself: repro.bench.golden.check over the committed
    baselines (pure cache hits after the per-app tests above)."""
    report = golden.check(GOLDEN_DIR, jobs=1)
    assert report.ok, "\n" + report.render()
    assert report.cells_checked == 8 * len(GOLDEN_LABELS) + 5  # + 5 micro


def test_perturbed_baseline_fails_with_readable_diff(tmp_path):
    """Acceptance property: a perturbed counter produces a field-level
    diff naming the cell, the expected and actual values, and the delta."""
    bad_dir = tmp_path / "golden"
    bad_dir.mkdir()
    for app in SMALL_DATASETS:
        (bad_dir / f"{app}.json").write_text(
            json.dumps(load_app_golden(GOLDEN_DIR, app))
        )
    (bad_dir / "micro.json").write_text((GOLDEN_DIR / "micro.json").read_text())
    path = bad_dir / "MGS.json"
    entry = json.loads(path.read_text())
    entry["1Kx1K"]["8K"]["useless_messages"] -= 13
    path.write_text(json.dumps(entry))

    report = golden.check(bad_dir, jobs=1)
    assert not report.ok
    [m] = report.mismatches
    assert m.where == "MGS/1Kx1K@8K" and m.field == "useless_messages"
    text = report.render()
    assert "FAILED" in text and "+13" in text and "--refresh-golden" in text
