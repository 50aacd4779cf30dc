"""Per-protocol golden checksums equal the tm-lrc golden checksums.

Release consistency makes a race-free program's final data
protocol-invariant, so every committed per-protocol baseline
(``benchmarks/golden/<protocol>/<App>.json``) must carry, cell for cell,
the checksum of the default protocol's baseline.  ``checksum`` is a
golden field, so ``repro bench --check --protocols all`` holds each run
to these files; this test holds the files to each other.
"""

import pytest

from repro.bench.golden import (
    GOLDEN_DIR,
    GOLDEN_LABELS,
    GOLDEN_PROTOCOLS,
    SMALL_DATASETS,
    load_app_golden,
)
from repro.sim.config import DEFAULT_PROTOCOL

OTHERS = [p for p in GOLDEN_PROTOCOLS if p != DEFAULT_PROTOCOL]


@pytest.mark.parametrize("protocol", OTHERS)
@pytest.mark.parametrize("app", sorted(SMALL_DATASETS))
def test_checksums_match_the_default_protocol(app, protocol):
    reference = load_app_golden(GOLDEN_DIR, app)
    baseline = load_app_golden(GOLDEN_DIR, app, protocol)
    assert reference is not None and baseline is not None
    dataset = SMALL_DATASETS[app]
    cells = {(ds, label) for ds, by_label in baseline.items() for label in by_label}
    assert cells == {(dataset, label) for label in GOLDEN_LABELS}
    for label in GOLDEN_LABELS:
        assert baseline[dataset][label]["checksum"] == (
            reference[dataset][label]["checksum"]
        ), f"{app}/{dataset}@{label} [{protocol}]"
