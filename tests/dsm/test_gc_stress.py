"""GC stress gate: interval garbage collection at every barrier.

No committed workload ever reaches ``gc_threshold`` (2048 live
intervals), so ``IntervalStore.collect`` and span-cache eviction would
otherwise meet real applications only in ``test_gc.py``'s synthetic
scenarios.  Here the small golden matrix runs with ``gc_threshold=1`` --
a collection at every barrier -- and must match ``benchmarks/golden/``
exactly: collection is host-side bookkeeping and no golden counter may
see it.  The number of intervals reclaimed is pinned too, so a change
to *which* intervals the collector may take (its policy) fails here
even when the results survive it.

The tm-lrc matrix (32 cells) is tier-1.  The other three protocols
(96 cells) are marked ``ci_only``: the CI ``bulk-equivalence`` job runs
them with ``pytest -m ci_only tests/dsm/test_gc_stress.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.golden import (
    GOLDEN_DIR,
    GOLDEN_LABELS,
    SMALL_DATASETS,
    _protocol_extra,
    compare_case,
    load_app_golden,
)
from repro.bench.harness import run_case
from repro.dsm.intervals import IntervalStore

#: Intervals reclaimed over the small matrix at ``gc_threshold=1`` (swi
#: closes no intervals: the gate checks that collecting is harmless).
RECLAIMED = {"tm-lrc": 3721, "erc": 4908, "hlrc": 3737, "swi": 0}


def stress_matrix(protocol: str, monkeypatch: pytest.MonkeyPatch) -> int:
    """Run the protocol's small golden matrix under GC stress, assert
    every golden counter, and return the intervals reclaimed."""
    reclaimed = [0]
    real = IntervalStore.collect

    def counted(self, known_vc):
        dropped = real(self, known_vc)
        reclaimed[0] += dropped
        return dropped

    monkeypatch.setattr(IntervalStore, "collect", counted)
    mismatches = []
    for app, dataset in sorted(SMALL_DATASETS.items()):
        golden = load_app_golden(GOLDEN_DIR, app, protocol)[dataset]
        for label in GOLDEN_LABELS:
            case = run_case(
                app, dataset, label, gc_threshold=1, **_protocol_extra(protocol)
            )
            mismatches += compare_case(
                f"{protocol} {app}/{dataset}@{label}", case, golden[label]
            )
    assert not mismatches, "\n".join(m.render() for m in mismatches)
    return reclaimed[0]


def test_tm_lrc_small_matrix_under_gc_stress(monkeypatch):
    assert stress_matrix("tm-lrc", monkeypatch) == RECLAIMED["tm-lrc"]


@pytest.mark.ci_only
@pytest.mark.parametrize("protocol", ["erc", "hlrc", "swi"])
def test_zoo_small_matrix_under_gc_stress(protocol, monkeypatch):
    assert stress_matrix(protocol, monkeypatch) == RECLAIMED[protocol]
