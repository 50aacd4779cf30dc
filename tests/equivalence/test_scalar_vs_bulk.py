"""The scalar-vs-bulk differential gate.

The bulk region-access fast path (:mod:`repro.dsm.lrc`) resolves
faults, twin creation, diff-word usefulness, and clock charges
analytically per touched unit instead of per word.  Its correctness
claim is *exact equivalence*: a run under ``access_mode="bulk"`` must be
bit-identical -- every golden counter, the checksum, the false-sharing
signature, and (traced) the full event stream -- to the same run with
every bulk access decomposed into word-granularity operations
(``access_mode="scalar"``), under every consistency protocol.

This suite is that claim as tests: every application under every
protocol of the zoo, at multiple consistency-unit sizes.  The scalar
runs take the reference decomposition loop, so any divergence localizes
a bug in the batched path's analytic charging (or a protocol whose
write hooks it fails to respect -- see ``LrcProc._prepare_write`` and
``_unwritable_units``).
"""

import pytest

from repro.bench.golden import GOLDEN_FIELDS, SMALL_DATASETS
from repro.bench.harness import CaseResult, run_case
from repro.sim.config import DEFAULT_PROTOCOL

from tests.conftest import traced_run

APPS = sorted(SMALL_DATASETS)

PROTOCOLS = (DEFAULT_PROTOCOL, "hlrc", "erc", "swi")

#: Unit sizes exercised per protocol.  The default protocol gets the
#: full label sweep; the zoo protocols get the page unit and the
#: dynamic aggregator (the two aggregation strategies).
LABELS_FOR = {p: ("4K", "Dyn") for p in PROTOCOLS}
LABELS_FOR[DEFAULT_PROTOCOL] = ("4K", "8K", "16K", "Dyn")

MATRIX = [
    (app, protocol, label)
    for app in APPS
    for protocol in PROTOCOLS
    for label in LABELS_FOR[protocol]
]


def _extra(protocol: str) -> dict:
    return {} if protocol == DEFAULT_PROTOCOL else {"protocol": protocol}


def _case_pair(app: str, protocol: str, label: str):
    ds = SMALL_DATASETS[app]
    bulk = run_case(app, ds, label, **_extra(protocol))
    scalar = run_case(
        app, ds, label, access_mode="scalar", **_extra(protocol)
    )
    return bulk, scalar


def _assert_identical(bulk: CaseResult, scalar: CaseResult) -> None:
    mismatched = {
        f: (getattr(bulk, f), getattr(scalar, f))
        for f in GOLDEN_FIELDS
        if getattr(bulk, f) != getattr(scalar, f)
    }
    assert not mismatched, f"bulk vs scalar drift: {mismatched}"
    assert bulk.signature == scalar.signature


@pytest.mark.parametrize(
    ("app", "protocol", "label"),
    MATRIX,
    ids=[f"{a}-{p}-{lb}" for a, p, lb in MATRIX],
)
def test_bulk_matches_scalar(app, protocol, label):
    bulk, scalar = _case_pair(app, protocol, label)
    _assert_identical(bulk, scalar)


# ----------------------------------------------------------------------
# Trace event streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", APPS)
def test_trace_streams_identical(app, traced_small_4k):
    """Traced scalar and bulk runs yield the same event stream, event by
    event (trace events are plain dataclasses: fieldwise comparison).

    Note the global RNG seeds of the two runs differ (the seed hashes
    the config, which includes the access mode) -- equality across that
    difference also re-verifies that no application leaks global-RNG
    state into the simulation.
    """
    bulk_res = traced_small_4k(app)
    scalar_res = traced_run(app, "4K", "scalar")
    bulk_events, scalar_events = bulk_res.trace.events, scalar_res.trace.events
    assert bulk_res.checksum == scalar_res.checksum
    assert len(bulk_events) == len(scalar_events)
    for b, s in zip(bulk_events, scalar_events, strict=True):
        assert b == s, f"trace divergence at eid {b.eid}: {b} != {s}"


@pytest.mark.parametrize("app", APPS)
def test_traced_run_matches_untraced_counters(app, traced_small_4k):
    """Tracing is observational *and* the traced bulk run takes the
    reference decomposition loop -- so a traced run reproducing the
    untraced counters ties the fast path (untraced, tiered) to the
    reference loop (traced) on the same cell."""
    res = traced_small_4k(app)
    untraced = run_case(app, SMALL_DATASETS[app], "4K")
    _assert_identical(untraced, CaseResult.from_run(res))
