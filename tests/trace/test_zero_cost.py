"""The zero-cost guarantee: tracing never perturbs a run.

A traced run must produce a RunResult bit-identical to the untraced run
-- same simulated times, same message ledger, same protocol counters,
same signature, same checksum.  The one deliberate exception is
``FaultRecord.trace_eid`` (None untraced, the fault's trace event id
traced), which exists exactly so the signature can cross-reference the
timeline.
"""

import dataclasses

import pytest

from repro.apps.base import run_app
from repro.sim.config import SimConfig

from tests.conftest import tiny_app

CASES = [
    ("Jacobi", dict(unit_pages=1)),
    ("MGS", dict(unit_pages=2)),
    ("ILINK", dict(unit_pages=1)),
    ("Water", dict(dynamic=True)),
]


def _pair(name, kw):
    app, ds = tiny_app(name)
    plain = run_app(app, ds, SimConfig(nprocs=8, **kw))
    app2, _ = tiny_app(name)
    traced = run_app(app2, ds, SimConfig(nprocs=8, trace=True, **kw))
    return plain, traced


@pytest.mark.parametrize("name,kw", CASES, ids=[c[0] for c in CASES])
def test_traced_run_is_bit_identical(name, kw):
    plain, traced = _pair(name, kw)

    assert traced.trace is not None and plain.trace is None
    assert traced.time_us == plain.time_us
    assert traced.proc_times_us == plain.proc_times_us
    assert traced.checksum == plain.checksum
    assert traced.comm == plain.comm  # dataclass field equality
    assert traced.signature.normalized() == plain.signature.normalized()

    # Every counter matches; fault records match except trace_eid.
    for f in dataclasses.fields(plain.stats):
        if f.name == "fault_records":
            continue
        assert getattr(traced.stats, f.name) == getattr(plain.stats, f.name), f.name
    assert len(traced.stats.fault_records) == len(plain.stats.fault_records)
    for a, b in zip(plain.stats.fault_records, traced.stats.fault_records, strict=True):
        for f in dataclasses.fields(a):
            if f.name == "trace_eid":
                continue
            assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.mark.parametrize("name,kw", CASES[:1], ids=[CASES[0][0]])
def test_trace_eid_is_the_single_exception(name, kw):
    plain, traced = _pair(name, kw)
    assert plain.stats.fault_records
    assert all(r.trace_eid is None for r in plain.stats.fault_records)
    assert all(r.trace_eid is not None for r in traced.stats.fault_records)
    # And the eids really index fault events in the trace.
    for rec in traced.stats.fault_records:
        ev = traced.trace.events[rec.trace_eid]
        assert ev.kind == "fault" and ev.fault_id == rec.fault_id
