"""Event record shapes and JSONL flattening."""

import json

from repro.trace.events import (
    AccessEvent,
    BarrierArriveEvent,
    BarrierDepartEvent,
    DiffApplyEvent,
    DiffCreateEvent,
    FaultEvent,
    GroupBuildEvent,
    GroupDissolveEvent,
    GroupFetchEvent,
    LockAcquireEvent,
    LockReleaseEvent,
    MessageEvent,
    ParkEvent,
    ResumeEvent,
    TwinEvent,
    event_to_dict,
)

EXPECTED_KINDS = {
    AccessEvent: "access",
    FaultEvent: "fault",
    TwinEvent: "twin",
    DiffCreateEvent: "diff_create",
    DiffApplyEvent: "diff_apply",
    MessageEvent: "message",
    LockAcquireEvent: "lock_acquire",
    LockReleaseEvent: "lock_release",
    BarrierArriveEvent: "barrier_arrive",
    BarrierDepartEvent: "barrier_depart",
    GroupBuildEvent: "group_build",
    GroupFetchEvent: "group_fetch",
    GroupDissolveEvent: "group_dissolve",
    ParkEvent: "park",
    ResumeEvent: "resume",
}


def test_every_subclass_sets_its_kind():
    for cls, kind in EXPECTED_KINDS.items():
        ev = cls(0.0, 0)
        assert ev.kind == kind


def test_kinds_are_unique():
    assert len(set(EXPECTED_KINDS.values())) == len(EXPECTED_KINDS)


def test_event_to_dict_flattens_tuples_and_serializes():
    ev = FaultEvent(
        12.5, 1, fault_id=7, units=(4, 5), writers=2,
        exchange_ids=(9,), stall_us=100.0, cost_us=120.0,
    )
    ev.eid = 3
    d = event_to_dict(ev)
    assert d["eid"] == 3 and d["proc"] == 1 and d["kind"] == "fault"
    assert d["units"] == [4, 5] and d["exchange_ids"] == [9]
    # Must round-trip through JSON without a custom encoder.
    assert json.loads(json.dumps(d)) == d


def test_access_event_payload():
    ev = AccessEvent(1.0, 2, op="write", word0=128, nwords=16)
    d = event_to_dict(ev)
    assert d["op"] == "write" and d["word0"] == 128 and d["nwords"] == 16
