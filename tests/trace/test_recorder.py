"""Recorder semantics: eid assignment, event coverage over a real run."""

import numpy as np

from repro.core import SimConfig, TreadMarks
from repro.sim.config import SimConfig as _SimConfig
from repro.trace.recorder import TraceRecorder


def _run_tiny(trace=True, dynamic=False, nprocs=4):
    kw = dict(nprocs=nprocs, trace=trace)
    if dynamic:
        kw["dynamic"] = True
    tmk = TreadMarks(SimConfig(**kw), heap_bytes=1 << 17)
    # 8 rows of 1 KB per processor: each write interval spans two pages,
    # so dynamic aggregation has multi-page access patterns to group.
    grid = tmk.array("grid", (nprocs * 8, 256), dtype="float32")

    def worker(proc):
        rows = 8
        lo = proc.id * rows
        grid.write_rows(proc, lo, np.full((rows, 256), proc.id + 1, np.float32))
        proc.barrier()
        nxt = ((proc.id + 1) % proc.nprocs) * rows
        halo = grid.read_row(proc, nxt) + grid.read_row(proc, nxt + 4)
        proc.acquire(5)
        proc.release(5)
        proc.barrier()
        return float(halo.sum())

    result = tmk.run(worker)
    return result


def test_untraced_run_has_no_recorder():
    res = _run_tiny(trace=False)
    assert res.trace is None


def test_eids_are_list_indices():
    res = _run_tiny()
    for i, ev in enumerate(res.trace.events):
        assert ev.eid == i


def test_expected_kinds_present():
    res = _run_tiny()
    kinds = {ev.kind for ev in res.trace.events}
    for expected in (
        "access", "fault", "twin", "diff_create", "diff_apply",
        "message", "lock_acquire", "lock_release",
        "barrier_arrive", "barrier_depart", "park", "resume",
    ):
        assert expected in kinds, expected


def test_fault_events_in_emission_order():
    res = _run_tiny()
    faults = [ev for ev in res.trace.events if ev.kind == "fault"]
    assert faults and all(ev.kind == "fault" for ev in faults)
    assert [ev.eid for ev in faults] == sorted(ev.eid for ev in faults)


def test_per_proc_event_order_is_program_order():
    res = _run_tiny()
    for p in range(4):
        ts = [ev.ts_us for ev in res.trace.events
              if ev.proc == p and ev.kind in ("access", "park", "resume")]
        assert ts == sorted(ts)


def test_barrier_instances_count_occurrences():
    res = _run_tiny()
    arrivals = [ev for ev in res.trace.events if ev.kind == "barrier_arrive"]
    instances = sorted({ev.instance for ev in arrivals})
    assert instances == [0, 1]  # two barrier-0 episodes
    for inst in instances:
        assert sum(1 for ev in arrivals if ev.instance == inst) == 4


def test_lock_acquires_emitted_in_grant_order():
    res = _run_tiny()
    grants = [ev for ev in res.trace.events if ev.kind == "lock_acquire"]
    assert len(grants) == 4
    # Grant timestamps must be non-decreasing in emission order.
    ts = [ev.ts_us for ev in grants]
    assert ts == sorted(ts)


def test_fault_records_cross_reference_trace():
    res = _run_tiny()
    fault_events = {
        ev.fault_id: ev for ev in res.trace.events if ev.kind == "fault"
    }
    assert res.stats.fault_records
    for rec in res.stats.fault_records:
        assert rec.trace_eid is not None
        ev = fault_events[rec.fault_id]
        assert ev.eid == rec.trace_eid
        assert ev.units == tuple(rec.units)
        assert ev.writers == rec.writers


def test_group_events_only_in_dynamic_mode():
    static = _run_tiny(dynamic=False)
    dyn = _run_tiny(dynamic=True)
    assert not any(ev.kind == "group_build" for ev in static.trace.events)
    assert any(ev.kind == "group_build" for ev in dyn.trace.events)


def test_recorder_carries_run_context():
    rec = TraceRecorder(_SimConfig(nprocs=2, trace=True))
    assert len(rec.events) == 0
    res = _run_tiny()
    assert res.trace.layout is not None
    assert res.trace.network is not None


def test_message_events_match_network_ledger():
    res = _run_tiny()
    msgs = [ev for ev in res.trace.events if ev.kind == "message"]
    assert len(msgs) == len(res.trace.network.messages)
    for ev, rec in zip(msgs, res.trace.network.messages, strict=True):
        assert ev.msg_id == rec.msg_id
        assert ev.src == rec.src and ev.dst == rec.dst
        assert ev.payload_bytes == rec.payload_bytes
        assert ev.recv_ts_us >= ev.ts_us
