"""Injection layer: observer wiring, shadow accounting, trace events."""

import pytest

from repro.faults.channel import DroppedMessageError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, StragglerWindow
from repro.sim.config import SimConfig
from repro.sim.network import MessageClass, Network
from repro.stats.counters import ProtocolStats

from tests.conftest import tiny_app
from repro.apps.base import run_app


def make_injector(plan, nprocs=4, trace=None):
    config = SimConfig(nprocs=nprocs, unit_pages=1)
    network = Network(config)
    stats = ProtocolStats()
    inj = FaultInjector(plan, config, network, stats, trace=trace)
    network.add_observer(inj)
    return inj, network, stats


def test_clean_plan_is_a_no_op():
    inj, network, stats = make_injector(FaultPlan(seed=0))
    network.record(0, 1, MessageClass.LOCK, 16, 10.0, waiter=0)
    assert stats.retransmissions == 0
    assert inj.overhead_us == [0.0] * 4
    assert network.count(MessageClass.RETRANSMIT) == 0


def test_drop_mirrors_retransmit_records_and_charges_waiter():
    plan = FaultPlan.uniform(seed=0, drop_rate=0.4, jitter_us=0.0)
    inj, network, stats = make_injector(plan)
    for msg_id in range(200):
        network.record(0, 1, MessageClass.LOCK, 16, float(msg_id), waiter=2)
    assert stats.retransmissions > 0
    assert stats.timeout_stalls > 0
    # Timeout stalls are charged to the waiter named by the protocol
    # layer, not to the destination.
    assert inj.overhead_us[2] > 0.0
    # Every injected copy is a RETRANSMIT-class ledger record with the
    # original's payload.
    copies = [m for m in network.messages
              if m.klass is MessageClass.RETRANSMIT]
    assert len(copies) == network.count(MessageClass.RETRANSMIT) > 0
    assert all(m.payload_bytes == 16 for m in copies)


def test_duplicate_charges_receiver_cpu():
    plan = FaultPlan.uniform(seed=1, dup_rate=0.999999999)
    inj, network, stats = make_injector(plan)
    network.record(0, 3, MessageClass.BARRIER, 64, 5.0, waiter=0)
    assert stats.duplicate_deliveries == 1
    config_cpu = SimConfig(nprocs=4).msg_cpu_us
    assert inj.overhead_us[3] == pytest.approx(config_cpu)


def test_jitter_and_reorder_charge_waiter():
    plan = FaultPlan.uniform(seed=2, reorder_rate=0.999999999,
                             jitter_us=40.0)
    inj, network, stats = make_injector(plan)
    network.record(1, 2, MessageClass.DIFF_REQUEST, 32, 0.0, waiter=1)
    assert inj.jittered_deliveries == 1
    assert inj.reordered_deliveries == 1
    assert inj.overhead_us[1] > 0.0
    assert inj.overhead_us[2] == 0.0


def test_injector_ignores_retransmit_class():
    plan = FaultPlan.uniform(seed=3, drop_rate=0.5)
    inj, network, stats = make_injector(plan)
    network.record(0, 1, MessageClass.RETRANSMIT, 16, 0.0)
    assert stats.retransmissions == 0 and network.count(MessageClass.RETRANSMIT) == 1


def test_finalize_stragglers_once():
    plan = FaultPlan(seed=0, stragglers=(
        StragglerWindow(proc=1, start_us=50.0, duration_us=100.0, factor=0.5),
        StragglerWindow(proc=2, start_us=900.0, duration_us=100.0),
    ))
    inj, _, _ = make_injector(plan)
    # proc 1 was still running at 50us; proc 2 finished before 900us.
    inj.finalize([500.0, 500.0, 500.0, 500.0])
    assert inj.overhead_us[1] == pytest.approx(50.0)
    assert inj.overhead_us[2] == 0.0
    assert inj.stragglers_applied == 1
    with pytest.raises(RuntimeError, match="finalize called twice"):
        inj.finalize([0.0] * 4)


def test_unknown_straggler_proc_rejected_at_construction():
    plan = FaultPlan(seed=0, stragglers=(
        StragglerWindow(proc=9, start_us=0.0, duration_us=1.0),
    ))
    with pytest.raises(ValueError, match="outside"):
        make_injector(plan, nprocs=4)


def test_network_observer_registry():
    config = SimConfig(nprocs=2, unit_pages=1)
    network = Network(config)
    plan = FaultPlan.uniform(seed=0, dup_rate=0.999999999)
    stats = ProtocolStats()
    inj = FaultInjector(plan, config, network, stats)
    network.add_observer(inj)
    # A recorded message reaches the injector, which duplicates it.
    network.record(0, 1, MessageClass.LOCK, 16, 0.0, waiter=1)
    assert stats.duplicate_deliveries == 1
    assert network.count(MessageClass.RETRANSMIT) == 1
    with pytest.raises(ValueError, match="registered twice"):
        network.add_observer(inj)


def test_runtime_wires_injector_and_reports_summary():
    app, ds = tiny_app("Jacobi")
    plan = FaultPlan.uniform(seed=4, drop_rate=0.1, dup_rate=0.05,
                             jitter_us=20.0)
    config = SimConfig(nprocs=4, unit_pages=1, fault_plan=plan.canonical())
    res = run_app(app, ds, config)
    assert res.stats.retransmissions > 0
    assert res.comm.fault_messages > 0
    assert res.extra["fault_overhead_us"] > 0.0
    assert res.extra["fault_links"] >= 1.0
    # The shadow overhead is visible in the reported clocks.
    base = run_app(tiny_app("Jacobi")[0], ds,
                   SimConfig(nprocs=4, unit_pages=1))
    assert res.time_us > base.time_us
    assert res.checksum == base.checksum


def test_trace_records_fault_events():
    app, ds = tiny_app("Jacobi")
    plan = FaultPlan.uniform(seed=5, drop_rate=0.15, jitter_us=30.0)
    config = SimConfig(nprocs=4, unit_pages=1, trace=True,
                       fault_plan=plan.canonical())
    res = run_app(app, ds, config)
    kinds = {ev.kind for ev in res.trace.events}
    assert "retransmit" in kinds
    assert "fault_injected" in kinds
    faults = [ev for ev in res.trace.events if ev.kind == "fault_injected"]
    assert {ev.fault for ev in faults} & {"drop", "jitter"}


def test_dropped_message_error_propagates_from_run():
    app, ds = tiny_app("Jacobi")
    plan = FaultPlan.uniform(seed=6, drop_rate=0.5).replace(
        retries_enabled=False
    )
    config = SimConfig(nprocs=4, unit_pages=1, fault_plan=plan.canonical())
    with pytest.raises(DroppedMessageError):
        run_app(app, ds, config)
