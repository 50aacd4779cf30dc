"""Protocol counters and fault records."""


from repro.stats.counters import ProtocolStats


def test_record_fault_assigns_ids():
    s = ProtocolStats()
    r0 = s.record_fault(proc=0, time_us=1.0, units=(0,), writers=1, exchange_ids=(0,))
    r1 = s.record_fault(proc=1, time_us=2.0, units=(1,), writers=2, exchange_ids=(1, 2))
    assert (r0.fault_id, r1.fault_id) == (0, 1)
    assert s.faults == 2
    assert s.monitoring_faults == 0


def test_monitoring_fault_counted_separately():
    s = ProtocolStats()
    s.record_fault(proc=0, time_us=0.0, units=(3,), writers=0,
                   exchange_ids=(), monitoring=True)
    assert s.faults == 0
    assert s.monitoring_faults == 1
    assert s.fault_records[0].monitoring


def test_counters_start_zero():
    s = ProtocolStats()
    assert s.twins == 0
    assert s.diffs_created == 0
    assert s.mprotects == 0
    assert s.lock_acquires == 0
    assert s.barriers == 0
    assert s.fault_records == []
