"""Aggregation strategies: static units and dynamic page groups."""

import numpy as np
import pytest

from repro.core import SimConfig, TreadMarks
from repro.dsm.aggregation import DynamicAggregator, StaticAggregator


def run(nprocs, body, **cfg):
    tmk = TreadMarks(SimConfig(nprocs=nprocs, **cfg), heap_bytes=1 << 17)
    arr = tmk.array("a", (16 * 1024,), "uint32")  # 16 pages
    res = tmk.run(lambda proc: body(proc, arr))
    return tmk, res


def test_factory_picks_strategy():
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=4096)
    assert isinstance(tmk.procs[0].aggregator, StaticAggregator)
    tmk = TreadMarks(SimConfig(nprocs=1, dynamic=True), heap_bytes=4096)
    assert isinstance(tmk.procs[0].aggregator, DynamicAggregator)


def test_dynamic_requires_single_page_units():
    with pytest.raises(ValueError):
        TreadMarks(SimConfig(nprocs=1, dynamic=True, unit_pages=2), heap_bytes=4096)


def test_dynamic_monitoring_faults_on_first_access():
    """Every first touch of a page faults even with no data pending."""

    def body(proc, arr):
        arr.read(proc, 0, 4)
        arr.read(proc, 1024, 4)
        arr.read(proc, 8, 4)  # same page as the first read: no new fault

    tmk, res = run(1, body, dynamic=True)
    assert res.stats.monitoring_faults == 2
    assert res.stats.faults == 0


def test_static_mode_has_no_monitoring_faults():
    def body(proc, arr):
        arr.read(proc, 0, 4)
        arr.read(proc, 1024, 4)

    tmk, res = run(1, body)
    assert res.stats.monitoring_faults == 0


def test_dynamic_groups_pages_fetched_together():
    """Pages repeatedly accessed in the same interval get grouped: the
    second round fetches both in ONE fault with a combined request."""

    def body(proc, arr):
        for it in range(3):
            if proc.id == 0:
                arr.write(proc, 0, np.full(4, it + 1, np.uint32))
                arr.write(proc, 1024, np.full(4, it + 1, np.uint32))
            proc.barrier()
            if proc.id == 1:
                arr.read(proc, 0, 4)
                arr.read(proc, 1024, 4)
            proc.barrier()

    tmk, res = run(2, body, dynamic=True)
    data_faults = [
        r for r in res.stats.fault_records if r.proc == 1 and not r.monitoring
    ]
    # Round 1: two separate faults (no groups yet).  Rounds 2 and 3: the
    # two pages form a group -> one data fault each (plus a monitoring
    # fault for the second page).
    multi = [r for r in data_faults if len(r.units) == 2]
    assert len(multi) == 2
    assert len(data_faults) == 2 + 2


def test_dynamic_group_fetch_combines_per_writer():
    """Both grouped pages come from the same writer -> one exchange."""

    def body(proc, arr):
        for it in range(2):
            if proc.id == 0:
                arr.write(proc, 0, np.full(4, it + 1, np.uint32))
                arr.write(proc, 1024, np.full(4, it + 1, np.uint32))
            proc.barrier()
            if proc.id == 1:
                arr.read(proc, 0, 4)
                arr.read(proc, 1024, 4)
            proc.barrier()

    tmk, res = run(2, body, dynamic=True)
    grouped = [
        r
        for r in res.stats.fault_records
        if r.proc == 1 and len(r.units) == 2
    ]
    assert grouped and all(len(r.exchange_ids) == 1 for r in grouped)


def test_dynamic_hysteresis_drops_stale_members():
    """A page fetched with its group but never accessed again leaves the
    group (after one useless fetch -- the hysteresis cost)."""

    def body(proc, arr):
        # Round 1: proc 1 accesses pages 0 and 1 together.
        if proc.id == 0:
            arr.write(proc, 0, np.full(4, 1, np.uint32))
            arr.write(proc, 1024, np.full(4, 1, np.uint32))
        proc.barrier()
        if proc.id == 1:
            arr.read(proc, 0, 4)
            arr.read(proc, 1024, 4)
        proc.barrier()
        # Rounds 2..4: proc 1 only ever touches page 0 again.
        for it in range(3):
            if proc.id == 0:
                arr.write(proc, 0, np.full(4, it + 2, np.uint32))
                arr.write(proc, 1024, np.full(4, it + 2, np.uint32))
            proc.barrier()
            if proc.id == 1:
                arr.read(proc, 0, 4)
            proc.barrier()

    tmk, res = run(2, body, dynamic=True)
    agg = tmk.procs[1].aggregator
    assert isinstance(agg, DynamicAggregator)
    # Page 1 (word 1024) must have been dropped back to singleton.
    page1 = tmk.layout.unit_of_word(1024)
    assert page1 not in agg.group_of


def test_dynamic_max_group_size_respected():
    npages = 12

    def body(proc, arr):
        for it in range(2):
            if proc.id == 0:
                for p in range(npages):
                    arr.write(proc, p * 1024, np.full(4, it + 1, np.uint32))
            proc.barrier()
            if proc.id == 1:
                for p in range(npages):
                    arr.read(proc, p * 1024, 4)
            proc.barrier()

    tmk, res = run(2, body, dynamic=True, max_group_pages=4)
    for r in res.stats.fault_records:
        assert len(r.units) <= 4


def test_static_unit_invalidation_granularity():
    """A write anywhere in an 8 KB unit invalidates the whole unit at
    the reader: reading the untouched page of the unit still faults."""

    def body(proc, arr):
        if proc.id == 1:
            arr.read(proc, 1024, 4)  # page 1 valid (unit 0)
        proc.barrier()
        if proc.id == 0:
            arr.write(proc, 0, np.full(4, 1, np.uint32))  # page 0 of unit 0
        proc.barrier()
        if proc.id == 1:
            arr.read(proc, 1024, 4)  # page 1: unit invalid -> fault
        proc.barrier()

    tmk, res = run(2, body, unit_pages=2)
    p1_faults = [r for r in res.stats.fault_records if r.proc == 1]
    assert len(p1_faults) == 1
