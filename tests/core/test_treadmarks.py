"""TreadMarks runtime wiring."""

import gc

import numpy as np
import pytest

from repro.bench.harness import run_case
from repro.core import SimConfig, TreadMarks
from repro.dsm.address_space import AddressSpace
from repro.dsm.intervals import Interval
from repro.dsm.lrc import LrcProc
from repro.sim.engine import Engine


def test_single_use():
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=4096)
    tmk.run(lambda proc: None)
    with pytest.raises(RuntimeError):
        tmk.run(lambda proc: None)


def test_checksum_comes_from_proc0():
    tmk = TreadMarks(SimConfig(nprocs=3), heap_bytes=4096)
    res = tmk.run(lambda proc: float(proc.id + 42))
    assert res.checksum == 42.0


def test_non_numeric_return_gives_none_checksum():
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=4096)
    res = tmk.run(lambda proc: "not a number")
    assert res.checksum is None


def test_dynamic_with_multi_page_units_rejected():
    with pytest.raises(ValueError):
        TreadMarks(SimConfig(nprocs=2, dynamic=True, unit_pages=2), heap_bytes=4096)


def test_proc_identity():
    tmk = TreadMarks(SimConfig(nprocs=4), heap_bytes=4096)
    seen = []

    def body(proc):
        seen.append((proc.id, proc.nprocs))
        proc.barrier()

    tmk.run(body)
    assert sorted(seen) == [(i, 4) for i in range(4)]


def test_compute_advances_time():
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=4096)

    def body(proc):
        proc.compute(us=123.0)
        assert proc.time_us == pytest.approx(123.0)
        proc.compute(flops=1000)

    res = tmk.run(body)
    assert res.time_us == pytest.approx(123.0 + 1000 * tmk.config.flop_us)


def test_deterministic_end_to_end():
    def build():
        tmk = TreadMarks(SimConfig(nprocs=4), heap_bytes=1 << 16)
        arr = tmk.array("a", (4096,), "uint32")

        def body(proc):
            for i in range(3):
                arr.write(proc, proc.id * 32, np.full(8, i, np.uint32))
                proc.barrier(i)
                arr.read(proc, ((proc.id + 1) % 4) * 32, 8)
                proc.barrier(100 + i)
            return float(proc.time_us)

        return tmk, tmk.run(body)

    t1, r1 = build()
    t2, r2 = build()
    assert r1.time_us == r2.time_us
    assert r1.comm.total_messages == r2.comm.total_messages
    assert [m.payload_bytes for m in t1.network.messages] == [
        m.payload_bytes for m in t2.network.messages
    ]


def test_malloc_alias():
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=1 << 14)
    alloc = tmk.malloc("raw", 256)
    assert alloc.nwords == 64


@pytest.mark.parametrize(
    "label,extra",
    [("4K", {}), ("Dyn", {}), ("4K", {"protocol": "hlrc"}),
     ("4K", {"protocol": "erc"}), ("4K", {"protocol": "swi"})],
)
def test_finished_run_is_freed_by_reference_counting(label, extra):
    """A finished cell holds no reference cycle: nothing of its runtime
    is left for the cyclic collector (which would keep its heap images
    alive until it happens to run)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_case("Jacobi", "1Kx1K", label, **extra)
        gc.collect()
        runtime = (TreadMarks, Engine, LrcProc, AddressSpace, Interval)
        leaked = [type(o).__name__ for o in gc.garbage if isinstance(o, runtime)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
