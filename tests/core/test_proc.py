"""Proc facade behaviour."""

import pytest

from repro.core import SimConfig, TreadMarks


def test_time_us_tracks_clock():
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=4096)

    def body(proc):
        t0 = proc.time_us
        proc.compute(us=10.0)
        assert proc.time_us == pytest.approx(t0 + 10.0)

    tmk.run(body)


def test_reads_charge_per_word():
    cfg = SimConfig(nprocs=1)
    tmk = TreadMarks(cfg, heap_bytes=1 << 14)
    arr = tmk.array("a", (2048,), "uint32")

    def body(proc):
        t0 = proc.time_us
        arr.read(proc, 0, 1000)
        expect = cfg.region_op_us + 1000 * cfg.word_access_us
        assert proc.time_us - t0 == pytest.approx(expect)

    tmk.run(body)


def test_write_converts_dtypes():
    tmk = TreadMarks(SimConfig(nprocs=1), heap_bytes=1 << 14)
    arr = tmk.array("a", (8,), "float32")

    def body(proc):
        arr.write(proc, 0, [1.5, 2.5])  # list input
        got = arr.read(proc, 0, 2)
        assert list(got) == [1.5, 2.5]

    tmk.run(body)


def test_exception_in_worker_surfaces_from_run():
    tmk = TreadMarks(SimConfig(nprocs=4), heap_bytes=4096)

    def body(proc):
        if proc.id == 2:
            raise ValueError("app bug")
        proc.barrier()

    with pytest.raises(ValueError, match="app bug"):
        tmk.run(body)


def test_mismatched_barriers_detected():
    tmk = TreadMarks(SimConfig(nprocs=2), heap_bytes=4096)

    def body(proc):
        if proc.id == 0:
            proc.barrier(1)

    from repro.sim.engine import DeadlockError

    with pytest.raises(DeadlockError):
        tmk.run(body)
