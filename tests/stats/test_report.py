"""Communication breakdown classification and conservation invariants."""

import numpy as np
import pytest

from repro.core import SimConfig, TreadMarks
from repro.sim.network import SYNC_CLASSES, MessageClass


def run_pattern(body, nprocs=4, **cfg):
    tmk = TreadMarks(SimConfig(nprocs=nprocs, **cfg), heap_bytes=1 << 16)
    arr = tmk.array("a", (8 * 1024,), "uint32")
    res = tmk.run(lambda proc: body(proc, arr))
    return tmk, res


def test_all_read_data_is_useful():
    def body(proc, arr):
        if proc.id == 0:
            arr.write(proc, 0, np.arange(1024, dtype=np.uint32))
        proc.barrier()
        if proc.id == 1:
            arr.read(proc, 0, 1024)
        proc.barrier()

    tmk, res = run_pattern(body)
    assert res.comm.useless_messages == 0
    assert res.comm.piggybacked_useless_bytes == 0


def test_unread_data_is_piggybacked_useless():
    """Reader consumes half of the diffed words -> the rest is useless
    data riding on a useful message."""

    def body(proc, arr):
        if proc.id == 0:
            arr.write(proc, 0, np.arange(1024, dtype=np.uint32))
        proc.barrier()
        if proc.id == 1:
            arr.read(proc, 0, 512)
        proc.barrier()

    tmk, res = run_pattern(body)
    assert res.comm.useless_messages == 0
    assert res.comm.piggybacked_useless_bytes == 512 * 4


def test_write_write_false_sharing_yields_useless_message():
    """p2's write-fault pulls p1's colocated-but-unread data: a useless
    exchange (both its messages count useless)."""

    def body(proc, arr):
        if proc.id == 1:
            arr.write(proc, 0, np.full(4, 1, np.uint32))
        proc.barrier()
        if proc.id == 2:
            arr.write(proc, 512, np.full(4, 2, np.uint32))  # same page
        proc.barrier()

    tmk, res = run_pattern(body)
    assert res.comm.useless_messages == 2  # one exchange


def test_conservation_messages():
    def body(proc, arr):
        arr.write(proc, proc.id * 16, np.full(8, proc.id + 1, np.uint32))
        proc.barrier()
        arr.read(proc, 0, 4 * 16)
        proc.barrier()

    tmk, res = run_pattern(body)
    c = res.comm
    assert c.total_messages == len(tmk.network.messages)
    assert c.useful_messages + c.useless_messages == c.data_messages
    assert c.sync_messages == sum(tmk.network.count(k) for k in SYNC_CLASSES)


def test_conservation_bytes():
    def body(proc, arr):
        arr.write(proc, proc.id * 1024, np.arange(512, dtype=np.uint32))
        proc.barrier()
        if proc.id == 0:
            arr.read(proc, 1024, 128)  # partial read of proc 1's page
        proc.barrier()

    tmk, res = run_pattern(body)
    c = res.comm
    total_payload = sum(m.payload_bytes for m in tmk.network.messages)
    assert c.total_bytes == total_payload
    assert c.piggybacked_useless_bytes <= c.useless_bytes


def test_useless_data_equals_unread_diff_words():
    def body(proc, arr):
        if proc.id == 0:
            arr.write(proc, 0, np.arange(1000, dtype=np.uint32))
        proc.barrier()
        if proc.id == 1:
            arr.read(proc, 0, 300)
        proc.barrier()

    tmk, res = run_pattern(body)
    replies = [
        m for m in tmk.network.messages if m.klass is MessageClass.DIFF_REPLY
    ]
    unread = sum(m.words_useless for m in replies) * 4
    # Piggybacked useless plus useless-message payload data words.
    assert res.comm.piggybacked_useless_bytes == unread  # all on useful msgs here


def test_unit_label():
    def body(proc, arr):
        proc.barrier()

    _, r4 = run_pattern(body, nprocs=2)
    assert r4.unit_label == "4K"
    _, r8 = run_pattern(body, nprocs=2, unit_pages=2)
    assert r8.unit_label == "8K"
    _, rd = run_pattern(body, nprocs=2, dynamic=True)
    assert rd.unit_label == "Dyn"


def test_time_is_max_proc_clock():
    def body(proc, arr):
        proc.compute(us=100.0 * (proc.id + 1))

    _, res = run_pattern(body)
    assert res.time_us == pytest.approx(max(res.proc_times_us))
    assert res.time_us >= 400.0
