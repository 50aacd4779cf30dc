"""Home-based LRC: home assignment, eager flushes, single-exchange faults."""

import numpy as np

from repro.core import SimConfig, TreadMarks
from repro.sim.network import MessageClass

WORDS_PER_PAGE = 1024


def make(nprocs=4, **cfg):
    tmk = TreadMarks(
        SimConfig(nprocs=nprocs, protocol="hlrc", **cfg), heap_bytes=1 << 16
    )
    arr = tmk.array("a", (4 * WORDS_PER_PAGE,), "uint32")
    return tmk, arr


def flushes(tmk):
    return [
        m for m in tmk.network.messages if m.klass is MessageClass.DIFF_FLUSH
    ]


class TestHomeAssignment:
    def test_home_is_unit_mod_nprocs(self):
        tmk, _ = make(nprocs=3)
        for lp in tmk.procs:
            for unit in range(tmk.layout.nunits):
                assert lp.home(unit) == unit % 3

    def test_home_assignment_agrees_across_processors(self):
        tmk, _ = make(nprocs=4)
        homes = {
            unit: {lp.home(unit) for lp in tmk.procs}
            for unit in range(tmk.layout.nunits)
        }
        assert all(len(owners) == 1 for owners in homes.values())


class TestReleaseFlush:
    def test_release_flushes_to_remote_home(self):
        # Unit 1's home is proc 1; a write by proc 0 must flush there.
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, WORDS_PER_PAGE, np.full(8, 7, np.uint32))
            proc.barrier()

        tmk.run(body)
        sent = flushes(tmk)
        assert [(m.src, m.dst) for m in sent] == [(0, 1)]
        assert tmk.stats.diff_flushes == 1
        # The home's copy became authoritative at the release.
        assert np.all(
            tmk.procs[1].space.unit_view(1)[:8] == 7
        )

    def test_writer_at_home_does_not_flush(self):
        # Unit 0's home is proc 0: its own writes need no flush message.
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.full(8, 9, np.uint32))
            proc.barrier()

        tmk.run(body)
        assert flushes(tmk) == []
        assert tmk.stats.diff_flushes == 0

    def test_flush_is_one_way(self):
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, WORDS_PER_PAGE, np.full(8, 7, np.uint32))
            proc.barrier()

        tmk.run(body)
        (msg,) = flushes(tmk)
        assert msg.exchange_id is None

    def test_diff_creation_charged_eagerly(self):
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, WORDS_PER_PAGE, np.full(8, 7, np.uint32))
            proc.barrier()

        tmk.run(body)
        # Nobody ever faulted, yet the diff scan ran (at the release).
        assert tmk.stats.faults == 0
        assert tmk.stats.diffs_created == 1


class TestFaultService:
    def test_fault_is_single_exchange_regardless_of_writers(self):
        # Two processors write disjoint words of unit 1 (write-write
        # false sharing); under tm-lrc the reader's fault would gather
        # from both writers, under hlrc it is one exchange to the home.
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id in (0, 2):
                arr.write(
                    proc,
                    WORDS_PER_PAGE + proc.id * 8,
                    np.full(8, proc.id + 1, np.uint32),
                )
            proc.barrier(0)
            if proc.id == 3:
                got = arr.read(proc, WORDS_PER_PAGE, 32)
                assert np.all(got[:8] == 1)
                assert np.all(got[16:24] == 3)
            proc.barrier(1)

        tmk.run(body)
        recs = [r for r in tmk.stats.fault_records if r.proc == 3]
        assert len(recs) == 1
        assert recs[0].writers == 1  # one home, not two writers
        assert len(recs[0].exchange_ids) == 1

    def test_fetch_ships_whole_units(self):
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, WORDS_PER_PAGE, np.full(1, 5, np.uint32))
            proc.barrier(0)
            if proc.id == 2:
                arr.read(proc, WORDS_PER_PAGE, 1)
            proc.barrier(1)

        tmk.run(body)
        replies = [
            m
            for m in tmk.network.messages
            if m.klass is MessageClass.DIFF_REPLY
        ]
        assert len(replies) == 1
        # One word was written, a whole unit travels.
        assert replies[0].words_carried == WORDS_PER_PAGE

    def test_home_never_faults_on_its_own_units(self):
        # Proc 1 is unit 1's home: flushes keep its copy current, so its
        # reads there must never fault.
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, WORDS_PER_PAGE, np.full(8, 3, np.uint32))
            proc.barrier(0)
            if proc.id == 1:
                got = arr.read(proc, WORDS_PER_PAGE, 8)
                assert np.all(got == 3)
            proc.barrier(1)

        tmk.run(body)
        assert all(r.proc != 1 for r in tmk.stats.fault_records)
