"""Single-writer invalidate: ownership ping-pong, invalidations, M-state."""

import numpy as np

from repro.core import SimConfig, TreadMarks
from repro.sim.network import MessageClass

WORDS_PER_PAGE = 1024


def make(nprocs=2, **cfg):
    tmk = TreadMarks(
        SimConfig(nprocs=nprocs, protocol="swi", **cfg), heap_bytes=1 << 16
    )
    arr = tmk.array("a", (4 * WORDS_PER_PAGE,), "uint32")
    return tmk, arr


class TestOwnership:
    def test_first_write_claims_ownership_without_transfer(self):
        tmk, arr = make()

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.full(8, 1, np.uint32))
            proc.barrier()

        tmk.run(body)
        assert tmk.procs[0].directory.owner[0] == 0
        assert tmk.stats.ownership_transfers == 0

    def test_false_sharing_ping_pongs_ownership(self):
        # The two processors alternate writes to *disjoint* words of one
        # unit: no data is ever communicated usefully, yet every
        # alternation pays an ownership transfer (the protocol's
        # defining false-sharing cost).
        tmk, arr = make()
        rounds = 3

        def body(proc):
            for r in range(rounds):
                if proc.id == r % 2:
                    arr.write(
                        proc, proc.id * 8, np.full(8, r + 1, np.uint32)
                    )
                proc.barrier(r)

        tmk.run(body)
        # Round 0 claims (unowned, no transfer); rounds 1..n-1 transfer.
        assert tmk.stats.ownership_transfers == rounds - 1

    def test_larger_units_widen_the_ping_pong(self):
        # Writes to word 0 and word 1024: distinct 4K units (no
        # transfers), one 8K unit (ping-pong).
        def transfers(pages):
            tmk = TreadMarks(
                SimConfig(nprocs=2, protocol="swi", unit_pages=pages),
                heap_bytes=1 << 16,
            )
            arr = tmk.array("a", (4 * WORDS_PER_PAGE,), "uint32")

            def body(proc):
                for r in range(2):
                    if proc.id == r % 2:
                        arr.write(
                            proc,
                            proc.id * WORDS_PER_PAGE,
                            np.full(8, r + 1, np.uint32),
                        )
                    proc.barrier(r)

            tmk.run(body)
            return tmk.stats.ownership_transfers

        assert transfers(1) == 0
        assert transfers(2) == 1


class TestInvalidation:
    def test_write_invalidates_every_other_copy(self):
        # Everyone starts with a valid (zero) copy, so the first write
        # invalidates all nprocs - 1 holders.
        tmk, arr = make(nprocs=4)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.full(8, 1, np.uint32))
            proc.barrier()

        tmk.run(body)
        assert tmk.stats.invalidations == 3
        assert tmk.procs[0].directory.copyset[0] == {0}

    def test_reader_rejoins_copyset_and_sees_current_data(self):
        tmk, arr = make(nprocs=2)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.full(8, 9, np.uint32))
            proc.barrier(0)
            if proc.id == 1:
                got = arr.read(proc, 0, 8)
                assert np.all(got == 9)
            proc.barrier(1)

        tmk.run(body)
        assert tmk.procs[0].directory.copyset[0] == {0, 1}

    def test_owner_rewrite_reinvalidates_readers(self):
        # Proc 0 owns the unit but proc 1 re-fetched a copy; a second
        # write by the *same owner* must invalidate it again (M state
        # requires exclusivity, not just ownership) or proc 1 reads
        # stale data.
        tmk, arr = make(nprocs=2)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.full(8, 1, np.uint32))
            proc.barrier(0)
            if proc.id == 1:
                arr.read(proc, 0, 8)
            proc.barrier(1)
            if proc.id == 0:
                arr.write(proc, 0, np.full(8, 2, np.uint32))
            proc.barrier(2)
            if proc.id == 1:
                got = arr.read(proc, 0, 8)
                assert np.all(got == 2)
            proc.barrier(3)

        tmk.run(body)
        # Invalidated once at the first write, once at the rewrite.
        assert tmk.stats.invalidations == 2
        assert tmk.stats.ownership_transfers == 0

    def test_refetch_is_whole_unit_from_owner(self):
        tmk, arr = make(nprocs=2)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.full(1, 7, np.uint32))
            proc.barrier(0)
            if proc.id == 1:
                arr.read(proc, 0, 1)
            proc.barrier(1)

        tmk.run(body)
        replies = [
            m
            for m in tmk.network.messages
            if m.klass is MessageClass.DIFF_REPLY
        ]
        assert len(replies) == 1
        assert replies[0].src == 0 and replies[0].dst == 1
        assert replies[0].words_carried == WORDS_PER_PAGE


class TestNoLrcMachinery:
    def test_no_twins_no_diffs_no_notices(self):
        tmk, arr = make(nprocs=2)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.full(8, 3, np.uint32))
            proc.barrier(0)
            if proc.id == 1:
                arr.read(proc, 0, 8)
            proc.barrier(1)

        tmk.run(body)
        assert all(not lp.twinned.any() for lp in tmk.procs)
        assert tmk.stats.diffs_created == 0
        assert all(all(e == 0 for e in lp.vc) for lp in tmk.procs)

    def test_write_then_read_back_round_trips(self):
        tmk, arr = make(nprocs=2)

        def body(proc):
            if proc.id == 0:
                arr.write(proc, 0, np.arange(16, dtype=np.uint32))
            proc.barrier(0)
            got = arr.read(proc, 0, 16)
            assert np.array_equal(got, np.arange(16, dtype=np.uint32))
            proc.barrier(1)
            return float(got.sum())

        res = tmk.run(body)
        assert res.checksum == float(np.arange(16).sum())
