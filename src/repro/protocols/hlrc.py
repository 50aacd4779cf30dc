"""Home-based lazy release consistency (HLRC).

Every consistency unit has a statically assigned *home* node
(``unit % nprocs``) whose copy is kept authoritative: at each release the
writer eagerly creates its diffs and flushes them to the homes
(one-way :data:`~repro.sim.network.MessageClass.DIFF_FLUSH` messages the
releaser does not stall on), and an access miss is serviced by one
round trip per home that ships the *whole current unit* -- in contrast to
TreadMarks LRC, where the faulting processor gathers word-granularity
diffs from every concurrent writer.

The trade-off reproduced here (Zhou, Iftode & Li, OSDI '96 "home-based"
vs "homeless" LRC):

* faults are a single exchange regardless of the number of writers, so
  the per-fault message count no longer scales with write-write false
  sharing -- the signature collapses to one exchange per home;
* but diff creation is eager (charged at every release even if nobody
  ever faults on the data) and fetches ship full units, so *useless
  data* grows with the unit size much faster than under tm-lrc's diffs.

Home copies are kept coherent the same way the simulator applies diffs
anywhere: word-granularity patches applied in global commit order, which
is a linear extension of happens-before, so data-race-free applications
observe identical values under every protocol (the checksum-invariance
property asserted in ``tests/integration/test_protocol_zoo.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence

import numpy as np

from repro.dsm.diff import DIFF_HEADER_BYTES, apply_diff, whole_unit_diff
from repro.dsm.lrc import REQUEST_BASE_BYTES, REQUEST_ENTRY_BYTES, LrcProc
from repro.protocols.base import CreditFn, ProtocolInfo, register
from repro.sim.network import MessageClass

if TYPE_CHECKING:
    from repro.dsm.address_space import SharedHeapLayout
    from repro.dsm.intervals import IntervalStore
    from repro.sim.clock import Clock
    from repro.sim.config import SimConfig
    from repro.sim.network import Network
    from repro.stats.counters import ProtocolStats


class HomeLrcProc(LrcProc):
    """One processor under home-based LRC."""

    #: All processors of the run (index == pid), wired by the build hook.
    peers: "List[HomeLrcProc]"

    def home(self, unit: int) -> int:
        """The unit's statically assigned home node."""
        return unit % self.config.nprocs

    # ------------------------------------------------------------------
    # Release path: eager diff + flush to the homes
    # ------------------------------------------------------------------
    def close_interval(self) -> None:
        if not self._twin_count:
            return
        units = np.flatnonzero(self.twinned).tolist()
        super().close_interval()
        interval = self.store.get(self.pid, self.vc[self.pid])
        now = self.clock.now
        cost = 0.0
        for unit in units:
            d = interval.diff_for(unit)
            # Eager diff creation: the word-compare scan runs at release
            # (the defining HLRC cost shift -- tm-lrc defers it to the
            # first fetch and skips it entirely for never-fetched data).
            key = (self.pid, unit, interval.index, interval.index)
            if key not in self.store.diff_scan_cache:
                self.store.diff_scan_cache[key] = d
                cost += self.layout.unit_bytes * self.config.diff_create_byte_us
                self.stats.diffs_created += 1
                self.stats.diff_words_created += d.nwords
                if self.trace is not None:
                    self.trace.on_diff_create(
                        self.pid, self.pid, now, unit, d.nwords
                    )
            home = self.home(unit)
            if home == self.pid:
                continue  # the writer is the home: its copy is the master
            msg = self.network.record(
                self.pid, home, MessageClass.DIFF_FLUSH,
                d.wire_bytes, now, waiter=None,
            )
            msg.words_carried = d.nwords
            cost += self.config.msg_cpu_us  # send-side CPU; no stall
            peer = self.peers[home]
            peer.install(d, msg.msg_id)
            if peer.twinned[unit]:
                # Patch the home's live twin too, else its next diff
                # would re-publish our words as its own writes.
                apply_diff(d, peer.twin(unit))
            self.stats.diffs_applied += 1
            self.stats.diff_words_applied += d.nwords
            self.stats.diff_flushes += 1
            if self.trace is not None:
                self.trace.on_diff_flush(
                    self.pid, home, now, unit, d.nwords, msg.msg_id
                )
        self.clock.advance(cost)

    # ------------------------------------------------------------------
    # Acquire path: own-home units never invalidate (flushes keep them
    # current); everything else invalidates as under LRC.
    # ------------------------------------------------------------------
    def _invalidated_units(
        self, units: "np.ndarray[Any, np.dtype[Any]]"
    ) -> "np.ndarray[Any, np.dtype[Any]]":
        return units[units % self.config.nprocs != self.pid]  # home != self

    # ------------------------------------------------------------------
    # Fault service: one whole-unit round trip per home
    # ------------------------------------------------------------------
    def fetch(self, units: Sequence[int]) -> None:
        by_home: Dict[int, List[int]] = {}
        for unit in units:
            if self.pending.get(unit):
                by_home.setdefault(self.home(unit), []).append(unit)
        if not by_home:
            raise AssertionError(f"fetch with nothing pending: units={units}")

        now = self.clock.now
        fault_id = len(self.stats.fault_records)
        stall = 0.0
        apply_cost = 0.0
        exchange_ids = []
        for home in sorted(by_home):
            hunits = sorted(by_home[home])
            ex = self.network.new_exchange(self.pid, home, fault_id)
            exchange_ids.append(ex)
            req_bytes = REQUEST_BASE_BYTES + REQUEST_ENTRY_BYTES * len(hunits)
            req = self.network.record(
                self.pid, home, MessageClass.DIFF_REQUEST, req_bytes, now, ex,
                waiter=self.pid,
            )
            # The home replies with the full current unit contents (HLRC
            # has no per-writer diffs to ship at fault time).
            reply_bytes = len(hunits) * (
                self.layout.unit_bytes + DIFF_HEADER_BYTES
            )
            reply = self.network.record(
                home, self.pid, MessageClass.DIFF_REPLY, reply_bytes, now, ex,
                waiter=self.pid,
            )
            reply.words_carried = len(hunits) * self.layout.words_per_unit
            self.network.close_exchange(ex, req.msg_id, reply.msg_id)
            response_time = (
                self.config.msg_cost_us(req_bytes)
                + self.config.diff_service_us
                + self.config.msg_cost_us(reply_bytes)
            )
            if self.config.parallel_fetch:
                stall = max(stall, response_time)
            else:
                stall += response_time
            for unit in hunits:
                self.install(
                    whole_unit_diff(unit, self.peers[home].space.unit_view(unit)),
                    reply.msg_id,
                )
                apply_cost += self.layout.unit_bytes * self.config.twin_byte_us
                self.stats.diffs_applied += 1
                self.stats.diff_words_applied += self.layout.words_per_unit
                if self.trace is not None:
                    w0, w1 = self.layout.unit_word_range(unit)
                    pages = tuple(self.layout.pages_of_range(w0, w1 - w0))
                    self.trace.on_diff_apply(
                        self.pid, now, unit, home,
                        self.layout.words_per_unit, reply.msg_id,
                        pages,
                        (self.layout.words_per_page,) * len(pages),
                    )
        stall += 2 * self.config.msg_cpu_us * len(by_home)

        self._finish_fault(units, len(by_home), exchange_ids, stall, apply_cost)


def _build(
    layout: "SharedHeapLayout",
    config: "SimConfig",
    store: "IntervalStore",
    network: "Network",
    stats: "ProtocolStats",
    clocks: "List[Clock]",
    credit: CreditFn,
) -> List[LrcProc]:
    procs = [
        HomeLrcProc(
            pid=pid,
            layout=layout,
            config=config,
            store=store,
            network=network,
            stats=stats,
            clock=clocks[pid],
            credit=credit,
        )
        for pid in range(config.nprocs)
    ]
    for p in procs:
        p.peers = procs
    return list(procs)


register(
    ProtocolInfo(
        name="hlrc",
        description=(
            "home-based LRC: diffs eagerly flushed to a per-unit home at "
            "release; a fault is one whole-unit round trip per home"
        ),
        build=_build,
    )
)
