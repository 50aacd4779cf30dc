"""Single-writer invalidate (SWI).

The classic Li/Hudak-style ownership protocol: at any moment each
consistency unit has at most one *writer* (its owner) plus any number of
read-only copy holders (the *copyset*).  A write to a non-exclusively
owned unit takes ownership -- one round trip to the previous owner --
and invalidates every other copy (invalidation + ack per holder); a read
or write of an invalidated unit fetches the whole current unit from the
owner in one exchange.

There are no twins, no diffs, no write notices, and no vector clocks:
coherence is enforced *per access*, not per synchronization interval.
This is exactly the protocol class the multiple-writer work of Carter et
al. (and TreadMarks) was designed to displace, and it makes the paper's
false-sharing story brutally visible: two processors writing different
words of the same unit *ping-pong its ownership* -- every alternation
pays a transfer round trip plus invalidations plus a whole-unit refetch,
so growing the unit from 4 K to 16 K multiplies the cost of every
falsely-shared boundary instead of amortizing it.  The
``ownership_transfers`` counter is the ping-pong meter.

Modelling notes:

* The directory is "free": real systems pay a (distributed) manager
  lookup; we charge only the transfer / invalidation traffic itself,
  which keeps the protocol's scaling behaviour while staying simple.
* Invalidations are sent in parallel and individually acked; the writer
  stalls for one round trip (or their sum under the serialized-fetch
  ablation) plus per-message CPU.
* Invalidated units are marked with a sentinel pending entry so the
  existing aggregation strategies (which only test pending-ness) drive
  fault service unchanged.
* The access path is the base class's.  SWI plugs into it through the
  two write hooks -- ``_prepare_write`` takes exclusive ownership,
  ``_unwritable_units`` is "not exclusively owned here" -- so scalar and
  batched writes acquire ownership at the same first-touch positions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Set

import numpy as np

from repro.dsm.diff import DIFF_HEADER_BYTES, whole_unit_diff
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

#: Wire sizes of the ownership / invalidation control messages.
OWNERSHIP_REQUEST_BYTES = 16
OWNERSHIP_GRANT_BYTES = 16
INVALIDATE_BYTES = 12
INVALIDATE_ACK_BYTES = 8


#: The ``(proc, index, commit_seq)`` notice that marks an invalidated
#: unit pending.  SWI has no intervals, so the fields are dummies: only
#: the unit's nonzero ``pending_n`` (tested by the aggregators and
#: :meth:`SwiProc.fetch`) matters.  ``proc=-1`` can never collide with a
#: real interval in the barrier GC's referenced-set bookkeeping.
_SENTINEL = (-1, 0, 0)


class OwnershipDirectory:
    """Global owner + copyset state, shared by all processors of a run."""

    def __init__(self, nunits: int, nprocs: int) -> None:
        self.owner: List[int] = [-1] * nunits
        """Current writer of each unit; -1 until first written."""

        self.copyset: List[Set[int]] = [
            set(range(nprocs)) for _ in range(nunits)
        ]
        """Processors holding a valid copy (everyone starts valid: the
        heap is zero-initialized identically on every node)."""

        self.excl: "np.ndarray[Any, np.dtype[Any]]" = np.full(
            nunits, -1, dtype=np.int32
        )
        """Per-unit exclusivity cache: the pid for which
        ``owner[u] == pid and copyset[u] == {pid}`` holds, else -1.
        Both mutation sites keep it current (ownership acquisition sets
        it, a fetch joining the copyset clears it), so the write fast
        path tests exclusivity with one array read per unit instead of
        building set comparisons."""


class SwiProc(LrcProc):
    """One processor under single-writer invalidate."""

    #: All processors of the run (index == pid), wired by the build hook.
    peers: "List[SwiProc]"

    #: The run's shared ownership directory, wired by the build hook.
    directory: OwnershipDirectory

    # ------------------------------------------------------------------
    # Write path: ownership + invalidation before the store.  The base
    # access path (scalar and batched alike) prepares every first write
    # through these two hooks; here "writable" means exclusively owned.
    # ------------------------------------------------------------------
    def _prepare_write(self, unit: int) -> None:
        self._ensure_exclusive(unit)

    def _unwritable_units(self) -> "np.ndarray[Any, np.dtype[Any]]":
        return self.directory.excl != self.pid

    def _ensure_exclusive(self, unit: int) -> None:
        """Make this processor the exclusive owner of ``unit`` (the
        MSI "M state"): take ownership from the previous owner if any,
        invalidate every other copy."""
        d = self.directory
        if d.excl[unit] == self.pid:
            return
        now = self.clock.now
        # Write-protection trap: the unit was not writable here.
        cost = self.config.fault_trap_us + self.config.mprotect_us
        self.stats.mprotects += 1

        prev = d.owner[unit]
        if prev >= 0 and prev != self.pid:
            # Ownership transfer round trip to the current owner.
            self.network.record(
                self.pid, prev, MessageClass.OWNERSHIP,
                OWNERSHIP_REQUEST_BYTES, now, waiter=self.pid,
            )
            self.network.record(
                prev, self.pid, MessageClass.OWNERSHIP,
                OWNERSHIP_GRANT_BYTES, now, waiter=self.pid,
            )
            cost += (
                self.config.msg_cost_us(OWNERSHIP_REQUEST_BYTES)
                + self.config.msg_cost_us(OWNERSHIP_GRANT_BYTES)
                + 2 * self.config.msg_cpu_us
            )
            self.stats.ownership_transfers += 1

        sharers = sorted(d.copyset[unit] - {self.pid})
        inval_rtt = self.config.msg_cost_us(
            INVALIDATE_BYTES
        ) + self.config.msg_cost_us(INVALIDATE_ACK_BYTES)
        for peer_pid in sharers:
            self.network.record(
                self.pid, peer_pid, MessageClass.INVALIDATE,
                INVALIDATE_BYTES, now, waiter=self.pid,
            )
            self.network.record(
                peer_pid, self.pid, MessageClass.INVALIDATE,
                INVALIDATE_ACK_BYTES, now, waiter=self.pid,
            )
            peer = self.peers[peer_pid]
            if not peer.pending_n[unit]:
                peer._add_notices(np.array([unit]), _SENTINEL)
                self.stats.mprotects += 1  # the holder protects its copy
            self.stats.invalidations += 1
        if sharers:
            if self.config.parallel_fetch:
                cost += inval_rtt  # parallel: one round trip covers all
            else:
                cost += inval_rtt * len(sharers)
            cost += 2 * self.config.msg_cpu_us * len(sharers)

        d.owner[unit] = self.pid
        d.copyset[unit] = {self.pid}
        d.excl[unit] = self.pid
        if self.trace is not None:
            self.trace.on_ownership(self.pid, now, unit, prev, len(sharers))
        self.clock.advance(cost)

    # ------------------------------------------------------------------
    # Fault service: whole-unit refetch from the owner
    # ------------------------------------------------------------------
    def fetch(self, units: Sequence[int]) -> None:
        by_owner: Dict[int, List[int]] = {}
        for unit in units:
            if self.pending_n[unit]:
                owner = self.directory.owner[unit]
                if owner < 0 or owner == self.pid:
                    raise AssertionError(
                        f"invalid unit {unit} with owner {owner} at proc "
                        f"{self.pid}"
                    )
                by_owner.setdefault(owner, []).append(unit)
        if not by_owner:
            raise AssertionError(f"fetch with nothing pending: units={units}")

        now = self.clock.now
        fault_id = len(self.stats.fault_records)
        stall = 0.0
        apply_cost = 0.0
        exchange_ids = []
        for owner in sorted(by_owner):
            ounits = sorted(by_owner[owner])
            ex = self.network.new_exchange(self.pid, owner, fault_id)
            exchange_ids.append(ex)
            req_bytes = REQUEST_BASE_BYTES + REQUEST_ENTRY_BYTES * len(ounits)
            req = self.network.record(
                self.pid, owner, MessageClass.DIFF_REQUEST, req_bytes, now, ex,
                waiter=self.pid,
            )
            # The owner's copy is always current (single-writer
            # invariant), and SWI has no diffs: ship the whole unit.
            reply_bytes = len(ounits) * (
                self.layout.unit_bytes + DIFF_HEADER_BYTES
            )
            reply = self.network.record(
                owner, self.pid, MessageClass.DIFF_REPLY, reply_bytes, now, ex,
                waiter=self.pid,
            )
            reply.words_carried = len(ounits) * self.layout.words_per_unit
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
            for unit in ounits:
                self.install(
                    whole_unit_diff(unit, self.peers[owner].space.unit_view(unit)),
                    reply.msg_id,
                )
                apply_cost += self.layout.unit_bytes * self.config.twin_byte_us
                self.directory.copyset[unit].add(self.pid)
                self.directory.excl[unit] = -1
                self.stats.diffs_applied += 1
                self.stats.diff_words_applied += self.layout.words_per_unit
                if self.trace is not None:
                    w0, w1 = self.layout.unit_word_range(unit)
                    pages = tuple(self.layout.pages_of_range(w0, w1 - w0))
                    self.trace.on_diff_apply(
                        self.pid, now, unit, owner,
                        self.layout.words_per_unit, reply.msg_id,
                        pages,
                        (self.layout.words_per_page,) * len(pages),
                    )
        stall += 2 * self.config.msg_cpu_us * len(by_owner)

        self._finish_fault(units, len(by_owner), exchange_ids, stall, apply_cost)


def _build(
    layout: "SharedHeapLayout",
    config: "SimConfig",
    store: "IntervalStore",
    network: "Network",
    stats: "ProtocolStats",
    clocks: "List[Clock]",
    credit: CreditFn,
) -> List[LrcProc]:
    directory = OwnershipDirectory(layout.nunits, config.nprocs)
    procs = [
        SwiProc(
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
        p.directory = directory
    return list(procs)


register(
    ProtocolInfo(
        name="swi",
        description=(
            "single-writer invalidate: one owner per unit, invalidations "
            "on ownership transfer; false sharing ping-pongs ownership"
        ),
        build=_build,
    )
)
