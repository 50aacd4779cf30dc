"""Lock and barrier semantics, plugged into the scheduling engine.

The :class:`SyncManager` is the engine's op handler.  It implements
TreadMarks-style synchronization:

* **Locks** have a static manager; an acquire by the last owner is free
  (locally cached), otherwise the request travels requester -> manager ->
  last owner -> requester (3 messages), and the grant carries the write
  notices the acquirer has not seen.  Contended requests queue and are
  granted in request order.

* **Barriers** are centralized at a manager processor: arrivals carry
  each client's new write notices, the departure broadcast carries
  everyone's merged notices; every processor leaves with the join of all
  vector clocks.

Write-notice application (invalidation) happens through
:meth:`repro.dsm.lrc.LrcProc.apply_notices_upto` while the target
processor is parked, and its cost is folded into the wake-up time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.dsm.lrc import LrcProc
from repro.dsm.vc import VectorClock
from repro.sim.config import SimConfig
from repro.sim.engine import Op, OpKind, Resume
from repro.sim.network import MessageClass, Network
from repro.stats.counters import ProtocolStats
from repro.trace.events import (
    BarrierArriveEvent,
    BarrierDepartEvent,
    LockAcquireEvent,
    LockReleaseEvent,
)

#: Local cost of a release / a cached re-acquire (bookkeeping only).
LOCAL_SYNC_US = 5.0

#: Payload bytes of a bare lock request / forward message.
LOCK_REQUEST_BYTES = 16


@dataclass
class LockState:
    """Protocol state of one lock."""

    lock_id: int
    holder: Optional[int] = None
    last_owner: Optional[int] = None
    last_vc: Optional[VectorClock] = None
    waiters: Deque[Tuple[int, float]] = field(default_factory=deque)


class SyncManager:
    """Engine op handler implementing locks and barriers."""

    def __init__(
        self,
        config: SimConfig,
        network: Network,
        procs: Sequence[LrcProc],
        stats: ProtocolStats,
    ) -> None:
        self.config = config
        self.network = network
        self.procs = list(procs)
        self.stats = stats
        self.locks: Dict[int, LockState] = {}
        self.barrier_arrivals: Dict[int, List[Tuple[int, float]]] = {}
        self._store = procs[0].store if procs else None
        self.trace = None
        """Optional :class:`repro.trace.recorder.TraceRecorder` attached
        by the runtime.  Lock-acquire events are emitted at grant time,
        so their trace order is the grant order -- the property the
        happens-before replay relies on.  Observer-only."""
        self.barrier_instance: Dict[int, int] = {}
        """Completed occurrences per barrier id, counted only when
        traced: the ``instance`` of that barrier's next events."""
        self.manager_pid = 0
        """Barrier manager and lock manager processor (proc 0, as is
        conventional for the paper's applications)."""

    # ------------------------------------------------------------------
    # Engine handler entry point
    # ------------------------------------------------------------------
    def service(self, op: Op) -> Sequence[Resume]:
        if op.kind is OpKind.ACQUIRE:
            return self._service_acquire(op)
        if op.kind is OpKind.RELEASE:
            return self._service_release(op)
        if op.kind is OpKind.BARRIER:
            return self._service_barrier(op)
        if op.kind is OpKind.FINISH:
            return ()
        raise AssertionError(f"unhandled op kind {op.kind}")

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------
    def _lock(self, lock_id: int) -> LockState:
        if lock_id not in self.locks:
            self.locks[lock_id] = LockState(lock_id=lock_id)
        return self.locks[lock_id]

    def _service_acquire(self, op: Op) -> Sequence[Resume]:
        lock = self._lock(op.arg)
        self.stats.lock_acquires += 1
        if lock.holder is None:
            return [self._grant(lock, op.proc, op.ts, op.ts)]
        lock.waiters.append((op.proc, op.ts))
        return []

    def _service_release(self, op: Op) -> Sequence[Resume]:
        lock = self._lock(op.arg)
        if lock.holder != op.proc:
            raise RuntimeError(
                f"proc {op.proc} released lock {op.arg} held by {lock.holder}"
            )
        lock.holder = None
        lock.last_vc = self.procs[op.proc].vc.copy()
        if self.trace is not None:
            self.trace.emit(LockReleaseEvent(op.ts, op.proc, lock_id=op.arg))
        resumes = [Resume(op.proc, op.ts + LOCAL_SYNC_US)]
        if lock.waiters:
            waiter, req_ts = lock.waiters.popleft()
            resumes.append(self._grant(lock, waiter, req_ts, op.ts))
        return resumes

    def _grant(
        self, lock: LockState, proc: int, req_ts: float, avail_ts: float
    ) -> Resume:
        """Grant ``lock`` to ``proc``; returns its resumption.

        ``req_ts`` is when the requester asked, ``avail_ts`` when the
        lock actually became available (== req_ts for an uncontended
        acquire)."""
        lp = self.procs[proc]
        cost, notice_bytes = 0.0, 0
        if lock.last_vc is not None:
            n_cost, notice_bytes, _ = lp.apply_notices_upto(lock.last_vc)
            cost += n_cost

        cached = lock.last_owner == proc or (
            lock.last_owner is None and self.config.nprocs == 1
        )
        now = max(req_ts, avail_ts)
        # Every hop of the acquire path stalls the requester, so injected
        # delivery faults (repro.faults) charge their delays to it.
        if cached:
            cost += LOCAL_SYNC_US
        elif lock.last_owner is None:
            # First acquire: manager grants directly (2 messages).
            cost += self.config.lock_acquire_overhead_us(remote=False)
            self._record_lock_msg(
                proc, self.manager_pid, LOCK_REQUEST_BYTES, now, waiter=proc
            )
            self._record_lock_msg(
                self.manager_pid, proc, LOCK_REQUEST_BYTES + notice_bytes, now,
                waiter=proc,
            )
            self.stats.lock_remote_acquires += 1
        else:
            # Remote: requester -> manager -> last owner -> requester.
            cost += self.config.lock_acquire_overhead_us(remote=True)
            owner = lock.last_owner
            self._record_lock_msg(
                proc, self.manager_pid, LOCK_REQUEST_BYTES, now, waiter=proc
            )
            self._record_lock_msg(
                self.manager_pid, owner, LOCK_REQUEST_BYTES, now, waiter=proc
            )
            self._record_lock_msg(
                owner, proc, LOCK_REQUEST_BYTES + notice_bytes, now, waiter=proc
            )
            self.stats.lock_remote_acquires += 1

        lock.holder = proc
        lock.last_owner = proc
        wake_ts = max(req_ts, avail_ts) + cost
        if self.trace is not None:
            self.trace.emit(LockAcquireEvent(
                now, proc, lock_id=lock.lock_id, req_ts_us=req_ts,
                wake_ts_us=wake_ts, cached=cached,
            ))
        return Resume(proc, wake_ts)

    def _record_lock_msg(
        self, src: int, dst: int, payload: int, now: float,
        waiter: Optional[int] = None,
    ) -> None:
        """Record one lock-protocol message, skipping the hops that are
        local because two roles coincide on one processor."""
        if src != dst:
            self.network.record(
                src, dst, MessageClass.LOCK, payload, now, waiter=waiter
            )

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def _service_barrier(self, op: Op) -> Sequence[Resume]:
        arrivals = self.barrier_arrivals.setdefault(op.arg, [])
        for p, _ in arrivals:
            if p == op.proc:
                raise RuntimeError(
                    f"proc {op.proc} arrived twice at barrier {op.arg}"
                )
        arrivals.append((op.proc, op.ts))
        if self.trace is not None:
            self.trace.emit(BarrierArriveEvent(
                op.ts, op.proc, barrier_id=op.arg,
                instance=self.barrier_instance.get(op.arg, 0),
            ))
        if len(arrivals) < self.config.nprocs:
            return []

        # Last arrival: merge knowledge and release everyone.
        del self.barrier_arrivals[op.arg]
        self.stats.barriers += 1
        last_ts = max(ts for _, ts in arrivals)
        merged = VectorClock(self.config.nprocs)
        for lp in self.procs:
            merged.join(lp.vc)

        overhead = (
            self.config.barrier_overhead_us(self.config.nprocs)
            if self.config.nprocs > 1
            else 0.0
        )
        resumes = []
        for proc, arrive_ts in arrivals:
            lp = self.procs[proc]
            if proc != self.manager_pid:
                # Arrival message carries the client's new write notices;
                # the manager waits on it before releasing the barrier.
                self.network.record(
                    proc, self.manager_pid, MessageClass.BARRIER,
                    LOCK_REQUEST_BYTES
                    + lp.unsent_notices * self.config.write_notice_bytes,
                    arrive_ts,
                    waiter=self.manager_pid,
                )
            lp.unsent_notices = 0
            cost, notice_bytes, _ = lp.apply_notices_upto(merged)
            if proc != self.manager_pid:
                # Departure message carries everyone else's notices; the
                # departing client waits on it.
                self.network.record(
                    self.manager_pid, proc, MessageClass.BARRIER,
                    LOCK_REQUEST_BYTES + notice_bytes, last_ts,
                    waiter=proc,
                )
            wake_ts = last_ts + overhead + cost
            if self.trace is not None:
                self.trace.emit(BarrierDepartEvent(
                    last_ts, proc, barrier_id=op.arg,
                    instance=self.barrier_instance.get(op.arg, 0),
                    wake_ts_us=wake_ts,
                ))
            resumes.append(Resume(proc, wake_ts))
        if self.trace is not None:
            self.barrier_instance[op.arg] = (
                self.barrier_instance.get(op.arg, 0) + 1
            )

        # After a barrier everyone's vector clock equals `merged`, so any
        # interval it covers that no pending notice references can never
        # be needed again: reclaim, as TreadMarks' periodic GC does.
        if (
            self.config.gc_threshold
            and self._store is not None
            and self._store.count() > self.config.gc_threshold
        ):
            self._store.collect(merged)
        return resumes
