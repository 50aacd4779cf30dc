"""Typed trace event records.

Every event carries the id of the emitting processor (``proc``), the
simulated timestamp at which it happened (``ts_us``), and a recorder-
assigned sequence id (``eid``).  The recorder appends events in real
execution order; because the engine runs exactly one thread at a time,
that append order is a valid linearization of the run: each processor's
events appear in its program order, and synchronization events appear in
the order the scheduler serviced them.  The happens-before detector
(:mod:`repro.trace.hb`) relies on exactly this property.

Each emitting site builds its event and hands it to
:meth:`repro.trace.recorder.TraceRecorder.emit`, e.g.
``trace.emit(TwinEvent(now, pid, unit=unit))``.  ``eid`` and ``kind``
are not constructor arguments: ``kind`` is fixed per subclass and
``eid`` is stamped by ``emit``, so events are plain mutable dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple


@dataclass
class TraceEvent:
    """Common header of every trace event."""

    eid: int = field(default=-1, init=False)
    """Sequence id stamped by the recorder (== index in the event list)."""

    ts_us: float
    """Simulated time at which the event happened (microseconds)."""

    proc: int
    """The processor the event belongs to (message events use the
    sender; diff-create events use the writer that serves the scan)."""

    kind: str = field(default="", init=False)
    """Short event-type tag, fixed per subclass."""


@dataclass
class AccessEvent(TraceEvent):
    """One application-level shared access (read or write)."""

    kind: str = field(default="access", init=False)

    op: str = ""
    """``"read"`` or ``"write"``."""

    word0: int = 0
    nwords: int = 0


@dataclass
class FaultEvent(TraceEvent):
    """One access miss serviced by the protocol (or a dynamic-mode
    access-tracking fault when ``monitoring`` is true)."""

    kind: str = field(default="fault", init=False)

    fault_id: int = -1
    units: Tuple[int, ...] = ()
    writers: int = 0
    exchange_ids: Tuple[int, ...] = ()
    stall_us: float = 0.0
    """Network stall component of the fault (0 for monitoring faults)."""

    cost_us: float = 0.0
    """Total time charged to the faulting processor (trap + mprotect +
    stall + diff apply)."""

    monitoring: bool = False


@dataclass
class TwinEvent(TraceEvent):
    """A twin copy was created (first write to a unit in an interval)."""

    kind: str = field(default="twin", init=False)

    unit: int = -1


@dataclass
class DiffCreateEvent(TraceEvent):
    """A writer ran the word-compare scan building a diff (lazy, at the
    first request for the span; ``proc`` is the writer)."""

    kind: str = field(default="diff_create", init=False)

    requester: int = -1
    unit: int = -1
    nwords: int = 0


@dataclass
class DiffApplyEvent(TraceEvent):
    """A fetched diff was patched into the faulting processor's copy."""

    kind: str = field(default="diff_apply", init=False)

    unit: int = -1
    writer: int = -1
    nwords: int = 0
    msg_id: int = -1
    """The reply message that carried the diff."""

    pages: Tuple[int, ...] = ()
    """Hardware pages the diff's words fall in."""

    page_words: Tuple[int, ...] = ()
    """Words installed per entry of ``pages`` (same order)."""


@dataclass
class MessageEvent(TraceEvent):
    """One simulated protocol message (``proc`` is the sender)."""

    kind: str = field(default="message", init=False)

    msg_id: int = -1
    src: int = -1
    dst: int = -1
    klass: str = ""
    payload_bytes: int = 0
    recv_ts_us: float = 0.0
    """Send time plus the cost-model wire time (for flow arrows; the
    protocol charges this same quantity, so it is purely derived)."""

    exchange_id: Optional[int] = None


@dataclass
class LockAcquireEvent(TraceEvent):
    """A lock was granted to ``proc`` (``ts_us`` is the grant time; the
    recorder order of acquire events is the grant order, which the
    happens-before replay uses)."""

    kind: str = field(default="lock_acquire", init=False)

    lock_id: int = -1
    req_ts_us: float = 0.0
    """When the requester parked at the acquire."""

    wake_ts_us: float = 0.0
    """When the requester resumes (grant + protocol costs)."""

    cached: bool = False
    """True for a free re-acquire by the last owner."""


@dataclass
class LockReleaseEvent(TraceEvent):
    """``proc`` released a lock."""

    kind: str = field(default="lock_release", init=False)

    lock_id: int = -1


@dataclass
class BarrierArriveEvent(TraceEvent):
    """``proc`` arrived at a barrier."""

    kind: str = field(default="barrier_arrive", init=False)

    barrier_id: int = -1
    instance: int = 0
    """Which occurrence of this barrier id (0-based)."""


@dataclass
class BarrierDepartEvent(TraceEvent):
    """``proc`` departs a completed barrier (``ts_us`` is the last
    arrival time, ``wake_ts_us`` when this processor actually resumes)."""

    kind: str = field(default="barrier_depart", init=False)

    barrier_id: int = -1
    instance: int = 0
    wake_ts_us: float = 0.0


@dataclass
class GroupBuildEvent(TraceEvent):
    """Dynamic aggregation formed a page group at a synchronization."""

    kind: str = field(default="group_build", init=False)

    pages: Tuple[int, ...] = ()


@dataclass
class GroupFetchEvent(TraceEvent):
    """A fault on one member fetched the pending diffs of its group."""

    kind: str = field(default="group_fetch", init=False)

    page: int = -1
    group: Tuple[int, ...] = ()
    fetched: Tuple[int, ...] = ()
    """The members that actually had pending diffs to fetch."""


@dataclass
class GroupDissolveEvent(TraceEvent):
    """Hysteresis dropped a page from its group (group-fetched but never
    accessed during the interval)."""

    kind: str = field(default="group_dissolve", init=False)

    page: int = -1


@dataclass
class DiffFlushEvent(TraceEvent):
    """Home-based LRC: a releaser flushed one unit's diff to the unit's
    home node (``proc`` is the releaser)."""

    kind: str = field(default="diff_flush", init=False)

    home: int = -1
    unit: int = -1
    nwords: int = 0
    msg_id: int = -1
    """The DIFF_FLUSH message that carried the diff."""


@dataclass
class DiffPushEvent(TraceEvent):
    """Eager release consistency: a releaser pushed its interval's diffs
    and write notices to one sharer (``proc`` is the releaser)."""

    kind: str = field(default="diff_push", init=False)

    dst: int = -1
    units: Tuple[int, ...] = ()
    nwords: int = 0
    msg_id: int = -1
    """The DIFF_PUSH message that carried the update."""


@dataclass
class OwnershipEvent(TraceEvent):
    """Single-writer invalidate: ``proc`` became the writer of a unit
    (``prev_owner`` is -1 for a first-touch claim), invalidating
    ``invalidated`` other copies."""

    kind: str = field(default="ownership", init=False)

    unit: int = -1
    prev_owner: int = -1
    invalidated: int = 0


@dataclass
class FaultInjectedEvent(TraceEvent):
    """The fault lab perturbed one message delivery (or, for
    ``fault == "straggler"``, paused a node).  ``proc`` is the processor
    that pays the injected delay."""

    kind: str = field(default="fault_injected", init=False)

    msg_id: int = -1
    """Ledger id of the perturbed message (-1 for straggler windows)."""

    klass: str = ""
    """Message class of the perturbed message ("" for stragglers)."""

    fault: str = ""
    """``"drop"`` / ``"dup"`` / ``"jitter"`` / ``"reorder"`` /
    ``"straggler"``."""

    delay_us: float = 0.0
    """Shadow delay charged for this fault (0 for pure duplicates)."""


@dataclass
class RetransmitEvent(TraceEvent):
    """The reliable-delivery layer re-sent one message copy (``proc`` is
    the sender; the copy is also in the ledger as a RETRANSMIT-class
    message)."""

    kind: str = field(default="retransmit", init=False)

    msg_id: int = -1
    klass: str = ""
    attempt: int = 0
    """Transmission attempt number of this copy (2 = first resend)."""

    stall_us: float = 0.0
    """Timeout the sender sat through before this copy (0 for the
    ack-loss resend, which happens after delivery)."""


@dataclass
class ParkEvent(TraceEvent):
    """A processor parked at a synchronization operation (engine level)."""

    kind: str = field(default="park", init=False)

    op_kind: str = ""
    """``acquire`` / ``release`` / ``barrier`` / ``finish``."""

    arg: int = 0
    """Lock or barrier id."""


@dataclass
class ResumeEvent(TraceEvent):
    """The scheduler woke a processor at ``ts_us``."""

    kind: str = field(default="resume", init=False)


def event_to_dict(ev: TraceEvent) -> dict:
    """Flat JSON-serializable dict of one event (for JSONL export)."""
    out = {}
    for f in fields(ev):
        v = getattr(ev, f.name)
        if isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out
