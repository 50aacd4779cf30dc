"""Message accounting for the simulated interconnect.

The network layer does not move bytes (the DSM layer patches diffs into
per-processor memory copies directly); it *accounts*: every protocol
message is recorded with its source, destination, class, and payload size,
and the per-message cost model from :class:`repro.sim.config.SimConfig` is
used by the protocol layer to charge simulated time.

Diff-carrying messages additionally carry word-level usefulness state that
is resolved retroactively by :mod:`repro.stats.words`; the records created
here are the unit of classification for the paper's useful / useless
message breakdown.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.config import SimConfig


class MessageClass(enum.Enum):
    """Protocol classes of simulated messages."""

    ordinal: int
    """Position in definition order.  Per-class tables (the ledger's
    counters, the report's classification) are lists indexed by it:
    ``Enum.__hash__`` is a Python-level call, and the ledger would pay
    it several times per recorded message through an Enum-keyed dict."""

    def __new__(cls, value: str) -> "MessageClass":
        member = object.__new__(cls)
        member._value_ = value
        member.ordinal = len(cls.__members__)
        return member

    DIFF_REQUEST = "diff_request"
    """A (possibly combined) request for diffs sent at an access miss."""

    DIFF_REPLY = "diff_reply"
    """The reply carrying the requested diffs."""

    LOCK = "lock"
    """Lock request / forward / grant traffic."""

    BARRIER = "barrier"
    """Barrier arrival / departure traffic."""

    DIFF_FLUSH = "diff_flush"
    """A diff eagerly flushed to a unit's home node at release time
    (home-based LRC, :mod:`repro.protocols.hlrc`).  One-way: no exchange,
    the sender does not stall on it."""

    DIFF_PUSH = "diff_push"
    """Write notices plus diffs pushed to a sharer at release time
    (eager release consistency, :mod:`repro.protocols.erc`).  One-way."""

    OWNERSHIP = "ownership"
    """Unit-ownership request / grant traffic (single-writer invalidate,
    :mod:`repro.protocols.swi`).  Carries no data: the requester's copy
    is already current when ownership moves."""

    INVALIDATE = "invalidate"
    """Invalidation (and its ack) sent to the holders of a unit's copies
    when a new writer takes over (single-writer invalidate)."""

    RETRANSMIT = "retransmit"
    """Transport-level copies injected by the fault lab: timed-out
    retransmissions and duplicate deliveries (see :mod:`repro.faults`).
    Never produced by the protocol itself, never classified useful or
    useless, and excluded from the usefulness breakdowns."""


#: Message classes whose payload is classified word-by-word into useful and
#: useless data (the paper's Figures 1 and 2 breakdowns).  DIFF_REPLY is
#: classified via its exchange; the eager flush/push classes carry data
#: outside any exchange and classify by their own resolved word counts.
DATA_CLASSES = frozenset(
    {MessageClass.DIFF_REPLY, MessageClass.DIFF_FLUSH, MessageClass.DIFF_PUSH}
)

#: Message classes counted as consistency-control / synchronization
#: overhead.  Under tm-lrc (locks and barriers only) these are invariant
#: across consistency-unit sizes; the single-writer invalidate protocol
#: adds ownership and invalidation traffic, which is exactly the part of
#: its overhead that *does* scale with false sharing.
SYNC_CLASSES = frozenset(
    {
        MessageClass.LOCK,
        MessageClass.BARRIER,
        MessageClass.OWNERSHIP,
        MessageClass.INVALIDATE,
    }
)

#: Membership of the two sets above by :attr:`MessageClass.ordinal`, for
#: the per-message loops (no Enum hashing).
IS_DATA_CLASS = tuple(c in DATA_CLASSES for c in MessageClass)
IS_SYNC_CLASS = tuple(c in SYNC_CLASSES for c in MessageClass)


@dataclass(slots=True)
class MessageRecord:
    """One simulated message.

    ``words_carried`` / ``words_useful`` are only meaningful for
    :data:`DATA_CLASSES` messages; usefulness resolves as the destination
    processor reads (useful) or overwrites / never touches (useless) the
    words a diff installed, per Section 5.3 of the paper.
    """

    msg_id: int
    src: int
    dst: int
    klass: MessageClass
    payload_bytes: int
    send_time_us: float
    exchange_id: Optional[int] = None
    """Groups the request/reply pair of one fault-time message exchange."""

    words_carried: int = 0
    words_useful: int = 0

    @property
    def words_useless(self) -> int:
        """Words shipped in this message that were never usefully read."""
        return self.words_carried - self.words_useful

    @property
    def is_useless(self) -> bool:
        """A data message is *useless* when it carries no useful word
        (the paper: "a message that carries no useful data")."""
        return IS_DATA_CLASS[self.klass.ordinal] and self.words_useful == 0


@dataclass(slots=True)
class ExchangeRecord:
    """One fault-time message exchange (request + reply) with one writer.

    The false-sharing signature (Figure 3) is a histogram over the number
    of exchanges per fault, with each exchange classified useful/useless
    by its reply's resolved word usefulness.
    """

    exchange_id: int
    requester: int
    writer: int
    fault_id: int
    request_msg: int
    reply_msg: int


class Network:
    """Global message ledger for one simulated run."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.messages: List[MessageRecord] = []
        self.exchanges: List[ExchangeRecord] = []
        # Message and payload-byte totals per class, by class ordinal.
        self._by_class: List[int] = [0] * len(MessageClass)
        self._bytes_by_class: List[int] = [0] * len(MessageClass)
        self._next_exchange = 0
        self._observers: List[object] = []
        self._trace = None

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    @property
    def trace(self) -> object:
        """Optional :class:`repro.trace.recorder.TraceRecorder`; every
        recorded message is mirrored as a trace event.  Stored in the
        shared observer list (always first, so the trace sees a message
        before any fault injector reacts to it); assigning None detaches
        it.  Observer-only: never affects accounting."""
        return self._trace

    @trace.setter
    def trace(self, recorder: object) -> None:
        if self._trace is not None:
            self._observers.remove(self._trace)
        self._trace = recorder
        if recorder is not None:
            self._observers.insert(0, recorder)

    def add_observer(self, observer: object) -> None:
        """Register a message observer (``on_message(rec, wire_time_us,
        waiter)``).  Observers are notified in registration order, after
        the trace recorder; the shared list replaces the former bare
        ``trace`` attribute so trace and fault injection compose without
        ordering hazards."""
        if observer in self._observers:
            raise ValueError("observer registered twice")
        self._observers.append(observer)

    def remove_observer(self, observer: object) -> None:
        self._observers.remove(observer)

    @property
    def observers(self) -> tuple:
        """Snapshot of the registered observers, notification order."""
        return tuple(self._observers)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def credit(self, msg_id: int, nwords: int) -> None:
        """Count ``nwords`` of message ``msg_id`` as useful: the
        word-usefulness callback every processor's tracker is handed."""
        self.messages[msg_id].words_useful += nwords

    def record(
        self,
        src: int,
        dst: int,
        klass: MessageClass,
        payload_bytes: int,
        send_time_us: float,
        exchange_id: Optional[int] = None,
        waiter: Optional[int] = None,
    ) -> MessageRecord:
        """Record one message; returns its ledger entry.

        ``waiter`` names the processor that stalls until this message is
        delivered (the faulting processor for a diff exchange, the
        acquirer for lock traffic, ...).  It is accounting metadata for
        observers -- the fault injector charges injected delivery delays
        to it -- and never affects the ledger itself.
        """
        if src == dst:
            raise ValueError(f"message to self: proc {src}")
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        rec = MessageRecord(
            msg_id=len(self.messages),
            src=src,
            dst=dst,
            klass=klass,
            payload_bytes=payload_bytes,
            send_time_us=send_time_us,
            exchange_id=exchange_id,
        )
        self.messages.append(rec)
        self._by_class[klass.ordinal] += 1
        self._bytes_by_class[klass.ordinal] += payload_bytes
        observers = self._observers
        if observers:
            wire_time = self.config.msg_cost_us(payload_bytes)
            for obs in tuple(observers):
                obs.on_message(rec, wire_time, waiter)
        return rec

    def new_exchange(self, requester: int, writer: int, fault_id: int) -> int:
        """Open a fault-time exchange; returns its id.  The request and
        reply messages are attached via :meth:`close_exchange`."""
        ex_id = self._next_exchange
        self._next_exchange += 1
        self.exchanges.append(
            ExchangeRecord(
                exchange_id=ex_id,
                requester=requester,
                writer=writer,
                fault_id=fault_id,
                request_msg=-1,
                reply_msg=-1,
            )
        )
        return ex_id

    def close_exchange(self, ex_id: int, request_msg: int, reply_msg: int) -> None:
        """Attach the request and reply message ids to an exchange."""
        ex = self.exchanges[ex_id]
        ex.request_msg = request_msg
        ex.reply_msg = reply_msg

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, klass: Optional[MessageClass] = None) -> int:
        """Number of messages recorded (optionally of one class)."""
        if klass is None:
            return len(self.messages)
        return self._by_class[klass.ordinal]

    def bytes(self, klass: Optional[MessageClass] = None) -> int:
        """Payload bytes recorded (optionally of one class)."""
        if klass is None:
            return sum(self._bytes_by_class)
        return self._bytes_by_class[klass.ordinal]

    @property
    def sync_message_count(self) -> int:
        """Messages attributable to locks and barriers."""
        return sum(self._by_class[c.ordinal] for c in SYNC_CLASSES)

    @property
    def data_message_count(self) -> int:
        """Messages attributable to data traffic: fault-time requests
        plus every data-carrying class (replies, flushes, pushes)."""
        return self._by_class[MessageClass.DIFF_REQUEST.ordinal] + sum(
            self._by_class[c.ordinal] for c in DATA_CLASSES
        )

    @property
    def fault_message_count(self) -> int:
        """Transport-level copies injected by the fault lab."""
        return self._by_class[MessageClass.RETRANSMIT.ordinal]

    def exchange_reply(self, ex_id: int) -> MessageRecord:
        """The reply message of an exchange (for usefulness queries)."""
        ex = self.exchanges[ex_id]
        if ex.reply_msg < 0:
            raise ValueError(f"exchange {ex_id} was never closed")
        return self.messages[ex.reply_msg]
