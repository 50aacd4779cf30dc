"""The structured event recorder.

One :class:`TraceRecorder` per traced run, created by
:class:`repro.core.treadmarks.TreadMarks` when ``SimConfig.trace`` is
true and handed to the substrate and protocol layers.  Each emitting
site builds its typed event (:mod:`repro.trace.events`) from values it
already holds and passes it to :meth:`TraceRecorder.emit`; messages
arrive through :meth:`TraceRecorder.on_message`, the network-observer
interface the recorder shares with the fault injector.

The recorder is a pure observer: emitting only reads values the protocol
already computed and appends an event to a Python list.  It never
advances a clock, records a message, or touches protocol state, which
is what makes the zero-cost guarantee (traced and untraced runs produce
bit-identical simulated results) hold by construction.

Emitting sites pay one ``if trace is not None`` branch when tracing is
off; that is the entire disabled-mode overhead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.trace.events import MessageEvent, TraceEvent

if TYPE_CHECKING:
    from repro.dsm.address_space import SharedHeapLayout
    from repro.sim.config import SimConfig
    from repro.sim.network import MessageRecord, Network


class TraceRecorder:
    """Append-only event log for one simulated run."""

    def __init__(self, config: "SimConfig") -> None:
        self.config = config
        self.events: List[TraceEvent] = []
        # Post-run analysis context, attached by the runtime so exports
        # and reports can resolve geometry and message usefulness.
        self.layout: Optional["SharedHeapLayout"] = None
        self.network: Optional["Network"] = None
        self.app_name: str = ""
        self.dataset: str = ""

    def emit(self, ev: TraceEvent) -> int:
        """Stamp ``ev.eid`` with its index in the log, append it, and
        return the id (:meth:`ProtocolStats.record_fault` keeps a fault's
        id as ``trace_eid``)."""
        ev.eid = len(self.events)
        self.events.append(ev)
        return ev.eid

    def on_message(
        self,
        rec: "MessageRecord",
        wire_time_us: float,
        waiter: Optional[int] = None,
    ) -> int:
        """:class:`repro.sim.network.Network` observer: log one message."""
        return self.emit(
            MessageEvent(
                rec.send_time_us,
                rec.src,
                msg_id=rec.msg_id,
                src=rec.src,
                dst=rec.dst,
                klass=rec.klass.value,
                payload_bytes=rec.payload_bytes,
                recv_ts_us=rec.send_time_us + wire_time_us,
                exchange_id=rec.exchange_id,
            )
        )
