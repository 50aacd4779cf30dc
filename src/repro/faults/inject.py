"""The fault injection layer.

One :class:`FaultInjector` per faulted run, registered as a message
observer on :class:`repro.sim.network.Network` (after the trace
recorder, so timelines show the original message before its injected
faults).  For every protocol message it:

1. derives the message's private RNG from ``(plan.seed, msg_id)``,
2. drives the :class:`~repro.faults.channel.ReliableChannel` state
   machine for the ``(src, dst)`` link,
3. mirrors every injected copy (timed-out retransmissions, duplicate
   deliveries) into the message ledger as
   :attr:`~repro.sim.network.MessageClass.RETRANSMIT` records,
4. bumps the ``retransmissions`` / ``duplicate_deliveries`` /
   ``timeout_stalls`` counters on :class:`repro.stats.counters.ProtocolStats`,
5. accrues the injected delay to the *shadow overhead* of the waiting
   processor.

Shadow-cost model
-----------------
Injected delays are charged to a per-processor side ledger
(:attr:`FaultInjector.overhead_us`) that the runtime adds to the
processor clocks *after* the run, never to the live simulation clocks.
The discrete-event schedule -- lock-grant order, barrier composition,
diff-fetch contents -- is therefore byte-for-byte the fault-free
schedule, which is exactly what makes the chaos invariant gate sound:
under any plan with retries enabled, application checksums and every
useful-data counter must be bit-identical to the fault-free golden
baseline, and only message/byte/time counters may grow.  (DESIGN.md,
"Fault lab", spells out why this also matches the protocol argument:
an LRC diff re-request is idempotent, so a reliable retransmission
layer cannot change protocol outcomes, only their cost.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.faults.channel import Delivery, ReliableChannel
from repro.faults.plan import FaultPlan, FaultSpec, message_rng
from repro.sim.config import SimConfig
from repro.sim.network import MessageClass, MessageRecord, Network
from repro.stats.counters import ProtocolStats
from repro.trace.events import FaultInjectedEvent, RetransmitEvent


class FaultInjector:
    """Observer-side implementation of one fault plan."""

    def __init__(
        self,
        plan: FaultPlan,
        config: SimConfig,
        network: Network,
        stats: ProtocolStats,
        trace: Optional[Any] = None,
    ) -> None:
        plan.validate(config.nprocs)
        self.plan = plan
        self.config = config
        self.network = network
        self.stats = stats
        self.trace = trace
        self.overhead_us: List[float] = [0.0] * config.nprocs
        """Per-processor shadow delay; added to the processor clocks by
        the runtime once the run finished."""

        self.channels: Dict[Tuple[int, int], ReliableChannel] = {}
        self.stragglers_applied = 0
        self.reordered_deliveries = 0
        self.jittered_deliveries = 0
        self._finalized = False
        self._specs: Dict[MessageClass, Optional[FaultSpec]] = {
            klass: plan.spec_for(klass.value)
            for klass in MessageClass
            if klass is not MessageClass.RETRANSMIT
        }

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------
    def on_message(
        self,
        rec: MessageRecord,
        wire_time_us: float,
        waiter: Optional[int] = None,
    ) -> None:
        """React to one recorded message (called by ``Network.record``).

        Injected ledger copies are RETRANSMIT-class and skipped here, so
        re-entrant notification terminates by construction.
        """
        if rec.klass is MessageClass.RETRANSMIT:
            return
        spec = self._specs.get(rec.klass)
        if spec is None or not spec.active:
            return
        rng = message_rng(self.plan.seed, rec.msg_id)
        channel = self._channel(rec.src, rec.dst)
        # DroppedMessageError propagates out of Network.record into the
        # protocol layer: the run aborts, and the bench harness reports
        # the cell as a graceful failure.
        delivery = channel.transmit(rec.msg_id, rec.klass.value, spec, rng)
        self._account(rec, delivery, waiter)

    # ------------------------------------------------------------------
    def _channel(self, src: int, dst: int) -> ReliableChannel:
        ch = self.channels.get((src, dst))
        if ch is None:
            ch = self.channels[(src, dst)] = ReliableChannel(src, dst, self.plan)
        return ch

    def _account(
        self, rec: MessageRecord, delivery: Delivery, waiter: Optional[int]
    ) -> None:
        pid = waiter if waiter is not None else rec.dst
        stats = self.stats

        # Timed-out retransmissions: the sender stalls through each
        # timeout, then re-sends a full copy.
        n_timeouts = delivery.attempts - 1
        stats.timeout_stalls += n_timeouts
        stats.retransmissions += delivery.retransmissions
        stats.duplicate_deliveries += delivery.duplicate_deliveries
        self.overhead_us[pid] += delivery.timeout_stall_us

        prev_offset = 0.0
        for i, offset in enumerate(delivery.resend_offsets_us):
            resend_ts = rec.send_time_us + offset
            self._mirror(rec, resend_ts)
            if self.trace is not None:
                self.trace.emit(RetransmitEvent(
                    resend_ts,
                    rec.src,
                    msg_id=rec.msg_id,
                    klass=rec.klass.value,
                    attempt=i + 2,
                    stall_us=offset - prev_offset if i < n_timeouts else 0.0,
                ))
                if i >= n_timeouts:
                    # The tail offset past the timeout count is the
                    # ack-loss resend: delivered data arriving again as
                    # a duplicate at the receiver.
                    self.trace.emit(FaultInjectedEvent(
                        resend_ts,
                        rec.dst,
                        msg_id=rec.msg_id,
                        klass=rec.klass.value,
                        fault="dup",
                        delay_us=0.0,
                    ))
            prev_offset = offset
        if n_timeouts and self.trace is not None:
            self.trace.emit(FaultInjectedEvent(
                rec.send_time_us,
                rec.src,
                msg_id=rec.msg_id,
                klass=rec.klass.value,
                fault="drop",
                delay_us=delivery.timeout_stall_us,
            ))

        # Receiver-side CPU cost of discarding each duplicate copy.
        dup_cpu = delivery.duplicate_deliveries * self.config.msg_cpu_us
        self.overhead_us[rec.dst] += dup_cpu
        if delivery.net_dup:
            self._mirror(rec, rec.send_time_us + delivery.timeout_stall_us)
            if self.trace is not None:
                self.trace.emit(FaultInjectedEvent(
                    rec.send_time_us,
                    rec.dst,
                    msg_id=rec.msg_id,
                    klass=rec.klass.value,
                    fault="dup",
                    delay_us=0.0,
                ))

        # Latency perturbations delay the waiter, not the sender.
        if delivery.jitter_us > 0.0:
            self.jittered_deliveries += 1
            self.overhead_us[pid] += delivery.jitter_us
            if self.trace is not None:
                self.trace.emit(FaultInjectedEvent(
                    rec.send_time_us,
                    pid,
                    msg_id=rec.msg_id,
                    klass=rec.klass.value,
                    fault="jitter",
                    delay_us=delivery.jitter_us,
                ))
        if delivery.reorder_us > 0.0:
            self.reordered_deliveries += 1
            self.overhead_us[pid] += delivery.reorder_us
            if self.trace is not None:
                self.trace.emit(FaultInjectedEvent(
                    rec.send_time_us,
                    pid,
                    msg_id=rec.msg_id,
                    klass=rec.klass.value,
                    fault="reorder",
                    delay_us=delivery.reorder_us,
                ))

    def _mirror(self, rec: MessageRecord, ts: float) -> None:
        """Ledger entry for one injected copy of ``rec``.  Re-notifies
        observers (the trace draws the copy's flow arrow); this injector
        ignores RETRANSMIT-class records, so there is no recursion."""
        self.network.record(
            rec.src,
            rec.dst,
            MessageClass.RETRANSMIT,
            rec.payload_bytes,
            ts,
        )

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, proc_end_times_us: List[float]) -> None:
        """Apply node-level straggler windows.

        A window charges ``duration_us * factor`` to its processor's
        shadow overhead iff the processor was still running when the
        window opened (``start_us`` before the processor's finish time).
        Called once by the runtime after all processors finished.
        """
        if self._finalized:
            raise RuntimeError("FaultInjector.finalize called twice")
        self._finalized = True
        for win in self.plan.stragglers:
            if win.proc >= len(proc_end_times_us):
                continue
            if win.start_us < proc_end_times_us[win.proc]:
                self.overhead_us[win.proc] += win.duration_us * win.factor
                self.stragglers_applied += 1
                if self.trace is not None:
                    self.trace.emit(FaultInjectedEvent(
                        win.start_us,
                        win.proc,
                        msg_id=-1,
                        klass="",
                        fault="straggler",
                        delay_us=win.duration_us * win.factor,
                    ))

    def summary(self) -> Dict[str, float]:
        """Run-level fault accounting for :attr:`RunResult.extra`."""
        return {
            "fault_overhead_us": float(sum(self.overhead_us)),
            "fault_links": float(len(self.channels)),
            "fault_jittered": float(self.jittered_deliveries),
            "fault_reordered": float(self.reordered_deliveries),
            "fault_stragglers": float(self.stragglers_applied),
        }
