"""Consolidated run results: the quantities plotted in Figures 1 and 2.

For every run the harness reports:

* simulated execution time (the max processor clock),
* total messages, split into useful / useless (a useless message carries
  no useful data; both directions of a useless exchange count),
* total data, split into useful data, useless data carried in useless
  messages, and *piggybacked* useless data (useless words riding on
  messages that also carry useful words),

all of which normalize against a 4 KB-unit baseline to reproduce the
paper's bar charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.config import SimConfig
from repro.sim.network import IS_DATA_CLASS, IS_SYNC_CLASS, MessageClass, Network
from repro.stats.counters import ProtocolStats
from repro.stats.signature import FalseSharingSignature, build_signature


@dataclass
class CommBreakdown:
    """Message and data totals split per the paper's methodology."""

    useful_messages: int = 0
    useless_messages: int = 0
    sync_messages: int = 0

    useful_bytes: int = 0
    """Bytes that were usefully consumed (diff words read before being
    overwritten) plus protocol framing on useful messages."""

    useless_bytes: int = 0
    """All useless diff-word bytes (both piggybacked and in useless
    messages) plus framing of useless messages."""

    piggybacked_useless_bytes: int = 0
    """Useless diff-word bytes carried on messages that also carried
    useful data -- a subset of ``useless_bytes``."""

    sync_bytes: int = 0
    """Lock / barrier payloads (consistency metadata)."""

    fault_messages: int = 0
    """Transport-level copies injected by the fault lab (RETRANSMIT
    class): retransmissions and duplicate deliveries.  Zero on a
    reliable network; excluded from the useful/useless classification
    because they re-carry data already classified on the original."""

    fault_bytes: int = 0
    """Payload bytes of the injected copies."""

    @property
    def total_messages(self) -> int:
        return (
            self.useful_messages
            + self.useless_messages
            + self.sync_messages
            + self.fault_messages
        )

    @property
    def data_messages(self) -> int:
        return self.useful_messages + self.useless_messages

    @property
    def total_bytes(self) -> int:
        return (
            self.useful_bytes
            + self.useless_bytes
            + self.sync_bytes
            + self.fault_bytes
        )


@dataclass
class RunResult:
    """Everything measured in one simulated run."""

    config: SimConfig
    app_name: str
    dataset: str
    time_us: float
    proc_times_us: List[float]
    comm: CommBreakdown
    stats: ProtocolStats
    signature: FalseSharingSignature
    checksum: Optional[float] = None
    """Application-defined result digest, used by the coherence-invariance
    tests (must match across unit sizes and the sequential reference)."""

    trace: Optional[object] = None
    """The run's :class:`repro.trace.recorder.TraceRecorder` when
    ``config.trace`` was set; None otherwise.  Purely observational --
    present or absent, every other field is bit-identical."""

    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def unit_label(self) -> str:
        """Human label for the consistency configuration."""
        if self.config.dynamic:
            return "Dyn"
        kb = self.config.unit_bytes // 1024
        return f"{kb}K"

    @property
    def time_seconds(self) -> float:
        return self.time_us / 1e6


def summarize_comm(network: Network, config: SimConfig) -> CommBreakdown:
    """Classify the message ledger after word usefulness has resolved."""
    comm = CommBreakdown()
    # Map exchange -> usefulness of its reply, to classify requests with
    # their replies ("message exchanges" in the paper).
    exchange_useless: Dict[int, bool] = {}
    for msg in network.messages:
        if msg.exchange_id is not None and IS_DATA_CLASS[msg.klass.ordinal]:
            exchange_useless[msg.exchange_id] = msg.is_useless

    for msg in network.messages:
        ordinal = msg.klass.ordinal
        if msg.klass is MessageClass.RETRANSMIT:
            comm.fault_messages += 1
            comm.fault_bytes += msg.payload_bytes
            continue
        if IS_SYNC_CLASS[ordinal]:
            comm.sync_messages += 1
            comm.sync_bytes += msg.payload_bytes
            continue
        if msg.exchange_id is not None:
            useless = exchange_useless.get(msg.exchange_id, False)
        else:
            # Data messages outside an exchange (eager flushes/pushes)
            # classify by their own resolved word usefulness.  Inert for
            # tm-lrc: its only exchange-less messages are sync-class.
            useless = msg.is_useless
        if useless:
            comm.useless_messages += 1
            comm.useless_bytes += msg.payload_bytes
        else:
            comm.useful_messages += 1
            if IS_DATA_CLASS[ordinal]:
                useless_data = msg.words_useless * 4
                comm.piggybacked_useless_bytes += useless_data
                comm.useless_bytes += useless_data
                comm.useful_bytes += msg.payload_bytes - useless_data
            else:
                comm.useful_bytes += msg.payload_bytes
    return comm


def build_result(
    app_name: str,
    dataset: str,
    config: SimConfig,
    network: Network,
    stats: ProtocolStats,
    proc_times_us: List[float],
    checksum: Optional[float] = None,
    trace: Optional[object] = None,
) -> RunResult:
    """Assemble the final :class:`RunResult` for a finished run."""
    return RunResult(
        config=config,
        app_name=app_name,
        dataset=dataset,
        time_us=max(proc_times_us),
        proc_times_us=list(proc_times_us),
        comm=summarize_comm(network, config),
        stats=stats,
        signature=build_signature(stats, network),
        checksum=checksum,
        trace=trace,
    )
