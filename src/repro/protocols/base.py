"""The protocol registry and the fault and release service the zoo shares.

A protocol *is* its processor class: a subclass of
:class:`repro.dsm.lrc.LrcProc` (``tm-lrc`` is ``LrcProc`` itself) that
overrides the pieces that differ --

* ``_prepare_write`` / ``_unwritable_units`` -- what makes a unit
  writable (a twin; swi: exclusive ownership),
* ``close_interval``  -- what happens at a release (lazy notice queueing,
  eager flush to a home, eager push to all sharers, nothing),
* ``_invalidated_units`` -- which noticed units an acquire invalidates,
* ``fetch`` -- how an access miss is serviced (multi-writer diff gather,
  one whole-unit round trip per home/owner, never),
* ``wire`` -- any cross-processor state beyond the peer list (swi's
  ownership directory).

Each registers a :class:`ProtocolInfo` under a short name; the runtime
(:class:`repro.core.treadmarks.TreadMarks`, which the model checker's
:class:`repro.dsm.stepper.SteppedSystem` also assembles) resolves
``SimConfig.protocol`` through :func:`get_protocol`, unless handed a
:class:`ProtocolInfo`, and calls :meth:`ProtocolInfo.build`.

The overrides are thin: the pieces more than one protocol needs are
written once -- the request/reply exchange (``LrcProc._exchange``, which
tm-lrc's per-writer gather uses too), the whole-unit fetch
(:func:`fetch_whole_units`, hlrc and swi), and the eager diff and its
delivery (:func:`eager_diff`, :func:`deliver`, hlrc and erc).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple, Type

from repro.dsm.diff import DIFF_HEADER_BYTES, Diff, apply_diff, whole_unit_diff
from repro.dsm.lrc import LrcProc
from repro.sim.config import DEFAULT_PROTOCOL

if TYPE_CHECKING:
    from repro.dsm.address_space import SharedHeapLayout
    from repro.dsm.intervals import Interval, IntervalStore
    from repro.sim.clock import Clock
    from repro.sim.config import SimConfig
    from repro.sim.network import Network
    from repro.stats.counters import ProtocolStats


@dataclass(frozen=True)
class ProtocolInfo:
    """One registered consistency protocol."""

    name: str
    """Registry key, the value of ``SimConfig.protocol``."""

    description: str
    """One-line summary shown by ``python -m repro protocols --list``."""

    proc_cls: Type[LrcProc]
    """The per-processor engine class."""

    def build(
        self,
        layout: "SharedHeapLayout",
        config: "SimConfig",
        store: "IntervalStore",
        network: "Network",
        stats: "ProtocolStats",
        clocks: "List[Clock]",
        credit: Callable[[int, int], None],
    ) -> List[LrcProc]:
        """The run's per-processor engines, index == pid, wired by
        ``proc_cls.wire``.  ``credit(msg_id, nwords)`` is the
        word-usefulness callback every processor's tracker is handed; the
        runtime attaches trace recorders and aggregation strategies
        afterwards."""
        procs = [
            self.proc_cls(
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
        self.proc_cls.wire(procs)
        return procs


_REGISTRY: Dict[str, ProtocolInfo] = {}


def register(info: ProtocolInfo) -> ProtocolInfo:
    """Add a protocol to the registry (module-import time); returns it."""
    if info.name in _REGISTRY:
        raise ValueError(f"protocol {info.name!r} registered twice")
    _REGISTRY[info.name] = info
    return info


def get_protocol(name: str) -> ProtocolInfo:
    """Look up a registered protocol by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; registered: {protocol_names()}"
        ) from None


def protocol_names() -> Tuple[str, ...]:
    """The registered protocol names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_protocols() -> List[ProtocolInfo]:
    """All registered protocols, sorted by name."""
    return [_REGISTRY[name] for name in protocol_names()]


def render_list() -> str:
    """The registry as a two-column table."""
    infos = all_protocols()
    width = max(len(i.name) for i in infos)
    lines = ["registered consistency protocols:"]
    for info in infos:
        marker = "*" if info.name == DEFAULT_PROTOCOL else " "
        lines.append(f" {marker} {info.name:<{width}}  {info.description}")
    lines.append("(* = default; select with SimConfig.protocol / the")
    lines.append(" --protocols flag of `python -m repro.bench protocols`)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared fault service: one whole-unit exchange per responder
# ----------------------------------------------------------------------
def fetch_whole_units(
    proc: LrcProc, units: Sequence[int], responder: Callable[[int], int]
) -> None:
    """Service an access miss on the pending ``units`` of ``proc`` the
    way the protocols without per-writer diffs do: one exchange per
    ``responder(unit)`` (hlrc: the home, swi: the owner), whose reply
    carries the responder's whole current copy of each requested unit.
    Responders are contacted in parallel (or in sequence under the
    serialized-fetch ablation), as tm-lrc contacts its writers."""
    by_peer: Dict[int, List[int]] = {}
    for unit in units:
        if proc.pending_n[unit]:
            by_peer.setdefault(responder(unit), []).append(unit)
    if not by_peer:
        raise AssertionError(f"fetch with nothing pending: units={units}")

    layout = proc.layout
    config = proc.config
    stats = proc.stats
    wpu = layout.words_per_unit
    now = proc.clock.now
    fault_id = len(stats.fault_records)
    stall = 0.0
    apply_cost = 0.0
    exchange_ids = []
    for peer in sorted(by_peer):
        punits = sorted(by_peer[peer])
        ex, reply_id, response_time = proc._exchange(
            peer,
            len(punits),
            len(punits) * (layout.unit_bytes + DIFF_HEADER_BYTES),
            len(punits) * wpu,
            0.0,
            fault_id,
            now,
        )
        exchange_ids.append(ex)
        if config.parallel_fetch:
            stall = max(stall, response_time)
        else:
            stall += response_time
        source = proc.peers[peer].space
        for unit in punits:
            proc.install(whole_unit_diff(unit, source.unit_view(unit)), reply_id)
            apply_cost += layout.unit_bytes * config.twin_byte_us
            stats.diffs_applied += 1
            stats.diff_words_applied += wpu
            if proc.trace is not None:
                w0, w1 = layout.unit_word_range(unit)
                pages = tuple(layout.pages_of_range(w0, w1 - w0))
                proc.trace.on_diff_apply(
                    proc.pid, now, unit, peer, wpu, reply_id,
                    pages, (layout.words_per_page,) * len(pages),
                )
    stall += 2 * config.msg_cpu_us * len(by_peer)

    proc._finish_fault(units, len(by_peer), exchange_ids, stall, apply_cost)


# ----------------------------------------------------------------------
# Shared release service: eager diffs and their delivery
# ----------------------------------------------------------------------
def eager_diff(
    proc: LrcProc, interval: "Interval", unit: int, now: float
) -> Tuple[Diff, float]:
    """The diff of ``unit`` in ``proc``'s just-closed ``interval``,
    created at the release -- the eager protocols' cost shift: tm-lrc
    defers the word-compare scan to the first fetch and skips it for
    never-fetched data -- and registered in the span cache tm-lrc's
    fetch serves from.  Returns the diff and its creation charge (0.0
    when the span was already registered).  Called once per unit, in
    the order the caller sends, so creation events interleave with the
    caller's messages."""
    d = interval.diff_for(unit)
    key = (proc.pid, unit, interval.index, interval.index)
    if key in proc.store.diff_scan_cache:
        return d, 0.0
    proc.store.cache_span(key, d, (interval,))
    proc.stats.diffs_created += 1
    proc.stats.diff_words_created += d.nwords
    if proc.trace is not None:
        proc.trace.on_diff_create(proc.pid, proc.pid, now, unit, d.nwords)
    return d, proc.layout.unit_bytes * proc.config.diff_create_byte_us


def deliver(peer: LrcProc, d: Diff, msg_id: int) -> None:
    """Apply an eagerly sent diff (hlrc's flush, erc's push) at ``peer``,
    patching its live twin too when it is writing the unit -- else its
    next diff would re-publish the sender's words as its own writes."""
    peer.install(d, msg_id)
    if peer.twinned[d.unit]:
        apply_diff(d, peer.twin(d.unit))
    peer.stats.diffs_applied += 1
    peer.stats.diff_words_applied += d.nwords
