"""Eager release consistency (ERC).

The Munin-style update protocol: at every release the writer creates its
interval's diffs immediately and *pushes* them -- together with the
interval's write notices -- to **every other processor** as one-way
:data:`~repro.sim.network.MessageClass.DIFF_PUSH` messages.  Receivers'
copies are always current, so there are no invalidations, no access
faults, and no fault-time exchanges at all.

The trade-offs against tm-lrc this makes measurable:

* release cost scales with ``nprocs`` (one push per peer per release)
  whether or not a peer ever touches the data -- most pushed words
  resolve useless, which is exactly the data-vs-messages trade the
  paper's Section 2 frames;
* because diffs are word-granularity, the consistency-unit size barely
  matters: false sharing costs nothing extra (no faults to ping-pong),
  but aggregation also buys nothing (no fault-time message combining to
  amortize).  The protocol sweep's per-unit-size rows are expected to be
  nearly flat.

Correctness: pushes are applied in global close order (a linear
extension of happens-before), and each push joins the receiver's vector
clock with the releaser's, so a later acquire finds no unseen notices --
the knowledge transfer that LRC performs lazily happens here eagerly,
backed by already-applied data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NoReturn, Sequence

from repro.dsm.diff import apply_diff
from repro.dsm.lrc import LrcProc
from repro.protocols.base import CreditFn, ProtocolInfo, register
from repro.sim.network import MessageClass

if TYPE_CHECKING:
    from repro.dsm.address_space import SharedHeapLayout
    from repro.dsm.intervals import IntervalStore
    from repro.sim.clock import Clock
    from repro.sim.config import SimConfig
    from repro.sim.network import Network
    from repro.stats.counters import ProtocolStats


class EagerRcProc(LrcProc):
    """One processor under eager (update-at-release) RC."""

    #: All processors of the run (index == pid), wired by the build hook.
    peers: "List[EagerRcProc]"

    # ------------------------------------------------------------------
    # Release path: diff eagerly, push updates to every peer
    # ------------------------------------------------------------------
    def close_interval(self) -> None:
        if not self._twin_count:
            return
        super().close_interval()
        interval = self.store.get(self.pid, self.vc[self.pid])
        units = interval.units.tolist()
        now = self.clock.now
        cost = 0.0
        diffs = []
        total_wire = 0
        total_words = 0
        for unit in units:
            d = interval.diff_for(unit)
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
            diffs.append(d)
            total_wire += d.wire_bytes
            total_words += d.nwords
        # One update message per peer: all diffs of the interval plus its
        # write notices (the notices ride along, as in Munin's update
        # multicast, instead of travelling with later sync grants).
        payload = total_wire + len(units) * self.config.write_notice_bytes
        for peer in self.peers:
            if peer.pid == self.pid:
                continue
            msg = self.network.record(
                self.pid, peer.pid, MessageClass.DIFF_PUSH,
                payload, now, waiter=None,
            )
            msg.words_carried = total_words
            cost += self.config.msg_cpu_us  # send-side CPU; no stall
            for d in diffs:
                peer.install(d, msg.msg_id)
                if peer.twinned[d.unit]:
                    apply_diff(d, peer.twin(d.unit))
                self.stats.diffs_applied += 1
                self.stats.diff_words_applied += d.nwords
            # Eager knowledge transfer: the peer has now seen (and holds
            # the data of) every interval this releaser knows about.
            peer.vc.join(self.vc)
            self.stats.update_pushes += 1
            if self.trace is not None:
                self.trace.on_diff_push(
                    self.pid, peer.pid, now, tuple(units), total_words,
                    msg.msg_id,
                )
        # Notices were delivered with the pushes; nothing rides on the
        # next barrier-arrival message.
        self.unsent_notices = 0
        self.clock.advance(cost)

    # ------------------------------------------------------------------
    # Fault service: structurally unreachable
    # ------------------------------------------------------------------
    def fetch(self, units: Sequence[int]) -> NoReturn:
        # apply_notices_upto never finds unseen intervals (every close
        # joined all peers' clocks), so pending stays empty and the
        # aggregators never see an invalid unit.
        raise AssertionError(
            f"erc never faults: all updates are pushed eagerly "
            f"(fetch on units={list(units)})"
        )


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
        EagerRcProc(
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
        name="erc",
        description=(
            "eager release consistency: write notices + diffs pushed to "
            "all sharers at every release; no faults, no fetches"
        ),
        build=_build,
    )
)
