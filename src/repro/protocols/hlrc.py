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

from typing import Any, List, Sequence, TypeVar

import numpy as np

from repro.dsm.lrc import LrcProc
from repro.protocols.base import (
    ProtocolInfo,
    deliver,
    eager_diff,
    fetch_whole_units,
    register,
)
from repro.sim.network import MessageClass
from repro.trace.events import DiffFlushEvent

#: A unit number, or an array of them (:meth:`HomeLrcProc.home` maps
#: both).
Units = TypeVar("Units", int, "np.ndarray[Any, np.dtype[Any]]")


class HomeLrcProc(LrcProc):
    """One processor under home-based LRC."""

    #: All processors of the run (index == pid), wired by :meth:`wire`.
    peers: "List[HomeLrcProc]"

    def home(self, unit: Units) -> Units:
        """The unit's statically assigned home node (elementwise for an
        array of units)."""
        return unit % self.config.nprocs

    # ------------------------------------------------------------------
    # Release path: eager diff + flush to the homes
    # ------------------------------------------------------------------
    def close_interval(self) -> None:
        if not self._twin_count:
            return
        super().close_interval()
        interval = self.store.get(self.pid, self.vc[self.pid])
        now = self.clock.now
        cost = 0.0
        for unit in interval.units.tolist():
            d, create_us = eager_diff(self, interval, unit, now)
            cost += create_us
            home = self.home(unit)
            if home == self.pid:
                continue  # the writer is the home: its copy is the master
            msg = self.network.record(
                self.pid, home, MessageClass.DIFF_FLUSH,
                d.wire_bytes, now, waiter=None,
            )
            msg.words_carried = d.nwords
            cost += self.config.msg_cpu_us  # send-side CPU; no stall
            deliver(self.peers[home], d, msg.msg_id)
            self.stats.diff_flushes += 1
            if self.trace is not None:
                self.trace.emit(DiffFlushEvent(
                    now, self.pid, home=home, unit=unit, nwords=d.nwords,
                    msg_id=msg.msg_id,
                ))
        self.clock.advance(cost)

    # ------------------------------------------------------------------
    # Acquire path: own-home units never invalidate (flushes keep them
    # current); everything else invalidates as under LRC.
    # ------------------------------------------------------------------
    def _invalidated_units(
        self, units: "np.ndarray[Any, np.dtype[Any]]"
    ) -> "np.ndarray[Any, np.dtype[Any]]":
        return units[self.home(units) != self.pid]

    # ------------------------------------------------------------------
    # Fault service: one whole-unit round trip per home
    # ------------------------------------------------------------------
    def fetch(self, units: Sequence[int]) -> None:
        fetch_whole_units(self, units, self.home)


register(
    ProtocolInfo(
        name="hlrc",
        description=(
            "home-based LRC: diffs eagerly flushed to a per-unit home at "
            "release; a fault is one whole-unit round trip per home"
        ),
        proc_cls=HomeLrcProc,
    )
)
