"""Aggregation strategies: what an access miss actually fetches.

* :class:`StaticAggregator` -- the consistency unit is a fixed multiple
  of the hardware page (Section 3).  Every protocol action (twin, diff,
  invalidate, fetch) already operates at unit granularity in
  :class:`repro.dsm.lrc.LrcProc`; a miss fetches exactly one unit, and
  distinct units miss separately (their diffs are requested in sequence,
  which is precisely the cost that aggregation removes).

* :class:`DynamicAggregator` -- the Section-4 algorithm.  The unit is one
  page; pages a processor faulted on during the last interval are grouped
  (in access order, up to ``max_group_pages`` per group, not necessarily
  contiguous) at each synchronization.  The first fault on any member of
  a group requests the pending diffs of *all* members, combining requests
  per writer; member pages whose data arrived that way stay
  access-invalid until they fault themselves, which both tracks the
  access pattern and charges the algorithm's monitoring cost.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.dsm.lrc import LrcProc


class Aggregator:
    """Strategy interface consulted by :class:`LrcProc` on every shared
    access and at every synchronization point."""

    proc: LrcProc
    """The processor served (a back reference, cut by
    :meth:`LrcProc.detach` when the run is over)."""

    def ensure_valid(self, word0: int, nwords: int) -> None:
        """Make every unit overlapped by the access valid, faulting and
        fetching as the strategy dictates."""
        raise NotImplementedError

    def dirty_units(self) -> np.ndarray:
        """Bool array over units, True exactly where :meth:`ensure_valid`
        may do work right now.  Units flagged False must stay no-ops for
        the rest of the current gather/scatter (faults only shrink the
        pending set and only validate pages, never the reverse): the
        batched access path runs :meth:`ensure_valid` only at the first
        range over each flagged unit."""
        raise NotImplementedError

    def on_sync(self) -> None:
        """Called at every synchronization operation (after the interval
        closes, before the processor parks)."""

    def on_invalidate(self, units: np.ndarray) -> None:
        """Called when write notices invalidate ``units`` (distinct, in
        write-notice order)."""


class StaticAggregator(Aggregator):
    """Fixed consistency unit of ``config.unit_pages`` hardware pages."""

    def __init__(self, proc: LrcProc) -> None:
        self.proc = proc
        self._wpu = proc.layout.words_per_unit

    def ensure_valid(self, word0: int, nwords: int) -> None:
        proc = self.proc
        if not proc.pending:
            return
        pending_n = proc.pending_n
        wpu = self._wpu
        for unit in range(word0 // wpu, (word0 + nwords - 1) // wpu + 1):
            if pending_n[unit]:
                # Each invalid unit is a separate access miss: with a
                # static unit there is no cross-unit combining, so a
                # region spanning two invalid units pays two sequential
                # fetches (the paper's "requested in sequence" case).
                proc.fetch([unit])

    def dirty_units(self) -> np.ndarray:
        return self.proc.pending_n > 0


class DynamicAggregator(Aggregator):
    """Section-4 dynamic page grouping (requires ``unit_pages == 1``).

    Groups are *persistent*: pages faulted on during an interval are
    regrouped (in access order) at the interval-ending synchronization,
    while pages not accessed keep their previous membership -- a
    processor whose phases alternate (read phase / write phase between
    barriers, as in Jacobi) would otherwise lose its groups every other
    interval.  The hysteresis the paper describes is the removal rule: a
    page whose diffs were fetched with its group but that was never
    subsequently accessed is dropped back to singleton behaviour (its
    one useless fetch is the hysteresis cost, overlapped with the
    faulting page's request)."""

    def __init__(self, proc: LrcProc) -> None:
        if proc.config.unit_pages != 1:
            raise ValueError(
                "dynamic aggregation operates on single pages; got "
                f"unit_pages={proc.config.unit_pages}"
            )
        self.proc = proc
        nunits = proc.layout.nunits
        # Pages start access-invalid: the algorithm keeps a page invalid
        # until its first access so that every first access is observed.
        self.access_valid = np.zeros(nunits, dtype=bool)
        # Group membership is array-indexed: ``_group_id[page]`` names the
        # page's group (or -1), ``_groups`` maps that id to the shared
        # member list in access order.  Equivalent to the former
        # page -> shared-list dict, with O(1) array lookups on the access
        # path and vectorized clears on invalidation.
        self._group_id = np.full(nunits, -1, dtype=np.int32)
        self._groups: Dict[int, List[int]] = {}
        self._next_gid = 0
        self._accessed: List[int] = []
        self._accessed_mask = np.zeros(nunits, dtype=bool)
        self._group_fetched = np.zeros(nunits, dtype=bool)

    # ------------------------------------------------------------------
    def ensure_valid(self, word0: int, nwords: int) -> None:
        proc = self.proc
        pending_n = proc.pending_n
        valid = self.access_valid
        for page in proc.layout.units_of_range(word0, nwords):
            if pending_n[page] or not valid[page]:
                self._fault(page)

    def dirty_units(self) -> np.ndarray:
        return ~self.access_valid | (self.proc.pending_n > 0)

    def _fault(self, page: int) -> None:
        proc = self.proc
        pending_n = proc.pending_n
        self._record_access(page)
        self._group_fetched[page] = False
        gid = self._group_id[page]
        group = self._groups[gid] if gid >= 0 else [page]
        fetch_set = [q for q in group if pending_n[q]]
        if page not in fetch_set and pending_n[page]:
            fetch_set.insert(0, page)
        self.access_valid[page] = True
        if fetch_set:
            for q in fetch_set:
                if q != page:
                    self._group_fetched[q] = True
            if proc.trace is not None and len(group) > 1:
                proc.trace.on_group_fetch(
                    proc.pid,
                    proc.clock.now,
                    page,
                    tuple(group),
                    tuple(fetch_set),
                )
            proc.fetch(fetch_set)
        else:
            # Data already current (it arrived with an earlier group
            # fetch, or the page was never invalidated): a pure
            # access-tracking fault.
            proc.monitoring_fault(page)

    def _record_access(self, page: int) -> None:
        if not self._accessed_mask[page]:
            self._accessed_mask[page] = True
            self._accessed.append(page)

    # ------------------------------------------------------------------
    def on_sync(self) -> None:
        """Regroup at a synchronization: hysteresis first (drop members
        that were group-fetched but never accessed), then re-chunk the
        pages accessed during the ending interval into new groups of at
        most ``max_group_pages`` (not necessarily contiguous)."""
        if self._group_fetched.any():
            accessed_mask = self._accessed_mask
            for page in np.flatnonzero(self._group_fetched).tolist():
                if not accessed_mask[page]:
                    if self.proc.trace is not None and self._group_id[page] >= 0:
                        self.proc.trace.on_group_dissolve(
                            self.proc.pid, self.proc.clock.now, page
                        )
                    self._remove_from_group(page)
            self._group_fetched[:] = False

        if self._accessed:
            for page in self._accessed:
                self._remove_from_group(page)
            maxg = self.proc.config.max_group_pages
            for i in range(0, len(self._accessed), maxg):
                chunk = self._accessed[i : i + maxg]
                if len(chunk) > 1:
                    group = list(chunk)
                    gid = self._next_gid
                    self._next_gid = gid + 1
                    self._groups[gid] = group
                    for page in group:
                        self._group_id[page] = gid
                    if self.proc.trace is not None:
                        self.proc.trace.on_group_build(
                            self.proc.pid, self.proc.clock.now, tuple(group)
                        )
            self._accessed.clear()
            self._accessed_mask[:] = False

    def _remove_from_group(self, page: int) -> None:
        gid = int(self._group_id[page])
        if gid < 0:
            return
        self._group_id[page] = -1
        group = self._groups[gid]
        if page in group:
            group.remove(page)
        if len(group) == 1:
            last = group[0]
            if self._group_id[last] == gid:
                self._group_id[last] = -1
            del self._groups[gid]
        elif not group:
            del self._groups[gid]

    def on_invalidate(self, units: np.ndarray) -> None:
        """An invalidated page must fault again on its next access, which
        re-observes the access pattern."""
        self.access_valid[units] = False

    @property
    def group_of(self) -> Dict[int, List[int]]:
        """page -> member list (shared per group), reconstructed from the
        array-indexed state for introspection and tests."""
        return {
            int(page): self._groups[int(gid)]
            for page, gid in enumerate(self._group_id.tolist())
            if gid >= 0
        }


def make_aggregator(proc: LrcProc) -> Aggregator:
    """Build the strategy selected by the processor's configuration."""
    if proc.config.dynamic:
        return DynamicAggregator(proc)
    return StaticAggregator(proc)
