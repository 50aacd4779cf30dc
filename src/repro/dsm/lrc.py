"""The per-processor lazy release consistency protocol engine.

One :class:`LrcProc` per simulated processor holds:

* a private copy of the shared heap (:class:`AddressSpace`),
* a vector clock of the intervals it has seen,
* per-unit *pending write notices* -- invalidations received at acquires
  and barriers that have not yet been satisfied by fetching diffs,
* the twins of units written in the current interval.

Life cycle of a write, exactly as in TreadMarks:

1. the first write to a unit in an interval makes a *twin* (and pays a
   memory-protection operation);
2. at the next synchronization the interval *closes*: each twinned unit
   is compared to the current contents to create a word-granularity diff,
   and (proc, interval, unit) write notices are published;
3. an acquire (or barrier departure) delivers to the acquirer all write
   notices it has not seen, invalidating the named units;
4. the first access to an invalid unit faults; the faulting processor
   requests diffs from every concurrent writer of the unit -- requests to
   the same writer are combined, distinct writers answer in parallel --
   applies them in a happens-before-compatible order, and revalidates.

The fetch granularity (one unit, or a dynamic page group) is delegated to
an aggregation strategy from :mod:`repro.dsm.aggregation`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.dsm.address_space import AddressSpace, SharedHeapLayout
from repro.dsm.diff import (
    ONE_RUN_BYTES, WORD, Diff, PackedDiffs, merge_diffs, pack_diffs,
)
from repro.dsm.intervals import IntervalStore, Notice, WriteNotice
from repro.dsm.vc import VectorClock
from repro.sim.clock import Clock
from repro.sim.config import SimConfig
from repro.sim.network import MessageClass, Network
from repro.stats.counters import ProtocolStats
from repro.stats.words import WordTracker

if TYPE_CHECKING:
    from repro.dsm.aggregation import Aggregator
    from repro.trace.recorder import TraceRecorder

#: Fixed bytes of a diff request message plus per-requested-diff entry.
REQUEST_BASE_BYTES = 8
REQUEST_ENTRY_BYTES = 12


def _commit_seq(entry: Tuple[Notice, int]) -> int:
    """Sort key of a ``(notice, unit)`` pair in :meth:`LrcProc.fetch`."""
    return entry[0][2]


class LrcProc:
    """Consistency state and protocol actions of one processor."""

    peers: Sequence["LrcProc"] = ()
    """All processors of the run (index == pid), for protocols that act
    on their peers' copies; wired by the protocol's build hook."""

    def __init__(
        self,
        pid: int,
        layout: SharedHeapLayout,
        config: SimConfig,
        store: IntervalStore,
        network: Network,
        stats: ProtocolStats,
        clock: Clock,
        credit: Callable[[int, int], None],
    ) -> None:
        self.pid = pid
        self.layout = layout
        self.config = config
        self.store = store
        self.network = network
        self.stats = stats
        self.clock = clock
        self.space = AddressSpace(layout)
        self.tracker = WordTracker(
            layout.nwords, credit, unit_words=layout.words_per_unit
        )
        self.vc = VectorClock(config.nprocs)
        self.pending: Dict[int, List[Notice]] = {}
        """unit -> its pending notices in arrival order: the writing
        intervals' shared :attr:`~repro.dsm.intervals.Interval.notice`
        tuples, appended by reference (no per-notice object)."""
        self.pending_n = np.zeros(layout.nunits, dtype=np.int32)
        """``len(self.pending[unit])`` per unit.  The notice lists are
        what a fetch consumes; every *emptiness* question (aggregator
        dirty masks, invalidation counting) reads this array instead.
        Both are mutated only by :meth:`_add_notices` and
        :meth:`_clear_notices`, so they cannot drift apart
        (``tests/apps/test_vectorized_equiv.py`` pins the invariant)."""
        self.twinned = np.zeros(layout.nunits, dtype=bool)
        """Units twinned in the open interval.  The twin of such a unit
        is row ``_twin_slot[unit]`` of ``_twin_pool`` (see
        :meth:`twin`); the pool is reused across intervals and grown
        geometrically, so twinning allocates nothing per unit and the
        row diff kernel gathers all twins with one fancy index."""
        self._twin_pool: np.ndarray = np.empty(
            (0, layout.words_per_unit), dtype=np.uint32
        )
        self._twin_slot = np.full(layout.nunits, -1, dtype=np.int32)
        self._twin_count = 0
        self._twin_persist = np.zeros(layout.nunits, dtype=bool)
        """Units whose (logical) twin survives from an earlier interval:
        in TreadMarks a twin persists across releases until the unit is
        invalidated or its diff is garbage collected, so re-dirtying such
        a unit in the next interval costs nothing.  Our simulator closes
        intervals eagerly for correctness but charges twin costs on the
        real system's schedule."""
        self.unsent_notices = 0
        """Write notices created since this processor's last barrier
        arrival (models the arrival-message payload)."""
        self.aggregator: Aggregator
        """Wired by the runtime once the processor exists (the strategy
        holds a back reference until :meth:`detach`)."""
        self.trace: Optional[TraceRecorder] = None
        """Attached by the runtime when tracing.  All hooks below are
        observer-only: they never advance the clock or touch protocol
        state."""
        # Hot-path locals: the access path runs once per shared access,
        # so the per-access cost constants are cached off the config.
        self._region_op_us = config.region_op_us
        self._word_access_us = config.word_access_us
        self._wpu = layout.words_per_unit
        self._heap_words = layout.nwords

    # ------------------------------------------------------------------
    # Application access path
    # ------------------------------------------------------------------
    def read_words(self, word0: int, nwords: int) -> np.ndarray:
        """Shared read of a word range: fault if needed, resolve word
        usefulness, charge access time, return the raw words."""
        if word0 < 0 or nwords <= 0 or word0 + nwords > self._heap_words:
            self._check_range(word0, nwords)
        self.aggregator.ensure_valid(word0, nwords)
        if self.trace is not None:
            self.trace.on_access(self.pid, self.clock.now, "read", word0, nwords)
        self.tracker.on_read(word0, nwords)
        clock = self.clock
        clock.now = clock.now + (
            self._region_op_us + nwords * self._word_access_us
        )
        return self.space.read_words(word0, nwords)

    def write_words(self, word0: int, values: np.ndarray) -> None:
        """Shared write of a word range: fault if needed, make the
        covered units writable (:meth:`_prepare_write`), install the
        values."""
        nwords = int(values.shape[0])
        if word0 < 0 or nwords <= 0 or word0 + nwords > self._heap_words:
            self._check_range(word0, nwords)
        self.aggregator.ensure_valid(word0, nwords)
        wpu = self._wpu
        for unit in range(word0 // wpu, (word0 + nwords - 1) // wpu + 1):
            self._prepare_write(unit)
        if self.trace is not None:
            self.trace.on_access(self.pid, self.clock.now, "write", word0, nwords)
        self.tracker.on_write(word0, nwords)
        self.space.write_words(word0, values)
        clock = self.clock
        clock.now = clock.now + (
            self._region_op_us + nwords * self._word_access_us
        )

    def _check_range(self, word0: int, nwords: int) -> None:
        if word0 < 0 or nwords <= 0 or word0 + nwords > self.layout.nwords:
            raise IndexError(
                f"shared access [{word0}, {word0 + nwords}) outside heap "
                f"of {self.layout.nwords} words"
            )

    # The two protocol hooks of the write path.  A unit is *writable*
    # once its first write of the interval has been prepared; what that
    # preparation is belongs to the protocol (a twin for the
    # multiple-writer protocols, exclusive ownership for swi).
    def _prepare_write(self, unit: int) -> None:
        """Make ``unit`` writable here; a no-op when it already is."""
        if not self.twinned[unit]:
            self._make_twin(unit)

    def _unwritable_units(self) -> np.ndarray:
        """Bool per unit: True exactly where :meth:`_prepare_write`
        would do work right now."""
        return ~self.twinned

    # ------------------------------------------------------------------
    # Bulk access path (gather / scatter)
    # ------------------------------------------------------------------
    # ``read_gather`` / ``write_scatter`` are *defined* as a loop of
    # :meth:`read_words` / :meth:`write_words` over equal-length word
    # ranges, in order: the reference loops below, which also serve
    # ``config.access_mode == "scalar"``, tracing (trace events carry
    # per-range timestamps sampled mid-loop) and every shape the batched
    # path declines.  The one production path, :meth:`_batched`, does
    # the loop's bookkeeping in three steps and leaves the data to one
    # vectorized gather/scatter.
    #
    # Identity argument.  Per range the loop runs ``ensure_valid``, (for
    # writes) ``_prepare_write`` over the range's units, the tracker's
    # usefulness resolution, and one clock charge.  Call a unit *dirty*
    # when ``ensure_valid`` or ``_prepare_write`` may do work on it
    # (``Aggregator.dirty_units()``, OR-ed for writes with
    # :meth:`_unwritable_units`).  Within one gather/scatter no other
    # processor runs, so
    #
    # * a clean unit stays clean: faults only shrink the pending set,
    #   pages only become access-valid, twins and ownership only
    #   accumulate;
    # * a dirty unit stays dirty until the first range over it runs (a
    #   dynamic-aggregation group fetch drains other members' pending
    #   diffs but leaves them access-invalid, hence still dirty), and is
    #   clean afterwards.
    #
    # The loop therefore does work exactly at the first-touch ranges of
    # the initially dirty units; everywhere else it only charges the
    # clock.  (1) The batched path runs the loop's own step at those
    # positions and folds the runs of pure charges between them with
    # :meth:`_fold_end` -- the identical sequence of float additions.
    # (2) Usefulness is resolved once at the end: ranges are pairwise
    # disjoint (checked), and a range's words cannot change tracker
    # state after its own ``ensure_valid`` -- later faults install diffs
    # only into units that were still pending, i.e. not yet touched --
    # so each word's owner tag is final when its turn has passed, each
    # word is credited at most once and credit totals are additive.
    # (3) The data moves once, at the end: a fault installs data only
    # into units no earlier range has touched, so it neither changes a
    # word already read nor overwrites a row already written, and a unit
    # is twinned at its first touch, before any of the scatter's rows
    # has modified it, so deferring the rows leaves every twin equal.
    #
    # ``tests/equivalence/`` asserts the two paths bit-identical in every
    # counter, checksum and trace event across all applications and
    # protocols; ``tests/apps/test_vectorized_equiv.py`` does the same on
    # random raw gather/scatter programs.

    def read_gather(self, starts: np.ndarray, nwords: int) -> np.ndarray:
        """Bulk read of ``len(starts)`` word ranges of ``nwords`` words
        each; returns an (nranges, nwords) uint32 array.  Equivalent to
        calling :meth:`read_words` once per range, in order."""
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        if starts.shape[0] == 0:
            return np.empty((0, max(nwords, 0)), dtype=np.uint32)
        if self._batched(starts, nwords, write=False):
            return self.space.gather(starts, nwords)
        return self._read_gather_ref(starts, nwords)

    def write_scatter(self, starts: np.ndarray, values: np.ndarray) -> None:
        """Bulk write of ``len(starts)`` word ranges from a (nranges,
        nwords) uint32 array.  Equivalent to calling :meth:`write_words`
        once per range, in order."""
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.uint32)
        if values.ndim != 2 or values.shape[0] != starts.shape[0]:
            raise ValueError(
                f"write_scatter needs (nranges, nwords) values matching "
                f"{starts.shape[0]} starts, got shape {values.shape}"
            )
        if starts.shape[0] == 0:
            return
        if self._batched(starts, int(values.shape[1]), write=True):
            self.space.scatter(starts, values)
        else:
            self._write_scatter_ref(starts, values)

    def _read_gather_ref(self, starts: np.ndarray, nwords: int) -> np.ndarray:
        out = np.empty((starts.shape[0], nwords), dtype=np.uint32)
        for i in range(starts.shape[0]):
            out[i] = self.read_words(int(starts[i]), nwords)
        return out

    def _write_scatter_ref(self, starts: np.ndarray, values: np.ndarray) -> None:
        for i in range(starts.shape[0]):
            self.write_words(int(starts[i]), values[i])

    def _batched(self, starts: np.ndarray, nwords: int, write: bool) -> bool:
        """All of a gather/scatter except the data movement: faults,
        write preparation, clock charges and word usefulness, exactly as
        the reference loop would leave them (see the identity argument
        above).  Returns False -- having done nothing -- when the
        reference loop must run instead: scalar mode, tracing, an empty
        or out-of-bounds range (the loop raises where a scalar program
        would), ranges spanning more than two units, or overlapping
        ranges whose order the batched steps could not honour."""
        if (
            self.config.access_mode != "bulk"
            or self.trace is not None
            or nwords <= 0
        ):
            return False
        last = starts + (nwords - 1)
        if int(starts.min()) < 0 or int(last.max()) >= self._heap_words:
            return False
        wpu = self._wpu
        u0s = starts // wpu
        u1s = last // wpu
        if int((u1s - u0s).max()) > 1:
            return False
        dirty = self.aggregator.dirty_units()
        if write:
            dirty = dirty | self._unwritable_units()
        work = np.flatnonzero(dirty[u0s] | dirty[u1s])
        n = int(starts.shape[0])
        # Overlapping ranges are harmless only to a gather that touches
        # nothing dirty and resolves no pending word: it charges the
        # clock and copies.  A scatter's later-row-wins order, a fault's
        # position and a word's single credit all need disjoint ranges.
        if n > 1 and (write or work.shape[0] or self.tracker.pending_count()):
            if int(np.diff(np.sort(starts)).min()) < nwords:
                return False
        per = self._region_op_us + nwords * self._word_access_us
        clock = self.clock
        pos = 0
        if work.shape[0]:
            # First-touch positions of the dirty units: interleave each
            # candidate range's two units so the first occurrence of a
            # unit in the flat array belongs to the earliest range.
            pairs = np.stack((u0s[work], u1s[work]), axis=1).reshape(-1)
            units, first = np.unique(pairs, return_index=True)
            ensure_valid = self.aggregator.ensure_valid
            for i in np.unique(work[first[dirty[units]] // 2]).tolist():
                if i > pos:
                    clock.advance_to(self._fold_end(i - pos, per))
                ensure_valid(int(starts[i]), nwords)
                if write:
                    for unit in range(int(u0s[i]), int(u1s[i]) + 1):
                        self._prepare_write(unit)
                clock.advance(per)
                pos = i + 1
        if n > pos:
            clock.advance_to(self._fold_end(n - pos, per))
        if self.tracker.pending_count():
            idx = (starts[:, None] + np.arange(nwords, dtype=np.int64)).reshape(-1)
            if write:
                self.tracker.resolve_write(idx)
            else:
                self.tracker.resolve_read(idx)
        return True

    def _fold_end(self, n: int, per: float) -> float:
        """The clock value after ``n`` sequential ``advance(per)`` calls,
        bit-identical to the loop: ``cumsum`` accumulates left-to-right
        in float64, the same associativity as repeated ``+=`` (pinned by
        ``tests/core/test_bulk_access.py``)."""
        arr = np.empty(n + 1, dtype=np.float64)
        arr[0] = self.clock.now
        arr[1:] = per
        return float(arr.cumsum()[-1])

    # ------------------------------------------------------------------
    # Twinning and interval closing
    # ------------------------------------------------------------------
    def _make_twin(self, unit: int) -> None:
        pool = self._twin_pool
        slot = self._twin_count
        if slot == pool.shape[0]:
            # Rows are addressed by slot number, never held as views, so
            # growing the pool invalidates nothing.
            self._twin_pool = np.empty(
                (max(64, 2 * slot), self._wpu), dtype=np.uint32
            )
            self._twin_pool[:slot] = pool
            pool = self._twin_pool
        self._twin_count = slot + 1
        pool[slot] = self.space.unit_view(unit)
        self._twin_slot[unit] = slot
        self.twinned[unit] = True
        if self._twin_persist[unit]:
            # The real system's twin from an earlier interval is still in
            # place (no invalidation arrived, no diff was requested):
            # re-dirtying the unit is free.
            return
        self._twin_persist[unit] = True
        self.stats.twins += 1
        self.stats.mprotects += 1  # remove write protection
        if self.trace is not None:
            self.trace.on_twin(self.pid, self.clock.now, unit)
        self.clock.advance(
            self.config.mprotect_us
            + self.layout.unit_bytes * self.config.twin_byte_us
        )

    def twin(self, unit: int) -> np.ndarray:
        """Writable view of the open interval's twin of ``unit`` (which
        must be :attr:`twinned`).  Valid until the next :meth:`_make_twin`
        -- protocols that patch a live twin (hlrc/erc) write through it
        at once."""
        return self._twin_pool[self._twin_slot[unit]]

    def close_interval(self) -> None:
        """End the current interval (called at every synchronization
        operation, on the processor's own thread): record the packed
        diffs of the twinned units and publish the interval's write
        notices.

        The simulator records the diff data here so a later fetch can be
        served from any point in the run, but builds a :class:`Diff`
        object, and charges diff creation, only when one is requested
        (see :meth:`fetch`), as in TreadMarks, where a release only
        queues write notices and the word-compare scan happens when a
        diff is first requested."""
        if not self._twin_count:
            return
        diffs = self._interval_diffs()
        n = int(diffs.units.shape[0])
        self.vc.tick(self.pid)
        self.store.close_interval(self.pid, self.vc, diffs)
        self.stats.intervals_closed += 1
        self.stats.write_notices_sent += n
        self.unsent_notices += n
        self.twinned[:] = False
        self._twin_count = 0

    def _interval_diffs(self) -> PackedDiffs:
        """Word-compare every twinned unit against current memory: one
        gather of the current units, one of their twins, and
        :func:`~repro.dsm.diff.pack_diffs` over the two matrices -- a
        fixed number of numpy calls however many units were written.
        ``np.flatnonzero`` over the twinned bitmap is the ascending unit
        order every consumer of the record expects."""
        units = np.flatnonzero(self.twinned)
        return pack_diffs(
            units,
            self._twin_pool[self._twin_slot[units]],
            self.space.words.reshape(-1, self._wpu)[units],
        )

    def at_sync_point(self) -> None:
        """Hook run on the processor's own thread immediately before it
        parks at any synchronization operation."""
        self.close_interval()
        self.aggregator.on_sync()

    def detach(self) -> None:
        """Cut the references that lead from this processor's parts back
        into its run -- the aggregator's ``proc`` and the peer list --
        once the run is over.  A finished run then holds no reference
        cycle and is freed by reference counting; its state stays
        readable."""
        del self.aggregator.proc
        self.peers = ()

    # ------------------------------------------------------------------
    # Invalidation (runs on the scheduler thread while parked)
    # ------------------------------------------------------------------
    def apply_notices_upto(self, new_vc: VectorClock) -> Tuple[float, int, int]:
        """Receive write notices for every interval covered by ``new_vc``
        that this processor has not seen; invalidate their units.

        Returns ``(cost_us, payload_bytes, n_notices)`` so the caller can
        charge the wake-up time and size the carrying message.  Every
        notice counts towards the payload, including those of units this
        processor ignores (:meth:`_invalidated_units`)."""
        newly_invalid = 0
        n = 0
        store = self.store
        own_vc = self.vc
        for proc in range(self.config.nprocs):
            for interval in store.intervals_between(
                proc, own_vc[proc], new_vc[proc]
            ):
                if interval.proc == self.pid:
                    raise AssertionError("received a notice for own interval")
                n += interval.units.shape[0]
                units = self._invalidated_units(interval.units)
                if units.shape[0]:
                    newly_invalid += self._add_notices(units, interval.notice)
        self.vc.join(new_vc)
        cost = newly_invalid * self.config.mprotect_us
        self.stats.mprotects += newly_invalid
        return cost, n * self.config.write_notice_bytes, n

    def _invalidated_units(self, units: np.ndarray) -> np.ndarray:
        """The subset of an interval's written ``units`` whose notices
        invalidate this processor's copy: all of them, unless the
        protocol keeps some copies current by other means."""
        return units

    # ------------------------------------------------------------------
    # Pending write notices: the only code that mutates ``pending`` and
    # ``pending_n``
    # ------------------------------------------------------------------
    def _add_notices(self, units: np.ndarray, notice: Notice) -> int:
        """Append ``notice`` -- the shared ``(proc, index, commit_seq)``
        of the interval that wrote them -- to each of ``units``
        (distinct) and invalidate them; returns how many were valid
        until now.

        The per-unit side effects are batched: the units are distinct,
        so testing ``pending_n == 0`` before the increments is exactly
        the per-notice emptiness check (``pending_n == 0`` exactly when
        the unit has no list yet), and clearing twin persistence /
        access validity is idempotent.  What remains per unit is one
        list append of the shared tuple, because :meth:`fetch` consumes
        notices as ordered per-unit lists."""
        pending_n = self.pending_n
        fresh = pending_n[units] == 0
        pending_n[units] += 1
        self._twin_persist[units] = False
        self.aggregator.on_invalidate(units)
        pending = self.pending
        for unit in units[~fresh].tolist():
            pending[unit].append(notice)
        for unit in units[fresh].tolist():
            pending[unit] = [notice]
        return int(np.count_nonzero(fresh))

    def _clear_notices(self, units: Sequence[int]) -> None:
        """Drop every pending notice of ``units`` (their data is now
        current)."""
        for unit in units:
            self.pending.pop(unit, None)
            self.pending_n[unit] = 0

    def pending_notices(self) -> Iterator[WriteNotice]:
        """Every pending notice as a :class:`WriteNotice`, by ascending
        unit and in arrival order within a unit -- what the model
        checker hashes (built here, on request: the protocol itself
        keeps only the shared tuples)."""
        pending = self.pending
        for unit in sorted(pending):
            for proc, index, commit_seq in pending[unit]:
                yield WriteNotice(proc, index, unit, commit_seq)

    # ------------------------------------------------------------------
    # Fault service
    # ------------------------------------------------------------------
    def fetch(self, units: Sequence[int]) -> None:
        """Service an access miss by fetching the pending diffs of
        ``units`` (the faulting unit plus whatever the aggregation
        strategy bundled with it).

        Requests to the same writer are combined into one exchange;
        distinct writers are contacted in parallel, so the stall is the
        maximum (not the sum) of the per-writer response times --- the
        aggregation advantage of Sections 3 and 4.
        """
        # Coalesce each writer's diffs as TreadMarks' lazy diffing would:
        # group the globally commit-ordered notices into maximal runs of
        # consecutive (writer, unit) entries and merge each run into one
        # diff (repro.dsm.diff.merge_diffs).  Restricting merging to
        # *consecutive* runs keeps the apply order a linear extension of
        # happens-before even when another writer's interval falls
        # between two intervals of the same writer (migratory data under
        # locks), where merging across would resurrect stale words.
        # Equal stamps mean one interval (hence one writer), so the
        # stable sort leaves such ties in arrival order.
        pending_get = self.pending.get
        notices = sorted(
            ((nt, unit) for unit in units for nt in pending_get(unit, ())),
            key=_commit_seq,
        )
        if not notices:
            raise AssertionError(f"fetch with nothing pending: units={units}")
        # (writer, unit, [interval indices]) per run; notices per writer.
        runs: List[Tuple[int, int, List[int]]] = []
        by_writer: Dict[int, int] = {}
        for (writer, index, _), unit in notices:
            by_writer[writer] = by_writer.get(writer, 0) + 1
            if runs and runs[-1][0] == writer and runs[-1][1] == unit:
                runs[-1][2].append(index)
            else:
                runs.append((writer, unit, [index]))

        config = self.config
        now = self.clock.now
        fault_id = len(self.stats.fault_records)

        # Beside each run, in global commit order: its coalesced diff
        # and (filled in by the exchange that carries it) the id of the
        # reply message.
        run_diff: List[Diff] = []
        run_reply = [0] * len(runs)
        writer_runs: Dict[int, List[int]] = {w: [] for w in by_writer}
        writer_diff_cost: Dict[int, float] = {w: 0.0 for w in by_writer}
        store_get = self.store.get
        span_cache = self.store.diff_scan_cache
        unit_scan_us = self.layout.unit_bytes * config.diff_create_byte_us
        wpu = self._wpu
        for position, (writer, unit, indices) in enumerate(runs):
            # Lazy diffing: the writer scans the unit when a span is
            # first requested (the cost sits on the response path) and
            # caches the result; later requests for the same span are
            # served the cached diff.
            key = (writer, unit, indices[0], indices[-1])
            d = span_cache.get(key)
            if d is None:
                d = span_cache[key] = merge_diffs(
                    [store_get(writer, i).diff_for(unit) for i in indices], wpu
                )
                writer_diff_cost[writer] += unit_scan_us
                self.stats.diffs_created += 1
                self.stats.diff_words_created += d.nwords
                if self.trace is not None:
                    self.trace.on_diff_create(writer, self.pid, now, unit, d.nwords)
            run_diff.append(d)
            writer_runs[writer].append(position)

        # Build the exchanges: normally one per writer carrying all that
        # writer's runs; with combine_requests disabled (ablation), one
        # per (writer, run).
        # (writer, [run positions], n_notices)
        exchange_plans: List[Tuple[int, List[int], int]] = []
        if config.combine_requests:
            for writer in sorted(by_writer):
                exchange_plans.append(
                    (writer, writer_runs[writer], by_writer[writer])
                )
        else:
            for position, run in enumerate(runs):
                exchange_plans.append((run[0], [position], 1))

        stall = 0.0
        exchange_ids: List[int] = []
        network = self.network
        msg_cost = config.msg_cost_us
        parallel = config.parallel_fetch
        for writer, positions, n_notices in exchange_plans:
            ex = network.new_exchange(self.pid, writer, fault_id)
            exchange_ids.append(ex)
            req_bytes = REQUEST_BASE_BYTES + REQUEST_ENTRY_BYTES * n_notices
            # Both legs of the exchange stall the faulting processor, so
            # injected delivery faults (repro.faults) charge their delays
            # to it, whichever direction the perturbed copy travels.
            req = network.record(
                self.pid, writer, MessageClass.DIFF_REQUEST, req_bytes, now, ex,
                waiter=self.pid,
            )
            reply_bytes = sum(run_diff[p].wire_bytes for p in positions)
            reply_words = sum(run_diff[p].nwords for p in positions)
            reply = network.record(
                writer, self.pid, MessageClass.DIFF_REPLY, reply_bytes, now, ex,
                waiter=self.pid,
            )
            reply.words_carried = reply_words
            for position in positions:
                run_reply[position] = reply.msg_id
            network.close_exchange(ex, req.msg_id, reply.msg_id)
            response_time = (
                msg_cost(req_bytes)
                + config.diff_service_us
                + writer_diff_cost[writer]
                + msg_cost(reply_bytes)
            )
            if parallel:
                stall = max(stall, response_time)
            else:
                stall += response_time

        # Per-exchange CPU time at the requester (send + receive): wire
        # latencies overlap across writers, CPU work does not.
        stall += 2 * config.msg_cpu_us * len(exchange_plans)

        # Apply in global commit order.
        apply_cost = 0.0
        stats = self.stats
        install = self.install
        apply_byte_us = config.diff_apply_byte_us
        for run, d, msg_id in zip(runs, run_diff, run_reply, strict=True):
            install(d, msg_id)
            apply_cost += d.data_bytes * apply_byte_us
            stats.diffs_applied += 1
            stats.diff_words_applied += d.nwords
            if self.trace is not None:
                pages: Tuple[int, ...] = ()
                page_words: Tuple[int, ...] = ()
                if d.nwords:
                    pg, cnt = np.unique(
                        (d.idx.astype(np.int64) + d.unit * wpu)
                        // self.layout.words_per_page,
                        return_counts=True,
                    )
                    pages = tuple(int(p) for p in pg)
                    page_words = tuple(int(c) for c in cnt)
                self.trace.on_diff_apply(
                    self.pid, now, d.unit, run[0], d.nwords, msg_id,
                    pages, page_words,
                )

        self._finish_fault(units, len(by_writer), exchange_ids, stall, apply_cost)

    def install(self, d: Diff, msg_id: int) -> None:
        """Patch ``d`` into this processor's copy of its unit and tag
        the installed words as carried by message ``msg_id`` -- the one
        way diff data enters a processor's memory, whatever the
        protocol.

        The one branch is on the data's shape.  A diff whose offsets
        form a single run (read off its wire size, which encodes the
        run count) is a slice copy plus a slice mark; anything else
        goes through its offset list.  The two are the same assignment:
        a fancy index over a contiguous ascending offset list addresses
        exactly the slice."""
        n = d.nwords
        if not n:
            return
        wpu = self._wpu
        if int(d.idx[-1]) >= wpu:
            raise IndexError(
                f"diff touches word {int(d.idx[-1])} beyond unit of {wpu} words"
            )
        w0 = d.unit * wpu
        if d.wire_bytes == ONE_RUN_BYTES + n * WORD:
            w0 += int(d.idx[0])
            self.space.words[w0 : w0 + n] = d.values
            self.tracker.mark_run(w0, n, msg_id)
        else:
            idx = d.idx + np.int64(w0)
            self.space.words[idx] = d.values
            self.tracker.mark(idx, msg_id)

    def _finish_fault(
        self,
        units: Sequence[int],
        writers: int,
        exchange_ids: Sequence[int],
        stall: float,
        apply_cost: float,
        monitoring: bool = False,
    ) -> None:
        """The common tail of every fault: revalidate ``units`` (their
        pending notices are satisfied), charge the trap, the
        re-protections, the stall and the apply work, and record the
        fault.  Fault service does not advance the clock before this
        point, so ``clock.now`` is still the time of the fault."""
        if not monitoring:
            self._clear_notices(units)
        config = self.config
        stats = self.stats
        now = self.clock.now
        stats.mprotects += len(units)
        cost = (
            config.fault_trap_us
            + len(units) * config.mprotect_us
            + stall
            + apply_cost
        )
        trace_eid = None
        if self.trace is not None:
            trace_eid = self.trace.on_fault(
                proc=self.pid,
                ts=now,
                fault_id=len(stats.fault_records),
                units=tuple(units),
                writers=writers,
                exchange_ids=tuple(exchange_ids),
                stall_us=stall,
                cost_us=cost,
                monitoring=monitoring,
            )
        stats.record_fault(
            proc=self.pid,
            time_us=now,
            units=tuple(units),
            writers=writers,
            exchange_ids=tuple(exchange_ids),
            monitoring=monitoring,
            trace_eid=trace_eid,
        )
        self.clock.advance(cost)

    def monitoring_fault(self, unit: int) -> None:
        """A dynamic-aggregation access-tracking fault: the unit's data is
        already current, so no messages are exchanged; only the trap and
        re-protection costs are paid (the Section-4 monitoring overhead)."""
        self._finish_fault((unit,), 0, (), 0.0, 0.0, monitoring=True)
