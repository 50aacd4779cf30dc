"""Outside-in span ledger.

The traced pass wraps the public entry points of every layer *from
here* -- nothing under ``src/`` knows it is being timed -- keeps one
row per call in memory (name, start, end, parent, thread), and removes
the wrappers again.  :class:`Ledger` turns the rows into per-layer
numbers:

* a span's **self time** is its duration minus its direct children on
  the same thread, so nested layers (``SharedArray.read_row`` ->
  ``Proc.read`` -> ``LrcProc.read_words`` -> ``ensure_valid`` ->
  ``fetch`` -> ``Network.record``) each keep only their own share;
* ``Engine.park`` and ``Engine.run`` are the two spans whose duration is
  mostly *other* threads running, so their self time is replaced by the
  handoff measure (see :attr:`Ledger.engine`); likewise the client-side
  ``farm.service.socket`` span gives up the ``FarmService.handle`` time
  the server threads spent inside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pathlib
import sys
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.perf._clock import now_ns

PARK = "sim.engine.park"
RUN = "sim.engine.run"
WORKER = "apps.worker"
OVERRIDE = "protocols.override"
HANDLE = "farm.service.handle"
SOCKET = "farm.service.socket"

#: ``LrcProc`` methods wrapped on every class of the protocol zoo that
#: defines them: the base definition gets the ``dsm.lrc`` name, a
#: subclass override gets :data:`OVERRIDE`.
_LRC_METHODS = {
    "read_words": "dsm.lrc.access",
    "write_words": "dsm.lrc.access",
    "read_gather": "dsm.lrc.access",
    "write_scatter": "dsm.lrc.access",
    "fetch": "dsm.lrc.fetch",
    "close_interval": "dsm.lrc.close_interval",
    "at_sync_point": "dsm.lrc.at_sync_point",
    "apply_notices_upto": "dsm.lrc.apply_notices",
    "monitoring_fault": "dsm.lrc.monitoring_fault",
}

#: Timed ``Proc`` methods -> how many shared words one call moves
#: (None: sync and compute calls move none).
_PROC_METHODS: Dict[str, Optional[Callable[[Sequence[Any]], int]]] = {
    "read_gather": lambda args: int(np.size(args[1])) * int(args[2]),
    "write_scatter": lambda args: int(np.size(args[2])),
    "acquire": None,
    "release": None,
    "barrier": None,
    "compute": None,
}

#: ``Proc.read`` / ``Proc.write`` forward one call to ``LrcProc`` and do
#: nothing else: a span around them would cost several times what they
#: do, on the word-granularity path where TSP and the scalar cells make
#: tens of thousands of calls.  They are counted (calls and words), not
#: timed; their few nanoseconds stay with the calling ``SharedArray``.
_PROC_FORWARDERS: Dict[str, Callable[[Sequence[Any]], int]] = {
    "read": lambda args: int(args[2]),
    "write": lambda args: int(np.size(args[2])),
}
PROC_FORWARDS = "core.proc_forwards"

_SHARED_METHODS = ("read", "write", "gather", "scatter", "gather_rows",
                   "scatter_rows", "read_row", "write_row", "read_rows",
                   "write_rows")


class Recorder:
    """In-memory span store plus the wrapper bookkeeping.

    A wrapper costs two clock reads and one append: rows are written
    when a call *returns*, flat, as ``name id, thread id, start ns, end
    ns``.  Spans of one thread nest properly, so :class:`Ledger`
    recovers each span's parent from the intervals afterwards instead
    of every call paying for a per-thread stack.  Only one simulated
    processor runs at a time, which is what makes appending to the
    shared buffer from their threads safe.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.buffer: List[int] = []
        self.counts: Dict[str, int] = {}
        """Work counters read off call arguments (words, units)."""
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        counter: Optional[str] = None,
        count: Optional[Callable[[Sequence[Any]], int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call; ``count(args)`` is added
        to ``counts[counter]`` when given."""
        name_id = self._name_id(name)
        extend, ident, counts = self.buffer.extend, threading.get_ident, self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                extend((name_id, ident(), t0, now_ns()))

        if count is None:
            return wrapper
        counts.setdefault(counter, 0)  # type: ignore[arg-type]

        def counting(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += count(args)  # type: ignore[index,misc]
            return wrapper(*args, **kwargs)

        return counting

    def count_only(
        self,
        fn: Callable[..., Any],
        calls: str,
        counter: str,
        count: Callable[[Sequence[Any]], int],
    ) -> Callable[..., Any]:
        """``fn`` with its calls and ``count(args)`` tallied, untimed."""
        counts = self.counts
        counts.setdefault(calls, 0)
        counts.setdefault(counter, 0)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[calls] += 1
            counts[counter] += count(args)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own call into a layer."""
        name_id = self._name_id(name)
        t0 = now_ns()
        try:
            yield
        finally:
            self.buffer.extend((name_id, threading.get_ident(), t0, now_ns()))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _replace(self, owner: Any, attr: str,
                 make: Callable[[Callable[..., Any]], Callable[..., Any]]
                 ) -> None:
        """Swap ``owner.attr`` -- and every alias of the same function in
        ``owner``'s namespace (``Proc.read_range = read``) -- for
        ``make(original)``."""
        original = vars(owner)[attr]
        wrapped = make(original)
        for alias in sorted(vars(owner)):
            if vars(owner)[alias] is original:
                self._patches.append((owner, alias, original))
                setattr(owner, alias, wrapped)

    def patch(self, owner: Any, attr: str, name: str, **kw: Any) -> None:
        """Put a span called ``name`` around ``owner.attr``."""
        self._replace(owner, attr, lambda fn: self.wrap(fn, name, **kw))

    def patch_counted(self, owner: Any, attr: str, **kw: Any) -> None:
        """Count ``owner.attr``'s calls without timing them."""
        self._replace(owner, attr, lambda fn: self.count_only(fn, **kw))

    def patch_function(self, fn: Callable[..., Any], name: str) -> None:
        """Wrap a module-level function in every ``repro`` module that
        binds it (``from x import f`` copies the reference)."""
        wrapped = self.wrap(fn, name)
        for modname in sorted(sys.modules):
            if modname != "repro" and not modname.startswith("repro."):
                continue
            module = sys.modules[modname]
            for attr in sorted(vars(module)):
                if vars(module)[attr] is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def patched(self) -> List[str]:
        """``owner.attr`` of every patch still in place."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner)[attr] is not original
        ]

    def remove(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)



def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in sorted(cls.__subclasses__(), key=lambda c: c.__qualname__):
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer."""
    import repro.protocols  # noqa: F401 - registers the zoo's subclasses
    from repro.apps.base import AppRegistry, get_app, run_app
    from repro.bench.cache import DiskCache, cell_key
    from repro.bench.harness import run_case
    from repro.core.proc import Proc
    from repro.core.shared import PaddedSharedArray, SharedArray
    from repro.core.treadmarks import TreadMarks
    from repro.dsm.aggregation import Aggregator
    from repro.dsm.lrc import LrcProc
    from repro.dsm.sync import SyncManager
    from repro.farm import worker
    from repro.farm.service import FarmService
    from repro.farm.store import ResultStore
    from repro.sim.engine import Engine
    from repro.sim.network import Network
    from repro.stats.report import build_result

    for app_name in AppRegistry.names():
        app_cls = type(get_app(app_name))
        for method in ("setup", "worker"):
            if method in vars(app_cls):
                rec.patch(app_cls, method, f"apps.{method}")

    rec.patch(TreadMarks, "__init__", "core.treadmarks_init")
    for method, words in _PROC_METHODS.items():
        rec.patch(Proc, method, "core.proc",
                  counter="core.words_accessed", count=words)
    for method, words in _PROC_FORWARDERS.items():
        rec.patch_counted(Proc, method, calls=PROC_FORWARDS,
                          counter="core.words_accessed", count=words)
    for shared_cls in (SharedArray, PaddedSharedArray):
        for method in _SHARED_METHODS:
            if method in vars(shared_cls):
                rec.patch(shared_cls, method, "core.shared")

    for lrc_cls in [LrcProc, *_subclasses(LrcProc)]:
        for method, name in _LRC_METHODS.items():
            if method not in vars(lrc_cls):
                continue
            if lrc_cls is not LrcProc:
                rec.patch(lrc_cls, method, OVERRIDE)
            elif method == "fetch":
                rec.patch(lrc_cls, method, name,
                          counter="dsm.lrc.fetch_units",
                          count=lambda args: len(args[1]))
            else:
                rec.patch(lrc_cls, method, name)
    rec.patch(Aggregator, "on_sync", "dsm.aggregation.on_sync")
    for agg_cls in _subclasses(Aggregator):
        for method in ("ensure_valid", "on_sync"):
            if method in vars(agg_cls):
                rec.patch(agg_cls, method, f"dsm.aggregation.{method}")
    rec.patch(SyncManager, "service", "dsm.sync.service")

    rec.patch(Engine, "park", PARK)
    rec.patch(Engine, "run", RUN)
    rec.patch(Network, "record", "sim.network.record")

    rec.patch_function(build_result, "stats.build_result")
    rec.patch_function(run_app, "core.run_app")
    rec.patch_function(run_case, "bench.run_case")
    rec.patch_function(cell_key, "bench.cell_key")
    for method in ("load", "store"):
        rec.patch(DiskCache, method, f"bench.cache.{method}")

    for method in ("submit", "claim", "complete", "get_result"):
        rec.patch(ResultStore, method, f"farm.store.{method}")
    rec.patch_function(worker.work, "farm.worker.work")
    rec.patch_function(worker.run_claim, "farm.worker.run_claim")
    rec.patch(FarmService, "handle", HANDLE)


class Ledger:
    """Per-layer numbers from one recorder's spans."""

    def __init__(self, rec: Recorder) -> None:
        table = np.array(rec.buffer, dtype=np.int64).reshape(-1, 4)
        self.names = list(rec.names)
        self.counts = dict(rec.counts)
        self.name = table[:, 0]
        self.tid = table[:, 1]
        self.start = table[:, 2]
        self.end = table[:, 3]
        self.dur = self.end - self.start
        self.parent = self._parents()
        nested = self.parent >= 0
        self.child = np.bincount(
            self.parent[nested], weights=self.dur[nested],
            minlength=len(table),
        )
        self.self_ns = self.dur - self.child

    def _parents(self) -> np.ndarray:
        """Each span's enclosing span on its own thread, or -1.

        Per thread, in start order (outer first on a tie: it ends later,
        and was appended later), the innermost still-open span that ends
        no earlier than this one is its parent.
        """
        n = len(self.name)
        order = np.lexsort((-np.arange(n), -self.end, self.start, self.tid))
        tid, end = self.tid.tolist(), self.end.tolist()
        parent = [-1] * n
        stack: List[int] = []
        thread = None
        for i in order.tolist():
            if tid[i] != thread:
                thread = tid[i]
                stack.clear()
            while stack and end[stack[-1]] < end[i]:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
        return np.array(parent, dtype=np.int64)

    def dump(self, path: pathlib.Path) -> None:
        """Write every span out: name, thread, start, end, parent."""
        path.write_text(json.dumps({
            "columns": ["name", "thread", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "counts": self.counts,
            "rows": np.column_stack(
                [self.name, self.tid, self.start, self.end, self.parent]
            ).tolist(),
        }))

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def durations_ns(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]

    @functools.cached_property
    def engine(self) -> Dict[str, float]:
        """Handoff accounting, from outside.

        Exactly one simulated processor runs at a time, so the interval
        from an ``Engine.park`` entry on thread X to the next wake-up on
        any thread -- a ``park`` exit, or the first ``worker`` call of a
        thread that has not run yet -- is heap servicing plus (when the
        wake-up is on another thread) one OS handoff.  The
        ``SyncManager.service`` spans inside it are the park span's only
        children and belong to ``dsm.sync``, so they are subtracted.

        A FINISH park never blocks: the finishing thread returns while
        the woken one is still being scheduled, so its own exit is not a
        wake-up (and is kept out of the candidates); only the last
        FINISH of a run, which wakes nobody, ends at its own exit.

        ``run_overhead`` is what is left of ``Engine.run`` after every
        span that ran on a processor thread and every handoff interval:
        thread creation, first wake-up, join and teardown.
        """
        park = self.mask(PARK)
        finish = park & (self.parent == -1)
        blocking = park & ~finish
        worker = self.mask(WORKER)
        wake_t = np.concatenate([self.end[blocking], self.start[worker]])
        wake_tid = np.concatenate([self.tid[blocking], self.tid[worker]])
        order = np.argsort(wake_t, kind="stable")
        wake_t, wake_tid = wake_t[order], wake_tid[order]

        run = np.flatnonzero(self.mask(RUN))
        run_start, run_end = self.start[run], self.end[run]

        full_ns = 0
        switches = 0
        idx = np.searchsorted(wake_t, self.start[blocking], side="right")
        if idx.size:
            full_ns += int((wake_t[idx] - self.start[blocking]).sum())
            switches += int((wake_tid[idx] != self.tid[blocking]).sum())
        for p in np.flatnonzero(finish).tolist():
            t0 = self.start[p]
            limit = run_end[np.searchsorted(run_start, t0, side="right") - 1]
            i = int(np.searchsorted(wake_t, t0, side="right"))
            if i < len(wake_t) and wake_t[i] < limit:
                full_ns += int(wake_t[i] - t0)
                switches += 1
            else:
                full_ns += int(self.end[p] - t0)
        parks = int(park.sum())
        handoff_ns = full_ns - int(self.child[park].sum())

        # Spans that ran on processor threads during some Engine.run.
        ri = np.searchsorted(run_start, self.start, side="right") - 1
        inside = ri >= 0
        inside[inside] &= self.start[inside] < run_end[ri[inside]]
        inside[inside] &= self.tid[inside] != self.tid[run][ri[inside]]
        inside &= ~park
        overhead_ns = (
            int(self.dur[run].sum())
            - int(self.self_ns[inside].sum())
            - handoff_ns
        )
        return {
            "parks": parks,
            "thread_switches": switches,
            "inline_resumes": parks - switches,
            "handoff_s": handoff_ns / 1e9,
            "run_overhead_s": overhead_ns / 1e9,
        }

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name; the two engine spans carry the
        handoff measure instead of their (mostly blocked) own time, and
        the client's socket span excludes the server's handler time."""
        totals = np.bincount(
            self.name, weights=self.self_ns, minlength=len(self.names)
        )
        out = {n: float(totals[i]) / 1e9 for i, n in enumerate(self.names)}
        if PARK in out:
            out[PARK] = self.engine["handoff_s"]
            out[RUN] = self.engine["run_overhead_s"]
        if SOCKET in out:
            out[SOCKET] -= float(self.durations_ns(HANDLE).sum()) / 1e9
        return out
