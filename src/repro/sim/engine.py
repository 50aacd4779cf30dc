"""Conservative discrete-event scheduler for simulated processors.

Execution model
---------------

Each simulated processor runs its application function on a dedicated
Python thread, but **exactly one thread is ever runnable**: control is
handed from thread to thread so that a processor runs uninterrupted from
one *synchronization operation* (lock acquire/release, barrier, start,
finish) to the next.  At each such operation it parks, posting an
:class:`Op` stamped with its simulated clock, and then *services the
event heap itself* -- running the handler over pending operations and
resumptions in global simulated-time order (ties broken by a
deterministic sequence number) until either its own resumption surfaces
(it simply keeps running, no thread switch) or another processor's does
(one event signal hands control over).  There is no scheduler thread in
the loop: an uncontended lock acquire costs zero context switches, and
a genuine handoff costs one, not two.  The service order -- and hence
every simulated outcome -- is identical to a dedicated-scheduler
formulation; only which OS thread happens to run the handler differs.

This is a conservative discrete-event simulation: the entity with the
globally minimal timestamp always advances first, so lock-grant order,
barrier composition, and therefore the entire DSM protocol history are
deterministic functions of the program and the cost model.

Access misses (page faults) do **not** park the processor: under lazy
release consistency a fault only consults protocol state committed at
synchronization operations that happened-before the faulting access, and
the scheduler's service order guarantees that state already exists.  The
fault handler charges stall time to the faulting processor's clock
directly.

The engine is policy-free: lock/barrier semantics and the consistency
protocol live in :mod:`repro.dsm` and are invoked through the *handler*
callback given to :meth:`Engine.run`.
"""

from __future__ import annotations

import enum
import heapq
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.sim.clock import Clock
from repro.sim.config import SimConfig
from repro.trace.events import ParkEvent, ResumeEvent


class DeadlockError(RuntimeError):
    """No processor can make progress (e.g. a barrier that can never
    fill because a peer already finished)."""


class EngineAborted(RuntimeError):
    """Raised inside parked processor threads when the run is torn down
    after another processor raised."""


class OpKind(enum.Enum):
    """Kinds of scheduling points a processor can park at."""

    ACQUIRE = "acquire"
    RELEASE = "release"
    BARRIER = "barrier"
    FINISH = "finish"


@dataclass(frozen=True)
class Op:
    """A synchronization operation posted by a parked processor."""

    kind: OpKind
    proc: int
    ts: float
    """The processor's simulated clock when it reached the operation."""
    arg: int = 0
    """Lock id for ACQUIRE/RELEASE, barrier id for BARRIER."""
    seq: int = 0
    """Deterministic tie-breaker assigned by the engine."""


@dataclass(frozen=True)
class Resume:
    """Instruction from the handler to wake a processor at ``wake_ts``."""

    proc: int
    wake_ts: float


class ProcContext:
    """Per-processor execution context handed to application functions.

    Protocol and application layers wrap this (see
    :class:`repro.core.proc.Proc`); the engine-level context only knows
    about clocks and parking.
    """

    def __init__(self, pid: int, engine: "Engine") -> None:
        self.pid = pid
        self.engine = engine
        self.clock = Clock()
        self.finished = False
        self._event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __repr__(self) -> str:
        return f"ProcContext(pid={self.pid}, t={self.clock.now:.1f}us)"


#: The handler maps a serviced operation to the processors it resumes.
#: It runs on the scheduler thread and must not block.
Handler = Callable[[Op], Sequence[Resume]]


class Engine:
    """Deterministic one-runnable-at-a-time scheduler."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        self.config = config
        self.procs: List[ProcContext] = [
            ProcContext(pid, self) for pid in range(config.nprocs)
        ]
        self._heap: List[tuple] = []  # (ts, seq, entry) where entry is Op|Resume
        self.trace = None
        """Optional :class:`repro.trace.recorder.TraceRecorder` attached
        by the runtime; park/resume events feed the per-processor
        timeline.  Observer-only: never affects scheduling."""
        self._seq = 0
        self._main_event = threading.Event()
        self._aborting = False
        self._exc: Optional[BaseException] = None
        self._running = False
        self._handler: Optional[Handler] = None
        self._finished = 0

    # ------------------------------------------------------------------
    # Processor-thread side
    # ------------------------------------------------------------------
    def park(self, ctx: ProcContext, kind: OpKind, arg: int = 0) -> None:
        """Park the calling processor at a synchronization operation and
        block until the handler resumes it.

        Called from the processor's own thread.  The parking thread
        itself drains the event heap (see :meth:`_drain`); if its own
        resumption is the next serviceable entry it returns without ever
        blocking.  On return the processor's clock has been advanced to
        its wake time.
        """
        if self.trace is not None:
            self.trace.emit(
                ParkEvent(ctx.clock.now, ctx.pid, op_kind=kind.value, arg=arg)
            )
        self._seq += 1
        op = Op(kind=kind, proc=ctx.pid, ts=ctx.clock.now, arg=arg, seq=self._seq)
        self._seq += 1
        heapq.heappush(self._heap, (op.ts, self._seq, op))
        if kind is OpKind.FINISH:
            self._drain(None)
            return  # finishing processors never resume
        ctx._event.clear()
        if self._drain(ctx):
            return  # own resumption serviced inline: no thread switch
        ctx._event.wait()
        if self._aborting:
            raise EngineAborted()

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def run(self, fns: Sequence[Callable[[ProcContext], None]], handler: Handler) -> None:
        """Run one application function per processor to completion.

        ``handler`` services every :class:`Op` in simulated-time order and
        returns the processors to resume.  Raises the first exception any
        processor raised, or :class:`DeadlockError` if the system stalls.
        """
        if len(fns) != len(self.procs):
            raise ValueError(
                f"need {len(self.procs)} functions, got {len(fns)}"
            )
        if self._running:
            raise RuntimeError(
                "engine is single-use: construct a fresh Engine per run"
            )
        self._running = True  # never reset: thread and heap state is spent
        self._handler = handler

        for ctx, fn in zip(self.procs, fns, strict=True):
            ctx._thread = threading.Thread(
                target=self._thread_body, args=(ctx, fn), daemon=True
            )
            ctx._thread.start()

        # Seed one resumption per processor in pid order: threads block on
        # their private event immediately, so setting an event before the
        # thread reaches wait() is harmless, and the seeding order makes
        # the first scheduling round deterministic.
        for ctx in self.procs:
            self._push(0.0, Resume(proc=ctx.pid, wake_ts=0.0))

        try:
            self._main_event.clear()
            # Hand control to the first processor; from here the
            # processor threads pass it among themselves, and the last
            # one to finish (or the first to fail) signals completion.
            self._drain(None)
            self._main_event.wait()
        finally:
            self._teardown()
        if self._exc is not None:
            raise self._exc

    def _drain(self, self_ctx: Optional[ProcContext]) -> bool:
        """Service heap entries in global simulated-time order on the
        calling thread.

        Returns True when a :class:`Resume` for ``self_ctx`` was popped
        (the caller is the next runnable processor and simply keeps
        executing); returns False after control was handed to another
        thread, the run completed, or the run aborted.
        """
        handler = self._handler
        nprocs = len(self.procs)
        heap = self._heap
        while True:
            if self._aborting:
                return False
            if not heap:
                if self._finished >= nprocs:
                    self._main_event.set()  # run complete
                    return False
                if self._exc is None:
                    self._exc = DeadlockError(
                        f"{nprocs - self._finished} processors blocked "
                        f"with no serviceable operation (barrier "
                        f"mismatch or lock leak?)"
                    )
                self._abort()
                return False
            _, _, entry = heapq.heappop(heap)
            if isinstance(entry, Resume):
                tgt = self.procs[entry.proc]
                if self.trace is not None:
                    self.trace.emit(ResumeEvent(entry.wake_ts, tgt.pid))
                tgt.clock.advance_to(entry.wake_ts)
                if tgt is self_ctx:
                    return True
                tgt._event.set()
                return False
            op: Op = entry
            try:
                if op.kind is OpKind.FINISH:
                    self.procs[op.proc].finished = True
                    self._finished += 1
                    handler(op)
                    continue
                for resume in handler(op):
                    self._push(resume.wake_ts, resume)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                if self._exc is None:
                    self._exc = exc
                self._abort()
                return False

    def _abort(self) -> None:
        """Unblock every thread so the failure can unwind to ``run``."""
        self._aborting = True
        for ctx in self.procs:
            ctx._event.set()
        self._main_event.set()

    def _thread_body(self, ctx: ProcContext, fn: Callable[[ProcContext], None]) -> None:
        try:
            ctx._event.wait()  # first wake comes from the seeded Resume
            if self._aborting:
                raise EngineAborted()
            fn(ctx)
        except EngineAborted:
            self._main_event.set()
            return
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            if self._exc is None:
                self._exc = exc
            self._aborting = True
            self._main_event.set()
            return
        self.park(ctx, OpKind.FINISH)

    def _teardown(self) -> None:
        """Unblock any still-parked threads so they can unwind, then cut
        the references back to the spent engine (contexts, handler) so
        the finished run is freed by reference counting."""
        self._aborting = True
        for ctx in self.procs:
            ctx._event.set()
        for ctx in self.procs:
            if ctx._thread is not None:
                ctx._thread.join(timeout=5.0)
            del ctx.engine
        self._handler = None
        self._aborting = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, ts: float, entry: object) -> None:
        # No lock: the heap is only ever touched by the single runnable
        # thread (or by ``run`` while every processor is still blocked).
        self._seq += 1
        heapq.heappush(self._heap, (ts, self._seq, entry))

    @property
    def max_clock_us(self) -> float:
        """The largest processor clock: the simulated wall-clock time of
        the run once all processors have finished."""
        return max(ctx.clock.now for ctx in self.procs)
