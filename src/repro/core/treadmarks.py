"""The TreadMarks runtime: wiring of substrate, protocol, and stats.

A :class:`TreadMarks` instance owns one simulated cluster and one shared
heap.  It is single-use: construct, allocate shared arrays, :meth:`run`
one application, and read the returned :class:`RunResult`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.proc import Proc
from repro.core.shared import (
    DTypeLike,
    LayoutPlan,
    ShapeLike,
    SharedArray,
    alloc_array,
)
from repro.dsm.address_space import Allocation, SharedHeapLayout
from repro.dsm.aggregation import make_aggregator
from repro.dsm.intervals import IntervalStore
from repro.dsm.lrc import LrcProc
from repro.dsm.sync import SyncManager
from repro.faults.inject import FaultInjector
from repro.faults.plan import parse_plan
from repro.protocols import get_protocol
from repro.sim.config import SimConfig
from repro.sim.engine import Engine, ProcContext
from repro.sim.network import Network
from repro.stats.counters import ProtocolStats
from repro.stats.report import RunResult, build_result
from repro.trace.recorder import TraceRecorder

if TYPE_CHECKING:
    from repro.core.validate import BulkAccessValidator


class TreadMarks:
    """One simulated DSM system: N processors over one shared heap."""

    def __init__(
        self,
        config: SimConfig,
        heap_bytes: int,
        app_name: str = "",
        dataset: str = "",
        layout_plan: Optional[LayoutPlan] = None,
    ) -> None:
        config.validate()
        if config.dynamic and config.unit_pages != 1:
            raise ValueError("dynamic aggregation requires unit_pages == 1")
        self.config = config
        self.app_name = app_name
        self.dataset = dataset
        self.layout_plan = layout_plan
        """Optional layout-advisor plan: arrays named in it allocate
        padded (see :class:`repro.core.shared.PadSpec`); callers must
        oversize ``heap_bytes`` by
        :func:`repro.core.shared.plan_slack_bytes`."""
        self.layout = SharedHeapLayout(
            heap_bytes, config.page_size, config.unit_bytes
        )
        self.engine = Engine(config)
        self.network = Network(config)
        self.store = IntervalStore(config.nprocs)
        self.stats = ProtocolStats()
        self.trace: Optional[TraceRecorder] = None
        if config.trace:
            self.trace = TraceRecorder(config)
            self.trace.layout = self.layout
            self.trace.network = self.network
            self.trace.app_name = app_name
            self.trace.dataset = dataset
            self.engine.trace = self.trace
            self.network.trace = self.trace
        self.faults: Optional[FaultInjector] = None
        if config.fault_plan:
            # Registered after the trace recorder (the trace property
            # keeps itself first in the observer list), so timelines show
            # each message before the faults injected into it.
            self.faults = FaultInjector(
                parse_plan(config.fault_plan),
                config,
                self.network,
                self.stats,
                trace=self.trace,
            )
            self.network.add_observer(self.faults)
        # The consistency protocol builds the per-processor engines (and
        # owns any cross-processor wiring: peer lists, directories); the
        # runtime attaches observers and aggregation strategies after.
        info = get_protocol(config.protocol)
        self.procs: List[LrcProc] = info.build(
            self.layout,
            config,
            self.store,
            self.network,
            self.stats,
            [self.engine.procs[pid].clock for pid in range(config.nprocs)],
            self.network.credit,
        )
        for lp in self.procs:
            lp.trace = self.trace
            lp.aggregator = make_aggregator(lp)
        self.sync = SyncManager(config, self.network, self.procs, self.stats)
        self.sync.trace = self.trace
        self.access_validator: Optional["BulkAccessValidator"] = None
        """Optional :class:`repro.core.validate.BulkAccessValidator`
        attached by :func:`repro.apps.base.run_app` when bulk-access
        validation is requested; consulted (observer-only) by the Proc
        bulk entry points."""
        self._ran = False

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def malloc(self, name: str, nbytes: int, page_align: bool = True) -> Allocation:
        """Allocate raw shared bytes (``Tmk_malloc``)."""
        return self.layout.malloc(name, nbytes, page_align=page_align)

    def array(
        self, name: str, shape: ShapeLike, dtype: DTypeLike = "float32",
        page_align: bool = True,
    ) -> SharedArray:
        """Allocate a typed shared array in the heap."""
        return alloc_array(
            self.layout, name, shape, dtype, page_align,
            plan=self.layout_plan,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, fn: Callable[[Proc], object]) -> RunResult:
        """Run ``fn(proc)`` on every simulated processor to completion
        and return the consolidated measurements.

        ``fn``'s return value on processor 0 is stored as the run's
        ``checksum`` (used by the coherence-invariance tests)."""
        if self._ran:
            raise RuntimeError("a TreadMarks instance runs exactly once")
        self._ran = True
        returns: List[object] = [None] * self.config.nprocs

        def make_body(pid: int) -> Callable[[ProcContext], None]:
            def body(ctx: ProcContext) -> None:
                proc = Proc(ctx, self.procs[pid], self)
                returns[pid] = fn(proc)

            return body

        fns = [make_body(pid) for pid in range(self.config.nprocs)]
        try:
            self.engine.run(fns, self.sync.service)
        finally:
            # Single use: cut the processors' back references so the
            # finished run holds no reference cycle and is freed as soon
            # as the caller drops it, not whenever the cyclic collector
            # next runs.
            for lp in self.procs:
                lp.detach()

        checksum = returns[0]
        proc_times = [ctx.clock.now for ctx in self.engine.procs]
        if self.faults is not None:
            # Fold the shadow fault overhead into the reported clocks.
            # The live simulation clocks never saw these delays, so the
            # schedule (and hence every protocol outcome) is the
            # fault-free one; only reported time grows.
            self.faults.finalize(proc_times)
            proc_times = [
                t + self.faults.overhead_us[pid]
                for pid, t in enumerate(proc_times)
            ]
        result = build_result(
            app_name=self.app_name,
            dataset=self.dataset,
            config=self.config,
            network=self.network,
            stats=self.stats,
            proc_times_us=proc_times,
            checksum=checksum if isinstance(checksum, (int, float)) else None,
            trace=self.trace,
        )
        if self.faults is not None:
            result.extra.update(self.faults.summary())
        return result
