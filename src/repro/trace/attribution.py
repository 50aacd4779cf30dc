"""Per-page false-sharing attribution.

The run-level useful/useless breakdown (:mod:`repro.stats.report`) says
*how much* traffic was wasted; this module says *where*.  It joins three
sources:

* ``diff_apply`` trace events, which record how many words each reply
  message installed into each hardware page,
* the network ledger, where each reply's useful word count resolved as
  the run consumed (or failed to consume) the shipped words,
* the heap layout, which maps pages back to allocation labels
  (``Tmk_malloc`` names).

A reply message can carry diffs for several pages and its usefulness
resolves per message, not per word-position, so a message's useless
words are attributed to its pages *proportionally* to the words it
installed in each -- exact when a message touches one page (the 4 KB
baseline), a documented approximation for combined fetches.

The ranking that falls out -- pages ordered by useless bytes received --
is the actionable artifact: the top entries are the falsely-shared
pages whose layout (or consistency-unit choice) is costing messages.

The same trace is also cut by time: :func:`barrier_epochs` is the one
rule that assigns an event to a barrier epoch, shared by
:func:`concurrent_write_pages` and the per-phase cost table
(:func:`phase_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.sim.network import DATA_CLASSES, Network
from repro.trace.events import TraceEvent
from repro.trace.recorder import TraceRecorder

if False:  # TYPE_CHECKING without the runtime import
    from repro.dsm.address_space import SharedHeapLayout


@dataclass
class PageAttribution:
    """Traffic attributed to one hardware page."""

    page: int
    allocation: str
    """Label of the allocation covering the page ('' for unallocated)."""

    words_received: int = 0
    useful_words: float = 0.0
    useless_words: float = 0.0
    useless_messages: float = 0.0
    """Useless data messages attributed here (fractional when a useless
    reply carried diffs for several pages)."""

    faults: int = 0
    """Data faults whose faulting unit covers this page."""

    @property
    def useless_bytes(self) -> float:
        return self.useless_words * 4

    @property
    def useful_bytes(self) -> float:
        return self.useful_words * 4


def attribute_pages(
    trace: TraceRecorder,
    network: Optional[Network] = None,
    layout: Optional["SharedHeapLayout"] = None,
) -> List[PageAttribution]:
    """Build the per-page attribution, ranked by useless bytes
    (descending), then by page number."""
    network = network if network is not None else trace.network
    layout = layout if layout is not None else trace.layout
    if network is None:
        raise ValueError("attribution needs the run's network ledger")

    # words installed per (msg, page)
    msg_page_words: Dict[int, Dict[int, int]] = {}
    fault_pages: Dict[int, int] = {}
    pages_per_unit = trace.config.unit_pages

    for ev in trace.events:
        if ev.kind == "diff_apply":
            per_page = msg_page_words.setdefault(ev.msg_id, {})
            for page, nw in zip(ev.pages, ev.page_words, strict=True):
                per_page[page] = per_page.get(page, 0) + nw
        elif ev.kind == "fault" and not ev.monitoring:
            for unit in ev.units:
                for page in range(
                    unit * pages_per_unit, (unit + 1) * pages_per_unit
                ):
                    fault_pages[page] = fault_pages.get(page, 0) + 1

    rows: Dict[int, PageAttribution] = {}

    def row(page: int) -> PageAttribution:
        if page not in rows:
            label = ""
            if layout is not None:
                alloc = layout.allocation_containing(page * layout.page_size)
                if alloc is not None:
                    label = alloc.name
            rows[page] = PageAttribution(page=page, allocation=label)
        return rows[page]

    for msg in network.messages:
        if msg.klass not in DATA_CLASSES:
            continue
        per_page = msg_page_words.get(msg.msg_id)
        if not per_page:
            continue
        carried = sum(per_page.values())
        if carried <= 0:
            continue
        useless_frac = msg.words_useless / msg.words_carried if msg.words_carried else 0.0
        for page, nw in per_page.items():
            r = row(page)
            r.words_received += nw
            r.useless_words += nw * useless_frac
            r.useful_words += nw * (1.0 - useless_frac)
            if msg.is_useless:
                # Fractional by design: PageAttribution.useless_messages
                # apportions one message across its pages (module
                # docstring); it never feeds the golden counters.
                r.useless_messages += nw / carried  # detlint: ok(golden-float)

    for page, n in fault_pages.items():
        row(page).faults += n

    return sorted(
        rows.values(), key=lambda r: (-r.useless_words, r.page)
    )


def barrier_epochs(trace: TraceRecorder) -> Iterator[Tuple[int, TraceEvent]]:
    """Every event of the run with its processor's barrier epoch: the
    number of that processor's ``barrier_depart`` events so far, a
    depart counting towards the epoch it opens.

    The recorder's append order is a valid linearization, so each
    processor's events keep their program order and every event lands
    in exactly one epoch.  Epoch ``k`` of a processor runs from its
    ``k``-th barrier departure (the start of the run for ``k = 0``) to
    its next barrier arrival, or to the end of the run after the last
    barrier.
    """
    epoch = [0] * trace.config.nprocs
    for ev in trace.events:
        if ev.kind == "barrier_depart":
            epoch[ev.proc] += 1
        yield epoch[ev.proc], ev


def concurrent_write_pages(trace: TraceRecorder) -> List[int]:
    """Pages written by >= 2 distinct processors within one barrier
    epoch (:func:`barrier_epochs`), from the linearized access trace.

    This is the dynamic ground truth the static analyzer's predicted
    conflict pages are validated against
    (:mod:`repro.analyze.crosscheck`): lock-protected writes by
    different processors in the same epoch *do* count -- locks order
    the writes but do not separate the interval, which is exactly the
    write-write sharing the protocol pays for.
    """
    layout = trace.layout
    if layout is None:
        raise ValueError("concurrent_write_pages needs the run's layout")
    writers: Dict[Tuple[int, int], Set[int]] = {}
    for epoch, ev in barrier_epochs(trace):
        if ev.kind == "access" and ev.op == "write":
            for page in layout.pages_of_range(ev.word0, ev.nwords):
                writers.setdefault((epoch, page), set()).add(ev.proc)
    return sorted(
        {page for (_, page), procs in writers.items() if len(procs) >= 2}
    )


@dataclass
class PhaseRow:
    """Simulated cost of one barrier epoch (one paper 'phase'), summed
    over processors."""

    epoch: int
    busy_us: float = 0.0
    """Each processor's barrier arrival minus its previous departure
    (the start of the run for epoch 0); in the last epoch, the run's
    last event minus the final departure."""

    faults: int = 0
    diff_creates: int = 0
    messages: int = 0


def phase_rows(trace: TraceRecorder) -> List[PhaseRow]:
    """The per-barrier-epoch table: one row per epoch of
    :func:`barrier_epochs`, i.e. the most barrier departures any
    processor made, plus one.  Every counted event lands in exactly one
    row, so each count column sums to the run's event total."""
    rows = [PhaseRow(epoch=0)]
    departed = [0.0] * trace.config.nprocs  # wake time of the last depart
    for epoch, ev in barrier_epochs(trace):
        if epoch == len(rows):
            rows.append(PhaseRow(epoch=epoch))
        row = rows[epoch]
        if ev.kind == "barrier_arrive":
            row.busy_us += ev.ts_us - departed[ev.proc]
        elif ev.kind == "barrier_depart":
            departed[ev.proc] = ev.wake_ts_us
        elif ev.kind == "fault":
            row.faults += 1
        elif ev.kind == "diff_create":
            row.diff_creates += 1
        elif ev.kind == "message":
            row.messages += 1
    end = trace.events[-1].ts_us if trace.events else 0.0
    rows[-1].busy_us += sum(max(0.0, end - t) for t in departed)
    return rows


def render_phases(rows: Sequence[PhaseRow]) -> str:
    """ASCII per-barrier-epoch table."""
    lines = [
        "Per-phase simulated cost (barrier epochs)",
        f"{'epoch':>5} {'busy_ms':>10} {'faults':>7} {'diffs':>6} {'msgs':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r.epoch:5d} {r.busy_us / 1000.0:10.2f} "
            f"{r.faults:7d} {r.diff_creates:6d} {r.messages:7d}"
        )
    return "\n".join(lines)


def render_attribution(
    rows: Sequence[PageAttribution], top: int = 10
) -> str:
    """ASCII report of the top-``top`` pages by useless bytes."""
    lines = [
        f"False-sharing attribution (top {min(top, len(rows))} of "
        f"{len(rows)} pages by useless bytes)",
        f"{'page':>6} {'allocation':<16} {'useless msgs':>12} "
        f"{'useless KB':>11} {'useful KB':>10} {'faults':>7}",
    ]
    for r in rows[:top]:
        lines.append(
            f"{r.page:>6} {r.allocation[:16]:<16} {r.useless_messages:>12.1f} "
            f"{r.useless_bytes / 1024:>11.2f} {r.useful_bytes / 1024:>10.2f} "
            f"{r.faults:>7}"
        )
    if not rows:
        lines.append("  (no diff traffic recorded)")
    return "\n".join(lines)
