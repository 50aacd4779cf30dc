"""The chaos-sweep invariant gate.

The fault lab's central claim is *transparency*: under any fault plan
with retries enabled, a run's protocol outcome is bit-identical to the
fault-free run -- the checksum and every useful-data counter match the
committed golden baseline exactly; only simulated time (which absorbs
the shadowed stalls) and the fault-cost counters may grow.  This module
enforces that claim: :func:`run_chaos` fans N reseeded copies of a plan
across the golden matrix (every application on its smallest paper
dataset) through the bench pool and diffs each cell against
``benchmarks/golden/``.

Field taxonomy:

* :data:`FAULT_FIELDS` -- fault-cost counters, zero in the baselines,
  expected (not required) to be nonzero under an active plan;
* :data:`INVARIANT_FIELDS` -- everything else in ``GOLDEN_FIELDS``
  except ``time_us``: must equal the baseline bit-for-bit;
* ``time_us`` -- must be >= the baseline (shadow overhead is never
  negative).

A plan that drops messages must additionally produce at least one
retransmission *per application* across the sweep, so the gate cannot
silently pass because injection was wired out.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.golden import (
    GOLDEN_DIR,
    GOLDEN_FIELDS,
    GOLDEN_LABELS,
    SMALL_DATASETS,
    load_app_golden,
)
from repro.bench.harness import CaseResult, ResultCache
from repro.bench.pool import SweepCell, run_cells
from repro.faults.plan import FaultPlan, parse_plan

#: Counters the fault lab is allowed to grow from zero.
FAULT_FIELDS = (
    "fault_messages",
    "fault_bytes",
    "retransmissions",
    "duplicate_deliveries",
    "timeout_stalls",
)

#: Counters that must match the fault-free baseline exactly.
INVARIANT_FIELDS = tuple(
    f for f in GOLDEN_FIELDS if f != "time_us" and f not in FAULT_FIELDS
)


def render_single(base: CaseResult, faulty: CaseResult) -> str:
    """Side-by-side fault-free vs faulty report of one cell."""
    lines = [
        f"--- {faulty.app}/{faulty.dataset}@{faulty.label} ---",
        f"{'counter':28} {'fault-free':>14} {'faulty':>14}",
    ]
    fields = ("time_us",) + INVARIANT_FIELDS + FAULT_FIELDS
    for f in fields:
        b, x = getattr(base, f), getattr(faulty, f)
        if b == x:
            mark = ""
        elif f == "time_us":
            mark = "  +shadow"
        elif f in FAULT_FIELDS:
            mark = "  +fault"
        else:
            mark = "  **"
        bs = f"{b:.1f}" if isinstance(b, float) else str(b)
        xs = f"{x:.1f}" if isinstance(x, float) else str(x)
        lines.append(f"{f:28} {bs:>14} {xs:>14}{mark}")
    return "\n".join(lines)

def default_plan(seed: int = 0) -> FaultPlan:
    """The sweep's stock plan: a modestly lossy, jittery network."""
    return FaultPlan.uniform(
        seed=seed,
        drop_rate=0.02,
        dup_rate=0.01,
        reorder_rate=0.02,
        jitter_us=50.0,
    )


@dataclass
class CellVerdict:
    """One chaos cell judged against its golden baseline."""

    cell: str
    seed: int
    error: str = ""
    diffs: List[Tuple[str, object, object]] = field(default_factory=list)
    """``(field, golden, actual)`` for every invariant violation."""

    time_us: float = 0.0
    golden_time_us: float = 0.0
    retransmissions: int = 0
    duplicate_deliveries: int = 0
    timeout_stalls: int = 0
    fault_messages: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.error
            and not self.diffs
            and self.time_us >= self.golden_time_us
        )

    def render(self) -> str:
        if self.error:
            return f"  {self.cell} [seed {self.seed}]: {self.error}"
        lines = []
        for fname, golden, actual in self.diffs:
            lines.append(
                f"  {self.cell} [seed {self.seed}]: {fname}: "
                f"golden {golden!r}, got {actual!r}"
            )
        if self.time_us < self.golden_time_us:
            lines.append(
                f"  {self.cell} [seed {self.seed}]: time_us shrank: "
                f"golden {self.golden_time_us!r}, got {self.time_us!r}"
            )
        return "\n".join(lines)


@dataclass
class ChaosReport:
    """Outcome of one chaos sweep."""

    plan: FaultPlan
    seeds: List[int] = field(default_factory=list)
    verdicts: List[CellVerdict] = field(default_factory=list)
    app_retransmissions: Dict[str, int] = field(default_factory=dict)
    sweep_summary: str = ""

    @property
    def quiet_apps(self) -> List[str]:
        """Applications that saw zero retransmissions under a plan that
        drops messages -- evidence the injector was not in the path."""
        if not self.plan.drops_messages:
            return []
        return sorted(
            app for app, n in self.app_retransmissions.items() if n == 0
        )

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts) and not self.quiet_apps

    @property
    def totals(self) -> Dict[str, int]:
        out = dict.fromkeys(
            ("retransmissions", "duplicate_deliveries", "timeout_stalls",
             "fault_messages"), 0,
        )
        for v in self.verdicts:
            for k in out:
                out[k] += getattr(v, k)
        return out

    def render(self) -> str:
        t = self.totals
        head = (
            f"chaos sweep: {len(self.verdicts)} cells x seeds {self.seeds} "
            f"({self.sweep_summary})"
        )
        cost = (
            f"fault cost: {t['retransmissions']} retransmissions, "
            f"{t['duplicate_deliveries']} duplicate deliveries, "
            f"{t['timeout_stalls']} timeout stalls, "
            f"{t['fault_messages']} injected messages"
        )
        if self.ok:
            return (
                f"{head}\n{cost}\n"
                "chaos gate OK: checksums and useful-data counters are "
                "bit-identical to the fault-free baselines"
            )
        bad = [v for v in self.verdicts if not v.ok]
        lines = [head, cost,
                 f"chaos gate FAILED: {len(bad)} cell(s) violate the "
                 "fault-transparency invariant"]
        lines.extend(v.render() for v in bad)
        for app in self.quiet_apps:
            lines.append(
                f"  {app}: zero retransmissions under a dropping plan "
                "(fault injection not reaching this application?)"
            )
        return "\n".join(lines)


def chaos_cells(
    plans: Sequence[FaultPlan],
    apps: Optional[Sequence[str]] = None,
    labels: Sequence[str] = ("4K",),
) -> List[SweepCell]:
    """The sweep cells: every (app, label, plan) on the golden matrix."""
    names = sorted(SMALL_DATASETS) if apps is None else list(apps)
    for name in names:
        if name not in SMALL_DATASETS:
            raise KeyError(
                f"unknown application {name!r}; have {sorted(SMALL_DATASETS)}"
            )
    for label in labels:
        if label not in GOLDEN_LABELS:
            raise KeyError(f"unknown label {label!r}; have {GOLDEN_LABELS}")
    return [
        SweepCell.make(app, SMALL_DATASETS[app], label,
                       fault_plan=plan.canonical())
        for app in names
        for label in labels
        for plan in plans
    ]


def run_chaos(
    seeds: int = 5,
    base_seed: int = 0,
    plan: Optional[FaultPlan] = None,
    apps: Optional[Sequence[str]] = None,
    labels: Sequence[str] = ("4K",),
    jobs: int = 1,
    golden_dir: pathlib.Path = GOLDEN_DIR,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the chaos sweep and judge every cell against the baselines.

    ``plan`` is reseeded per sweep index (``base_seed + i``), so one
    invocation exercises ``seeds`` independent fault schedules."""
    base = default_plan() if plan is None else plan
    plans = [base.replace(seed=base_seed + i) for i in range(seeds)]
    report = ChaosReport(plan=base, seeds=[p.seed for p in plans])

    cells = chaos_cells(plans, apps=apps, labels=labels)
    sweep = run_cells(cells, jobs=jobs, progress=progress)
    report.sweep_summary = sweep.summary()
    failed = dict(sweep.failed)

    golden_dir = pathlib.Path(golden_dir)
    goldens: Dict[str, Optional[Dict[str, Any]]] = {}
    names = sorted(SMALL_DATASETS) if apps is None else list(apps)
    for app in names:
        goldens[app] = load_app_golden(golden_dir, app)
        report.app_retransmissions.setdefault(app, 0)

    for cell in cells:
        plan_seed = parse_plan(dict(cell.extra)["fault_plan"]).seed
        verdict = CellVerdict(cell=str(cell), seed=plan_seed)
        report.verdicts.append(verdict)
        if str(cell) in failed:
            verdict.error = f"run failed: {failed[str(cell)]}"
            continue
        golden = (goldens.get(cell.app) or {}).get(cell.dataset, {}).get(
            cell.label
        )
        if golden is None:
            verdict.error = (
                "no committed golden baseline (run `python -m repro.bench "
                "--refresh-golden` and commit the result)"
            )
            continue
        case = ResultCache.get(cell.app, cell.dataset, cell.label,
                               **cell.kwargs)
        verdict.time_us = case.time_us
        verdict.golden_time_us = golden.get("time_us", 0.0)
        verdict.retransmissions = case.retransmissions
        verdict.duplicate_deliveries = case.duplicate_deliveries
        verdict.timeout_stalls = case.timeout_stalls
        verdict.fault_messages = case.fault_messages
        report.app_retransmissions[cell.app] += case.retransmissions
        for fname in INVARIANT_FIELDS:
            expected = golden.get(fname)
            actual = getattr(case, fname)
            if expected != actual:
                verdict.diffs.append((fname, expected, actual))
    return report
