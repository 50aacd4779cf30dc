"""Timing loops, sample summaries and the golden check shared by the
workload runners."""

from __future__ import annotations

import pathlib
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf._clock import now_ns
from benchmarks.perf.workloads import Cell, describe


def elapsed_s(t0_ns: int) -> float:
    return (now_ns() - t0_ns) / 1e9


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``(seconds, result)`` of one call."""
    t0 = now_ns()
    result = fn()
    return elapsed_s(t0), result


def repeat(
    fn: Callable[[], float], budget_s: float, count: Optional[int] = None
) -> List[float]:
    """Call ``fn`` (which returns the seconds it measured) ``count``
    times, or until another call would overshoot ``budget_s`` by more
    than it undershoots -- at least once either way."""
    t0 = now_ns()
    samples = [fn()]
    while (
        len(samples) < count
        if count is not None
        else elapsed_s(t0) + statistics.median(samples) / 2 < budget_s
    ):
        samples.append(fn())
    return samples


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median with min, quartiles, max and the sample count."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "min": ordered[0], "q1": q1, "median": statistics.median(ordered),
        "q3": q3, "max": ordered[-1], "n": len(ordered),
    }


@dataclass
class Checker:
    """Counts what was attempted and what failed, and says why."""

    golden_dir: pathlib.Path
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    compare_ns: List[int] = field(default_factory=list)
    """Host time of each ``compare_case`` call (``bench.golden``)."""
    _goldens: Dict[Tuple[str, str], Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def problem(self, message: str) -> None:
        """A failed check that is not one cell or request (purity,
        leftover wrappers): makes the run incorrect without touching
        the failed/attempted ratio."""
        self.problems.append(message)

    def crashed(self, cell: Cell) -> None:
        self.attempted += 1
        self.fail(f"{describe(cell)}: {traceback.format_exc()}")

    def compare_us(self) -> float:
        """Median host time of one ``compare_case``; 0 if none ran."""
        if not self.compare_ns:
            return 0.0
        return statistics.median(self.compare_ns) / 1e3

    def _golden(self, cell: Cell) -> Optional[Dict[str, Any]]:
        from repro.bench.golden import load_app_golden
        from repro.sim.config import DEFAULT_PROTOCOL

        app, dataset, label, extra = cell
        protocol = extra.get("protocol", DEFAULT_PROTOCOL)
        if (app, protocol) not in self._goldens:
            self._goldens[app, protocol] = (
                load_app_golden(self.golden_dir, app, protocol) or {}
            )
        return self._goldens[app, protocol].get(dataset, {}).get(label)

    def cell(self, cell: Cell, case: Any) -> None:
        """Exact comparison of one finished cell with its committed
        golden: scalar cells against the same (bulk-generated) entry,
        zoo cells against their protocol's tree."""
        from repro.bench.golden import compare_case

        self.attempted += 1
        golden = self._golden(cell)
        if golden is None:
            self.fail(f"{describe(cell)}: no committed golden")
            return
        t0 = now_ns()
        mismatches = compare_case(describe(cell), case, golden)
        self.compare_ns.append(now_ns() - t0)
        if mismatches:
            self.fail("\n".join(m.render() for m in mismatches))
