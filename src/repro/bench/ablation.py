"""Ablations of the design choices DESIGN.md calls out.

1. **Dynamic group size**: sweep ``max_group_pages`` in {1, 2, 4, 8, 16}
   on an aggregation-friendly workload (Ilink) and a hostile one (MGS).
   Group size 1 reduces the dynamic scheme to plain 4 KB pages, so the
   sweep isolates the grouping benefit and checks the hysteresis cost
   never makes things worse than no grouping.

2. **Request combining** (Section 4: "multiple requests addressed to the
   same processor are combined"): disable it and count the extra
   messages.

3. **Parallel diff fetch** (Section 3: "P3 can request both diffs in
   parallel"): serialize the per-writer exchanges and measure the added
   stall on a multi-writer workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.bench.harness import Lookup, ResultCache

if TYPE_CHECKING:  # pragma: no cover - only for the cells() annotation
    from repro.bench.pool import SweepCell


@dataclass
class AblationRow:
    name: str
    setting: str
    time_us: float
    total_messages: int


def cells() -> List[SweepCell]:
    """The sweep cells the default ablation set consumes; mirrors the
    ``ablation`` renderer of :mod:`repro.bench.experiments`."""
    from repro.bench.pool import SweepCell

    out: List[SweepCell] = []
    for app, ds in (("ILINK", "CLP"), ("MGS", "1Kx1K")):
        for maxg in (1, 2, 4, 8, 16):
            out.append(SweepCell.make(app, ds, "Dyn", max_group_pages=maxg))
    for combine in (True, False):
        out.append(SweepCell.make("ILINK", "CLP", "Dyn", combine_requests=combine))
    for parallel in (True, False):
        out.append(SweepCell.make("ILINK", "CLP", "16K", parallel_fetch=parallel))
    return out


def sweep_group_size(
    app: str = "ILINK", dataset: str = "CLP", get: Lookup = ResultCache.get
) -> List[AblationRow]:
    rows: List[AblationRow] = []
    for maxg in (1, 2, 4, 8, 16):
        c = get(app, dataset, "Dyn", max_group_pages=maxg)
        rows.append(
            AblationRow(
                name=f"dynamic group size ({app})",
                setting=f"max_group_pages={maxg}",
                time_us=c.time_us,
                total_messages=c.total_messages,
            )
        )
    return rows


def ablate_request_combining(
    app: str = "ILINK", dataset: str = "CLP", get: Lookup = ResultCache.get
) -> List[AblationRow]:
    rows: List[AblationRow] = []
    for combine in (True, False):
        c = get(app, dataset, "Dyn", combine_requests=combine)
        rows.append(
            AblationRow(
                name=f"request combining ({app})",
                setting=f"combine_requests={combine}",
                time_us=c.time_us,
                total_messages=c.total_messages,
            )
        )
    return rows


def ablate_parallel_fetch(
    app: str = "ILINK", dataset: str = "CLP", get: Lookup = ResultCache.get
) -> List[AblationRow]:
    rows: List[AblationRow] = []
    for parallel in (True, False):
        c = get(app, dataset, "16K", parallel_fetch=parallel)
        rows.append(
            AblationRow(
                name=f"parallel fetch ({app})",
                setting=f"parallel_fetch={parallel}",
                time_us=c.time_us,
                total_messages=c.total_messages,
            )
        )
    return rows


def render(rows: List[AblationRow]) -> str:
    lines: List[str] = []
    for r in rows:
        lines.append(
            f"  {r.name:<32} {r.setting:<24} time={r.time_us / 1e6:8.4f}s "
            f"msgs={r.total_messages}"
        )
    return "\n".join(lines)
