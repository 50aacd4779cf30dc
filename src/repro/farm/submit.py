"""Enqueue existing sweeps as farm cells.

The sweeps are the entries of :mod:`repro.bench.experiments` that have
cells -- the same enumerators the bench CLI prewarms with, so the farm
computes exactly the cells the renderers will later consume (same keys,
same seeds, same bytes).  Besides the paper experiments (``table1``,
``figure1``, ``figure2``, ``figure3``, ``ablation``) and the protocol
sweep (``protocols``) that includes ``golden``, the golden-gate matrix
(all apps, smallest datasets, 4K/8K/16K/Dyn), and ``chaos``, the
fault-lab chaos sweep (default plans, seeds ``0..2``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bench.experiments import cells_of, with_cells
from repro.bench.pool import SweepCell
from repro.sim.config import DEFAULT_PROTOCOL


def sweep_names() -> List[str]:
    return sorted(with_cells())


def sweep_cells(
    names: Sequence[str],
    apps: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
) -> List[SweepCell]:
    """All cells of the named sweeps, in submit order.

    ``apps`` / ``protocols`` filter the enumerated cells (an app filter
    keeps smoke submissions cheap; a protocol filter narrows the zoo
    sweeps).  Filtering happens after enumeration so every sweep -- not
    just the golden matrix -- honors them.
    """
    for name in names:
        if name not in with_cells():
            raise KeyError(
                f"unknown sweep {name!r}; have {', '.join(sweep_names())}"
            )
    cells = cells_of(names)
    if apps is not None:
        allowed = set(apps)
        cells = [c for c in cells if c.app in allowed]
    if protocols is not None:
        wanted = set(protocols)
        cells = [
            c for c in cells
            if str(c.kwargs.get("protocol", DEFAULT_PROTOCOL)) in wanted
        ]
    return cells
