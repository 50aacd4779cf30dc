"""The experiment registry: each named experiment's cells and renderer.

The bench CLI runs the entries with a renderer (prewarming their cells
first), ``python -m repro.farm submit`` accepts the entries with cells,
and the results service serves the entries with both.  ``micro`` has no
cells (it measures sync primitives in-process); ``golden`` and ``chaos``
have no renderer (the gates' matrices, computed by the farm).

A renderer takes one argument, ``get``, the lookup it reads each cell
through (``get(app, dataset, label, **extra) -> CaseResult``): the CLI
passes :meth:`ResultCache.get`, the service a lookup over the results it
fetched from its store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench import ablation, figures, golden, micro, protocol_sweep, table1
from repro.bench.harness import Lookup
from repro.bench.pool import SweepCell


@dataclass(frozen=True)
class Experiment:
    cells: Optional[Callable[[], List[SweepCell]]] = None
    render: Optional[Callable[[Lookup], str]] = None


def _ablation(get: Lookup) -> str:
    rows = (
        ablation.sweep_group_size("ILINK", "CLP", get)
        + ablation.sweep_group_size("MGS", "1Kx1K", get)
        + ablation.ablate_request_combining("ILINK", "CLP", get)
        + ablation.ablate_parallel_fetch("ILINK", "CLP", get)
    )
    return "Ablations\n" + ablation.render(rows)


def _chaos() -> List[SweepCell]:
    from repro.faults.gate import chaos_cells, default_plan

    return chaos_cells([default_plan(seed) for seed in range(3)])


#: Name -> cells and renderer.  The figure entries look up
#: ``figures.cells`` at call time, so tests can monkeypatch it.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        table1.cells,
        lambda get: table1.render_table1(table1.build_table1(get)),
    ),
    "figure1": Experiment(
        lambda: figures.cells("figure1"), lambda get: figures.figure1(get)[1]
    ),
    "figure2": Experiment(
        lambda: figures.cells("figure2"), lambda get: figures.figure2(get)[1]
    ),
    "figure3": Experiment(
        lambda: figures.cells("figure3"), lambda get: figures.figure3(get)[1]
    ),
    "micro": Experiment(render=lambda get: micro.render(micro.run_all())),
    "ablation": Experiment(ablation.cells, _ablation),
    "protocols": Experiment(
        protocol_sweep.cells,
        lambda get: protocol_sweep.render(protocol_sweep.sweep_rows(get)),
    ),
    "golden": Experiment(cells=golden.golden_cells),
    "chaos": Experiment(cells=_chaos),
}


def rendered() -> List[str]:
    """Entries with a renderer, in registry order."""
    return [n for n, e in EXPERIMENTS.items() if e.render is not None]


def with_cells() -> List[str]:
    """Entries with cells, in registry order."""
    return [n for n, e in EXPERIMENTS.items() if e.cells is not None]


def served() -> List[str]:
    """Entries with both, in registry order."""
    return [n for n in rendered() if EXPERIMENTS[n].cells is not None]


def cells_of(names: Sequence[str]) -> List[SweepCell]:
    """Every cell the named experiments consume, in order."""
    out: List[SweepCell] = []
    for name in names:
        enumerate_cells = EXPERIMENTS[name].cells
        if enumerate_cells is not None:
            out.extend(enumerate_cells())
    return out
