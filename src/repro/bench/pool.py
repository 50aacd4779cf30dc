"""Parallel execution of independent sweep cells.

Every paper experiment reduces to a set of independent (application,
dataset, configuration) cells, so the sweep is embarrassingly parallel:
``run_cells`` deduplicates the requested cells, satisfies what it can
from the in-memory/on-disk caches, fans the misses out over a
``multiprocessing`` pool, and feeds the results back through
:meth:`ResultCache.put` so the experiment renderers afterwards hit the
cache for every cell.

Determinism: each cell seeds the process-global RNGs from a hash of its
own identity (see :func:`repro.bench.cache.cell_seed`, applied inside
``run_case``), and the applications use fixed-seed local generators, so
a cell's result is bit-identical whether it runs in the parent process,
a pool worker, or any order relative to other cells.  Workers ship
results back as JSON dicts (the same lossless encoding the disk cache
uses), so ``--jobs N`` output is counter-for-counter identical to a
serial run -- asserted by ``tests/bench/test_pool.py`` and the CI
bench-smoke job.

Workers are spawned (not forked): the simulator parks processor
contexts on threads, and spawn keeps workers free of any inherited
thread state.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.cache import cell_key
from repro.bench.harness import CaseResult, ResultCache, config_for, run_case
from repro.faults.channel import DroppedMessageError


@dataclass(frozen=True)
class SweepCell:
    """One (application, dataset, configuration) cell of a sweep.

    ``extra`` holds the keyword overrides beyond the unit label, as a
    sorted item tuple so cells are hashable and picklable.
    """

    app: str
    dataset: str
    label: str
    extra: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, app: str, dataset: str, label: str, **extra: Any) -> "SweepCell":
        return cls(app, dataset, label, tuple(sorted(extra.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.extra)

    @functools.cached_property
    def key(self) -> str:
        """The content-addressed cell key, derived once per cell object
        (stored in the instance ``__dict__``, so it stays out of the
        frozen dataclass's fields, equality and hash)."""
        return cell_key(self.app, self.dataset, config_for(self.label, **self.kwargs))

    def __str__(self) -> str:
        extras = "".join(f" {k}={v}" for k, v in self.extra)
        return f"{self.app}/{self.dataset}@{self.label}{extras}"


def _run_cell_json(cell: SweepCell) -> Dict[str, Any]:
    """Pool worker: run one cell, return its lossless JSON encoding.

    A cell whose fault plan exhausts the retransmission budget (retries
    disabled, or a drop rate the retry cap cannot beat) fails alone: the
    worker ships an error marker instead of poisoning the whole sweep.
    """
    try:
        result = run_case(cell.app, cell.dataset, cell.label, **cell.kwargs)
    except DroppedMessageError as exc:
        return {"__failed__": str(exc)}
    return result.to_json_dict()


def dedupe_cells(cells: Sequence[SweepCell]) -> List[SweepCell]:
    """Drop cells whose resolved configuration duplicates an earlier one
    (first spelling wins), preserving order."""
    seen: Dict[str, SweepCell] = {}
    out: List[SweepCell] = []
    for cell in cells:
        if cell.key not in seen:
            seen[cell.key] = cell
            out.append(cell)
    return out


@dataclass
class SweepReport:
    """What ``run_cells`` did: cache economics and wall-clock attribution."""

    requested: int = 0
    deduped: int = 0
    cached: int = 0
    ran: int = 0
    jobs: int = 1
    cells_run: List[str] = field(default_factory=list)
    failed: List[Tuple[str, str]] = field(default_factory=list)
    """``(cell, error)`` for cells that raised
    :class:`repro.faults.channel.DroppedMessageError`; their results are
    absent from the cache, everything else completed normally."""

    def summary(self) -> str:
        tail = f", {len(self.failed)} failed" if self.failed else ""
        return (
            f"{self.requested} cells requested, {self.deduped} unique: "
            f"{self.cached} from cache, {self.ran} run "
            f"({'serial' if self.jobs <= 1 else f'{self.jobs} jobs'}){tail}"
        )


def run_cells(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Ensure every cell is in :class:`ResultCache`, running misses with
    up to ``jobs`` worker processes.  Returns a :class:`SweepReport`.
    """
    report = SweepReport(requested=len(cells), jobs=max(1, jobs))
    unique = dedupe_cells(cells)
    report.deduped = len(unique)

    missing = [
        c for c in unique
        if not ResultCache.cached(c.app, c.dataset, c.label, **c.kwargs)
    ]
    report.cached = len(unique) - len(missing)
    report.ran = len(missing)
    report.cells_run = [str(c) for c in missing]

    if not missing:
        return report

    if report.jobs <= 1 or len(missing) == 1:
        for cell in missing:
            if progress:
                progress(f"run  {cell}")
            try:
                ResultCache.get(cell.app, cell.dataset, cell.label, **cell.kwargs)
            except DroppedMessageError as exc:
                report.failed.append((str(cell), str(exc)))
                if progress:
                    progress(f"FAIL {cell}: {exc}")
        return report

    ctx = multiprocessing.get_context("spawn")
    nworkers = min(report.jobs, len(missing))
    if progress:
        progress(f"fan-out: {len(missing)} cells over {nworkers} workers")
    with ctx.Pool(processes=nworkers) as pool:
        for cell, data in zip(
            missing, pool.map(_run_cell_json, missing), strict=True
        ):
            if "__failed__" in data:
                report.failed.append((str(cell), data["__failed__"]))
                if progress:
                    progress(f"FAIL {cell}: {data['__failed__']}")
                continue
            result = CaseResult.from_json_dict(data)
            ResultCache.put(cell.app, cell.dataset, cell.label, result,
                            **cell.kwargs)
            if progress:
                progress(f"done {cell}")
    return report
