"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.bench.experiments` -- the experiment registry: each named
  experiment's cell enumerator and renderer, read by the bench CLI, the
  farm's ``submit`` and the results service.
* :mod:`repro.bench.harness` -- run matrix, caching, normalization, and
  ASCII rendering shared by all experiments.
* :mod:`repro.bench.table1` -- Table 1 (sequential times and 8-processor
  speedups at the 4 KB unit).
* :mod:`repro.bench.figures` -- Figures 1 and 2 (normalized execution
  time / messages / data with useful-useless-piggyback breakdowns) and
  Figure 3 (false-sharing signatures at 4 KB vs 16 KB).
* :mod:`repro.bench.micro` -- the Section 5.1 platform microbenchmarks.
* :mod:`repro.bench.ablation` -- ablations of the design choices called
  out in DESIGN.md (dynamic group size, request combining, parallel
  fetch).
* :mod:`repro.bench.cache` -- on-disk result cache keyed by (code
  version, app, dataset, config); any source change invalidates it.
  Its ``DiskCache`` is the one entry-directory implementation (the
  farm's local-dir store subclasses it).
* :mod:`repro.bench.pool` -- multiprocessing fan-out of independent
  sweep cells (``--jobs``), bit-identical to serial execution.
* :mod:`repro.bench.golden` -- the golden-baseline regression gate
  (``--check`` / ``--refresh-golden`` against ``benchmarks/golden/``).

Each module renders the paper-shaped table as text and returns the raw
numbers, reading every cell through a ``get`` lookup that defaults to
``ResultCache.get``; the ``benchmarks/`` pytest-benchmark suite drives
them and writes the outputs next to EXPERIMENTS.md.
"""

from repro.bench.cache import DiskCache
from repro.bench.harness import (
    UNIT_LABELS,
    CaseResult,
    ResultCache,
    run_case,
    render_breakdown_table,
)
from repro.bench.pool import SweepCell, run_cells

__all__ = [
    "UNIT_LABELS",
    "CaseResult",
    "DiskCache",
    "ResultCache",
    "SweepCell",
    "run_case",
    "run_cells",
    "render_breakdown_table",
]
