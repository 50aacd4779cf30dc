"""Shared experiment-harness machinery.

Every paper experiment is a matrix of (application, dataset) x
(consistency configuration).  ``run_case`` executes one cell and distills
a :class:`CaseResult`; :class:`ResultCache` memoizes cells -- in memory
always, and through the on-disk :class:`repro.bench.cache.DiskCache` when
one is attached -- so the benchmark suite never runs the same simulation
twice; the render helpers produce the paper-shaped ASCII tables.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass, fields
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.apps.base import get_app, run_app
from repro.bench.cache import DiskCache, cell_key, cell_seed
from repro.sim.config import SimConfig
from repro.stats.report import RunResult
from repro.stats.signature import normalized_from_json, normalized_to_json

#: Consistency configurations in paper order.
UNIT_LABELS = ("4K", "8K", "16K", "Dyn")


def config_for(label: str, nprocs: int = 8, **extra: Any) -> SimConfig:
    """The SimConfig for one of the paper's unit labels (or 'seq').

    ``extra`` overrides win over the label's own defaults, so a spelling
    like ``config_for("4K", unit_pages=1)`` is legal (and resolves to the
    same config -- and hence the same cache cell -- as ``config_for("4K")``).
    """
    kwargs: Dict[str, Any]
    if label == "seq":
        kwargs = dict(nprocs=1)
    elif label == "Dyn":
        kwargs = dict(nprocs=nprocs, dynamic=True)
    else:
        pages = {"4K": 1, "8K": 2, "16K": 4}[label]
        kwargs = dict(nprocs=nprocs, unit_pages=pages)
    kwargs.update(extra)
    return SimConfig(**kwargs)


@dataclass
class CaseResult:
    """The distilled measurements of one matrix cell."""

    app: str
    dataset: str
    label: str
    time_us: float
    useful_messages: int
    useless_messages: int
    sync_messages: int
    useful_bytes: int
    useless_bytes: int
    piggybacked_useless_bytes: int
    sync_bytes: int
    signature: Dict[int, Tuple[float, float]]
    checksum: Optional[float]
    faults: int
    monitoring_faults: int

    # Fault-lab measurements (repro.faults); all zero under the default
    # reliable network, and the only counters besides time_us allowed to
    # differ from the fault-free baseline under an injected fault plan.
    fault_messages: int = 0
    fault_bytes: int = 0
    retransmissions: int = 0
    duplicate_deliveries: int = 0
    timeout_stalls: int = 0

    protocol: str = "tm-lrc"
    """Consistency protocol of the run (``SimConfig.protocol``).
    Defaulted so cache entries and baselines written before the protocol
    zoo existed still round-trip through :meth:`from_json_dict`."""

    @property
    def total_messages(self) -> int:
        return (
            self.useful_messages
            + self.useless_messages
            + self.sync_messages
            + self.fault_messages
        )

    @property
    def total_bytes(self) -> int:
        return (
            self.useful_bytes
            + self.useless_bytes
            + self.sync_bytes
            + self.fault_bytes
        )

    @classmethod
    def from_run(cls, res: RunResult) -> "CaseResult":
        c = res.comm
        return cls(
            app=res.app_name,
            dataset=res.dataset,
            label=res.unit_label if res.config.nprocs > 1 else "seq",
            time_us=res.time_us,
            useful_messages=c.useful_messages,
            useless_messages=c.useless_messages,
            sync_messages=c.sync_messages,
            useful_bytes=c.useful_bytes,
            useless_bytes=c.useless_bytes,
            piggybacked_useless_bytes=c.piggybacked_useless_bytes,
            sync_bytes=c.sync_bytes,
            signature=res.signature.normalized(),
            checksum=res.checksum,
            faults=res.stats.faults,
            monitoring_faults=res.stats.monitoring_faults,
            fault_messages=c.fault_messages,
            fault_bytes=c.fault_bytes,
            retransmissions=res.stats.retransmissions,
            duplicate_deliveries=res.stats.duplicate_deliveries,
            timeout_stalls=res.stats.timeout_stalls,
            protocol=res.config.protocol,
        )

    # ------------------------------------------------------------------
    # Lossless JSON round-trip (disk cache, pool workers, baselines).
    # Floats survive exactly: json uses repr, the shortest round-tripping
    # decimal form.
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        # Shallow: every field but the signature is a scalar, and the
        # signature is re-encoded here anyway (no asdict deep copy).
        data = {name: getattr(self, name) for name in _CASE_FIELDS}
        data["signature"] = normalized_to_json(self.signature)
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "CaseResult":
        data = dict(data)
        data["signature"] = normalized_from_json(data["signature"])
        return cls(**data)


#: CaseResult field names in declaration order (the JSON key order).
_CASE_FIELDS = tuple(f.name for f in fields(CaseResult))

#: How a renderer reads one cell: ``get(app, dataset, label, **extra)``.
Lookup = Callable[..., CaseResult]


def run_case(app_name: str, dataset: str, label: str, **extra: Any) -> CaseResult:
    """Run one (application, dataset, configuration) cell.

    Before the run, the process-global RNGs are seeded from a hash of the
    cell identity (:func:`repro.bench.cache.cell_seed`).  The applications
    construct their own fixed-seed generators, so this is belt and braces:
    it guarantees that even stray global-RNG usage yields bit-identical
    results whether the cell runs serially or in a pool worker, in any
    order relative to other cells.
    """
    app = get_app(app_name)
    config = config_for(label, **extra)
    seed = cell_seed(app_name, dataset, config)
    # Deliberate: pinning the *global* RNGs to the per-cell seed is the
    # belt-and-braces determinism measure described above.
    np.random.seed(seed)  # detlint: ok(global-random)
    random.seed(seed)  # detlint: ok(global-random)
    res = run_app(app, dataset, config)
    return CaseResult.from_run(res)


class ResultCache:
    """Process-wide memo of matrix cells (simulations are deterministic,
    so caching is sound), optionally backed by an on-disk cache.

    Keys are the resolved-config cell keys of :mod:`repro.bench.cache`:
    ``get()`` resolves ``(label, **extra)`` to a full :class:`SimConfig`
    first, so two calls that differ in any ``**extra`` override can never
    alias one entry, and two spellings of the same configuration (e.g.
    ``get(.., "4K")`` and ``get(.., "4K", unit_pages=1)``) share one.
    """

    _cells: Dict[str, CaseResult] = {}
    _disk: Optional[DiskCache] = None

    @classmethod
    def configure(cls, disk: Optional[DiskCache]) -> None:
        """Attach (or detach, with None) the on-disk cache layer."""
        cls._disk = disk

    @classmethod
    def disk(cls) -> Optional[DiskCache]:
        return cls._disk

    @classmethod
    def get(
        cls, app_name: str, dataset: str, label: str, **extra: Any
    ) -> CaseResult:
        config = config_for(label, **extra)
        key = cell_key(app_name, dataset, config)
        if key in cls._cells:
            return cls._cells[key]
        result = None
        if cls._disk is not None:
            result = cls._disk.load(app_name, dataset, label, config, key)
        if result is None:
            result = run_case(app_name, dataset, label, **extra)
            if cls._disk is not None:
                cls._disk.store(app_name, dataset, label, config, result)
        cls._cells[key] = result
        return result

    @classmethod
    def put(cls, app_name: str, dataset: str, label: str,
            result: CaseResult, **extra: Any) -> None:
        """Install an externally-computed cell (pool workers feed results
        back through this), writing through to the disk layer."""
        config = config_for(label, **extra)
        key = cell_key(app_name, dataset, config)
        cls._cells[key] = result
        if cls._disk is not None:
            cls._disk.store(app_name, dataset, label, config, result)

    @classmethod
    def cached(
        cls, app_name: str, dataset: str, label: str, **extra: Any
    ) -> bool:
        """True when the cell is already in memory or on disk (a disk
        probe loads the entry into memory as a side effect)."""
        config = config_for(label, **extra)
        key = cell_key(app_name, dataset, config)
        if key in cls._cells:
            return True
        if cls._disk is not None:
            result = cls._disk.load(app_name, dataset, label, config, key)
            if result is not None:
                cls._cells[key] = result
                return True
        return False

    @classmethod
    def clear(cls) -> None:
        cls._cells.clear()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = 24) -> str:
    n = max(0, min(width * 3, int(round(fraction * width))))
    return "#" * n


def render_breakdown_table(
    app_name: str,
    dataset: str,
    cells: Dict[str, CaseResult],
) -> str:
    """The paper's Figure-1/2 panel for one application/dataset as text:
    execution time, messages, and data, normalized to the 4 KB cell, with
    the useful (#) / useless (.) / piggybacked (~) breakdown."""
    base = cells["4K"]
    lines = [f"--- {app_name} {dataset} (normalized to 4K) ---"]
    lines.append(f"{'':>5} {'time':>6} | {'messages':>9} (useful+useless+sync) | "
                 f"{'data KB':>8} (useful+piggy+useless)")
    for label in UNIT_LABELS:
        if label not in cells:
            continue
        c = cells[label]
        t = c.time_us / base.time_us
        m = c.total_messages / max(base.total_messages, 1)
        d = c.total_bytes / max(base.total_bytes, 1)
        lines.append(
            f"{label:>5} {t:6.2f} | {m:9.2f}  "
            f"{c.useful_messages:6d}+{c.useless_messages:<6d}+{c.sync_messages:<5d} | "
            f"{d:8.2f}  "
            f"{c.useful_bytes // 1024:5d}+{c.piggybacked_useless_bytes // 1024:<5d}"
            f"+{(c.useless_bytes - c.piggybacked_useless_bytes) // 1024:<5d}"
        )
    return "\n".join(lines)


def render_signature(
    cells: Dict[str, CaseResult], labels: Sequence[str] = ("4K", "16K")
) -> str:
    """Figure-3 panel: the false-sharing signature histogram as text."""
    lines: List[str] = []
    for label in labels:
        c = cells[label]
        lines.append(f"  [{label}] mean writers = "
                     f"{sum(k * sum(v) for k, v in c.signature.items()):.2f}")
        for writers in sorted(c.signature):
            useful, useless = c.signature[writers]
            lines.append(
                f"    {writers}: {_bar(useful)}{'.' * len(_bar(useless))} "
                f"({useful:.2f} useful, {useless:.2f} useless)"
            )
    return "\n".join(lines)


def write_csv(
    path: Union[str, pathlib.Path], rows: Iterable[Dict[str, Any]]
) -> None:
    """Write experiment rows as CSV (header from the first row)."""
    materialized = list(rows)
    if not materialized:
        return
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(materialized[0].keys()))
        writer.writeheader()
        writer.writerows(materialized)
