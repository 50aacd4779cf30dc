"""The six workloads: which cells, and why those.

A simulation workload is a fixed list of ``(app, dataset, label,
overrides)`` cells; one *pass* runs every cell once through
``repro.bench.harness.run_case``.  Sizes come from a 2-core sandbox:
each pass is 1.7-3.7 s, so a 10 s run holds three to five of them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

Cell = Tuple[str, str, str, Dict[str, Any]]

ALL_LABELS = ("4K", "8K", "16K", "Dyn")


def _cells(app: str, dataset: str, labels: Tuple[str, ...],
           **extra: Any) -> List[Cell]:
    return [(app, dataset, label, dict(extra)) for label in labels]


#: Why each workload exists (``BENCHMARK.json`` repeats these lines).
WHY = {
    "app-compute":
        "Barnes 32K: application numpy physics dominates, engine ~1%; "
        "protocol and engine changes must show no change here",
    "protocol-fetch":
        "MGS 1Kx1K and ILINK: thousands of faults, so diff fetch, merge "
        "and aggregation groups dominate",
    "interval-kernels":
        "Shallow/Jacobi 512x512 and 3D-FFT: bulk access, interval close, "
        "notice apply and per-cell runtime construction dominate",
    "sync-handoff":
        "16 short cells with many parks and TSP lock traffic: OS-thread "
        "handoffs and dsm.sync dominate; the thread-free engine shows here",
    "alt-paths":
        "same layers used differently: access_mode=scalar word loops and "
        "the hlrc/erc/swi overrides; a bulk or tm-lrc gain that taxes "
        "them shows only here",
    "store-serve":
        "sqlite farm drain, warm golden check and a closed-loop 1-client "
        "HTTP mix: harness/cache/store/service do the work, simulation "
        "little",
}

SIM_WORKLOADS: Dict[str, List[Cell]] = {
    "app-compute": _cells("Barnes", "32K", ("4K", "Dyn")),
    "protocol-fetch": (
        _cells("MGS", "1Kx1K", ("4K", "16K", "Dyn"))
        + _cells("ILINK", "CLP", ("4K", "Dyn"))
    ),
    "interval-kernels": (
        _cells("Shallow", "512x512", ("4K", "Dyn"))
        + _cells("Jacobi", "512x512", ("4K", "Dyn"))
        + _cells("3D-FFT", "64x64x32", ALL_LABELS)
    ),
    "sync-handoff": (
        _cells("Jacobi", "1Kx1K", ALL_LABELS)
        + _cells("Shallow", "1Kx0.5K", ALL_LABELS)
        + _cells("TSP", "19-city", ALL_LABELS)
        + _cells("Water", "512", ALL_LABELS)
    ),
    "alt-paths": (
        _cells("Barnes", "16K", ("4K", "Dyn"), access_mode="scalar")
        + _cells("Water", "512", ("4K", "Dyn"), access_mode="scalar")
        + _cells("ILINK", "CLP", ("4K", "Dyn"), access_mode="scalar")
        + _cells("Jacobi", "1Kx1K", ("4K", "Dyn"), access_mode="scalar")
        + [
            (app, dataset, "4K", {"protocol": protocol})
            for protocol in ("hlrc", "erc", "swi")
            for app, dataset in (("ILINK", "CLP"), ("Water", "512"),
                                 ("MGS", "1Kx1K"))
        ]
    ),
}

STORE_WORKLOAD = "store-serve"

#: Fewest requests a ``store-serve`` pass may have: below it the 5 %
#: request kind gets none and has no latency to report.
MIN_REQUESTS = 20

WORKLOADS = (*SIM_WORKLOADS, STORE_WORKLOAD)

#: Workloads on which one extra pass runs with ``SimConfig.trace=True``
#: (the trace recorder forces the per-range reference loops, so the
#: bulk-heavy workloads would spend a whole run on it).
RECORDER_WORKLOADS = ("protocol-fetch", "sync-handoff")


def describe(cell: Cell) -> str:
    app, dataset, label, extra = cell
    tail = "".join(f" {k}={extra[k]}" for k in sorted(extra))
    return f"{app}/{dataset}@{label}{tail}"
