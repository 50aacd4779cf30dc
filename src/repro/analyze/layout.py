"""Static false-sharing layout advisor.

Third pillar of :mod:`repro.analyze`: given an application's declared
:class:`~repro.analyze.access.AccessPattern`, find the allocations whose
*layout* -- not their computation -- causes write-write false sharing or
useless diff data at the paper's 4 / 8 / 16 KB consistency units, and
propose concrete re-layouts as :class:`repro.core.shared.PadSpec` plans
that the runtime can actually apply (``run_app(..., layout_plan=...)``).

Detection
---------
Per unit size the advisor reuses the predictor's two conflict analyses:

* **write-write units** (:func:`repro.analyze.predict._conflict_pages`
  at unit granularity): units must-written by >= 2 processors inside one
  barrier epoch;
* **useless-fetch units** (:func:`repro.analyze.predict.useless_by_unit`):
  units whose diffs provably carry words the fetching processor never
  reads.

Remedies
--------
``pad-partition``
    When every processor's must-write footprint in an allocation is one
    contiguous element block and the blocks are disjoint (block-
    partitioned arrays like Barnes' ``bodies``), start each block on a
    unit boundary.  Removes every intra-allocation write-write unit.
``hot-cold-split``
    When an allocation's waste comes from units mixing *hot* words
    (written by one processor, read by another -- e.g. Jacobi's halo
    boundary rows) with *cold* private words, split each hot run into
    its own unit-aligned segment (snapped to whole rows for 2-D arrays)
    so diffs ship exactly the consumed words.
``per-proc-blocking``
    Advisory only (no :class:`~repro.core.shared.PadSpec`): write-write
    conflicts exist but processors' write footprints interleave, so no
    static padding helps -- the *iteration space*, not the layout, needs
    re-blocking.

Every concrete proposal is scored by *re-running the whole static
analysis under the plan* (``build_pattern(..., layout_plan=plan)``), so
the predicted deltas come from the same interval algebra as the
baseline numbers, and a proposal is only kept when it strictly improves
at least one conflict metric without regressing the other.

Crosscheck
----------
As with :mod:`repro.analyze.crosscheck`, predictions are validated
against real runs: for pinned (app, unit, allocation, remedy) cells the
advisor's plan is applied to a simulation and the *observed* conflict
pages / useless bytes must drop as predicted while the checksum stays
bit-identical (padding must never change results).  The observed
numbers live in a committed baseline
(``benchmarks/analyze/layout_crosscheck.json``); drift fails the gate
until re-recorded with ``--update``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyze.access import BuiltPattern, build_pattern
from repro.analyze.predict import (
    UNIT_SIZES,
    Interval,
    _conflict_pages,
    merge,
    subtract,
    useless_by_unit,
)
from repro.apps.base import get_app, run_app
from repro.bench.golden import SMALL_DATASETS
from repro.bench.harness import config_for
from repro.core.shared import LayoutPlan, PadSpec, SharedArray
from repro.dsm.diff import WORD

#: The committed observed-numbers baseline (repository root relative).
BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "analyze"
    / "layout_crosscheck.json"
)

#: Pinned crosscheck cells: (app, dataset, unit label, allocation,
#: remedy kind, observed metric that must strictly drop).
CROSSCHECK_CELLS: Tuple[Tuple[str, str, str, str, str, str], ...] = (
    ("Barnes", "16K", "4K", "bodies", "pad-partition", "ww-pages"),
    ("Jacobi", "1Kx1K", "8K", "grid", "hot-cold-split", "useless-bytes"),
)

_UNIT_BYTES = {"4K": 4096, "8K": 8192, "16K": 16384}


def _intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two merged interval sets."""
    return subtract(list(a), subtract(list(a), list(b)))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Remedy:
    """One layout proposal for one (allocation, unit size)."""

    kind: str
    """``pad-partition`` | ``hot-cold-split`` | ``per-proc-blocking``."""

    array: str
    unit_bytes: int

    segments: Tuple[Tuple[int, int], ...]
    """The proposed :class:`~repro.core.shared.PadSpec` segment tiling
    (empty for advisory-only remedies)."""

    note: str

    ww_units_before: int
    ww_units_after: int
    """Write-write conflicting units at this unit size, whole heap."""

    useless_words_before: int
    useless_words_after: int
    """Useless-data lower bound (words) at this unit size, whole heap."""

    useless_units_before: int
    useless_units_after: int
    """Units with a positive useless-word attribution."""

    @property
    def conflict_units_before(self) -> int:
        """Units involved in either conflict kind (the advisor's
        headline "conflict pages" metric)."""
        return self.ww_units_before + self.useless_units_before

    @property
    def conflict_units_after(self) -> int:
        return self.ww_units_after + self.useless_units_after

    @property
    def advisory(self) -> bool:
        return not self.segments

    def plan(self) -> LayoutPlan:
        """The remedy as an applicable layout plan."""
        if self.advisory:
            raise ValueError(f"{self.kind} remedy carries no PadSpec")
        return {
            self.array: PadSpec(self.array, self.unit_bytes, self.segments)
        }

    def render(self) -> str:
        head = (
            f"[{self.unit_bytes // 1024}K] {self.array}: {self.kind} "
            f"({len(self.segments)} segment(s))"
        )
        if self.advisory:
            return f"{head}\n    {self.note}"
        return (
            f"{head}\n"
            f"    conflict units {self.conflict_units_before} -> "
            f"{self.conflict_units_after} "
            f"(ww {self.ww_units_before} -> {self.ww_units_after}, "
            f"useless-carrying {self.useless_units_before} -> "
            f"{self.useless_units_after}); "
            f"useless data {self.useless_words_before * WORD / 1024:.1f} "
            f"-> {self.useless_words_after * WORD / 1024:.1f} KB\n"
            f"    {self.note}"
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "array": self.array,
            "unit_bytes": self.unit_bytes,
            "segments": [list(s) for s in self.segments],
            "note": self.note,
            "ww_units_before": self.ww_units_before,
            "ww_units_after": self.ww_units_after,
            "useless_words_before": self.useless_words_before,
            "useless_words_after": self.useless_words_after,
            "useless_units_before": self.useless_units_before,
            "useless_units_after": self.useless_units_after,
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "Remedy":
        return cls(
            kind=str(doc["kind"]),
            array=str(doc["array"]),
            unit_bytes=int(doc["unit_bytes"]),  # type: ignore[arg-type]
            segments=tuple(
                (int(s[0]), int(s[1]))
                for s in doc["segments"]  # type: ignore[union-attr]
            ),
            note=str(doc["note"]),
            ww_units_before=int(doc["ww_units_before"]),  # type: ignore[arg-type]
            ww_units_after=int(doc["ww_units_after"]),  # type: ignore[arg-type]
            useless_words_before=int(doc["useless_words_before"]),  # type: ignore[arg-type]
            useless_words_after=int(doc["useless_words_after"]),  # type: ignore[arg-type]
            useless_units_before=int(doc["useless_units_before"]),  # type: ignore[arg-type]
            useless_units_after=int(doc["useless_units_after"]),  # type: ignore[arg-type]
        )


@dataclass
class LayoutReport:
    """The advisor's full output for one (app, dataset, nprocs)."""

    app: str
    dataset: str
    nprocs: int

    baseline: Dict[int, Dict[str, int]] = field(default_factory=dict)
    """unit_bytes -> {"ww_units", "useless_words", "useless_units"}."""

    remedies: List[Remedy] = field(default_factory=list)

    def best(
        self, array: str, unit_bytes: int, kind: Optional[str] = None
    ) -> Optional[Remedy]:
        """The largest-conflict-reduction concrete remedy for one
        (allocation, unit size), optionally restricted to a kind."""
        cands = [
            r
            for r in self.remedies
            if r.array == array
            and r.unit_bytes == unit_bytes
            and not r.advisory
            and (kind is None or r.kind == kind)
        ]
        if not cands:
            return None
        return max(
            cands,
            key=lambda r: (
                r.conflict_units_before - r.conflict_units_after,
                r.useless_words_before - r.useless_words_after,
            ),
        )

    def render(self) -> str:
        lines = [f"{self.app} {self.dataset} on {self.nprocs} procs:"]
        for ub in sorted(self.baseline):
            b = self.baseline[ub]
            lines.append(
                f"[{ub // 1024}K] baseline: {b['ww_units']} ww unit(s), "
                f"{b['useless_units']} useless-carrying unit(s), "
                f"useless data >= {b['useless_words'] * WORD / 1024:.1f} KB"
            )
        if not self.remedies:
            lines.append("  no layout remedies (pattern is layout-clean)")
        for rem in self.remedies:
            lines.append("  " + rem.render().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "dataset": self.dataset,
            "nprocs": self.nprocs,
            "baseline": {
                str(ub): dict(stats)
                for ub, stats in sorted(self.baseline.items())
            },
            "remedies": [r.to_json_dict() for r in self.remedies],
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "LayoutReport":
        baseline_doc: Dict[str, Dict[str, int]] = doc["baseline"]  # type: ignore[assignment]
        return cls(
            app=str(doc["app"]),
            dataset=str(doc["dataset"]),
            nprocs=int(doc["nprocs"]),  # type: ignore[arg-type]
            baseline={
                int(ub): {k: int(v) for k, v in stats.items()}
                for ub, stats in baseline_doc.items()
            },
            remedies=[
                Remedy.from_json_dict(r)
                for r in doc["remedies"]  # type: ignore[union-attr]
            ],
        )


# ----------------------------------------------------------------------
# Per-allocation footprint extraction
# ----------------------------------------------------------------------
def _array_word_range(arr: SharedArray) -> Tuple[int, int]:
    wpe = arr.dtype.itemsize // WORD
    w0 = arr.word_offset(0)
    return w0, w0 + arr.size * wpe


def _footprints(
    built: BuiltPattern, w0: int, w1: int
) -> Tuple[Dict[int, List[Interval]], Dict[int, List[Interval]]]:
    """(per-proc merged must-write intervals, per-proc merged read
    intervals incl. ``may``) clipped to the allocation ``[w0, w1)``."""
    writes: Dict[int, List[Interval]] = {}
    reads: Dict[int, List[Interval]] = {}
    for ph in built.pattern.phases:
        for acc in ph.accesses:
            a, b = max(acc.word0, w0), min(acc.word1, w1)
            if b <= a:
                continue
            if acc.op == "write" and acc.must:
                writes.setdefault(acc.proc, []).append((a, b))
            elif acc.op == "read":
                reads.setdefault(acc.proc, []).append((a, b))
    return (
        {p: merge(iv) for p, iv in writes.items()},
        {p: merge(iv) for p, iv in reads.items()},
    )


def _boundaries_to_segments(
    bounds: Sequence[int], size: int
) -> Tuple[Tuple[int, int], ...]:
    cuts = sorted({b for b in bounds if 0 < b < size} | {0, size})
    return tuple(
        (cuts[i], cuts[i + 1] - cuts[i]) for i in range(len(cuts) - 1)
    )


def _pad_partition_segments(
    arr: SharedArray, writes: Dict[int, List[Interval]]
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Segment tiling that starts each processor's write block on a unit
    boundary, or ``None`` when the footprints are not block-shaped."""
    w0, _ = _array_word_range(arr)
    wpe = arr.dtype.itemsize // WORD
    blocks: List[Interval] = []
    for iv in writes.values():
        if len(iv) != 1:
            return None  # non-contiguous writer footprint
        blocks.append(iv[0])
    blocks.sort()
    bounds: List[int] = []
    prev_end = 0
    for a, b in blocks:
        if a < prev_end:
            return None  # overlapping writers: not a partition
        prev_end = b
        for w in (a, b):
            rel = w - w0
            if rel % wpe:
                return None  # block edge splits an element
            bounds.append(rel // wpe)
    segments = _boundaries_to_segments(bounds, arr.size)
    return segments if len(segments) > 1 else None


def _hot_cold_segments(
    arr: SharedArray,
    writes: Dict[int, List[Interval]],
    reads: Dict[int, List[Interval]],
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Segment tiling that isolates every hot run (written by one
    processor, read by another) into its own aligned segment, snapped to
    whole rows for 2-D arrays; ``None`` when there is nothing to split."""
    w0, _ = _array_word_range(arr)
    wpe = arr.dtype.itemsize // WORD
    row = arr.shape[-1] if len(arr.shape) >= 2 else 1
    bounds: List[int] = []
    hot_runs = 0
    for p, wiv in writes.items():
        others: List[Interval] = []
        for q, riv in reads.items():
            if q != p:
                others.extend(riv)
        for a, b in _intersect(wiv, merge(others)):
            es = (a - w0) // wpe // row * row
            ee = -(-(-(-(b - w0) // wpe)) // row) * row
            bounds.extend((max(es, 0), min(ee, arr.size)))
            hot_runs += 1
    if not hot_runs:
        return None
    segments = _boundaries_to_segments(bounds, arr.size)
    return segments if len(segments) > 1 else None


# ----------------------------------------------------------------------
# The advisor
# ----------------------------------------------------------------------
def _unit_stats(
    built: BuiltPattern, unit_bytes: int
) -> Tuple[List[int], Dict[int, int]]:
    wpu = unit_bytes // WORD
    return _conflict_pages(built, wpu), useless_by_unit(built, wpu)


def advise(
    app_name: str,
    dataset: Optional[str] = None,
    nprocs: int = 8,
    unit_sizes: Sequence[int] = UNIT_SIZES,
) -> LayoutReport:
    """Run the layout advisor for one (application, dataset, nprocs)."""
    app = get_app(app_name)
    dataset = dataset if dataset is not None else SMALL_DATASETS[app_name]
    built = build_pattern(app, dataset, nprocs)
    report = LayoutReport(app=app_name, dataset=dataset, nprocs=nprocs)

    arrays = {
        name: h
        for name, h in built.handles.items()
        if isinstance(h, SharedArray)
    }
    for ub in unit_sizes:
        wpu = ub // WORD
        ww_units, useless_units = _unit_stats(built, ub)
        report.baseline[ub] = {
            "ww_units": len(ww_units),
            "useless_words": sum(useless_units.values()),
            "useless_units": len(useless_units),
        }
        for name, arr in arrays.items():
            w0, w1 = _array_word_range(arr)
            u_lo, u_hi = w0 // wpu, (w1 - 1) // wpu
            alloc_ww = [u for u in ww_units if u_lo <= u <= u_hi]
            alloc_useless = sum(
                n for u, n in useless_units.items() if u_lo <= u <= u_hi
            )
            if not alloc_ww and not alloc_useless:
                continue
            writes, reads = _footprints(built, w0, w1)

            candidates: List[Tuple[str, Tuple[Tuple[int, int], ...], str]] = []
            if alloc_ww:
                seg = _pad_partition_segments(arr, writes)
                if seg is not None:
                    candidates.append(
                        (
                            "pad-partition",
                            seg,
                            f"start each of the {len(seg)} per-processor "
                            f"write blocks on a {ub // 1024} KB unit "
                            f"boundary",
                        )
                    )
                else:
                    report.remedies.append(
                        Remedy(
                            kind="per-proc-blocking",
                            array=name,
                            unit_bytes=ub,
                            segments=(),
                            note=(
                                f"{len(alloc_ww)} write-write unit(s) but "
                                f"processor write footprints interleave; "
                                f"no static padding helps -- re-block the "
                                f"iteration space so each processor "
                                f"writes a contiguous block"
                            ),
                            ww_units_before=len(ww_units),
                            ww_units_after=len(ww_units),
                            useless_words_before=sum(useless_units.values()),
                            useless_words_after=sum(useless_units.values()),
                            useless_units_before=len(useless_units),
                            useless_units_after=len(useless_units),
                        )
                    )
            if alloc_useless:
                seg = _hot_cold_segments(arr, writes, reads)
                if seg is not None:
                    candidates.append(
                        (
                            "hot-cold-split",
                            seg,
                            f"isolate cross-processor hot runs into their "
                            f"own {ub // 1024} KB-aligned segments so "
                            f"diffs carry only consumed words",
                        )
                    )

            for kind, segments, note in candidates:
                plan: LayoutPlan = {name: PadSpec(name, ub, segments)}
                padded = build_pattern(app, dataset, nprocs, layout_plan=plan)
                ww2, useless2 = _unit_stats(padded, ub)
                rem = Remedy(
                    kind=kind,
                    array=name,
                    unit_bytes=ub,
                    segments=segments,
                    note=note,
                    ww_units_before=len(ww_units),
                    ww_units_after=len(ww2),
                    useless_words_before=sum(useless_units.values()),
                    useless_words_after=sum(useless2.values()),
                    useless_units_before=len(useless_units),
                    useless_units_after=len(useless2),
                )
                improves = (
                    rem.ww_units_after < rem.ww_units_before
                    or rem.useless_words_after < rem.useless_words_before
                )
                regresses = (
                    rem.ww_units_after > rem.ww_units_before
                    or rem.useless_words_after > rem.useless_words_before
                )
                if improves and not regresses:
                    report.remedies.append(rem)
    return report


# ----------------------------------------------------------------------
# Traced crosscheck
# ----------------------------------------------------------------------
def _observed_alloc_ww_pages(result, array_name: str) -> int:
    """Dynamically multi-written 4 KB pages inside one allocation."""
    from repro.trace.attribution import concurrent_write_pages

    trace = result.trace
    assert trace is not None, "run was configured with trace=True"
    layout = trace.layout
    count = 0
    for page in concurrent_write_pages(trace):
        alloc = layout.allocation_containing(page * layout.page_size)
        if alloc is not None and alloc.name == array_name:
            count += 1
    return count


def crosscheck_cell(
    app_name: str,
    dataset: str,
    unit_label: str,
    array_name: str,
    kind: str,
    metric: str,
    nprocs: int = 8,
) -> Tuple[Dict[str, object], List[str]]:
    """Advise one cell, apply the winning plan to a real simulation, and
    compare observed against predicted.  Returns (record, failures)."""
    ub = _UNIT_BYTES[unit_label]
    report = advise(app_name, dataset, nprocs, unit_sizes=(ub,))
    remedy = report.best(array_name, ub, kind)
    failures: List[str] = []
    if remedy is None:
        return (
            {"error": f"no {kind} remedy proposed for {array_name}"},
            [f"advisor proposed no {kind} remedy for {array_name} @{unit_label}"],
        )
    if not remedy.conflict_units_after < remedy.conflict_units_before:
        failures.append(
            f"predicted conflict-unit reduction not positive: "
            f"{remedy.conflict_units_before} -> {remedy.conflict_units_after}"
        )

    need_trace = metric == "ww-pages"
    config = config_for(unit_label, nprocs=nprocs, trace=need_trace)
    app = get_app(app_name)
    base = run_app(app, dataset, config)
    padded = run_app(app, dataset, config, layout_plan=remedy.plan())

    record: Dict[str, object] = {
        "kind": remedy.kind,
        "array": array_name,
        "unit_bytes": ub,
        "metric": metric,
        "predicted_conflict_units_before": remedy.conflict_units_before,
        "predicted_conflict_units_after": remedy.conflict_units_after,
        "predicted_useless_words_before": remedy.useless_words_before,
        "predicted_useless_words_after": remedy.useless_words_after,
        "observed_useless_bytes_before": base.comm.useless_bytes,
        "observed_useless_bytes_after": padded.comm.useless_bytes,
        "checksum_equal": padded.checksum == base.checksum,
    }
    if need_trace:
        record["observed_ww_pages_before"] = _observed_alloc_ww_pages(
            base, array_name
        )
        record["observed_ww_pages_after"] = _observed_alloc_ww_pages(
            padded, array_name
        )

    if not record["checksum_equal"]:
        failures.append(
            f"checksum changed under the plan: "
            f"{base.checksum!r} -> {padded.checksum!r}"
        )
    if metric == "ww-pages":
        before = int(record["observed_ww_pages_before"])  # type: ignore[arg-type]
        after = int(record["observed_ww_pages_after"])  # type: ignore[arg-type]
        if not after < before:
            failures.append(
                f"observed {array_name} ww pages did not drop: "
                f"{before} -> {after}"
            )
    elif metric == "useless-bytes":
        if not padded.comm.useless_bytes < base.comm.useless_bytes:
            failures.append(
                f"observed useless bytes did not drop: "
                f"{base.comm.useless_bytes} -> {padded.comm.useless_bytes}"
            )
    else:
        failures.append(f"unknown crosscheck metric {metric!r}")
    return record, failures


def load_baseline(
    path: pathlib.Path = BASELINE_PATH,
) -> Dict[str, Dict[str, object]]:
    if not path.exists():
        return {}
    with open(path) as fh:
        return {k: dict(v) for k, v in json.load(fh).items()}


def write_baseline(
    data: Dict[str, Dict[str, object]], path: pathlib.Path = BASELINE_PATH
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_layout(
    apps: Optional[Sequence[str]] = None,
    nprocs: int = 8,
    json_path: Optional[str] = None,
    crosscheck: bool = False,
    update_baseline: bool = False,
    baseline_path: pathlib.Path = BASELINE_PATH,
) -> int:
    """CLI entry point: advise (all declared apps by default), then
    optionally run the pinned traced crosscheck cells against the
    committed baseline.  Returns a process exit code."""
    names = sorted(SMALL_DATASETS) if apps is None else list(apps)
    failures = 0
    reports: Dict[str, LayoutReport] = {}
    for name in names:
        try:
            rep = advise(name, nprocs=nprocs)
        except NotImplementedError:
            print(f"{name}: no declared access pattern; skipped")
            continue
        reports[name] = rep
        print(rep.render())

    if json_path:
        doc = {name: rep.to_json_dict() for name, rep in reports.items()}
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"layout report written: {json_path}")

    if crosscheck:
        committed = load_baseline(baseline_path)
        fresh: Dict[str, Dict[str, object]] = {}
        for app_name, dataset, label, array, kind, metric in CROSSCHECK_CELLS:
            key = f"{app_name}/{dataset}/p{nprocs} {array} {kind} @{label}"
            record, cell_failures = crosscheck_cell(
                app_name, dataset, label, array, kind, metric, nprocs
            )
            fresh[key] = record
            status = "ok" if not cell_failures else "FAIL"
            print(f"{status} {key}")
            for msg in cell_failures:
                print(f"  FAIL: {msg}")
                failures += 1
            if key not in committed:
                if not update_baseline:
                    print(
                        f"  FAIL: no committed baseline entry for {key}; "
                        f"run with --update to record it"
                    )
                    failures += 1
            elif committed[key] != record:
                if not update_baseline:
                    print(
                        f"  FAIL: observed numbers drifted from the "
                        f"committed baseline; --update to accept"
                    )
                    print(f"    committed: {committed[key]}")
                    print(f"    current:   {record}")
                    failures += 1
        if update_baseline and not failures:
            write_baseline(fresh, baseline_path)
            print(f"baseline written: {baseline_path}")
    print(f"layout: {len(reports)} app(s), {failures} failure(s)")
    return 1 if failures else 0
