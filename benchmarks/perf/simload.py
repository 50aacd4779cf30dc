"""The five simulation workloads: passes of ``run_case`` over a fixed
cell list, every result checked against the committed goldens."""

from __future__ import annotations

import contextlib
import gc
import pathlib
import random
import resource
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.perf import layers, spans
from benchmarks.perf._clock import now_ns
from benchmarks.perf.measure import Checker, elapsed_s, repeat, summary, timed
from benchmarks.perf.workloads import RECORDER_WORKLOADS, SIM_WORKLOADS

#: Share of ``--seconds`` a traced run spends on untraced reference
#: passes before the traced one.
REFERENCE_SHARE = 0.5


@dataclass
class Options:
    """One run's settings, as parsed by ``run.py``."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    t0_ns: int
    """Host clock at process start; ``setup_s`` counts from here."""
    tmp: pathlib.Path
    passes: Optional[int] = None
    """Exact number of timed passes (``--smoke``); default: by time."""
    requests: Optional[int] = None
    warmup: bool = True
    spans_out: Optional[pathlib.Path] = None


Metrics = Dict[str, float]
Detail = Dict[str, Dict[str, float]]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_seconds(passes: List[List[float]]) -> float:
    """Seconds per pass from several passes' per-piece timings (one
    column per cell, or per store-serve phase): the sum over pieces of
    each piece's median.  A host hiccup lands on one piece of one pass,
    so it moves that piece's median little and the total less; the
    median of whole-pass sums would keep it."""
    return sum(statistics.median(column) for column in zip(*passes, strict=True))


def code_version_s() -> float:
    """One uncached source-tree digest (an explicit root skips the memo)."""
    import repro
    from repro.bench.cache import code_version

    root = pathlib.Path(repro.__file__).resolve().parent
    return timed(lambda: code_version(root))[0]


def run(opts: Options, checker: Checker) -> Tuple[Metrics, Detail]:
    import repro.apps  # noqa: F401 - fills the application registry
    from repro.bench import harness
    from repro.bench.cache import code_version

    cells = SIM_WORKLOADS[opts.workload]
    code_version()
    harness.ResultCache.clear()
    harness.ResultCache.configure(None)
    rng = random.Random(opts.seed)

    def one_pass(rec: Optional[spans.Recorder] = None, shuffle: bool = True,
                 **extra: Any) -> Tuple[List[float], List[Any]]:
        """Every cell once, in a seed-permuted order; returns each
        cell's ``run_case`` seconds and result (both in list order).
        Results are checked after the clock stops.  ``rec`` puts a root
        span around each cell."""
        order = list(range(len(cells)))
        if shuffle:
            rng.shuffle(order)
        seconds = [0.0] * len(cells)
        results: List[Any] = [None] * len(cells)
        for i in order:
            app, dataset, label, overrides = cells[i]
            # A finished cell is cyclic garbage holding its whole heap
            # image; when the collector happens to run decides whether
            # the next cell reuses that memory or faults in fresh
            # pages.  Collecting between cells, off the clock, takes
            # that lottery out of the timings.
            gc.collect()
            root = rec.span(layers.ROOT) if rec else contextlib.nullcontext()
            t0 = now_ns()
            try:
                with root:
                    # Looked up per call: the traced pass swaps the
                    # module attribute for its wrapper.
                    results[i] = harness.run_case(
                        app, dataset, label, **overrides, **extra
                    )
            except Exception:  # noqa: BLE001 - counted, run continues
                checker.crashed(cells[i])
            seconds[i] = elapsed_s(t0)
        for cell, case in zip(cells, results, strict=True):
            if case is not None:
                checker.cell(cell, case)
        return seconds, results

    def same_counters(what: str, results: List[Any],
                      reference: List[Any]) -> None:
        """Observation must not change a single counter."""
        for cell, a, b in zip(cells, results, reference, strict=True):
            if a is None or b is None:
                continue
            a, b = a.to_json_dict(), b.to_json_dict()
            if a != b:
                fields = [k for k in sorted(a) if a[k] != b[k]]
                checker.problem(
                    f"{what} changed {fields} of {cell[0]}/{cell[1]}@{cell[2]}"
                )

    if opts.warmup:
        # In list order, so set-up is the same work in the same order
        # whatever the seed -- and peak RSS, read right after it, does
        # not depend on how later passes happened to fragment the heap.
        one_pass(shuffle=False)
    setup_s = elapsed_s(opts.t0_ns)
    rss_mb = peak_rss_mb()

    passes: List[List[float]] = []
    reference: List[Any] = []

    def timed_pass() -> float:
        seconds, reference[:] = one_pass()
        passes.append(seconds)
        return sum(seconds)

    if not opts.trace:
        totals = repeat(timed_pass, opts.seconds, opts.passes)
        return (
            {"setup_s": setup_s, "pass_s": pass_seconds(passes),
             "peak_rss_mb": rss_mb},
            {"pass_s": summary(totals)},
        )

    repeat(timed_pass, opts.seconds * REFERENCE_SHARE, opts.passes)
    ref_s = pass_seconds(passes)

    rec = spans.Recorder()
    spans.install(rec)
    try:
        _, traced = one_pass(rec)
    finally:
        rec.remove()
    for leftover in rec.patched():
        checker.problem(f"wrapper still installed: {leftover}")
    same_counters("span wrappers", traced, reference)
    ledger = spans.Ledger(rec)
    if opts.spans_out is not None:
        ledger.dump(opts.spans_out)
    out = layers.ledger_metrics(ledger)
    out["spans.overhead_ratio"] = out["spans.traced_pass_s"] / ref_s
    out["spans.ref_pass_s"] = ref_s

    done = [c for c in reference if c is not None]
    useful = sum(c.useful_messages for c in done)
    useless = sum(c.useless_messages for c in done)
    # Every cell may have crashed: the result line and the PROBLEM
    # lines must still come out, so an empty denominator reads 0.
    out["dsm.aggregation.useful_msg_ratio"] = (
        useful / (useful + useless) if useful + useless else 0.0
    )
    out["sim.network.sim_bytes"] = float(sum(c.total_bytes for c in done))
    events = (
        sum(c.faults + c.total_messages for c in done)
        + out["sim.engine.parks"]
    )
    out["host_us_per_sim_event"] = ref_s * 1e6 / events if events else 0.0
    out["bench.code_version_s"] = code_version_s()
    out["bench.golden.compare_us"] = checker.compare_us()

    if opts.workload in RECORDER_WORKLOADS:
        seconds, recorded = one_pass(trace=True)
        same_counters("SimConfig.trace", recorded, reference)
        out["trace.recorder_overhead_ratio"] = sum(seconds) / ref_s
    return out, {}
