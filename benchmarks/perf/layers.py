"""Span names -> published per-layer metrics.

Each ``*_self_s`` metric names the end-to-end metric it should move
(README.md has the table); ``*_calls`` and the simulated counts repeat
exactly from run to run and are compared as counts, never as speed-ups.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from benchmarks.perf.spans import (
    HANDLE, OVERRIDE, PARK, PROC_FORWARDS, RUN, SOCKET, Ledger,
)

#: The span the benchmark opens around each timed piece of the traced
#: pass (a cell, a store-serve phase); their sum is the traced pass.
ROOT = "pass"

#: span name -> the self-time metric it is summed into.
SELF_METRICS = {
    "apps.worker": "apps.worker_self_s",
    "apps.setup": "apps.setup_self_s",
    "core.treadmarks_init": "core.treadmarks_init_s",
    "core.run_app": "core.run_app_self_s",
    "core.proc": "core.proc_self_s",
    "core.shared": "core.shared_self_s",
    "dsm.lrc.access": "dsm.lrc.access_self_s",
    "dsm.lrc.fetch": "dsm.lrc.fetch_self_s",
    "dsm.lrc.close_interval": "dsm.lrc.close_interval_self_s",
    "dsm.lrc.apply_notices": "dsm.lrc.apply_notices_self_s",
    "dsm.lrc.at_sync_point": "dsm.lrc.at_sync_point_self_s",
    "dsm.lrc.monitoring_fault": "dsm.lrc.monitoring_fault_self_s",
    "dsm.aggregation.ensure_valid": "dsm.aggregation.ensure_valid_self_s",
    "dsm.aggregation.on_sync": "dsm.aggregation.on_sync_self_s",
    "dsm.sync.service": "dsm.sync.service_self_s",
    OVERRIDE: "protocols.override_self_s",
    PARK: "sim.engine.handoff_self_s",
    RUN: "sim.engine.run_overhead_s",
    "sim.network.record": "sim.network.record_self_s",
    "stats.build_result": "stats.build_result_s",
    "bench.run_case": "bench.run_case_overhead_s",
    "bench.cell_key": "bench.cache_self_s",
    "bench.cache.load": "bench.cache_self_s",
    "bench.cache.store": "bench.cache_self_s",
    "bench.golden.check": "bench.golden.check_self_s",
    "farm.store.submit": "farm.store.self_s",
    "farm.store.claim": "farm.store.self_s",
    "farm.store.complete": "farm.store.self_s",
    "farm.store.get_result": "farm.store.self_s",
    "farm.worker.work": "farm.worker.self_s",
    "farm.worker.run_claim": "farm.worker.self_s",
    HANDLE: "farm.service.handle_self_s",
    SOCKET: "farm.service.socket_s",
}

#: span name -> its call-count metric.
CALL_METRICS = {
    "core.proc": "core.proc_calls",
    "dsm.lrc.access": "dsm.lrc.access_calls",
    "dsm.lrc.fetch": "dsm.lrc.fetch_calls",
    "dsm.lrc.close_interval": "dsm.lrc.close_interval_calls",
    "dsm.lrc.apply_notices": "dsm.lrc.apply_notices_calls",
    "dsm.lrc.monitoring_fault": "dsm.lrc.monitoring_fault_calls",
    "dsm.aggregation.ensure_valid": "dsm.aggregation.ensure_valid_calls",
    "dsm.sync.service": "dsm.sync.service_calls",
    OVERRIDE: "protocols.override_calls",
    "sim.network.record": "sim.network.record_calls",
}


def median_us(ledger: Ledger, name: str) -> float:
    """Median duration of one span name's calls, in microseconds."""
    durations = ledger.durations_ns(name)
    return float(np.median(durations)) / 1e3 if durations.size else 0.0


def ledger_metrics(ledger: Ledger) -> Dict[str, float]:
    """Everything that is a pure function of one traced pass's spans."""
    out: Dict[str, float] = {}
    selfs = ledger.self_seconds()
    for span_name, metric in SELF_METRICS.items():
        out[metric] = out.get(metric, 0.0) + selfs.get(span_name, 0.0)
    for span_name, metric in CALL_METRICS.items():
        out[metric] = float(ledger.calls(span_name))
    out["core.proc_calls"] += float(ledger.counts[PROC_FORWARDS])
    out["core.words_accessed"] = float(ledger.counts["core.words_accessed"])
    out["dsm.lrc.fetch_units"] = float(ledger.counts["dsm.lrc.fetch_units"])

    engine = ledger.engine
    for key in ("parks", "thread_switches", "inline_resumes"):
        out[f"sim.engine.{key}"] = float(engine[key])
    switches = engine["thread_switches"]
    out["sim.engine.handoff_us_per_switch"] = (
        engine["handoff_s"] * 1e6 / switches if switches else 0.0
    )
    ensure = out["dsm.aggregation.ensure_valid_calls"]
    out["dsm.aggregation.fault_ratio"] = (
        out["dsm.lrc.fetch_calls"] / ensure if ensure else 0.0
    )

    traced_s = float(ledger.durations_ns(ROOT).sum()) / 1e9
    attributed = sum(
        selfs.get(span_name, 0.0) for span_name in SELF_METRICS
    )
    out["spans.traced_pass_s"] = traced_s
    out["spans.unattributed_share"] = (traced_s - attributed) / traced_s
    out["spans.count"] = float(len(ledger.name))
    return out
