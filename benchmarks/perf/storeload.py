"""The ``store-serve`` workload: harness, cache, store and HTTP service
do the work, simulation as little as a figure-1 drain needs.

One pass is, in order:

* **drain** -- submit the ``figure1`` sweep (16 cells) to a fresh sqlite
  store and drain it with one in-process ``farm.worker.work``; every
  drained cell is then compared with its golden and published to a
  fresh local-dir ``DiskCache`` (untimed);
* **warm check** -- ``bench.golden.check`` over the four figure-1
  applications against that warm ``DiskCache``, :data:`WARM_CHECKS`
  times, with ``ResultCache.clear()`` before each (a warm ``--check``:
  every cell a disk hit, no simulation);
* **serve** -- a closed loop of one client, one ``http.client``
  connection per request, against ``farm.service.make_server`` on
  loopback, serving the store that set-up drained.  The request
  sequence is a ``--seed`` shuffle of a fixed multiset (:data:`MIX`), so
  per-route call counts are the same for every seed.

Writes (submit/claim/complete) sit beside reads (get_result/render) so
a gain for one that costs the other shows in the same ``pass_s``.  The
repeat counts are chosen so that each phase is a quarter of the pass
or more (drain ~1.8 s, checks ~0.9 s, requests ~0.9 s on the builder's
host): ``pass_s`` is the only number of this workload the driver holds
to a bound, so each phase has to be able to break it.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import random
import statistics
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from benchmarks.perf import layers, spans
from benchmarks.perf._clock import now_ns
from benchmarks.perf.measure import Checker, elapsed_s, repeat, summary, timed
from benchmarks.perf.simload import (
    Detail, Metrics, Options, code_version_s, pass_seconds, peak_rss_mb,
)

SWEEP = "figure1"
CHECK_APPS = ("Barnes", "ILINK", "TSP", "Water")
WARM_CHECKS = 160
REQUESTS_PER_PASS = 80

#: kind -> (share of the mix, path, expected status).  ``{key}`` is one
#: drained cell's key; ``not_modified`` revalidates ``experiment_json``
#: with its ETag; ``pending`` asks for a sweep nobody submitted.
MIX: Dict[str, Tuple[float, str, int]] = {
    "experiment_json": (0.40, "/v1/experiments/figure1.json", 200),
    "not_modified": (0.20, "/v1/experiments/figure1.json", 304),
    "experiment_txt": (0.15, "/v1/experiments/figure1.txt", 200),
    "cell": (0.10, "/v1/cells/{key}.json", 200),
    "status": (0.10, "/v1/status.json", 200),
    "pending": (0.05, "/v1/experiments/figure2.json", 202),
}


def request_sequence(seed: int, n: int) -> List[str]:
    """``n`` request kinds in exact :data:`MIX` proportions (the first
    kind absorbs the rounding), shuffled by ``seed``.  Every kind occurs
    once ``n`` is at least ``workloads.MIN_REQUESTS``."""
    kinds: List[str] = []
    for kind, (share, _, _) in MIX.items():
        kinds.extend([kind] * int(share * n))
    kinds.extend(["experiment_json"] * (n - len(kinds)))
    random.Random(seed).shuffle(kinds)
    return kinds


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 of an empty one."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Client:
    """The closed-loop client: next request only after the reply."""

    def __init__(self, address: Tuple[str, int], cell_key: str,
                 checker: Checker) -> None:
        self.address = address
        self.checker = checker
        self.paths = {
            kind: path.format(key=cell_key)
            for kind, (_, path, _) in MIX.items()
        }
        self.headers: Dict[str, Dict[str, str]] = {k: {} for k in MIX}
        self.digests: Dict[str, str] = {}
        # The first response of each route is the reference every later
        # 200 body must match; it also yields the ETag to revalidate.
        for kind in MIX:
            if kind != "not_modified":
                self.get(kind)

    def get(self, kind: str) -> float:
        """One request, checked; returns its latency in milliseconds."""
        t0 = now_ns()
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request("GET", self.paths[kind], headers=self.headers[kind])
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        ms = (now_ns() - t0) / 1e6
        self.checker.attempted += 1
        want = MIX[kind][2]
        if response.status != want:
            self.checker.fail(f"{kind}: status {response.status}, not {want}")
        elif want == 200:
            digest = hashlib.sha256(body).hexdigest()
            if self.digests.setdefault(kind, digest) != digest:
                self.checker.fail(f"{kind}: body differs from first response")
            if kind == "experiment_json":
                self.headers["not_modified"] = {
                    "If-None-Match": response.headers["ETag"]
                }
        return ms


@contextlib.contextmanager
def serving(store: Any) -> Iterator[Tuple[str, int]]:
    """The results service on a loopback port, stopped on exit."""
    from repro.farm.service import make_server

    server = make_server(store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def run(opts: Options, checker: Checker) -> Tuple[Metrics, Detail]:
    from repro.bench import golden, harness
    from repro.bench.cache import DiskCache, code_version
    from repro.farm import open_store, sweep_cells, worker

    cells = sweep_cells([SWEEP])
    code_version()
    harness.ResultCache.clear()
    harness.ResultCache.configure(None)
    n_requests = opts.requests or REQUESTS_PER_PASS
    serial = itertools.count()

    def drain() -> Tuple[float, Any, DiskCache]:
        """Submit + work on a fresh store; then check and publish."""
        n = next(serial)
        store = open_store(f"sqlite:{opts.tmp / f'drain{n}.sqlite'}")

        def submit_and_work() -> None:
            store.submit(cells)
            # Module attribute, so the traced pass's wrapper is the one
            # that runs.
            worker.work(store, worker_id="perf")

        seconds, _ = timed(submit_and_work)
        disk = DiskCache(opts.tmp / f"cache{n}")
        for cell in cells:
            case = store.get_result(cell)
            if case is None:
                checker.attempted += 1
                checker.fail(f"{cell}: not in the drained store")
                continue
            checker.cell((cell.app, cell.dataset, cell.label, cell.kwargs),
                         case)
            disk.store(cell.app, cell.dataset, cell.label,
                       harness.config_for(cell.label, **cell.kwargs), case)
        return seconds, store, disk

    def warm_check(rec: Optional[spans.Recorder], disk: DiskCache) -> float:
        harness.ResultCache.clear()
        harness.ResultCache.configure(disk)
        span = rec.span("bench.golden.check") if rec else contextlib.nullcontext()
        try:
            with span:
                seconds, report = timed(lambda: golden.check(
                    checker.golden_dir, apps=list(CHECK_APPS)
                ))
        finally:
            harness.ResultCache.configure(None)
        checker.attempted += report.cells_checked
        if not report.ok:
            checker.fail(report.render())
        if disk.misses:
            checker.problem(f"warm check missed {disk.misses} disk entries")
        return seconds

    def one_pass(client: Client, rec: Optional[spans.Recorder] = None
                 ) -> Dict[str, Any]:
        drain_s, store, disk = drain()
        store.close()
        checks = [warm_check(rec, disk) for _ in range(WARM_CHECKS)]
        kinds = request_sequence(opts.seed + next(serial), n_requests)
        span = rec.span(spans.SOCKET) if rec else contextlib.nullcontext()
        with span:
            serve_s, latencies = timed(lambda: [client.get(k) for k in kinds])
        return {
            "drain_s": drain_s, "checks": checks, "serve_s": serve_s,
            "kinds": kinds, "latencies": latencies,
            "phases": [drain_s, sum(checks), serve_s],
        }

    # Set-up: drain the store the service reads, run one warm check and
    # (in Client) one request per route, so every lazy import and the
    # first simulation of each cell are paid before the first timed
    # pass.  That is this workload's warm-up; it has no separate one.
    _, served, disk = drain()
    warm_check(None, disk)
    with serving(served) as address:
        client = Client(address, cells[0].key, checker)
        setup_s = elapsed_s(opts.t0_ns)
        rss_mb = peak_rss_mb()

        passes: List[Dict[str, Any]] = []

        def timed_pass() -> float:
            passes.append(one_pass(client))
            return sum(passes[-1]["phases"])

        def pass_s() -> float:
            return pass_seconds([p["phases"] for p in passes])

        if not opts.trace:
            totals = repeat(timed_pass, opts.seconds, opts.passes)
            served.close()
            return (
                {"setup_s": setup_s, "pass_s": pass_s(), "peak_rss_mb": rss_mb},
                {"pass_s": summary(totals)},
            )

        # The phase metrics come from these untraced passes and are
        # held to bounds by ``compare``, so they get the whole budget.
        repeat(timed_pass, opts.seconds, opts.passes)
        rec = spans.Recorder()
        spans.install(rec)
        try:
            with rec.span(layers.ROOT):
                traced = one_pass(client, rec)
        finally:
            rec.remove()
    served.close()
    for leftover in rec.patched():
        checker.problem(f"wrapper still installed: {leftover}")
    ledger = spans.Ledger(rec)
    if opts.spans_out is not None:
        ledger.dump(opts.spans_out)
    out = layers.ledger_metrics(ledger)
    ref_s = pass_s()
    out["spans.ref_pass_s"] = ref_s
    # The traced pass also spends untimed seconds checking and
    # publishing, so compare like with like: the sum of its phases.
    out["spans.overhead_ratio"] = sum(traced["phases"]) / ref_s

    latencies = sorted(ms for p in passes for ms in p["latencies"])
    out["store.drain_s"] = statistics.median(p["drain_s"] for p in passes)
    out["store.warm_check_s"] = statistics.median(
        s for p in passes for s in p["checks"]
    )
    out["store.req_p50_ms"] = percentile(latencies, 0.50)
    out["store.req_p95_ms"] = percentile(latencies, 0.95)
    out["store.req_per_s"] = statistics.median(
        len(p["kinds"]) / p["serve_s"] for p in passes
    )

    ncells = len(cells)
    work_ns = float(ledger.durations_ns("farm.worker.work").sum())
    claim_ns = float(ledger.durations_ns("farm.worker.run_claim").sum())
    out["farm.worker.overhead_ms_per_cell"] = (work_ns - claim_ns) / ncells / 1e6
    out["farm.store.submit_us_per_cell"] = (
        float(ledger.durations_ns("farm.store.submit").sum()) / ncells / 1e3
    )
    for op in ("claim", "complete", "get_result"):
        out[f"farm.store.{op}_us"] = layers.median_us(ledger, f"farm.store.{op}")
    out["bench.cell_key_us"] = layers.median_us(ledger, "bench.cell_key")
    for op in ("load", "store"):
        out[f"bench.cache.{op}_us"] = layers.median_us(ledger, f"bench.cache.{op}")

    # One FarmService.handle span per request, in request order.
    handle_ms = ledger.durations_ns(spans.HANDLE) / 1e6
    if len(handle_ms) != len(traced["kinds"]):
        checker.problem(
            f"{len(handle_ms)} handle spans for {len(traced['kinds'])} requests"
        )
    weighted = 0.0
    for kind, (share, _, _) in MIX.items():
        mine = sorted(
            ms for k, ms in zip(traced["kinds"], handle_ms.tolist()) if k == kind
        )
        out[f"farm.service.handle_ms.{kind}"] = percentile(mine, 0.50)
        weighted += share * out[f"farm.service.handle_ms.{kind}"]
    out["farm.service.socket_overhead_ms"] = (
        percentile(sorted(traced["latencies"]), 0.50) - weighted
    )

    local = open_store(str(opts.tmp / "cache0"))
    out["farm.store.localdir_get_result_us"] = statistics.median(
        timed(lambda c=c: local.get_result(c))[0] for c in cells
    ) * 1e6
    out["bench.code_version_s"] = code_version_s()
    out["bench.golden.compare_us"] = checker.compare_us()
    return out, {}
