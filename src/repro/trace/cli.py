"""Command-line tracer:

    python -m repro.trace <app> <dataset> <unit> [--out t.json] [...]

Runs one (application, dataset, consistency-unit) cell with tracing
enabled, then:

* writes the Chrome-trace timeline (``--out``; open in chrome://tracing
  or https://ui.perfetto.dev) and/or the raw JSONL event log
  (``--jsonl``),
* runs the happens-before race detector over the access trace
  (disable with ``--no-races``),
* prints the per-page false-sharing attribution report (``--top N``),
* prints the per-barrier-epoch cost table (simulated busy time, faults,
  diff creations and messages per phase).

Application names are case-insensitive; ``small`` / ``large`` are
accepted as dataset aliases for an application's smallest / largest
dataset by heap size.  Units are ``4K``, ``8K``, ``16K``, or ``Dyn``
(case-insensitive).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.apps.base import AppRegistry, get_app, run_app
from repro.bench.harness import config_for
from repro.trace.attribution import (
    attribute_pages,
    phase_rows,
    render_attribution,
    render_phases,
)
from repro.trace.export import write_chrome_trace, write_jsonl
from repro.trace.hb import detect_races

UNIT_ALIASES = {"4k": "4K", "8k": "8K", "16k": "16K", "dyn": "Dyn"}


def resolve_app(name: str) -> str:
    """Case-insensitive application lookup."""
    for registered in AppRegistry.names():
        if registered.lower() == name.lower():
            return registered
    raise SystemExit(
        f"unknown application {name!r}; available: {AppRegistry.names()}"
    )


def resolve_dataset(app, dataset: str) -> str:
    """Exact dataset label, or the 'small'/'large' alias."""
    if dataset in app.datasets:
        return dataset
    alias = dataset.lower()
    if alias in ("small", "large"):
        by_size = sorted(app.datasets, key=app.heap_bytes)
        return by_size[0] if alias == "small" else by_size[-1]
    raise SystemExit(
        f"{app.name} has no dataset {dataset!r}; available: "
        f"{sorted(app.datasets)} (or 'small'/'large')"
    )


def resolve_unit(unit: str) -> str:
    label = UNIT_ALIASES.get(unit.lower())
    if label is None:
        raise SystemExit(
            f"unknown unit {unit!r}; use one of 4K, 8K, 16K, Dyn"
        )
    return label


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Trace one simulated DSM run: timeline export, "
        "race check, per-page false-sharing attribution and "
        "per-barrier-epoch cost.",
    )
    parser.add_argument("app", help="application name (case-insensitive)")
    parser.add_argument(
        "dataset", help="dataset label, or 'small'/'large'"
    )
    parser.add_argument("unit", help="consistency unit: 4K, 8K, 16K, or Dyn")
    parser.add_argument(
        "--out", default=None, help="write Chrome-trace JSON here"
    )
    parser.add_argument(
        "--jsonl", default=None, help="write the raw event log here (JSONL)"
    )
    parser.add_argument(
        "--no-races",
        action="store_true",
        help="skip the happens-before race check",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="pages to show in the attribution report (default 10)",
    )
    parser.add_argument(
        "--nprocs", type=int, default=8, help="simulated processors (default 8)"
    )
    args = parser.parse_args(argv)

    app = get_app(resolve_app(args.app))
    dataset = resolve_dataset(app, args.dataset)
    label = resolve_unit(args.unit)
    config = config_for(label, nprocs=args.nprocs, trace=True)
    try:
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))

    result = run_app(app, dataset, config)
    trace = result.trace
    assert trace is not None, "run was configured with trace=True"

    print(
        f"{app.name} {dataset} [{label}] on {config.nprocs} procs: "
        f"time={result.time_us / 1e6:.4f}s  "
        f"messages={result.comm.total_messages} "
        f"({result.comm.useless_messages} useless)  "
        f"events={len(trace.events)}"
    )

    if args.out:
        doc = write_chrome_trace(args.out, trace)
        print(f"wrote {args.out} ({len(doc['traceEvents'])} trace events)")
    if args.jsonl:
        n = write_jsonl(args.jsonl, trace.events)
        print(f"wrote {args.jsonl} ({n} events)")

    rc = 0
    if not args.no_races:
        report = detect_races(trace.events, config.nprocs, trace.layout)
        print(report.render())
        if not report.race_free:
            rc = 1

    rows = attribute_pages(trace)
    print(render_attribution(rows, top=args.top))
    print(render_phases(phase_rows(trace)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
