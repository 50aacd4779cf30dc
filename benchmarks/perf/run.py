"""One workload, one fresh process, one JSON result line.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0|1`` is the command ``BENCHMARK.json`` names.  With ``--trace
0`` it measures the end-to-end metrics with no wrapper installed; with
``--trace 1`` it runs untraced reference passes, one traced pass, and
reports every per-layer metric (0 for a layer the workload never
enters).  The last stdout line is the result object; the lines before
it are for people.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if __name__ == "__main__":
    # As a script, sys.path[0] is this directory; the package and the
    # simulator are imported by name from the checkout root instead.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

from benchmarks.perf._clock import now_ns  # noqa: E402

# Process start, as near as a script can see it: setup_s counts from
# here, so it includes every import below.
_T0_NS = now_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from benchmarks.perf.measure import Checker  # noqa: E402
from benchmarks.perf.simload import Options  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    MIN_REQUESTS, STORE_WORKLOAD, WORKLOADS,
)

SPEC_PATH = pathlib.Path(ROOT) / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="cell order per pass and the request sequence")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="exactly this many timed passes")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per store-serve pass")
    parser.add_argument("--no-warmup", action="store_true")
    parser.add_argument("--golden-dir", type=pathlib.Path, default=None)
    parser.add_argument("--spans-out", type=pathlib.Path, default=None,
                        help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)
    if args.requests is not None and args.requests < MIN_REQUESTS:
        parser.error(f"--requests must be at least {MIN_REQUESTS}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    from repro.bench.golden import GOLDEN_DIR

    # Stores and disk caches live under the checkout (the driver's
    # contract: read and write nowhere else), one directory per run.
    scratch = pathlib.Path(ROOT) / ".perf_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=args.workload, dir=scratch))
    opts = Options(
        workload=args.workload,
        seed=args.seed,
        seconds=float(
            spec["run_seconds"] if args.seconds is None else args.seconds
        ),
        trace=bool(args.trace),
        t0_ns=_T0_NS,
        tmp=tmp,
        passes=args.passes,
        requests=args.requests,
        warmup=not args.no_warmup,
        spans_out=args.spans_out,
    )
    checker = Checker(args.golden_dir or GOLDEN_DIR)
    try:
        if args.workload == STORE_WORKLOAD:
            from benchmarks.perf import storeload

            values, detail = storeload.run(opts, checker)
        else:
            from benchmarks.perf import simload

            values, detail = simload.run(opts, checker)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = spec["per_layer" if opts.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(values):
        if name not in units:
            checker.problem(f"metric {name} is not in BENCHMARK.json")
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {opts.seconds:g}")
    for name, m in metrics.items():
        spread = detail.get(name)
        tail = (
            "  [min {min:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  max {max:.4g}  "
            "n={n}]".format(**spread) if spread else ""
        )
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}{tail}")
    print(f"  failed {checker.failed} / attempted {checker.attempted}")
    for problem in checker.problems:
        print(f"PROBLEM {problem}")
    correct = not checker.problems and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
