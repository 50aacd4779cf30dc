"""``python -m benchmarks.perf``: every workload, every metric, one
command -- and ``compare`` for two sets of runs.

``run`` (the default) starts ``run.py`` once per workload and run in a
fresh subprocess: end-to-end runs with no wrapper installed, then traced
runs for the per-layer numbers.  It prints every metric by name with its
unit and exits non-zero if any run failed a correctness check.

``compare A.json B.json`` reads two ``--out`` files and prints, per
workload and bounded metric, both medians with quartiles, the ratio with
its base, and a verdict; then it checks that every exact count is
identical in every run of both sets.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf.run import load_spec
from benchmarks.perf.workloads import WHY, WORKLOADS

RUN_PY = pathlib.Path(__file__).resolve().parent / "run.py"

#: Regression bounds of the store-serve phase metrics.  The driver's
#: contract wants every end-to-end metric on every workload, so these
#: five live in the per-layer list (measured with no wrapper installed,
#: in the reference passes of the traced run); ``compare`` still holds
#: them to a bound.
STORE_BOUNDS = {
    "store.drain_s": 0.10,
    "store.warm_check_s": 0.15,
    "store.req_p50_ms": 0.10,
    "store.req_p95_ms": 0.10,
    "store.req_per_s": 0.10,
}

#: Per-layer ratios that are exact functions of simulated counts.
EXACT_RATIOS = ("dsm.aggregation.fault_ratio",
                "dsm.aggregation.useful_msg_ratio")


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def run_once(workload: str, seed: int, trace: int,
             extra: Sequence[str]) -> Tuple[int, Optional[Dict[str, Any]]]:
    """One ``run.py`` subprocess; echoes its report, returns the exit
    code and the parsed result line (None if it printed none)."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    print("\n".join(lines), flush=True)
    return proc.returncode, result


def values(result: Dict[str, Any]) -> Dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
            return 2
    extra: List[str] = []
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    trace_runs = args.trace_runs
    if args.smoke:
        # One cold timed pass and 150 requests per workload, end-to-end
        # only: the whole thing has to fit in 40 s on two cores.
        extra += ["--passes", "1", "--requests", "150", "--no-warmup"]
        trace_runs = 0

    out: Dict[str, Any] = {
        "seed": args.seed, "runs": args.runs, "workloads": {},
    }
    status = 0
    for name in names:
        print(f"== {name}: {WHY[name]}", flush=True)
        record: Dict[str, Any] = {
            "end_to_end": [], "per_layer": [], "attempted": 0, "failed": 0,
        }
        out["workloads"][name] = record
        plan = [(0, r) for r in range(args.runs)]
        plan += [(1, r) for r in range(trace_runs)]
        for trace, r in plan:
            code, result = run_once(name, args.seed + r, trace, extra)
            status = status or code
            if result is None:
                continue
            key = "per_layer" if trace else "end_to_end"
            record[key].append(values(result))
            record["attempted"] += result["attempted"]
            record["failed"] += result["failed"]

    units = {
        m["name"]: m["unit"]
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    print("== summary (median over runs)")
    for name, record in out["workloads"].items():
        print(f"{name}: failed {record['failed']} / "
              f"attempted {record['attempted']}")
        for key in ("end_to_end", "per_layer"):
            runs = record[key]
            for metric in runs[0] if runs else ():
                median = statistics.median(r[metric] for r in runs)
                print(f"  {metric:42s} {median:14.6g} {units[metric]}")
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return status


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as the driver computes them; with fewer than
    four samples, where quartiles would be extrapolated, (min, median,
    max)."""
    if len(samples) < 4:
        return min(samples), statistics.median(samples), max(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    """``(verdict, B/A)`` for one metric on one workload.

    * spread (quartile distance over median) of either side wider than
      the bound: ``unresolved``, unless every run of one side beats
      every run of the other;
    * else ``worse`` when B's median is worse than A's by more than the
      bound, ``better`` when it is better by more than A's own spread,
      ``within-bound`` otherwise.
    """
    sign = 1.0 if lower_is_better else -1.0
    qa, ma, qa3 = quartiles(a)
    qb, mb, qb3 = quartiles(b)
    worse_by = sign * (mb - ma) / ma
    spread_a, spread_b = (qa3 - qa) / ma, (qb3 - qb) / mb
    if max(spread_a, spread_b) > bound:
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "better", mb / ma
        if min(sign * x for x in b) > max(sign * x for x in a) \
                and worse_by > bound:
            return "worse", mb / ma
        return "unresolved", mb / ma
    if worse_by > bound:
        return "worse", mb / ma
    if worse_by < -spread_a:
        return "better", mb / ma
    return "within-bound", mb / ma


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    a_all = json.loads(args.a.read_text())["workloads"]
    b_all = json.loads(args.b.read_text())["workloads"]
    bounded = [
        ("end_to_end", m["name"], m["unit"], m["bound"], m["better"] == "lower")
        for m in spec["end_to_end"]
    ]
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    bounded += [
        ("per_layer", name, per_layer[name]["unit"], bound,
         per_layer[name]["better"] == "lower")
        for name, bound in STORE_BOUNDS.items()
    ]
    exact = [n for n, m in per_layer.items() if m["unit"] == "count"]
    exact += EXACT_RATIOS

    ok = True
    print(f"{'workload':17s} {'metric':20s} {'A median [q1, q3] n':>34s} "
          f"{'B median [q1, q3] n':>34s} {'B/A':>7s}  verdict (bound)")
    for name in WORKLOADS:
        if name not in a_all or name not in b_all:
            continue
        for key, metric, unit, bound, lower in bounded:
            a = [r[metric] for r in a_all[name][key]]
            b = [r[metric] for r in b_all[name][key]]
            if not a or not b or not any(a):
                continue
            word, ratio = verdict(a, b, bound, lower)
            ok = ok and word in ("better", "within-bound")
            cols = [
                "{1:.4g} [{0:.4g}, {2:.4g}] {3} n={4}".format(
                    *quartiles(side), unit, len(side))
                for side in (a, b)
            ]
            print(f"{name:17s} {metric:20s} {cols[0]:>34s} {cols[1]:>34s} "
                  f"{ratio:7.3f}  {word} ({bound:g})")
    print("exact counts (every traced run of both sets):")
    for name in WORKLOADS:
        if name not in a_all or name not in b_all:
            continue
        runs = a_all[name]["per_layer"] + b_all[name]["per_layer"]
        drifted = [
            f"{metric}: {sorted({r[metric] for r in runs})}"
            for metric in exact if len({r[metric] for r in runs}) > 1
        ]
        ok = ok and not drifted
        print(f"  {name}: " + ("identical" if not drifted else "DIFFER"))
        for line in drifted:
            print(f"    {line}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run workloads (the default command)")
    run.add_argument("--workloads", default=None, metavar="A,B",
                     help=f"subset of: {','.join(WORKLOADS)}")
    run.add_argument("--seed", type=int, default=0,
                     help="seed of the first run; run r uses seed+r")
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per run (default: run_seconds)")
    run.add_argument("--runs", type=int, default=1,
                     help="end-to-end runs per workload")
    run.add_argument("--trace-runs", type=int, default=1,
                     help="traced runs per workload")
    run.add_argument("--smoke", action="store_true",
                     help="one cold pass, 150 requests, no traced run")
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="write every run's metrics here (for compare)")
    run.set_defaults(fn=cmd_run)
    cmp_ = sub.add_parser("compare", help="compare two --out files")
    cmp_.add_argument("a", type=pathlib.Path)
    cmp_.add_argument("b", type=pathlib.Path)
    cmp_.set_defaults(fn=cmd_compare)
    if not argv or argv[0] not in ("run", "compare", "-h", "--help"):
        argv.insert(0, "run")
    args = parser.parse_args(argv)
    return int(args.fn(args))
