"""Paired A/B timing of two source trees on the repo benchmark.

    python tools/ab.py TREE_A TREE_B [--workloads W1,W2] [--pairs N]
                       [--seconds S] [--seed N] [--counts] [--out FILE]

Each tree is a full checkout of one revision (``git clone`` or ``git
archive`` it somewhere; a tree is never modified except for its
bytecode caches) and is measured by its *own* ``benchmarks/perf/run.py``,
as a black box.  Pair ``k`` runs every selected workload once per tree,
each run a fresh process with seed ``seed + k``, in A B order on even
pairs and B A order on odd ones, so a slow stretch of the host lands on
both sides alike.  Before the first run every ``__pycache__`` under both
trees is deleted and rebuilt with ``compileall``: neither side then
pays for compiling what the other loads from its cache.

Reported per workload and end-to-end metric (direction from tree B's
``BENCHMARK.json``):

* the paired ratio B/A: median, [min, max];
* wins / losses of B (ties count as neither) and the exact two-sided
  sign-test p value;
* ``resolved``: B's median beats A's by more than the distance between
  A's quartiles -- together with wins, the test a claimed gain must pass.

``--counts`` adds one ``--trace 1`` run per tree and workload (seed
``seed``) and lists every per-layer metric of unit ``count`` whose value
differs between the two (the bound on a count is 0: a change that moves
one changed what the workload does, not how fast).  ``--pairs 0
--counts`` compares counts only.

``--out`` writes every run's metrics and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("app-compute", "protocol-fetch", "interval-kernels",
             "sync-handoff", "alt-paths", "store-serve")

Run = Dict[str, Any]


def prepare(tree: pathlib.Path) -> None:
    """Rebuild ``tree``'s bytecode caches from nothing."""
    for cache in sorted(tree.rglob("__pycache__")):
        if ".git" not in cache.parts:
            shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
        cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def run_once(tree: pathlib.Path, workload: str, seed: int,
             extra: Sequence[str], trace: bool = False) -> Optional[Run]:
    """One ``run.py`` process; its parsed result line, or None."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), *extra],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    result: Run = json.loads(lines[-1])
    return result


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p value of ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def quartile_distance(samples: Sequence[float]) -> float:
    """q3 - q1 (max - min below four samples, as the ruler's compare)."""
    if len(samples) < 4:
        return max(samples) - min(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def summarize(a: Sequence[float], b: Sequence[float],
              lower_is_better: bool) -> Dict[str, Any]:
    """Paired statistics of one metric (``a[k]``, ``b[k]`` from pair k)."""
    ratios = [y / x for x, y in zip(a, b, strict=True) if x]
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b, strict=True))
    losses = sum(sign * (y - x) > 0 for x, y in zip(a, b, strict=True))
    gain = sign * (statistics.median(a) - statistics.median(b))
    return {
        "n": len(a),
        "a_median": statistics.median(a),
        "b_median": statistics.median(b),
        "ratio_median": statistics.median(ratios) if ratios else math.nan,
        "ratio_min": min(ratios, default=math.nan),
        "ratio_max": max(ratios, default=math.nan),
        "wins": wins,
        "losses": losses,
        "sign_p": sign_test_p(wins, losses),
        "resolved": gain > quartile_distance(a),
    }


def count_diffs(a: Run, b: Run) -> Dict[str, List[float]]:
    """``metric -> [A, B]`` for every unit-``count`` metric that differs
    between two traced runs."""
    return {
        name: [m["value"], b["metrics"][name]["value"]]
        for name, m in sorted(a["metrics"].items())
        if m["unit"] == "count" and name in b["metrics"]
        and m["value"] != b["metrics"][name]["value"]
    }


def compare_counts(trees: Sequence[pathlib.Path], workloads: Sequence[str],
                   seed: int, extra: Sequence[str]) -> Dict[str, Any]:
    """One traced run per tree and workload; print and return the count
    metrics that differ."""
    out: Dict[str, Any] = {}
    print("exact counts (one --trace 1 run per tree, bound 0):")
    for workload in workloads:
        a, b = (run_once(tree, workload, seed, extra, trace=True)
                for tree in trees)
        if a is None or b is None:
            out[workload] = None
            print(f"  {workload}: no result line")
            continue
        diffs = out[workload] = count_diffs(a, b)
        print(f"  {workload}: "
              + (f"{len(diffs)} differ" if diffs else "identical"))
        for name, (x, y) in diffs.items():
            print(f"    {name}: A {x:.17g}  B {y:.17g}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0] if __doc__ else None)
    parser.add_argument("tree_a", type=pathlib.Path)
    parser.add_argument("tree_b", type=pathlib.Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        metavar="W1,W2")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run.py --seconds (default: its run_seconds)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of pair 0; pair k uses seed + k")
    parser.add_argument("--counts", action="store_true",
                        help="also compare the exact counts of one traced "
                             "run per tree")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    workloads = args.workloads.split(",")
    spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    extra = [] if args.seconds is None else ["--seconds", str(args.seconds)]
    for tree in trees:
        prepare(tree)

    # runs[workload][side] -> one result per pair (None: no result line)
    runs: Dict[str, Tuple[List[Optional[Run]], List[Optional[Run]]]] = {
        w: ([], []) for w in workloads
    }
    for k in range(args.pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, args.seed + k, extra)
                runs[workload][side].append(result)
                status = "no result" if result is None else (
                    f"failed {result['failed']}, pass_s "
                    f"{result['metrics']['pass_s']['value']:.3f}")
                print(f"pair {k} {workload} {'AB'[side]}: {status}",
                      file=sys.stderr, flush=True)

    summary: Dict[str, Dict[str, Any]] = {}
    print(f"{'workload':17s} {'metric':12s} {'n':>3s} {'A median':>10s} "
          f"{'B median':>10s}  {'B/A median [min, max]':24s} "
          f"{'W/L':>6s} {'sign p':>8s}  resolved  failed A/B")
    for workload in workloads:
        pairs = [(x, y) for x, y in zip(*runs[workload], strict=True)
                 if x is not None and y is not None]
        failed = [sum(r["failed"] for r in side if r is not None)
                  + sum(r is None for r in side) for side in runs[workload]]
        summary[workload] = {"failed_a": failed[0], "failed_b": failed[1]}
        for metric, low in lower.items():
            a = [x["metrics"][metric]["value"] for x, _ in pairs]
            b = [y["metrics"][metric]["value"] for _, y in pairs]
            if not a:
                continue
            s = summary[workload][metric] = summarize(a, b, low)
            span = (f"{s['ratio_median']:.3f} [{s['ratio_min']:.3f}, "
                    f"{s['ratio_max']:.3f}]")
            print(f"{workload:17s} {metric:12s} {s['n']:3d} "
                  f"{s['a_median']:10.4g} {s['b_median']:10.4g}  {span:24s} "
                  f"{s['wins']:>2d}/{s['losses']:<3d} {s['sign_p']:8.4f}  "
                  f"{'yes' if s['resolved'] else 'no':8s}  "
                  f"{failed[0]}/{failed[1]}")
    counts = (compare_counts(trees, workloads, args.seed, extra)
              if args.counts else None)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"trees": [str(t) for t in trees], "pairs": args.pairs,
             "seed": args.seed, "seconds": args.seconds,
             "summary": summary, "runs": runs, "counts": counts},
            indent=1) + "\n")
    ok = all(s["failed_a"] == s["failed_b"] == 0 for s in summary.values())
    ok = ok and None not in (counts or {}).values()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
