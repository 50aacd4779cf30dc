"""Command-line runner for the experiment harness.

    python -m repro.bench table1
    python -m repro.bench figure1 figure2 figure3 --jobs 4
    python -m repro.bench micro ablation
    python -m repro.bench all --out repro_results
    python -m repro.bench --check
    python -m repro.bench --refresh-golden

The CLI does two things: it runs the experiment registry's experiments
and it runs the golden gate.  Each experiment prints the paper-shaped
table and (with ``--out``) writes it next to the CSV data, exactly like
the pytest-benchmark suite.  Timelines and per-barrier-epoch cost of one
cell come from ``python -m repro.trace``; host time from the benchmark
(``python -m benchmarks.perf``, compared across commits by
``tools/ab.py``).

Sweep cells are cached on disk under ``repro_results/cache/`` (keyed by
code version + configuration, so any source change invalidates them) and
can be fanned out over worker processes with ``--jobs``; parallel runs
are bit-identical to serial ones.  ``--check`` is the golden-baseline
regression gate (exit 1 on any counter drift); ``--refresh-golden``
regenerates the committed baselines after an intended behavior change.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence, Tuple

from repro.bench import cache, golden, pool
from repro.bench.experiments import EXPERIMENTS, cells_of, rendered
from repro.bench.harness import ResultCache


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        metavar="{" + ",".join(sorted(rendered()) + ["all"]) + "}",
        help="which experiments to run",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write .txt outputs into (default: print only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run sweep cells over N worker processes (results are "
        "bit-identical to a serial run; default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=cache.DEFAULT_CACHE_DIR,
        help="on-disk result cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="golden-baseline regression gate: re-run the fixed matrix "
        "(all apps, smallest dataset, 4K/8K/16K/Dyn, plus the "
        "microbenchmarks) and exact-match every counter against "
        "benchmarks/golden/; exit 1 on any drift",
    )
    parser.add_argument(
        "--refresh-golden",
        action="store_true",
        help="regenerate the committed golden baselines from the current "
        "code (review the diff before committing)",
    )
    parser.add_argument(
        "--golden-dir",
        type=pathlib.Path,
        default=golden.GOLDEN_DIR,
        help="golden baseline directory (default: %(default)s)",
    )
    parser.add_argument(
        "--only",
        type=str,
        default=None,
        metavar="APP[,APP]",
        help="restrict --check / --refresh-golden to these applications "
        "(skips the micro baselines)",
    )
    parser.add_argument(
        "--protocols",
        type=str,
        default=None,
        metavar="P[,P]|all",
        help="widen --check / --refresh-golden to these consistency "
        f"protocols ('all' = {','.join(golden.GOLDEN_PROTOCOLS)}; "
        "default: the default protocol only)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="widen --check / --refresh-golden with the paper full-size "
        "datasets (Barnes 32K bodies, Jacobi 512x512, Shallow 512x512; "
        "default protocol, 4K and Dyn units).  This is the DEFAULT for "
        "bulk mode since the vectorized protocol kernels made the full "
        "sizes cheap; the flag remains to force the tier onto a "
        "scalar-mode check",
    )
    parser.add_argument(
        "--small-only",
        action="store_true",
        help="restrict --check / --refresh-golden to the scaled small "
        "datasets (opts out of the default full-size tier)",
    )
    parser.add_argument(
        "--access-mode",
        choices=("bulk", "scalar"),
        default="bulk",
        help="region-access decomposition for --check: 'scalar' re-runs "
        "the gate matrix with every bulk access decomposed into word "
        "accesses and exact-matches it against the same (bulk-generated) "
        "baselines -- the scalar-vs-bulk equivalence gate "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    doing_golden = args.check or args.refresh_golden
    if not args.experiments and not doing_golden:
        parser.error(
            "nothing to do: give experiments and/or --check / --refresh-golden"
        )
    for name in args.experiments:
        if name != "all" and name not in rendered():
            parser.error(
                f"unknown experiment {name!r} (choose from "
                f"{', '.join(sorted(rendered()) + ['all'])})"
            )
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.access_mode != "bulk" and (args.experiments or args.refresh_golden):
        parser.error(
            "--access-mode scalar is only meaningful with --check (the "
            "baselines and experiment tables are defined under bulk mode)"
        )

    apps = args.only.split(",") if args.only else None
    protocols: Tuple[str, ...]
    if args.protocols == "all":
        protocols = golden.GOLDEN_PROTOCOLS
    elif args.protocols:
        protocols = tuple(args.protocols.split(","))
        unknown = set(protocols) - set(golden.GOLDEN_PROTOCOLS)
        if unknown:
            parser.error(
                f"unknown protocol(s) {sorted(unknown)} "
                f"(choose from {', '.join(golden.GOLDEN_PROTOCOLS)} or 'all')"
            )
    else:
        protocols = (golden.DEFAULT_PROTOCOL,)
    if args.small_only and args.full:
        parser.error("--small-only and --full are mutually exclusive")
    # Full-size cells are the default tier for bulk-mode --check and
    # --refresh-golden (keeping the refresh->check roundtrip closed);
    # scalar-mode decomposes every access into words, which multiplies
    # protocol bookkeeping, so it stays small unless --full forces it.
    full = args.full or (
        (args.check or args.refresh_golden)
        and not args.small_only
        and args.access_mode == "bulk"
    )
    previous_disk = ResultCache.disk()
    ResultCache.configure(
        None if args.no_cache else cache.DiskCache(args.cache_dir)
    )
    try:
        names = sorted(rendered()) if "all" in args.experiments else args.experiments
        if names:
            # Prewarm in parallel so the (serial) renderers only hit.
            report = pool.run_cells(cells_of(names), jobs=args.jobs)
            print(f"# sweep: {report.summary()}", file=sys.stderr)
        for name in names:
            render = EXPERIMENTS[name].render
            assert render is not None  # rendered() names only
            text = render(ResultCache.get)
            print(text)
            print()
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(text + "\n")

        if args.refresh_golden:
            written = golden.write_golden(
                args.golden_dir, apps=apps, jobs=args.jobs,
                protocols=protocols, full=full,
            )
            for path in written:
                print(f"wrote {path}")
        if args.check:
            check_report = golden.check(
                args.golden_dir, apps=apps, jobs=args.jobs,
                protocols=protocols, access_mode=args.access_mode,
                full=full,
            )
            print(check_report.render())
            if not check_report.ok:
                return 1
        return 0
    finally:
        ResultCache.configure(previous_disk)


if __name__ == "__main__":
    sys.exit(main())
