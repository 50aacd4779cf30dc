"""``python -m repro`` -- the package's one command-line front door.

One argparse tree covers every subsystem::

    python -m repro bench table1 figure1 --jobs 4     # tables and figures
    python -m repro bench --check                      # golden regression gate
    python -m repro trace jacobi small 4K --out t.json
    python -m repro faults --chaos-sweep --seeds 3 --apps Jacobi,TSP
    python -m repro faults Jacobi 1Kx1K 4K --drop 0.05
    python -m repro analyze --lint | --predict APP | --crosscheck
    python -m repro analyze modelcheck | layout
    python -m repro protocols --list
    python -m repro farm submit|worker|serve|status --store farm.db

``python -m repro.<subcommand> ARGS`` runs ``python -m repro
<subcommand> ARGS``.  The options several subcommands share are defined
once here: the cell selection (``--apps``, ``--protocols``, ``--nprocs``,
``--golden-dir``, ``--jobs``), the ``APP DATASET UNIT`` cell grammar and
the result-cache options.  Names are checked against the application,
protocol, experiment, sweep and litmus registries while parsing, so an
unknown name exits 2 with a usage line on every subcommand.  The
subsystems keep functions, not parsers, and a subcommand imports no
other subcommand's subsystem.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import pathlib
import sys
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.apps.base import Application
    from repro.farm.store import ResultStore

#: Case-insensitive spellings of the consistency units (golden labels).
UNITS = {"4k": "4K", "8k": "8K", "16k": "16K", "dyn": "Dyn"}

Registry = Callable[[], Sequence[str]]
MakeParser = Callable[..., argparse.ArgumentParser]


# ----------------------------------------------------------------------
# Registries, read only when an option names one of their entries
# ----------------------------------------------------------------------
def _app_names() -> List[str]:
    from repro.apps.base import AppRegistry

    return AppRegistry.names()


def _protocol_names() -> Tuple[str, ...]:
    """Registered protocols, the default first (the golden gate's order)."""
    from repro.protocols import protocol_names
    from repro.sim.config import DEFAULT_PROTOCOL

    rest = [name for name in protocol_names() if name != DEFAULT_PROTOCOL]
    return (DEFAULT_PROTOCOL, *rest)


def _litmus_names() -> List[str]:
    from repro.analyze.modelcheck import LITMUS_TESTS

    return sorted(LITMUS_TESTS)


# ----------------------------------------------------------------------
# Argument types
# ----------------------------------------------------------------------
def positive_int(text: str) -> int:
    """An integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _one_of(registry: Registry) -> Callable[[str], str]:
    """A name from ``registry`` (read when the argument is parsed)."""

    def parse(text: str) -> str:
        known = registry()
        if text not in known:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(known)})"
            )
        return text

    return parse


def _csv(
    registry: Registry, everything: bool = False
) -> Callable[[str], Tuple[str, ...]]:
    """A comma-separated subset of ``registry``; ``everything`` also
    accepts ``all`` for the whole registry."""
    one = _one_of(registry)

    def parse(text: str) -> Tuple[str, ...]:
        if everything and text == "all":
            return tuple(registry())
        return tuple(one(name) for name in text.split(",") if name)

    return parse


def resolve_app(name: str) -> str:
    """Case-insensitive application lookup."""
    for registered in _app_names():
        if registered.lower() == name.lower():
            return registered
    raise argparse.ArgumentTypeError(
        f"unknown application {name!r}; available: {_app_names()}"
    )


def resolve_dataset(app: Application, dataset: str) -> str:
    """Exact dataset label, or the 'small'/'large' alias (the app's
    smallest / largest dataset by heap size)."""
    if dataset in app.datasets:
        return dataset
    alias = dataset.lower()
    if alias in ("small", "large"):
        by_size = sorted(app.datasets, key=app.heap_bytes)
        return by_size[0] if alias == "small" else by_size[-1]
    raise argparse.ArgumentTypeError(
        f"{app.name} has no dataset {dataset!r}; available: "
        f"{sorted(app.datasets)} (or 'small'/'large')"
    )


def resolve_unit(unit: str) -> str:
    """Case-insensitive consistency unit."""
    label = UNITS.get(unit.lower())
    if label is None:
        raise argparse.ArgumentTypeError(
            f"unknown unit {unit!r}; use one of 4K, 8K, 16K, Dyn"
        )
    return label


# ----------------------------------------------------------------------
# Shared parent parsers
# ----------------------------------------------------------------------
def _selection(
    *,
    apps: bool = False,
    only: bool = False,
    protocols: bool = False,
    nprocs: bool = False,
    golden_dir: bool = False,
    jobs: bool = False,
) -> argparse.ArgumentParser:
    """The cell-selection options a subcommand takes (``only`` adds
    ``--only`` as an alias of ``--apps``)."""
    parent = argparse.ArgumentParser(add_help=False)
    if apps:
        flags = ("--apps", "--only") if only else ("--apps",)
        parent.add_argument(
            *flags, type=_csv(_app_names), default=None, metavar="APP[,APP]",
            help="restrict to these applications (default: all)",
        )
    if protocols:
        parent.add_argument(
            "--protocols", type=_csv(_protocol_names, everything=True),
            default=None, metavar="P[,P]|all",
            help="consistency protocols to cover ('all' = every registered "
            "protocol; default: the default protocol for bench, every "
            "protocol for farm and modelcheck)",
        )
    if nprocs:
        parent.add_argument(
            "--nprocs", type=int, default=8,
            help="simulated processors (default 8)",
        )
    if golden_dir:
        from repro.bench.golden import GOLDEN_DIR

        parent.add_argument(
            "--golden-dir", type=pathlib.Path, default=GOLDEN_DIR,
            help="golden baseline directory (default: %(default)s)",
        )
    if jobs:
        parent.add_argument(
            "--jobs", type=positive_int, default=1, metavar="N",
            help="fan cells out over N worker processes (results are "
            "bit-identical to a serial run; default 1)",
        )
    return parent


def _cell_args(optional: bool) -> argparse.ArgumentParser:
    """The ``APP DATASET UNIT`` grammar; the dataset is resolved against
    the app after parsing, by :func:`_cell`."""
    parent = argparse.ArgumentParser(add_help=False)
    nargs = "?" if optional else None
    parent.add_argument(
        "app", nargs=nargs, type=resolve_app,
        help="application name (case-insensitive)",
    )
    parent.add_argument(
        "dataset", nargs=nargs, help="dataset label, or 'small'/'large'"
    )
    parent.add_argument(
        "unit", nargs=nargs, type=resolve_unit,
        help="consistency unit: 4K, 8K, 16K, or Dyn (case-insensitive)",
    )
    return parent


def _cell(args: argparse.Namespace) -> Tuple[str, str, str]:
    from repro.apps.base import get_app

    try:
        dataset = resolve_dataset(get_app(args.app), args.dataset)
    except argparse.ArgumentTypeError as exc:
        args.error(f"argument dataset: {exc}")
    return args.app, dataset, args.unit


def _cache_args() -> argparse.ArgumentParser:
    from repro.bench.cache import DEFAULT_CACHE_DIR

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir", type=pathlib.Path, default=DEFAULT_CACHE_DIR,
        help="on-disk result cache directory (default: %(default)s)",
    )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    return parent


@contextlib.contextmanager
def disk_cache(args: argparse.Namespace) -> Iterator[None]:
    """Attach the ``--cache-dir`` disk cache (none with ``--no-cache``)
    to :class:`ResultCache`, then restore the one attached before."""
    from repro.bench.cache import DiskCache
    from repro.bench.harness import ResultCache

    previous = ResultCache.disk()
    ResultCache.configure(None if args.no_cache else DiskCache(args.cache_dir))
    try:
        yield
    finally:
        ResultCache.configure(previous)


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def _bench(make: MakeParser) -> None:
    from repro.bench.experiments import rendered

    names = sorted(rendered()) + ["all"]
    p = make(
        description="Regenerate the paper's tables and figures, and run "
        "the golden-baseline regression gate.  Sweep cells are cached on "
        "disk, keyed by code version and configuration, so any source "
        "change invalidates them.",
        parents=[
            _selection(apps=True, only=True, protocols=True,
                       golden_dir=True, jobs=True),
            _cache_args(),
        ],
    )
    # A type, not choices=: argparse before 3.12 checks the empty list
    # that nargs="*" yields against choices, and rejects it.
    p.add_argument(
        "experiments", nargs="*", type=_one_of(lambda: names),
        metavar="{" + ",".join(names) + "}", help="which experiments to run",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to write .txt outputs into (default: print only)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="golden-baseline regression gate: re-run the fixed matrix "
        "(all apps, smallest dataset, 4K/8K/16K/Dyn, plus the "
        "microbenchmarks) and exact-match every counter against "
        "benchmarks/golden/; exit 1 on any drift",
    )
    p.add_argument(
        "--refresh-golden", action="store_true",
        help="regenerate the committed golden baselines from the current "
        "code (review the diff before committing)",
    )
    tier = p.add_mutually_exclusive_group()
    tier.add_argument(
        "--full", action="store_true",
        help="widen --check / --refresh-golden with the paper full-size "
        "datasets (Barnes 32K bodies, Jacobi 512x512, Shallow 512x512; "
        "default protocol, 4K and Dyn units).  This is the DEFAULT for "
        "bulk mode since the vectorized protocol kernels made the full "
        "sizes cheap; the flag remains to force the tier onto a "
        "scalar-mode check",
    )
    tier.add_argument(
        "--small-only", action="store_true",
        help="restrict --check / --refresh-golden to the scaled small "
        "datasets (opts out of the default full-size tier)",
    )
    p.add_argument(
        "--access-mode", choices=("bulk", "scalar"), default="bulk",
        help="region-access decomposition for --check: 'scalar' re-runs "
        "the gate matrix with every bulk access decomposed into word "
        "accesses and exact-matches it against the same (bulk-generated) "
        "baselines -- the scalar-vs-bulk equivalence gate "
        "(default: %(default)s)",
    )
    p.set_defaults(run=_run_bench, error=p.error)


def _run_bench(args: argparse.Namespace) -> int:
    from repro.bench import golden, pool
    from repro.bench.experiments import EXPERIMENTS, cells_of, rendered
    from repro.bench.harness import ResultCache

    doing_golden = args.check or args.refresh_golden
    if not args.experiments and not doing_golden:
        args.error(
            "nothing to do: give experiments and/or --check / --refresh-golden"
        )
    if args.access_mode != "bulk" and (args.experiments or args.refresh_golden):
        args.error(
            "--access-mode scalar is only meaningful with --check (the "
            "baselines and experiment tables are defined under bulk mode)"
        )
    protocols = args.protocols or (golden.DEFAULT_PROTOCOL,)
    # Full-size cells are the default tier for bulk-mode --check and
    # --refresh-golden (keeping the refresh->check roundtrip closed);
    # scalar-mode decomposes every access into words, which multiplies
    # protocol bookkeeping, so it stays small unless --full forces it.
    full = args.full or (
        doing_golden and not args.small_only and args.access_mode == "bulk"
    )
    with disk_cache(args):
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
                args.golden_dir, apps=args.apps, jobs=args.jobs,
                protocols=protocols, full=full,
            )
            for path in written:
                print(f"wrote {path}")
        if args.check:
            check_report = golden.check(
                args.golden_dir, apps=args.apps, jobs=args.jobs,
                protocols=protocols, access_mode=args.access_mode,
                full=full,
            )
            print(check_report.render())
            if not check_report.ok:
                return 1
    return 0


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _trace(make: MakeParser) -> None:
    p = make(
        description="Trace one simulated DSM run: timeline export, "
        "race check, per-page false-sharing attribution and "
        "per-barrier-epoch cost.",
        parents=[_cell_args(optional=False), _selection(nprocs=True)],
    )
    p.add_argument("--out", default=None, help="write Chrome-trace JSON here")
    p.add_argument(
        "--jsonl", default=None, help="write the raw event log here (JSONL)"
    )
    p.add_argument(
        "--no-races", action="store_true",
        help="skip the happens-before race check",
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="pages to show in the attribution report (default 10)",
    )
    p.set_defaults(run=_run_trace, error=p.error)


def _run_trace(args: argparse.Namespace) -> int:
    from repro.apps.base import get_app, run_app
    from repro.bench.harness import config_for
    from repro.trace.attribution import (
        attribute_pages,
        phase_rows,
        render_attribution,
        render_phases,
    )
    from repro.trace.export import write_chrome_trace, write_jsonl
    from repro.trace.hb import detect_races

    name, dataset, label = _cell(args)
    app = get_app(name)
    config = config_for(label, nprocs=args.nprocs, trace=True)
    try:
        config.validate()
    except ValueError as exc:
        args.error(str(exc))

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
    print(render_attribution(attribute_pages(trace), top=args.top))
    print(render_phases(phase_rows(trace)))
    return rc


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
def _faults(make: MakeParser) -> None:
    p = make(
        description="Fault-injection lab: faulty runs and the chaos gate.  "
        "--chaos-sweep runs N reseeded fault plans over every "
        "application's smallest dataset against the fault-free golden "
        "baselines; APP DATASET UNIT runs one faulty cell side by side "
        "with its fault-free run.",
        parents=[
            _cell_args(optional=True),
            _selection(apps=True, golden_dir=True, jobs=True),
            _cache_args(),
        ],
    )
    p.add_argument(
        "--chaos-sweep", action="store_true",
        help="run the invariant gate over every application's smallest "
        "dataset; exit 1 on any divergence from benchmarks/golden/",
    )
    p.add_argument("--seeds", type=positive_int, default=5, metavar="N",
                   help="number of reseeded plans to sweep (default 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="base plan seed (default 0)")
    p.add_argument(
        "--labels", type=_csv(lambda: tuple(UNITS.values())), default="4K",
        metavar="L[,L]",
        help="consistency labels to sweep, from 4K,8K,16K,Dyn (default 4K)",
    )
    p.add_argument("--drop", type=float, default=0.02,
                   help="message drop rate (default 0.02)")
    p.add_argument("--dup", type=float, default=0.01,
                   help="duplicate-delivery rate (default 0.01)")
    p.add_argument("--reorder", type=float, default=0.02,
                   help="bounded-reorder rate (default 0.02)")
    p.add_argument("--jitter", type=float, default=50.0, metavar="US",
                   help="max latency jitter per message in "
                   "microseconds (default 50)")
    p.add_argument("--max-retries", type=int, default=8,
                   help="retransmission cap per message (default 8)")
    p.add_argument("--timeout-us", type=float, default=1000.0,
                   help="initial retransmission timeout (default 1000)")
    p.add_argument(
        "--no-retries", action="store_true",
        help="disable the timeout/retransmit machinery: the first lost "
        "message raises DroppedMessageError",
    )
    p.set_defaults(run=_run_faults, error=p.error)


def _run_faults(args: argparse.Namespace) -> int:
    from repro.bench.harness import ResultCache, run_case
    from repro.faults.channel import DroppedMessageError
    from repro.faults.gate import INVARIANT_FIELDS, render_single, run_chaos
    from repro.faults.plan import FaultPlan

    words = [w for w in (args.app, args.dataset, args.unit) if w is not None]
    if args.chaos_sweep == bool(words):
        args.error("give either --chaos-sweep or APP DATASET UNIT")
    if words and len(words) != 3:
        args.error(f"single-run mode takes exactly APP DATASET UNIT, got {words!r}")
    plan = FaultPlan.uniform(
        seed=args.seed,
        drop_rate=args.drop,
        dup_rate=args.dup,
        reorder_rate=args.reorder,
        jitter_us=args.jitter,
    ).replace(
        max_retries=args.max_retries,
        timeout_us=args.timeout_us,
        retries_enabled=not args.no_retries,
    )
    with disk_cache(args):
        if args.chaos_sweep:
            report = run_chaos(
                seeds=args.seeds,
                base_seed=args.seed,
                plan=plan,
                apps=args.apps,
                labels=args.labels,
                jobs=args.jobs,
                golden_dir=args.golden_dir,
                progress=lambda msg: print(f"# {msg}", file=sys.stderr),
            )
            print(report.render())
            return 0 if report.ok else 1

        app, dataset, label = _cell(args)
        base = ResultCache.get(app, dataset, label)
        try:
            faulty = run_case(app, dataset, label, fault_plan=plan.canonical())
        except DroppedMessageError as exc:
            print(f"run failed: {exc}")
            return 1
    print(render_single(base, faulty))
    invariant_ok = all(
        getattr(base, f) == getattr(faulty, f) for f in INVARIANT_FIELDS
    )
    print(
        "invariant: "
        + ("OK (only time and fault counters moved)" if invariant_ok
           else "VIOLATED (** rows above)")
    )
    return 0 if invariant_ok else 1


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def _analyze(make: MakeParser) -> None:
    p = make(
        description="Determinism lint (--lint), static access-pattern "
        "prediction (--predict APP) and its dynamic crosscheck "
        "(--crosscheck); the 'modelcheck' and 'layout' subcommands run "
        "the protocol model checker and the false-sharing layout advisor.",
        parents=[_selection(apps=True, nprocs=True)],
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--lint", action="store_true",
        help="run the determinism lint (exit 1 on findings)",
    )
    mode.add_argument(
        "--predict", metavar="APP", type=resolve_app,
        help="predict false-sharing pages / useless-data bound for APP",
    )
    mode.add_argument(
        "--crosscheck", action="store_true",
        help="validate predictions against traced runs (all 8 apps, or "
        "--apps)",
    )
    p.add_argument(
        "--paths", nargs="*", default=[],
        help="lint these files/dirs instead of the default "
        "src/repro + tests + benchmarks",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="with --lint/--predict: also write the JSON report here",
    )
    p.add_argument(
        "--dataset", default="small",
        help="with --predict: dataset label, or 'small'/'large' "
        "(default: small)",
    )
    p.add_argument(
        "--update-ratchet", action="store_true",
        help="with --crosscheck: rewrite the analyzer-gap ratchet file",
    )
    p.set_defaults(run=_run_analyze, error=p.error)

    nested = p.add_subparsers(dest="analysis", metavar="{modelcheck,layout}")
    mc = nested.add_parser(
        "modelcheck",
        help="exhaustive small-scope model checking of the protocols",
        description="exhaustive small-scope model checking of the "
        "consistency protocols against the release-consistency oracle; "
        "state/terminal/outcome counts are pinned in "
        "benchmarks/modelcheck/state_counts.json",
        parents=[_selection(protocols=True)],
    )
    mc.add_argument(
        "--litmus", type=_csv(_litmus_names), default=None, metavar="T[,T]",
        help="comma-separated litmus subset (default: all)",
    )
    mc.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the committed state-count baseline",
    )
    mc.add_argument(
        "--no-mutation-gate", action="store_true",
        help="skip the seeded-bug mutation gate",
    )
    mc.add_argument(
        "--witness", metavar="PATH", default=None,
        help="where to write a violation witness "
        "(default modelcheck_witness.json)",
    )
    mc.set_defaults(run=_run_modelcheck, error=mc.error)

    lay = nested.add_parser(
        "layout",
        help="static false-sharing layout advisor",
        description="static false-sharing layout advisor: padding "
        "proposals with predicted conflict deltas",
        parents=[_selection(apps=True, nprocs=True)],
    )
    lay.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the advisor reports as JSON here",
    )
    lay.add_argument(
        "--crosscheck", action="store_true",
        help="apply the pinned cells' plans to real runs and gate "
        "against the committed baseline",
    )
    lay.add_argument(
        "--update", action="store_true",
        help="with --crosscheck: rewrite the committed baseline",
    )
    lay.set_defaults(run=_run_layout, error=lay.error)


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.analyze.crosscheck import run_crosscheck

    if not (args.lint or args.predict or args.crosscheck):
        args.error(
            "give one of --lint, --predict APP or --crosscheck, or a "
            "subcommand (modelcheck, layout)"
        )
    if args.lint:
        return _lint(args)
    if args.predict:
        return _predict(args)
    return run_crosscheck(
        apps=args.apps, nprocs=args.nprocs, update_ratchet=args.update_ratchet
    )


def _lint(args: argparse.Namespace) -> int:
    from repro.analyze.detlint import (
        HELPER_EXCLUDE_PARTS,
        helper_roots,
        lint_paths,
        repo_roots,
    )
    from repro.analyze.report import merge_sections

    if args.paths:
        sections = {"src": lint_paths([pathlib.Path(p) for p in args.paths])}
    else:
        sections = {
            "src": lint_paths(repo_roots()),
            "helpers": lint_paths(
                helper_roots(), exclude_parts=HELPER_EXCLUDE_PARTS
            ),
        }
    ok = True
    for name, report in sections.items():
        print(f"== {name} ==")
        print(report.render())
        ok = ok and report.ok
    _write_json(args.json, merge_sections(sections))
    return 0 if ok else 1


def _predict(args: argparse.Namespace) -> int:
    from repro.analyze.predict import predict
    from repro.apps.base import get_app

    try:
        dataset = resolve_dataset(get_app(args.predict), args.dataset)
    except argparse.ArgumentTypeError as exc:
        args.error(f"argument --dataset: {exc}")
    prediction = predict(args.predict, dataset, nprocs=args.nprocs)
    print(prediction.render())
    _write_json(args.json, prediction.to_json_dict())
    return 0


def _write_json(path: Optional[str], doc: object) -> None:
    """The ``--json`` machine report, when one was asked for."""
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json report: {path}")


def _run_modelcheck(args: argparse.Namespace) -> int:
    from repro.analyze.modelcheck import run_modelcheck

    return run_modelcheck(
        litmus_names=args.litmus,
        protocols=args.protocols,
        update_baseline=args.update_baseline,
        with_mutation_gate=not args.no_mutation_gate,
        witness_path=args.witness,
    )


def _run_layout(args: argparse.Namespace) -> int:
    from repro.analyze.layout import run_layout

    return run_layout(
        apps=args.apps,
        nprocs=args.nprocs,
        json_path=args.json,
        crosscheck=args.crosscheck,
        update_baseline=args.update,
    )


# ----------------------------------------------------------------------
# protocols
# ----------------------------------------------------------------------
def _protocols(make: MakeParser) -> None:
    p = make(description="Consistency-protocol zoo: the registry.")
    p.add_argument(
        "--list", action="store_true", dest="list_protocols",
        help="list the registered protocols",
    )
    p.set_defaults(run=_run_protocols, error=p.error)


def _run_protocols(args: argparse.Namespace) -> int:
    from repro.protocols.base import render_list

    if not args.list_protocols:
        args.error("nothing to do: give --list")
    print(render_list())
    return 0


# ----------------------------------------------------------------------
# farm
# ----------------------------------------------------------------------
def _farm(make: MakeParser) -> None:
    from repro.bench.cache import DEFAULT_CACHE_DIR
    from repro.bench.experiments import with_cells
    from repro.farm.store import DEFAULT_LEASE_TTL, DEFAULT_MAX_GENERATIONS

    p = make(
        description="Distributed sweep farm: content-addressed result "
        "store, work-stealing workers, read-only results service.  "
        "Workers on any number of machines pointed at one shared store "
        "drain the queue together without further coordination.",
    )
    sub = p.add_subparsers(dest="farm_command", required=True)
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument(
        "--store", default=str(DEFAULT_CACHE_DIR),
        help="store to use: a directory (local JSON layout, byte-compatible "
        "with the bench cache) or a .sqlite/.db/sqlite: path (default: "
        "%(default)s)",
    )
    # Only workers take the lease options; the others open with these.
    store.set_defaults(
        lease_ttl=DEFAULT_LEASE_TTL, max_generations=DEFAULT_MAX_GENERATIONS
    )

    sweeps = sorted(with_cells())
    submit = sub.add_parser(
        "submit", help="enqueue sweep cells that are not yet computed",
        parents=[_selection(apps=True, protocols=True), store],
    )
    submit.add_argument(
        "sweeps", nargs="+", metavar="SWEEP", choices=sweeps,
        help=f"sweeps to enqueue: {', '.join(sweeps)}",
    )
    submit.set_defaults(run=_farm_submit)

    worker = sub.add_parser(
        "worker", help="claim and compute pending cells until drained",
        parents=[store],
    )
    worker.add_argument(
        "--id", default=None, help="worker id (default: <hostname>-<pid>)"
    )
    worker.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after computing N cells",
    )
    worker.add_argument(
        "--follow", action="store_true",
        help="keep polling for new work instead of exiting when drained",
    )
    worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle poll interval with --follow (default: %(default)s)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="lease duration before a crashed worker's cell is "
        "reclaimable (default: %(default)s)",
    )
    worker.add_argument(
        "--max-generations", type=int, default=DEFAULT_MAX_GENERATIONS,
        metavar="N",
        help="abandon a cell after N expired leases (default: %(default)s)",
    )
    worker.set_defaults(run=_farm_worker)

    serve = sub.add_parser(
        "serve", help="read-only HTTP results service over the store",
        parents=[store],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8008)
    serve.set_defaults(run=_farm_serve)

    status = sub.add_parser(
        "status", help="store and queue counters", parents=[store]
    )
    status.set_defaults(run=_farm_status)


def _open(args: argparse.Namespace) -> contextlib.closing[ResultStore]:
    from repro.farm.store import open_store

    return contextlib.closing(open_store(
        args.store,
        lease_ttl=args.lease_ttl,
        max_generations=args.max_generations,
    ))


def _farm_submit(args: argparse.Namespace) -> int:
    from repro.farm.submit import sweep_cells

    cells = sweep_cells(args.sweeps, apps=args.apps, protocols=args.protocols)
    with _open(args) as store:
        report = store.submit(cells)
    print(f"submit: {report.summary()}")
    return 0


def _farm_worker(args: argparse.Namespace) -> int:
    from repro.farm.worker import work

    with _open(args) as store:
        report = work(
            store,
            worker_id=args.id,
            max_cells=args.max_cells,
            follow=args.follow,
            poll_seconds=args.poll,
            progress=lambda line: print(line, file=sys.stderr),
        )
    print(report.summary())
    return 1 if report.failed else 0


def _farm_serve(args: argparse.Namespace) -> int:
    from repro.farm.service import serve_forever

    with _open(args) as store, contextlib.suppress(KeyboardInterrupt):
        serve_forever(
            store, args.host, args.port,
            announce=lambda line: print(line, file=sys.stderr),
        )
    return 0


def _farm_status(args: argparse.Namespace) -> int:
    with _open(args) as store:
        status = store.status()
    print(status.summary())
    for cell, error in status.failures:
        print(f"  failed: {cell}: {error}")
    return 0


# ----------------------------------------------------------------------
# The tree
# ----------------------------------------------------------------------
#: Subcommand -> (one-line summary, function that adds its parser).
COMMANDS: Dict[str, Tuple[str, Callable[[MakeParser], None]]] = {
    "bench": ("regenerate the paper's tables and figures; golden "
              "regression gate", _bench),
    "trace": ("protocol event tracing, timeline export, happens-before "
              "race detector", _trace),
    "faults": ("fault-injection lab: faulty runs and the chaos-sweep "
               "invariant gate", _faults),
    "analyze": ("determinism lint, static access-pattern analysis, model "
                "checker and layout advisor", _analyze),
    "protocols": ("consistency-protocol zoo: list the registry", _protocols),
    "farm": ("distributed sweep farm: submit cells, run work-stealing "
             "workers, serve results read-only", _farm),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The command tree.  With ``only`` set, just that subcommand gets its
    options (the others are listed by name), so parsing one command
    imports no other subsystem."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Trade-offs Between False Sharing and "
        "Aggregation in Software Distributed Shared Memory'.  Run "
        "`python -m repro SUBCOMMAND --help` for each subcommand's options.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="SUBCOMMAND"
    )
    for name, (summary, build) in COMMANDS.items():
        make = functools.partial(sub.add_parser, name, help=summary)
        if only is None or only == name:
            build(make)
        else:
            make()
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run the subcommand;
    returns its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else "").parse_args(argv)
    result: int = args.run(args)
    return result
