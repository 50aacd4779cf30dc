"""Small-scope exhaustive model checker for the consistency protocols.

The protocol zoo (:mod:`repro.protocols`) is validated dynamically by
checksum invariance over the eight applications -- strong evidence, but
each run exercises exactly one interleaving per configuration.  This
module closes the gap in the herd-litmus style: tiny litmus programs
(2-3 processors, 2-4 shared words, acquire/release/barrier annotations)
are driven through the *real* protocol engines via the thread-free
:class:`repro.dsm.stepper.SteppedSystem`, and **every** interleaving is
enumerated by breadth-first search over schedule prefixes with
state-hash deduplication.

Oracle
------
All litmus programs are data-race-free by construction: every replay
runs traced, and the happens-before detector
(:func:`repro.trace.hb.detect_races`) over its trace rejects a racy
litmus definition as a *litmus* error, not a protocol violation.  For
a DRF program, release consistency admits exactly one value per read:
the last write in happens-before order -- which, because every executed
schedule is a linear extension of happens-before, equals the last write
*executed* at the time of the read.  The oracle therefore maintains a plain reference
array updated at each write in schedule order and checks every read
(and, at each terminal state, every processor's view of every litmus
word) against it.  This is the same apply-all-writes-in-hb-order
reference the hypothesis invariance property uses, specialized to word
granularity.

Witnesses and the mutation gate
-------------------------------
Because exploration is breadth-first with children expanded in
ascending processor order, the first violation found is a *minimal*
interleaving witness (shortest schedule, lexicographically first among
the shortest).  Witnesses serialize to JSON with an embedded schedule
(replayable via :func:`replay_witness`) and export as a Chrome trace
for ``repro.trace`` viewing.  A deliberately broken hlrc
variant that skips its first DIFF_FLUSH (:class:`BrokenHomeLrcProc`)
must be rejected by the checker -- the *mutation gate* proving the
whole apparatus can actually catch protocol bugs.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dsm.stepper import Instruction, Program, SteppedSystem
from repro.protocols import get_protocol
from repro.protocols.base import ProtocolInfo
from repro.protocols.hlrc import HomeLrcProc
from repro.sim.config import SimConfig
from repro.trace.hb import detect_races

#: Protocols every litmus test is checked against.
CHECKED_PROTOCOLS: Tuple[str, ...] = ("tm-lrc", "hlrc", "erc", "swi")

#: Default cap on distinct explored states per (litmus, protocol).
MAX_STATES = 250_000


class LitmusError(Exception):
    """A litmus program is ill-formed (racy or produced an invalid
    schedule) -- a bug in the litmus definition, not the protocol."""


# ----------------------------------------------------------------------
# Litmus programs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Litmus:
    """One litmus test: per-processor programs over a few shared words."""

    name: str
    description: str
    programs: Tuple[Program, ...]
    words: Tuple[int, ...]
    heap_bytes: int = 8192

    @property
    def nprocs(self) -> int:
        return len(self.programs)

    @property
    def reg_slots(self) -> Tuple[Tuple[int, str], ...]:
        """(proc, register) pairs in program order -- the outcome shape."""
        slots: List[Tuple[int, str]] = []
        for p, prog in enumerate(self.programs):
            for instr in prog:
                if instr[0] in ("read", "rmw"):
                    slots.append((p, str(instr[-1])))
        return tuple(slots)


def _w(word: int, value: int) -> Instruction:
    return ("write", word, value)


def _r(word: int, reg: str) -> Instruction:
    return ("read", word, reg)


#: Word in unit 0 / word in unit 1 (4 KB units over the 8 KB litmus heap).
_X, _Y = 0, 1024

LITMUS_TESTS: Dict[str, Litmus] = {
    lit.name: lit
    for lit in (
        Litmus(
            name="mp",
            description=(
                "message passing: data + flag written before a barrier "
                "must both be visible after it"
            ),
            programs=(
                (_w(_X, 1), _w(_Y, 1), ("barrier", 0), ("barrier", 1)),
                (
                    ("barrier", 0),
                    _r(_Y, "r0"),
                    _r(_X, "r1"),
                    ("barrier", 1),
                ),
            ),
            words=(_X, _Y),
        ),
        Litmus(
            name="sb",
            description=(
                "store buffering under locks: each processor publishes "
                "one word then reads the other's; program order forbids "
                "the both-zero outcome"
            ),
            programs=(
                (
                    ("acquire", 0),
                    _w(_X, 1),
                    ("release", 0),
                    ("acquire", 1),
                    _r(_Y, "r0"),
                    ("release", 1),
                    ("barrier", 9),
                ),
                (
                    ("acquire", 1),
                    _w(_Y, 1),
                    ("release", 1),
                    ("acquire", 0),
                    _r(_X, "r1"),
                    ("release", 0),
                    ("barrier", 9),
                ),
            ),
            words=(_X, _Y),
        ),
        Litmus(
            name="corr",
            description=(
                "coherent read-read: two reads of the same word in one "
                "critical section must agree (no stale second read)"
            ),
            programs=(
                (
                    ("acquire", 0),
                    _w(_X, 1),
                    _w(_X, 2),
                    ("release", 0),
                    ("barrier", 9),
                ),
                (
                    ("acquire", 0),
                    _r(_X, "r0"),
                    _r(_X, "r1"),
                    ("release", 0),
                    ("barrier", 9),
                ),
            ),
            words=(_X,),
        ),
        Litmus(
            name="fs-diff-merge",
            description=(
                "false sharing: three processors write adjacent words of "
                "one unit in concurrent intervals; after the barrier every "
                "processor must see all three writes (diff merge)"
            ),
            programs=(
                (
                    _w(0, 5),
                    ("barrier", 0),
                    _r(1, "r0"),
                    _r(2, "r1"),
                    ("barrier", 1),
                ),
                (
                    _w(1, 6),
                    ("barrier", 0),
                    _r(2, "r0"),
                    _r(0, "r1"),
                    ("barrier", 1),
                ),
                (
                    _w(2, 7),
                    ("barrier", 0),
                    _r(0, "r0"),
                    _r(1, "r1"),
                    ("barrier", 1),
                ),
            ),
            words=(0, 1, 2),
        ),
        Litmus(
            name="migratory",
            description=(
                "migratory ownership: a lock-protected counter visits "
                "three processors twice each; every increment must build "
                "on the previous one"
            ),
            programs=tuple(
                (
                    ("acquire", 0),
                    ("rmw", _X, 1, "r0"),
                    ("release", 0),
                    ("acquire", 0),
                    ("rmw", _X, 1, "r1"),
                    ("release", 0),
                    ("barrier", 9),
                )
                for _ in range(3)
            ),
            words=(_X,),
        ),
    )
}


# ----------------------------------------------------------------------
# Schedule replay with the RC oracle
# ----------------------------------------------------------------------
@dataclass
class ReplayResult:
    """One schedule executed against one protocol."""

    system: SteppedSystem
    steps: List[dict]
    key: str
    """State digest after the schedule (before any terminal-state
    reads, which fault data in and would perturb the state)."""
    violation: Optional[dict]
    outcome: Optional[Tuple[int, ...]]
    """Register values in :attr:`Litmus.reg_slots` order; set when the
    schedule is terminal and violation-free."""


def replay(
    litmus: Litmus, info: ProtocolInfo, schedule: Sequence[int]
) -> ReplayResult:
    """Execute ``schedule`` (a processor index per step) and check every
    read -- and, at a terminal state, every processor's final view --
    against the RC oracle.  Raises :class:`LitmusError` when the
    schedule picks a processor that is not enabled, or when the executed
    prefix races."""
    system = SteppedSystem(
        info,
        litmus.programs,
        heap_bytes=litmus.heap_bytes,
        config=SimConfig(nprocs=litmus.nprocs, trace=True),
    )
    ref: Dict[int, int] = {}
    steps: List[dict] = []
    violation: Optional[dict] = None

    for i, p in enumerate(schedule):
        if system.finished(p) or system.cursors[p].blocked:
            raise LitmusError(
                f"invalid schedule for {litmus.name!r}: step {i} picks "
                f"P{p}, which is not enabled"
            )
        instr = system.step(p)
        steps.append({"i": i, "proc": p, "instr": list(instr)})
        kind = instr[0]
        if kind == "write":
            _, word, value = instr
            ref[int(word)] = int(value)
        elif kind in ("read", "rmw"):
            word, reg = int(instr[1]), str(instr[-1])
            expected = ref.get(word, 0)
            actual = system.cursors[p].regs[reg]
            if kind == "rmw":
                ref[word] = expected + int(instr[2])
            if actual != expected:
                violation = {
                    "kind": "read",
                    "step": i,
                    "proc": p,
                    "word": word,
                    "expected": expected,
                    "actual": actual,
                }
                break

    # Before any terminal read: those are unsynchronized by design.
    trace = system.trace
    assert trace is not None
    races = detect_races(trace.events, litmus.nprocs, trace.layout, max_races=1)
    if races.races:
        raise LitmusError(
            f"litmus {litmus.name!r} is racy: {races.races[0].describe()}"
        )
    key = system.state_key()
    outcome: Optional[Tuple[int, ...]] = None
    if violation is None and system.terminal():
        for p in range(litmus.nprocs):
            for word in litmus.words:
                expected = ref.get(word, 0)
                actual = system.read_word(p, word)
                if actual != expected:
                    violation = {
                        "kind": "final",
                        "step": len(steps),
                        "proc": p,
                        "word": word,
                        "expected": expected,
                        "actual": actual,
                    }
                    break
            if violation is not None:
                break
        if violation is None:
            outcome = tuple(
                system.cursors[p].regs[reg] for p, reg in litmus.reg_slots
            )
    return ReplayResult(
        system=system,
        steps=steps,
        key=key,
        violation=violation,
        outcome=outcome,
    )


# ----------------------------------------------------------------------
# Breadth-first exhaustive exploration
# ----------------------------------------------------------------------
@dataclass
class ExploreResult:
    """Exhaustive exploration of one (litmus, protocol) pair."""

    litmus: str
    protocol: str
    states: int
    terminals: int
    outcomes: Tuple[Tuple[int, ...], ...]
    violation: Optional[dict] = None
    schedule: Optional[Tuple[int, ...]] = None
    witness_steps: Optional[List[dict]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def baseline_entry(self) -> dict:
        return {
            "states": self.states,
            "terminals": self.terminals,
            "outcomes": [list(o) for o in self.outcomes],
        }


def explore(
    litmus: Litmus, info: ProtocolInfo, max_states: int = MAX_STATES
) -> ExploreResult:
    """Enumerate every interleaving of ``litmus`` under ``info``.

    BFS over schedule prefixes with stateless replay: each child
    schedule is executed once, from scratch (systems are not copyable),
    and deduplicated by canonical state digest; a new non-terminal child
    enters the frontier with its enabled processors, so it is expanded
    without being re-executed.  BFS plus ascending-processor expansion
    makes the first violation found a minimal witness."""
    root = replay(litmus, info, ())
    seen = {root.key}
    states = 1
    terminals = 0
    outcomes: set = set()

    def _result(
        violation: dict, sched: Tuple[int, ...], steps: List[dict]
    ) -> ExploreResult:
        return ExploreResult(
            litmus=litmus.name,
            protocol=info.name,
            states=states,
            terminals=terminals,
            outcomes=tuple(sorted(outcomes)),
            violation=violation,
            schedule=sched,
            witness_steps=steps,
        )

    if root.violation is not None:  # empty-program final check
        return _result(root.violation, (), root.steps)
    # (schedule, its enabled processors, its steps): non-terminal only.
    frontier: deque = deque()
    if not root.system.terminal():
        frontier.append(((), root.system.enabled(), root.steps))
    while frontier:
        sched, enabled, steps = frontier.popleft()
        if not enabled:
            deadlock = {
                "kind": "deadlock",
                "step": len(sched),
                "proc": -1,
                "word": -1,
                "expected": 0,
                "actual": 0,
            }
            return _result(deadlock, sched, steps)
        for p in enabled:
            child_sched = sched + (p,)
            child = replay(litmus, info, child_sched)
            if child.violation is not None:
                return _result(child.violation, child_sched, child.steps)
            if child.key in seen:
                continue
            seen.add(child.key)
            states += 1
            if states > max_states:
                raise LitmusError(
                    f"{litmus.name} x {info.name}: state space exceeds "
                    f"{max_states} states"
                )
            if child.system.terminal():
                terminals += 1
                assert child.outcome is not None
                outcomes.add(child.outcome)
            else:
                frontier.append(
                    (child_sched, child.system.enabled(), child.steps)
                )
    return ExploreResult(
        litmus=litmus.name,
        protocol=info.name,
        states=states,
        terminals=terminals,
        outcomes=tuple(sorted(outcomes)),
    )


# ----------------------------------------------------------------------
# Witness files
# ----------------------------------------------------------------------
def witness_doc(result: ExploreResult) -> dict:
    """JSON document for a violation witness (replayable + viewable)."""
    assert result.violation is not None and result.schedule is not None
    litmus = LITMUS_TESTS[result.litmus]
    from repro.trace.export import witness_chrome_trace

    trace = witness_chrome_trace(
        litmus.nprocs,
        result.witness_steps or [],
        result.violation,
        label=f"modelcheck {result.litmus} x {result.protocol}",
    )
    return {
        "litmus": result.litmus,
        "protocol": result.protocol,
        "schedule": list(result.schedule),
        "violation": result.violation,
        "steps": result.witness_steps,
        "chrome_trace": trace,
    }


def replay_witness(
    doc: dict, info: Optional[ProtocolInfo] = None
) -> ReplayResult:
    """Re-execute a witness file's schedule; returns the replay (whose
    ``violation`` the caller compares against the recorded one)."""
    litmus = LITMUS_TESTS[doc["litmus"]]
    if info is None:
        info = get_protocol(doc["protocol"])
    return replay(litmus, info, tuple(doc["schedule"]))


# ----------------------------------------------------------------------
# Mutation gate: a seeded protocol bug the checker must catch
# ----------------------------------------------------------------------
class BrokenHomeLrcProc(HomeLrcProc):
    """hlrc mutant: the first diff-producing release "forgets" to flush
    its diffs to the homes (it closes the interval the tm-lrc way
    instead), leaving every home copy of the written units stale."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._flush_skipped = False

    def close_interval(self) -> None:
        if not self._flush_skipped and any(
            self.home(u) != self.pid
            for u in self.twinned.nonzero()[0].tolist()
        ):
            self._flush_skipped = True
            # Grandparent close: diffs recorded in the store, no flush.
            super(HomeLrcProc, self).close_interval()
            return
        super().close_interval()


def broken_protocol() -> ProtocolInfo:
    """An *unregistered* ProtocolInfo for the seeded-bug hlrc variant."""
    return ProtocolInfo(
        name="hlrc-broken-flush",
        description="hlrc with its first DIFF_FLUSH deliberately skipped",
        proc_cls=BrokenHomeLrcProc,
    )


def mutation_gate(litmus_name: str = "fs-diff-merge") -> dict:
    """Prove the checker catches a seeded bug: the broken-flush hlrc
    variant must be rejected with a witness that replays to the same
    violation.  Returns the witness document."""
    litmus = LITMUS_TESTS[litmus_name]
    info = broken_protocol()
    result = explore(litmus, info)
    if result.violation is None:
        raise AssertionError(
            f"mutation gate FAILED: {info.name} passed {litmus_name} "
            f"({result.states} states explored) -- the checker cannot "
            f"catch a skipped DIFF_FLUSH"
        )
    doc = witness_doc(result)
    rep = replay_witness(doc, info=info)
    if rep.violation != result.violation:
        raise AssertionError(
            f"mutation gate FAILED: witness did not replay -- explored "
            f"violation {result.violation}, replay got {rep.violation}"
        )
    return doc


# ----------------------------------------------------------------------
# Baseline (committed state counts) and the CLI gate
# ----------------------------------------------------------------------
def baseline_path() -> pathlib.Path:
    return (
        pathlib.Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "modelcheck"
        / "state_counts.json"
    )


def load_baseline(path: Optional[pathlib.Path] = None) -> Dict[str, dict]:
    p = path if path is not None else baseline_path()
    if not p.exists():
        return {}
    with open(p) as fh:
        data = json.load(fh)
    return dict(data)


def write_baseline(
    entries: Dict[str, dict], path: Optional[pathlib.Path] = None
) -> pathlib.Path:
    p = path if path is not None else baseline_path()
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return p


def check_all(
    litmus_names: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
) -> List[ExploreResult]:
    """Explore every requested litmus x protocol cell exhaustively."""
    names = (
        list(litmus_names) if litmus_names else sorted(LITMUS_TESTS)
    )
    protos = list(protocols) if protocols else list(CHECKED_PROTOCOLS)
    results: List[ExploreResult] = []
    for lname in names:
        litmus = LITMUS_TESTS[lname]
        for pname in protos:
            results.append(explore(litmus, get_protocol(pname)))
    return results


def run_modelcheck(
    litmus_names: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
    update_baseline: bool = False,
    with_mutation_gate: bool = True,
    witness_path: Optional[str] = None,
    baseline: Optional[pathlib.Path] = None,
) -> int:
    """The ``repro analyze modelcheck`` gate; returns an exit code.

    Explores the requested cells, compares state counts / terminal
    counts / outcome sets against the committed baseline (exact match
    required; ``--update-baseline`` rewrites it), and runs the mutation
    gate.  A violation writes its witness to ``witness_path`` (default
    ``modelcheck_witness.json``) and fails the gate."""
    results = check_all(litmus_names, protocols)
    failed = False
    for res in results:
        cell = f"{res.litmus} x {res.protocol}"
        if res.violation is not None:
            failed = True
            path = witness_path or "modelcheck_witness.json"
            with open(path, "w") as fh:
                json.dump(witness_doc(res), fh, indent=2)
            print(
                f"FAIL {cell}: RC violation {res.violation} "
                f"(witness -> {path})"
            )
            continue
        print(
            f"ok   {cell}: {res.states} states, {res.terminals} "
            f"terminal, {len(res.outcomes)} outcome(s)"
        )
    if failed:
        return 1

    entries = {
        f"{res.litmus}/{res.protocol}": res.baseline_entry()
        for res in results
    }
    if update_baseline:
        known = load_baseline(baseline)
        known.update(entries)
        path = write_baseline(known, baseline)
        print(f"baseline updated: {path}")
    else:
        known = load_baseline(baseline)
        for cell, entry in entries.items():
            expected = known.get(cell)
            if expected is None:
                print(f"FAIL {cell}: no committed baseline entry")
                failed = True
            elif expected != entry:
                print(
                    f"FAIL {cell}: baseline drift -- committed "
                    f"{expected}, explored {entry}"
                )
                failed = True
        if failed:
            print("run with --update-baseline to accept new state counts")
            return 1

    if with_mutation_gate:
        doc = mutation_gate()
        v = doc["violation"]
        print(
            f"mutation gate: {doc['protocol']} rejected on "
            f"{doc['litmus']} at step {v['step']} "
            f"(word {v['word']}: expected {v['expected']}, "
            f"got {v['actual']}); witness replays"
        )
    return 0
