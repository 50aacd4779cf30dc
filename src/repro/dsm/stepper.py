"""Thread-free deterministic stepper for exhaustive interleaving control.

The scheduling engine (:mod:`repro.sim.engine`) runs application bodies
on real threads and serves synchronization in simulated-time order --
deterministic, but offering exactly *one* interleaving per run.  The
model checker (:mod:`repro.analyze.modelcheck`) needs the opposite: a
way to drive the very same protocol engines (:class:`repro.dsm.lrc.LrcProc`
subclasses plus :class:`repro.dsm.sync.SyncManager`) through *any*
interleaving of a tiny litmus program, one instruction at a time, under
external schedule control.

:class:`SteppedSystem` provides that hook.  It assembles a complete DSM
system exactly the way :class:`repro.core.treadmarks.TreadMarks` does --
heap layout, network ledger, interval store, protocol build hook,
aggregators, sync manager -- but with no threads and no run loop; the
caller picks which processor executes its next instruction.  Blocking
mirrors the engine faithfully: a synchronization op that returns no
:class:`~repro.sim.engine.Resume` for its issuer parks that processor
until a later op's resume list wakes it (FIFO lock grants, full-barrier
departure), exactly the states the engine's scheduler can reach.

Litmus instructions (plain tuples, word addresses are heap word
offsets):

* ``("write", word, value)``   -- one shared word store
* ``("read", word, reg)``      -- one shared word load into ``reg``
* ``("rmw", word, k, reg)``    -- load into ``reg`` then store ``+k``
  (used inside critical sections for migratory-ownership litmuses)
* ``("acquire", lock_id)`` / ``("release", lock_id)``
* ``("barrier", barrier_id)``

State hashing (:meth:`SteppedSystem.state_key`) canonicalizes every
piece of state that can influence future *values or control flow*:
program counters, registers, block flags, heap contents, twins, pending
write notices, vector clocks, the interval store (including diff
contents and commit stamps), lock/barrier state, and any protocol
directory.  Simulated clocks, the message ledger, and cost counters are
deliberately excluded -- timestamps never feed back into protocol
decisions (lock grants are FIFO, barriers wait for all arrivals), so
two states differing only in timing have identical futures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsm.address_space import SharedHeapLayout
from repro.dsm.aggregation import make_aggregator
from repro.dsm.intervals import IntervalStore
from repro.dsm.lrc import LrcProc
from repro.dsm.sync import SyncManager
from repro.protocols.base import ProtocolInfo
from repro.sim.clock import Clock
from repro.sim.config import SimConfig
from repro.sim.engine import Op, OpKind
from repro.sim.network import Network
from repro.stats.counters import ProtocolStats

#: One litmus instruction (see the module docstring for the shapes).
Instruction = Tuple[object, ...]

#: One processor's straight-line program.
Program = Tuple[Instruction, ...]

_SYNC_KINDS = {
    "acquire": OpKind.ACQUIRE,
    "release": OpKind.RELEASE,
    "barrier": OpKind.BARRIER,
}


@dataclass
class ProcCursor:
    """Execution position of one processor in its litmus program."""

    pc: int = 0
    blocked: bool = False
    regs: Dict[str, int] = field(default_factory=dict)


class SteppedSystem:
    """One DSM system under external, instruction-granular scheduling."""

    def __init__(
        self,
        info: ProtocolInfo,
        programs: Sequence[Program],
        heap_bytes: int = 8192,
        config: Optional[SimConfig] = None,
    ) -> None:
        nprocs = len(programs)
        self.config = config if config is not None else SimConfig(
            nprocs=nprocs
        )
        if self.config.nprocs != nprocs:
            raise ValueError(
                f"config.nprocs={self.config.nprocs} but "
                f"{nprocs} programs given"
            )
        self.programs: Tuple[Program, ...] = tuple(
            tuple(p) for p in programs
        )
        self.layout = SharedHeapLayout(
            heap_bytes, self.config.page_size, self.config.unit_bytes
        )
        self.network = Network(self.config)
        self.store = IntervalStore(nprocs)
        self.stats = ProtocolStats()
        self.clocks = [Clock() for _ in range(nprocs)]
        self.procs: List[LrcProc] = info.build(
            self.layout,
            self.config,
            self.store,
            self.network,
            self.stats,
            self.clocks,
            self.network.credit,
        )
        for lp in self.procs:
            lp.trace = None
            lp.aggregator = make_aggregator(lp)
        self.sync = SyncManager(
            self.config, self.network, self.procs, self.stats
        )
        self.cursors = [ProcCursor() for _ in range(nprocs)]
        self._seq = 0

    # ------------------------------------------------------------------
    # Scheduling surface
    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.config.nprocs

    def finished(self, p: int) -> bool:
        """True when processor ``p`` has executed its whole program."""
        return self.cursors[p].pc >= len(self.programs[p])

    def enabled(self) -> List[int]:
        """Processors that can execute an instruction right now."""
        return [
            p
            for p in range(self.nprocs)
            if not self.finished(p) and not self.cursors[p].blocked
        ]

    def terminal(self) -> bool:
        """True when every processor has finished (no proc still blocked
        -- a blocked processor with instructions left means deadlock,
        which :meth:`enabled` exposes as an empty list)."""
        return all(self.finished(p) for p in range(self.nprocs))

    def next_instruction(self, p: int) -> Instruction:
        return self.programs[p][self.cursors[p].pc]

    def step(self, p: int) -> Instruction:
        """Execute processor ``p``'s next instruction; returns it.

        ``p`` must be enabled.  A synchronization instruction advances
        the pc *before* the op is serviced, so a processor parked inside
        an acquire/barrier resumes past it once woken.
        """
        cur = self.cursors[p]
        if self.finished(p):
            raise ValueError(f"proc {p} already finished")
        if cur.blocked:
            raise ValueError(f"proc {p} is blocked")
        instr = self.programs[p][cur.pc]
        cur.pc += 1
        kind = instr[0]
        lp = self.procs[p]
        if kind == "write":
            _, word, value = instr
            lp.write_words(
                int(word), np.array([value], dtype=np.uint32)
            )
        elif kind == "read":
            _, word, reg = instr
            cur.regs[str(reg)] = int(lp.read_words(int(word), 1)[0])
        elif kind == "rmw":
            _, word, k, reg = instr
            old = int(lp.read_words(int(word), 1)[0])
            cur.regs[str(reg)] = old
            lp.write_words(
                int(word), np.array([old + int(k)], dtype=np.uint32)
            )
        elif kind in _SYNC_KINDS:
            self._sync(p, _SYNC_KINDS[str(kind)], int(instr[1]))
        else:
            raise ValueError(f"unknown litmus instruction {instr!r}")
        return instr

    def _sync(self, p: int, opkind: OpKind, arg: int) -> None:
        # Mirrors Proc.acquire/release/barrier + Engine.park: close the
        # open interval, service the op, apply resumes.
        lp = self.procs[p]
        lp.at_sync_point()
        op = Op(
            kind=opkind, proc=p, ts=self.clocks[p].now, arg=arg,
            seq=self._seq,
        )
        self._seq += 1
        resumes = self.sync.service(op)
        woke_self = False
        for r in resumes:
            self.clocks[r.proc].advance_to(r.wake_ts)
            self.cursors[r.proc].blocked = False
            if r.proc == p:
                woke_self = True
        if not woke_self:
            self.cursors[p].blocked = True

    # ------------------------------------------------------------------
    # Value inspection (used by the oracle on terminal states)
    # ------------------------------------------------------------------
    def read_word(self, p: int, word: int) -> int:
        """Read ``word`` through processor ``p``'s coherence engine
        (faults in pending diffs exactly like a program read would)."""
        return int(self.procs[p].read_words(word, 1)[0])

    # ------------------------------------------------------------------
    # Canonical state
    # ------------------------------------------------------------------
    def state_key(self) -> str:
        """Stable digest of all future-relevant state (see module doc)."""
        return hashlib.sha256(
            repr(self._canonical_state()).encode()
        ).hexdigest()

    def _canonical_state(self) -> Tuple[object, ...]:
        procs_state = []
        for p, lp in enumerate(self.procs):
            cur = self.cursors[p]
            pending = tuple(
                (
                    unit,
                    tuple((nt.proc, nt.index, nt.commit_seq) for nt in notices),
                )
                for unit, notices in groupby(
                    lp.pending_notices(), key=attrgetter("unit")
                )
            )
            twins = tuple(
                (unit, lp.twin(unit).tobytes())
                for unit in np.flatnonzero(lp.twinned).tolist()
            )
            procs_state.append(
                (
                    cur.pc,
                    cur.blocked,
                    tuple(sorted(cur.regs.items())),
                    tuple(lp.vc.entries),
                    pending,
                    twins,
                    lp.space.words.tobytes(),
                )
            )
        store_state = []
        for p in range(self.nprocs):
            ivs = []
            for index in sorted(self.store._by_proc[p]):
                iv = self.store._by_proc[p][index]
                # The packed record as stored: units, row bounds, values
                # and change masks determine every diff's offsets and
                # values, so equal bytes mean equal diffs.
                d = iv.diffs
                diffs = tuple(
                    a.tobytes() for a in (d.units, d.bounds, d.values, d.masks)
                )
                ivs.append(
                    (iv.index, iv.commit_seq, tuple(iv.vc.entries), diffs)
                )
            store_state.append(tuple(ivs))
        store_meta = (
            self.store._commit_counter,
            tuple(self.store._closed_count),
        )
        locks = tuple(
            sorted(
                (
                    lock_id,
                    lk.holder,
                    lk.last_owner,
                    tuple(lk.last_vc.entries) if lk.last_vc else None,
                    tuple(proc for proc, _ in lk.waiters),
                )
                for lock_id, lk in self.sync.locks.items()
            )
        )
        barriers = tuple(
            sorted(
                (bid, tuple(sorted(proc for proc, _ in arrivals)))
                for bid, arrivals in self.sync.barrier_arrivals.items()
            )
        )
        directory = None
        d = getattr(self.procs[0], "directory", None)
        if d is not None:
            directory = (
                tuple(d.owner),
                tuple(tuple(sorted(cs)) for cs in d.copyset),
                d.excl.tobytes(),
            )
        return (
            tuple(procs_state),
            tuple(store_state),
            store_meta,
            locks,
            barriers,
            directory,
        )
