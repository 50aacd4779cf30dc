"""Thread-free deterministic stepper for exhaustive interleaving control.

The scheduling engine (:mod:`repro.sim.engine`) runs application bodies
on real threads and serves synchronization in simulated-time order --
deterministic, but offering exactly *one* interleaving per run.  The
model checker (:mod:`repro.analyze.modelcheck`) needs the opposite: a
way to drive the very same protocol engines (:class:`repro.dsm.lrc.LrcProc`
subclasses plus :class:`repro.dsm.sync.SyncManager`) through *any*
interleaving of a tiny litmus program, one instruction at a time, under
external schedule control.

:class:`SteppedSystem` provides that hook.  Its DSM system *is* a
:class:`repro.core.treadmarks.TreadMarks` instance -- heap layout,
network ledger, interval store, processors, aggregators, sync manager
and (when ``config.trace``) the trace recorder -- that is never
:meth:`~repro.core.treadmarks.TreadMarks.run`: there are no threads and
no run loop; the caller picks which processor executes its next
instruction.  Blocking mirrors the engine faithfully: a synchronization
op that returns no :class:`~repro.sim.engine.Resume` for its issuer
parks that processor until a later op's resume list wakes it (FIFO lock
grants, full-barrier departure), exactly the states the engine's
scheduler can reach.

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
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.treadmarks import TreadMarks
from repro.protocols.base import ProtocolInfo
from repro.sim.config import SimConfig
from repro.sim.engine import Op, OpKind

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
        runtime = TreadMarks(self.config, heap_bytes, protocol=info)
        self.procs = runtime.procs
        self.store = runtime.store
        self.sync = runtime.sync
        self.trace = runtime.trace
        self.clocks = [ctx.clock for ctx in runtime.engine.procs]
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
        """Stable digest of all future-relevant state (see module doc).

        Every field enters one sha256 as a record framed by a tag and a
        length, so two distinct states cannot feed the same byte stream.
        ``None`` (no lock holder or last owner) packs as -1, which no
        processor id takes."""
        h = hashlib.sha256()

        def put(tag: bytes, data: bytes) -> None:
            h.update(tag + len(data).to_bytes(8, "little"))
            h.update(data)

        def ints(tag: bytes, values: Iterable[Optional[int]]) -> None:
            put(tag, array("q", [-1 if v is None else v for v in values]).tobytes())

        for p, lp in enumerate(self.procs):
            cur = self.cursors[p]
            ints(b"P", (cur.pc, cur.blocked))
            regs = sorted(cur.regs.items())
            put(b"R", "\0".join(name for name, _ in regs).encode())
            ints(b"r", (value for _, value in regs))
            ints(b"V", lp.vc.entries)
            for unit, ivs in sorted(lp.pending.items()):
                ints(b"N", (unit, *(
                    x for iv in ivs for x in (iv.proc, iv.index, iv.commit_seq)
                )))
            for unit in np.flatnonzero(lp.twinned).tolist():
                ints(b"T", (unit,))
                put(b"t", lp.twin(unit).tobytes())
            put(b"H", lp.space.words.tobytes())
        for p in range(self.nprocs):
            ints(b"S", (p,))
            by_index = self.store._by_proc[p]
            for index in sorted(by_index):
                iv = by_index[index]
                ints(b"I", (iv.index, iv.commit_seq, *iv.vc.entries))
                # The packed record as stored: units, row bounds, values
                # and change masks determine every diff's offsets and
                # values, so equal bytes mean equal diffs.
                d = iv.diffs
                for a in (d.units, d.bounds, d.values, d.masks):
                    put(b"D", a.tobytes())
        ints(b"C", (self.store._commit_counter, *self.store._closed_count))
        for lock_id, lk in sorted(self.sync.locks.items()):
            ints(b"L", (lock_id, lk.holder, lk.last_owner))
            if lk.last_vc is not None:
                ints(b"v", lk.last_vc.entries)
            ints(b"W", (proc for proc, _ in lk.waiters))
        for bid, arrivals in sorted(self.sync.barrier_arrivals.items()):
            ints(b"B", (bid, *sorted(proc for proc, _ in arrivals)))
        directory = getattr(self.procs[0], "directory", None)
        if directory is not None:
            ints(b"O", directory.owner)
            for copyset in directory.copyset:
                ints(b"c", sorted(copyset))
            put(b"X", directory.excl.tobytes())
        return h.hexdigest()
