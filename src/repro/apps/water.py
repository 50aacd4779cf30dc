"""Water: molecular dynamics with an O(n^2/2) cutoff interaction
(Section 5.5; SPLASH).

The molecule array is shared, contiguous, and block-partitioned.  Each
molecule record mixes the truly shared fields (positions, forces) with
*private* per-molecule scratch (velocities, displacements, old forces)
-- the paper's source of "a large amount of useless data carried in
useful messages": a reader fetches a molecule's diff to read its
positions, but the co-diffed private words are never read.

Phases per timestep, as in the paper:

* **intra-molecular**: each owner updates its own molecules
  (fine-grained writes; write-write false sharing on the pages at
  partition boundaries, producing the paper's useless messages when a
  processor receives data for the preceding neighbour's molecules);
* **inter-molecular**: each molecule interacts with the n/2 molecules
  around it (wrap-around).  Reads are fine-grained (one molecule) but
  the region each processor reads covers half the shared array, so
  aggregation wins.  Owners accumulate the full force on their own
  molecules (computing each pair from both sides), so molecule pages
  keep their owners as the only writers -- matching the paper's
  observation that an inter-phase fault contacts one or two processors.
  A global lock protects the shared potential-energy accumulator;
* **integration**: owners fold forces into positions and zero the
  accumulators.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, AppRegistry
from repro.core.proc import Proc
from repro.core.treadmarks import TreadMarks

#: float32 words per molecule record.
REC = 64
#: Field slots within a record.
POS = slice(0, 9)      # 3 atoms x 3 coordinates -- shared, read by peers
FORCE = slice(9, 18)   # force accumulators -- shared, owner-written
PRIVATE = slice(18, 64)  # velocities / scratch -- written, never read remotely

#: Lock protecting the global potential-energy sum.
ENERGY_LOCK = 99


def _initial_positions(n: int) -> np.ndarray:
    rng = np.random.default_rng(4242)
    mol = np.zeros((n, REC), dtype=np.float32)
    mol[:, POS] = rng.uniform(0.0, 10.0, size=(n, 9)).astype(np.float32)
    mol[:, PRIVATE] = rng.standard_normal((n, 46)).astype(np.float32) * 0.01
    return mol


def _pair_force(pi: np.ndarray, pj: np.ndarray) -> np.ndarray:
    """Deterministic float32 pseudo-Lennard-Jones force on i from j
    (9 components, one per atom coordinate)."""
    d = pi - pj
    r2 = np.float32((d * d).sum()) + np.float32(0.1)
    scale = np.float32(1.0) / (r2 * r2)
    return (d * scale).astype(np.float32)


def _inter_forces(pos: np.ndarray, lo: int, hi: int, n: int) -> tuple:
    """Forces on molecules ``[lo, hi)`` plus their potential-energy sum,
    vectorized over molecules and the n/2 wrap-around pair offsets.

    Shared by the worker and the sequential reference so both fold
    float32 identically: every per-pair elementwise operation matches
    :func:`_pair_force` bit-for-bit, and the per-molecule reduction
    order depends only on the pair count, not on the caller's block."""
    k = np.arange(1, n // 2 + 1)
    i_idx = np.arange(lo, hi)
    plus = (i_idx[:, None] + k[None, :]) % n
    minus = (i_idx[:, None] - k[None, :]) % n
    pi = pos[i_idx][:, None, :]                        # (m, 1, 9)
    dp = pi - pos[plus]                                # (m, K, 9)
    r2p = (dp * dp).sum(axis=2) + np.float32(0.1)
    fp = dp * (np.float32(1.0) / (r2p * r2p))[:, :, None]
    dm = pos[minus] - pos[i_idx][:, None, :]
    r2m = (dm * dm).sum(axis=2) + np.float32(0.1)
    fm = dm * (np.float32(1.0) / (r2m * r2m))[:, :, None]
    forces = (fp.sum(axis=1) - fm.sum(axis=1)).astype(np.float32)
    epot = float((np.float32(1.0) / r2p).astype(np.float64).sum())
    return forces, epot


def _inter_read_order(lo: int, hi: int, n: int) -> np.ndarray:
    """First-touch order of molecule reads in the inter phase: the order
    the scalar loop's per-molecule position cache would miss in (own
    molecule first, then alternating +k / -k neighbours)."""
    k = np.arange(1, n // 2 + 1, dtype=np.int64)
    # Per-molecule touch sequence [0, +1, -1, +2, -2, ...], flattened
    # across molecules in loop order; unique-by-first-occurrence yields
    # the same order a per-touch seen-set would produce.
    offs = np.empty(1 + 2 * k.shape[0], dtype=np.int64)
    offs[0] = 0
    offs[1::2] = k
    offs[2::2] = -k
    flat = (np.arange(lo, hi, dtype=np.int64)[:, None] + offs[None, :]) % n
    _, first = np.unique(flat.reshape(-1), return_index=True)
    return flat.reshape(-1)[np.sort(first)]


@AppRegistry.register
class Water(Application):
    """SPLASH Water's sharing structure on the simulated DSM."""

    name = "Water"
    checksum_rtol = 1e-5

    datasets = {
        # Paper used 512/1728 molecules; 216 preserves partition
        # boundaries inside pages (16 molecules of 256 B per 4 KB page;
        # 27 molecules per processor).
        "512": {"n": 216, "iters": 2},
    }

    def heap_bytes(self, dataset: str) -> int:
        p = self.params(dataset)
        return p["n"] * REC * 4 + 65536

    def setup(self, tmk: TreadMarks, dataset: str) -> dict:
        p = self.params(dataset)
        return {
            "mol": tmk.array("mol", (p["n"], REC), "float32"),
            "energy": tmk.array("energy", (16,), "float32"),
        }

    # ------------------------------------------------------------------
    def worker(self, proc: Proc, handles: dict, params: dict) -> float:
        mol, energy = handles["mol"], handles["energy"]
        n, iters = params["n"], params["iters"]
        lo, hi = self.block_range(n, proc.nprocs, proc.id)

        # Distributed initialization: owners write their own molecules.
        mol.write_rows(proc, lo, _initial_positions(n)[lo:hi])
        if proc.id == 0:
            energy.write(proc, 0, np.zeros(16, np.float32))
        proc.barrier()

        rows = np.arange(lo, hi, dtype=np.int64)
        for _ in range(iters):
            # ---- Intra-molecular phase: update own records in place.
            # One bulk gather/scatter per field keeps the per-molecule
            # access ranges of the scalar loop (read the whole record,
            # write positions and private scratch separately) while the
            # arithmetic runs vectorized over the block.
            block = mol.gather_rows(proc, rows, 0, REC)
            priv = block[:, PRIVATE] * np.float32(0.99)
            pos = block[:, POS] + priv[:, :9] * np.float32(0.001)
            proc.compute(flops=3 * REC * (hi - lo))
            mol.scatter_rows(proc, rows, pos, 0)
            mol.scatter_rows(proc, rows, priv, PRIVATE.start)
            proc.barrier()

            # ---- Inter-molecular phase: owners accumulate the full
            # force on their own molecules, interacting with the n/2
            # molecules on each side (each pair computed by both
            # owners).  Positions are still read one molecule at a time
            # (fine-grained 9-word ranges, as the scalar loop's
            # per-phase cache would first touch them); the gather order
            # reproduces that first-touch order exactly so faults and
            # fetches are unchanged.
            order = _inter_read_order(lo, hi, n)
            pos_all = np.empty((n, 9), dtype=np.float32)
            pos_all[order] = mol.gather_rows(proc, order, 0, 9)
            forces, epot = _inter_forces(pos_all, lo, hi, n)
            # The real Water potential costs several hundred flops
            # per pair (square roots, exponentials, 3x3 atom pairs).
            proc.compute(flops=2 * 320 * (n // 2) * (hi - lo))
            mol.scatter_rows(proc, rows, forces, FORCE.start)

            # Global potential-energy sum, lock-protected.
            proc.acquire(ENERGY_LOCK)
            cur = energy.read(proc, 0, 1)[0]
            energy.write(
                proc, 0, np.array([cur + np.float32(epot)], np.float32)
            )
            proc.release(ENERGY_LOCK)
            proc.barrier()

            # ---- Integration: owners fold forces into positions and
            # zero the accumulators for the next timestep.
            block = mol.gather_rows(proc, rows, 0, REC)
            out = block[:, :FORCE.stop].copy()
            out[:, POS] = out[:, POS] + out[:, FORCE] * np.float32(1e-4)
            out[:, FORCE] = np.float32(0.0)
            proc.compute(flops=2 * REC * (hi - lo))
            mol.scatter_rows(proc, rows, out, 0)
            proc.barrier()

        local = float(
            np.abs(mol.gather_rows(proc, rows, 0, 18))
            .astype(np.float64).sum()
        )
        return self.collect_checksum(proc, handles, local)

    # ------------------------------------------------------------------
    def access_pattern(self, handles, params, nprocs):
        """Declared pattern: block-owned molecule records with mixed
        shared/private fields, plus the lock-protected energy word every
        processor rewrites inside the inter-molecular epoch (the lock
        orders the writes, but they share one barrier epoch -- the
        energy page is a predicted multi-writer page)."""
        from repro.analyze.access import AccessPattern

        mol, energy = handles["mol"], handles["energy"]
        n = params["n"]
        ranges = [self.block_range(n, nprocs, p) for p in range(nprocs)]
        pat = AccessPattern(app=self.name)

        ph = pat.phase("init")
        for p, (lo, hi) in enumerate(ranges):
            ph.write_rows(mol, p, lo, hi)
        ph.write(energy, 0, 0, 16)
        for it in range(params["iters"]):
            ph = pat.phase(f"iter{it}:intra")
            for p, (lo, hi) in enumerate(ranges):
                for i in range(lo, hi):
                    ph.read(mol, p, (i, 0), REC)
                    ph.write(mol, p, (i, 0), 9)
                    ph.write(mol, p, (i, PRIVATE.start), REC - PRIVATE.start)
            ph = pat.phase(f"iter{it}:inter")
            for p, (lo, hi) in enumerate(ranges):
                for j in range(n):
                    ph.read(mol, p, (j, 0), 9)
                for i in range(lo, hi):
                    ph.write(mol, p, (i, FORCE.start), 9)
                ph.read(energy, p, 0, 1)
                ph.write(energy, p, 0, 1)
            ph = pat.phase(f"iter{it}:integrate")
            for p, (lo, hi) in enumerate(ranges):
                for i in range(lo, hi):
                    ph.read(mol, p, (i, 0), REC)
                    ph.write(mol, p, (i, 0), FORCE.stop)
        ph = pat.phase("checksum")
        for p, (lo, hi) in enumerate(ranges):
            for i in range(lo, hi):
                ph.read(mol, p, (i, 0), 18)
        return pat

    # ------------------------------------------------------------------
    def reference(self, dataset: str) -> float:
        p = self.params(dataset)
        n, iters = p["n"], p["iters"]
        m = _initial_positions(n)
        for _ in range(iters):
            m[:, PRIVATE] = m[:, PRIVATE] * np.float32(0.99)
            m[:, POS] = m[:, POS] + m[:, PRIVATE][:, :9] * np.float32(0.001)
            forces, _ = _inter_forces(
                np.ascontiguousarray(m[:, POS]), 0, n, n
            )
            m[:, POS] = m[:, POS] + forces * np.float32(1e-4)
        total = np.abs(m[:, :18]).astype(np.float64).sum()
        return float(total)
