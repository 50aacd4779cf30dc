"""Shallow: finite-difference shallow-water equations on a 2-D grid
(Section 5.5; Sadourny's scheme, the NCAR benchmark).

The arrays are column-major (as in the original Fortran) and each
processor owns a chunk of columns.  We store each array as an
``(ncols, nrows)`` C-order matrix so that one *column* of the physical
grid is one contiguous row -- one shared access of ``nrows`` words.

The paper identifies three access patterns, all reproduced here:

* **state arrays** (p, u, v): processors write only their own columns
  and read the first column of the right neighbour's chunk -- like
  Jacobi, piggybacked useless data appears once a unit holds more than
  one column;
* **flux arrays** (cu, cv, z): processors write a chunk *shifted by one*
  (their own columns plus the first column of the right neighbour's
  chunk) and later read back only the columns they wrote themselves.
  They never read columns written by the neighbour, so once a unit holds
  two columns the write-write false sharing produces **useless
  messages**;
* **wraparound copy**: the master copies the last column of the state
  arrays to the first -- piggybacked useless data only.

With the smallest dataset a column is exactly one 4 KB page: going to
8/16 KB triggers both extra useless messages and piggybacked useless
data (a slight net loss, as in Figure 2); the larger datasets (8 KB and
16 KB columns) leave room for aggregation to win.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.base import Application, AppRegistry
from repro.core.proc import Proc
from repro.core.treadmarks import TreadMarks

DT = np.float32(0.001)

STATE = ("p", "u", "v")
FLUX = ("cu", "cv", "z")


def _initial_state(ncols: int, nrows: int) -> Dict[str, np.ndarray]:
    j = np.arange(ncols, dtype=np.float32)[:, None]
    i = np.arange(nrows, dtype=np.float32)[None, :]
    return {
        "p": (np.float32(50.0) + np.float32(10.0) * np.sin(j * 0.2) * np.cos(i * 0.05)).astype(np.float32),
        "u": (np.sin(i * 0.11) * np.cos(j * 0.3)).astype(np.float32),
        "v": (np.cos(i * 0.07) * np.sin(j * 0.23)).astype(np.float32),
    }


def _flux_cols(p0: np.ndarray, p1: np.ndarray, u1: np.ndarray, v1: np.ndarray):
    """Flux formulas for target column j+1 from state columns j and j+1.
    All arithmetic in float32 so DSM and reference match bitwise."""
    cu = np.float32(0.5) * (p0 + p1) * u1
    cv = np.float32(0.5) * (p0 + p1) * v1
    z = (v1 - u1) / (p0 + p1 + np.float32(1.0))
    return cu.astype(np.float32), cv.astype(np.float32), z.astype(np.float32)


def _h_col(p0: np.ndarray, u0: np.ndarray, v0: np.ndarray) -> np.ndarray:
    return (p0 + np.float32(0.25) * (u0 * u0 + v0 * v0)).astype(np.float32)


def _update_cols(p0, u0, v0, cu1, cv1, z1, h0):
    """New state for column j from its own flux writes (j+1 slots)."""
    pn = p0 - DT * (cu1 + z1) + DT * h0
    un = u0 + DT * (cv1 - z1)
    vn = v0 + DT * (np.float32(0.1) * cu1 + np.float32(0.01) * h0)
    return pn.astype(np.float32), un.astype(np.float32), vn.astype(np.float32)


@AppRegistry.register
class Shallow(Application):
    """Shallow-water solver with column-chunk partitioning."""

    name = "Shallow"
    checksum_rtol = 1e-4

    datasets = {
        # Column = nrows float32; paper labels map to column-bytes.
        "1Kx0.5K": {"nrows": 1024, "ncols": 32, "iters": 5},  # 4 KB columns
        "2Kx0.5K": {"nrows": 2048, "ncols": 32, "iters": 5},  # 8 KB columns
        "4Kx0.5K": {"nrows": 4096, "ncols": 32, "iters": 5},  # 16 KB columns
        # Paper full size: the unscaled 512x512 grid (2 KB columns, all
        # 512 of them).  Part of the full-size golden tier; every worker
        # access is already a block operation, so it runs at bulk speed.
        "512x512": {"nrows": 512, "ncols": 512, "iters": 5},
    }

    def heap_bytes(self, dataset: str) -> int:
        p = self.params(dataset)
        return 10 * p["ncols"] * p["nrows"] * 4 + 10 * 65536

    def setup(self, tmk: TreadMarks, dataset: str) -> dict:
        p = self.params(dataset)
        shape = (p["ncols"], p["nrows"])
        names = list(STATE) + list(FLUX) + ["h", "pnew", "unew", "vnew"]
        return {n: tmk.array(n, shape, "float32") for n in names}

    # ------------------------------------------------------------------
    def worker(self, proc: Proc, handles: dict, params: dict) -> float:
        ncols, nrows, iters = params["ncols"], params["nrows"], params["iters"]
        lo, hi = self.block_range(ncols, proc.nprocs, proc.id)

        # Distributed initialization: owners write their own columns,
        # then drop the full-size grids before the run (every worker
        # would otherwise hold three whole arrays to the end).
        init = _initial_state(ncols, nrows)
        for n in STATE:
            handles[n].write_rows(proc, lo, init[n][lo:hi])
        del init
        proc.barrier()

        a = handles
        for _ in range(iters):
            # ---- Phase 1: fluxes.  Write the shifted chunk [lo+1, hi],
            # reading own columns plus the right neighbour's first.
            p_own = a["p"].read_rows(proc, lo, hi)
            u_own = a["u"].read_rows(proc, lo, hi)
            v_own = a["v"].read_rows(proc, lo, hi)
            nxt = hi % ncols
            p_next = a["p"].read_row(proc, nxt)
            u_next = a["u"].read_row(proc, nxt)
            v_next = a["v"].read_row(proc, nxt)

            p_sh = np.vstack([p_own[1:], p_next])
            u_sh = np.vstack([u_own[1:], u_next])
            v_sh = np.vstack([v_own[1:], v_next])
            cu, cv, z = _flux_cols(p_own, p_sh, u_sh, v_sh)
            h = _h_col(p_own, u_own, v_own)
            proc.compute(flops=12 * (hi - lo) * nrows)

            # Shifted write: columns lo+1 .. hi (hi may be the right
            # neighbour's first column; the last processor wraps to 0).
            for name, block in (("cu", cu), ("cv", cv), ("z", z)):
                if hi < ncols:
                    a[name].write_rows(proc, lo + 1, block)
                else:
                    if block.shape[0] > 1:
                        a[name].write_rows(proc, lo + 1, block[:-1])
                    a[name].write_row(proc, 0, block[-1])
            a["h"].write_rows(proc, lo, h)
            proc.barrier()

            # ---- Phase 2: update own columns from own flux writes only
            # (the j+1 slots we wrote: no reads of neighbour-written
            # flux columns -- the paper's pattern).
            pn, un, vn = _update_cols(p_own, u_own, v_own, cu, cv, z, h)
            proc.compute(flops=10 * (hi - lo) * nrows)
            a["pnew"].write_rows(proc, lo, pn)
            a["unew"].write_rows(proc, lo, un)
            a["vnew"].write_rows(proc, lo, vn)
            proc.barrier()

            # ---- Phase 3: copy back; master performs the wraparound
            # copy of the last column onto the first.
            for src, dst in (("pnew", "p"), ("unew", "u"), ("vnew", "v")):
                block = a[src].read_rows(proc, lo, hi)
                a[dst].write_rows(proc, lo, block)
            proc.barrier()
            if proc.id == 0:
                for n in STATE:
                    last = a[n].read_row(proc, ncols - 1)
                    a[n].write_row(proc, 0, last)
            proc.barrier()

        local = 0.0
        for n in STATE:
            local += float(
                np.abs(a[n].read_rows(proc, lo, hi)).astype(np.float64).sum()
            )
        return self.collect_checksum(proc, handles, local)

    # ------------------------------------------------------------------
    def access_pattern(self, handles, params, nprocs):
        """Declared pattern: column-chunk ownership; the flux arrays are
        written *shifted by one column* but each column still has exactly
        one writer, so at 4 KB (one column per page) no conflict pages
        are predicted -- conflicts appear at 8/16 KB units."""
        from repro.analyze.access import AccessPattern

        ncols = params["ncols"]
        ranges = [self.block_range(ncols, nprocs, p) for p in range(nprocs)]
        pat = AccessPattern(app=self.name)

        ph = pat.phase("init")
        for p, (lo, hi) in enumerate(ranges):
            for name in STATE:
                ph.write_rows(handles[name], p, lo, hi)
        for it in range(params["iters"]):
            ph = pat.phase(f"iter{it}:flux")
            for p, (lo, hi) in enumerate(ranges):
                for name in STATE:
                    ph.read_rows(handles[name], p, lo, hi)
                    ph.read_rows(handles[name], p, hi % ncols,
                                 hi % ncols + 1)
                for name in FLUX:
                    if hi < ncols:
                        ph.write_rows(handles[name], p, lo + 1, hi + 1)
                    else:
                        if hi - lo > 1:
                            ph.write_rows(handles[name], p, lo + 1, ncols)
                        ph.write_rows(handles[name], p, 0, 1)
                ph.write_rows(handles["h"], p, lo, hi)
            ph = pat.phase(f"iter{it}:update")
            for p, (lo, hi) in enumerate(ranges):
                for name in ("pnew", "unew", "vnew"):
                    ph.write_rows(handles[name], p, lo, hi)
            ph = pat.phase(f"iter{it}:copyback")
            for p, (lo, hi) in enumerate(ranges):
                for src, dst in (("pnew", "p"), ("unew", "u"), ("vnew", "v")):
                    ph.read_rows(handles[src], p, lo, hi)
                    ph.write_rows(handles[dst], p, lo, hi)
            ph = pat.phase(f"iter{it}:wraparound")
            for name in STATE:
                ph.read_rows(handles[name], 0, ncols - 1, ncols)
                ph.write_rows(handles[name], 0, 0, 1)
        ph = pat.phase("checksum")
        for p, (lo, hi) in enumerate(ranges):
            for name in STATE:
                ph.read_rows(handles[name], p, lo, hi)
        return pat

    # ------------------------------------------------------------------
    def reference(self, dataset: str) -> float:
        prm = self.params(dataset)
        ncols, nrows, iters = prm["ncols"], prm["nrows"], prm["iters"]
        s = _initial_state(ncols, nrows)
        p, u, v = s["p"], s["u"], s["v"]
        for _ in range(iters):
            p_sh = np.roll(p, -1, axis=0)
            u_sh = np.roll(u, -1, axis=0)
            v_sh = np.roll(v, -1, axis=0)
            cu, cv, z = _flux_cols(p, p_sh, u_sh, v_sh)
            h = _h_col(p, u, v)
            pn, un, vn = _update_cols(p, u, v, cu, cv, z, h)
            p, u, v = pn, un, vn
            # Wraparound copy: last column onto the first.
            p[0], u[0], v[0] = p[-1], u[-1], v[-1]
        total = 0.0
        for arr in (p, u, v):
            total += float(np.abs(arr).astype(np.float64).sum())
        return total
