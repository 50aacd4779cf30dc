"""Barnes: Barnes-Hut hierarchical N-body simulation (Section 5.5;
SPLASH).

Structure, as described in the paper:

* the **tree is built sequentially by the master processor**, which
  reads essentially the entire body array (fine-grained, one record per
  body) and writes the cell array;
* the **force computation is parallel**: bodies live in Morton (tree)
  order and each processor owns a contiguous chunk, standing in for
  SPLASH's cost-zone partition.  Fine-grained per-body writes cause
  write-write false sharing on the pages where partitions meet, but the
  extensive true sharing (traversals read bodies and cells all over the
  space) keeps useless messages few: false sharing shows up mostly as
  useless *data*;
* reads and writes are fine-grained (individual particle records), but
  each processor touches a large region of the shared body/cell space,
  which is why static aggregation pays off (Figure 1).

The octree build and the force traversal are pure functions shared with
the sequential reference, so the DSM run is bitwise comparable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Tuple

import numpy as np

from repro.apps.base import Application, AppRegistry
from repro.core.proc import Proc
from repro.core.treadmarks import TreadMarks

#: float32 words per body record: pos[0:3] vel[3:6] acc[6:9] mass[9] pad.
BODY_REC = 16
#: float32 words per cell record: com[0:3] mass[3] size[4] pad[5:8]
#: children[8:16] (0 empty, +i cell i-1, -j body j-1).
CELL_REC = 16

THETA2 = np.float32(0.49)  # theta = 0.7
EPS2 = np.float32(0.05)
DT = np.float32(0.002)


def _morton_keys(pos: np.ndarray) -> np.ndarray:
    """Morton (Z-order) keys of 3-D positions, 10 bits per axis."""
    q = np.clip((pos / pos.max() * 1023.0).astype(np.int64), 0, 1023)
    keys = np.zeros(pos.shape[0], dtype=np.int64)
    for bit in range(10):
        for axis in range(3):
            keys |= ((q[:, axis] >> bit) & 1) << (3 * bit + axis)
    return keys


@lru_cache(maxsize=4)
def _initial_bodies_cached(n: int) -> np.ndarray:
    rng = np.random.default_rng(99)
    b = np.zeros((n, BODY_REC), dtype=np.float32)
    b[:, 0:3] = rng.uniform(0.0, 100.0, size=(n, 3)).astype(np.float32)
    b[:, 3:6] = rng.standard_normal((n, 3)).astype(np.float32) * 0.1
    b[:, 9] = np.float32(1.0)
    order = np.argsort(_morton_keys(b[:, 0:3]), kind="stable")
    return b[order]


def _initial_bodies(n: int) -> np.ndarray:
    """Deterministic bodies, stored in Morton order: SPLASH Barnes keeps
    the body array in tree order, so contiguous index ranges are spatial
    clusters and the costzone partition owns whole pages (write-write
    false sharing concentrates at partition boundaries).

    Every worker regenerates the same array, so the draw is cached and a
    fresh copy handed out (callers mutate their copy in place)."""
    return _initial_bodies_cached(n).copy()


# ----------------------------------------------------------------------
# Octree build (pure; used by the master worker and by the reference)
# ----------------------------------------------------------------------
#: Leaf bucket capacity (SPLASH-style multi-body leaves; also bounded by
#: the 8 child slots of the serialized cell record).
BUCKET = 8


def build_tree(pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Build the Barnes-Hut octree over positions; returns the serialized
    cell array ((ncells, CELL_REC) float32).

    Level-order vectorized construction, bit-identical to sequential
    per-body insertion (``build_tree_ref`` in
    ``tests/apps/test_vectorized_equiv.py``, the property suite that
    asserts it):

    * the tree *structure* is insertion-order independent -- a node is
      internal iff more than ``BUCKET`` bodies fall inside its box
      (spilling moves all bodies down and the node never re-opens), and
      leaves keep their bodies in ascending index order (spills preserve
      list order, later arrivals append);
    * node *sizes* are exact float64 halvings of the root size, so all
      nodes of one depth share one size and one child-center offset;
    * child centers replicate the scalar arithmetic exactly: the scalar
      code computes ``float32(parent.c) + python_float(q)``, which NEP-50
      weak promotion evaluates as a float32 add of ``float32(q)`` -- the
      vectorized form adds the pre-rounded ``np.float32(q)`` columnwise;
    * centers of mass fold in the same order: per node, bodies ascending
      (leaves) or children in octant order (internal), one float32
      multiply-add per step, batched across nodes one slot at a time.
    """
    n = pos.shape[0]
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    center = (lo + hi) / 2.0
    size = float((hi - lo).max()) * 1.001 + 1e-6

    px = np.ascontiguousarray(pos[:, 0])
    py = np.ascontiguousarray(pos[:, 1])
    pz = np.ascontiguousarray(pos[:, 2])

    # ---- level-order partition ------------------------------------
    # Current level: centers (float32 columns) and global node ids.
    cx = np.array([center[0]], dtype=np.float32)
    cy = np.array([center[1]], dtype=np.float32)
    cz = np.array([center[2]], dtype=np.float32)
    gids = np.zeros(1, dtype=np.int64)
    nnodes = 1
    gsize: List[float] = [size]          # per-gid node size (exact f64)
    cur_size = size
    bidx = np.arange(n, dtype=np.int64)  # unsettled bodies (ascending)
    bnode = np.zeros(n, dtype=np.int64)  # local node index per body
    # Per level (== depth): leaf gids + their (nl, BUCKET) body matrix
    # (-1 pad); internal gids + their (ni, 8) child-gid matrix in octant
    # order.
    leaf_parts: List[Tuple[int, np.ndarray, np.ndarray]] = []
    int_parts: List[Tuple[int, np.ndarray, np.ndarray]] = []
    depth = 0
    while bidx.size:
        k = cx.shape[0]
        counts = np.bincount(bnode, minlength=k)
        leaf_sel = counts[bnode] <= BUCKET
        if leaf_sel.any():
            lb, ln = bidx[leaf_sel], bnode[leaf_sel]
            o = np.argsort(ln, kind="stable")
            lb, ln = lb[o], ln[o]
            rank = np.arange(lb.size) - np.searchsorted(ln, ln)
            mat = np.full((k, BUCKET), -1, dtype=np.int64)
            mat[ln, rank] = lb
            li = np.unique(ln)
            leaf_parts.append((depth, gids[li], mat[li]))
        isel = ~leaf_sel
        bidx, bn = bidx[isel], bnode[isel]
        if not bidx.size:
            break
        octs = (
            (px[bidx] >= cx[bn]).astype(np.int64)
            | ((py[bidx] >= cy[bn]).astype(np.int64) << 1)
            | ((pz[bidx] >= cz[bn]).astype(np.int64) << 2)
        )
        ukey, bnode = np.unique(bn * 8 + octs, return_inverse=True)
        pn, po = ukey // 8, ukey % 8
        q = cur_size / 4.0
        qf = np.float32(q)
        nk = ukey.shape[0]
        child_gids = nnodes + np.arange(nk, dtype=np.int64)
        crank = np.arange(nk) - np.searchsorted(pn, pn)
        cmat = np.full((k, 8), -1, dtype=np.int64)
        cmat[pn, crank] = child_gids
        ui = np.unique(pn)
        int_parts.append((depth, gids[ui], cmat[ui]))
        cx = cx[pn] + np.where(po & 1, qf, -qf)
        cy = cy[pn] + np.where(po & 2, qf, -qf)
        cz = cz[pn] + np.where(po & 4, qf, -qf)
        gids = child_gids
        child_size = cur_size / 2.0
        gsize.extend([child_size] * nk)
        cur_size = child_size
        nnodes += nk
        depth += 1

    # ---- pre-order serialization (children in octant order) --------
    child_of = np.full((nnodes, 8), -1, dtype=np.int64)
    for _, gpart, mpart in int_parts:
        child_of[gpart] = mpart
    order = np.empty(nnodes, dtype=np.int64)
    stack = [0]
    cid = 0
    while stack:
        g = stack.pop()
        order[g] = cid
        cid += 1
        for c in child_of[g].tolist()[::-1]:
            if c >= 0:
                stack.append(c)

    # ---- centers of mass, one slot step at a time ------------------
    # The reference fill normalizes each node's com (com / m) *before*
    # the parent folds it in, so accumulation runs depth by depth from
    # the bottom, each group of nodes divided right after its own
    # accumulation completes (leaves and internal nodes at one depth
    # are disjoint; children always live one level deeper).
    com = np.zeros((nnodes, 3), dtype=np.float32)
    m = np.zeros(nnodes, dtype=np.float32)
    leaf_at = {d: (g, mat) for d, g, mat in leaf_parts}
    int_at = {d: (g, mat) for d, g, mat in int_parts}

    def _divide(g: np.ndarray) -> None:
        gm = g[m[g] > 0]
        com[gm] = com[gm] / m[gm, None]

    for d in range(depth, -1, -1):
        if d in leaf_at:
            gpart, mpart = leaf_at[d]
            for kcol in range(BUCKET):
                col = mpart[:, kcol]
                sel = col >= 0
                if not sel.any():
                    break
                g, b = gpart[sel], col[sel]
                w = mass[b]
                com[g] = com[g] + pos[b] * w[:, None]
                m[g] = m[g] + w
            _divide(gpart)
        if d in int_at:
            gpart, mpart = int_at[d]
            for kcol in range(8):
                col = mpart[:, kcol]
                sel = col >= 0
                if not sel.any():
                    break
                g, c = gpart[sel], col[sel]
                cm = m[c]
                com[g] = com[g] + com[c] * cm[:, None]
                m[g] = m[g] + cm
            _divide(gpart)

    # ---- assemble cell records -------------------------------------
    cells = np.zeros((nnodes, CELL_REC), dtype=np.float32)
    cells[order, 0:3] = com
    cells[order, 3] = m
    cells[order, 4] = np.asarray(gsize, dtype=np.float64).astype(np.float32)
    for _, gpart, mpart in leaf_parts:
        cells[order[gpart], 8:16] = (-(mpart + 1)).astype(np.float32)
    for _, gpart, mpart in int_parts:
        refs = np.where(mpart >= 0, order[np.maximum(mpart, 0)] + 1, 0)
        cells[order[gpart], 8:16] = refs.astype(np.float32)
    return cells


# ----------------------------------------------------------------------
# Force traversal (pure)
# ----------------------------------------------------------------------
def force_on(
    i: int,
    pos_i: np.ndarray,
    read_cell: Callable[[int], np.ndarray],
    read_body: Callable[[int], np.ndarray],
) -> Tuple[np.ndarray, int]:
    """Barnes-Hut acceleration on body ``i``; returns (acc, ninteractions).

    ``read_cell(cid)`` and ``read_body(j)`` fetch records (from shared
    memory in the DSM run, from plain arrays in the reference)."""
    acc = np.zeros(3, dtype=np.float32)
    inter = 0
    stack = [0]
    while stack:
        cid = stack.pop()
        cell = read_cell(cid)
        d = cell[0:3] - pos_i
        r2 = np.float32((d * d).sum()) + EPS2
        if cell[4] * cell[4] < THETA2 * r2:
            inv = np.float32(1.0) / np.float32(np.sqrt(float(r2)))
            acc = acc + d * (cell[3] * inv * inv * inv)
            inter += 1
            continue
        for s in range(8, 16):
            ref = int(cell[s])
            if ref == 0:
                continue
            if ref > 0:
                stack.append(ref - 1)
            else:
                j = -ref - 1
                if j == i:
                    continue
                body = read_body(j)
                db = body[0:3] - pos_i
                rb2 = np.float32((db * db).sum()) + EPS2
                inv = np.float32(1.0) / np.float32(np.sqrt(float(rb2)))
                acc = acc + db * (body[9] * inv * inv * inv)
                inter += 1
    return acc.astype(np.float32), inter


def batched_forces(
    pos_i: np.ndarray,
    ids: np.ndarray,
    get_cells: Callable[[np.ndarray], np.ndarray],
    get_bodies: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Barnes-Hut accelerations on a batch of bodies at once; returns
    ``(acc (m, 3) float32, interactions (m,) int64)``.

    Level-order version of :func:`force_on`: one frontier of
    (body, cell) pairs per tree level, expanded together.  The opening
    criterion depends only on the cell record and the body position, so
    the visited node *set* per body equals the scalar traversal's; only
    the accumulation order changes (per level: cell terms summed in
    float64 per body via ``bincount``, rounded into the float32
    accumulator, then leaf-body terms likewise).  Per body the partial
    sums depend only on its own pair subsequence, never on the batch,
    so the worker (one block) and the reference (all bodies) fold
    identically.

    ``get_cells(cids)`` / ``get_bodies(js)`` fetch record batches (from
    shared memory in the DSM run, from plain arrays in the reference);
    both may receive duplicate ids within one call."""
    m = int(pos_i.shape[0])
    acc = np.zeros((m, 3), dtype=np.float32)
    inter = np.zeros(m, dtype=np.int64)
    if m == 0:
        return acc, inter
    pb = np.arange(m, dtype=np.int64)  # pair -> batch row
    pc = np.zeros(m, dtype=np.int64)   # pair -> cell id (all start at root)
    while pb.size:
        cells = get_cells(pc)
        d = cells[:, 0:3] - pos_i[pb]
        r2 = (d * d).sum(axis=1) + EPS2
        far = (cells[:, 4] * cells[:, 4]) < (THETA2 * r2)
        if far.any():
            inv = np.float32(1.0) / np.sqrt(r2[far])
            w = cells[far, 3] * inv * inv * inv
            rows = pb[far]
            contrib = d[far] * w[:, None]
            for c in range(3):
                acc[:, c] += np.bincount(
                    rows, weights=contrib[:, c], minlength=m
                ).astype(np.float32)
            inter += np.bincount(rows, minlength=m)
        refs = cells[~far, 8:16].astype(np.int64)
        pair_b = np.repeat(pb[~far], 8)
        flat = refs.reshape(-1)
        keep = flat != 0
        pair_b, flat = pair_b[keep], flat[keep]
        is_cell = flat > 0
        jb = pair_b[~is_cell]
        js = -flat[~is_cell] - 1
        not_self = js != ids[jb]
        jb, js = jb[not_self], js[not_self]
        if js.size:
            brow = get_bodies(js)
            db = brow[:, 0:3] - pos_i[jb]
            rb2 = (db * db).sum(axis=1) + EPS2
            invb = np.float32(1.0) / np.sqrt(rb2)
            wb = brow[:, 9] * invb * invb * invb
            contribb = db * wb[:, None]
            for c in range(3):
                acc[:, c] += np.bincount(
                    jb, weights=contribb[:, c], minlength=m
                ).astype(np.float32)
            inter += np.bincount(jb, minlength=m)
        pb = pair_b[is_cell]
        pc = flat[is_cell] - 1
    return acc, inter


def _soa_noop(_ids: np.ndarray) -> None:
    """Presence hook for :func:`batched_forces_soa` over local arrays."""


def batched_forces_soa(
    pos_i: np.ndarray,
    ids: np.ndarray,
    cell_cols: Tuple[np.ndarray, ...],
    body_cols: Tuple[np.ndarray, ...],
    ensure_cells: Callable[[np.ndarray], None],
    ensure_bodies: Callable[[np.ndarray], None],
) -> Tuple[np.ndarray, np.ndarray]:
    """Structure-of-arrays form of :func:`batched_forces`; bit-identical
    (asserted by the property suite) but ~3x faster: per level it gathers
    1-D float32 columns instead of materializing (npairs, 16) record
    copies, and the child references are pre-converted int32.

    ``cell_cols`` is ``(x, y, z, mass, size_sq, refs int32 (nc, 8))``;
    ``body_cols`` is ``(x, y, z, mass)``.  ``ensure_cells(cids)`` /
    ``ensure_bodies(js)`` populate the columns for any ids not yet
    present (fetching from shared memory in the DSM run); they receive
    exactly the id batches :func:`batched_forces` hands its getters, so
    coherence traffic is unchanged.

    Equivalence argument: the float32 arithmetic is performed in the
    same elementwise order (``d = c - p``; ``r2 = ((dx^2 + dy^2) + dz^2)
    + EPS2`` matches the 3-wide sequential ``sum(axis=1)``; weights fold
    through the same float64 ``bincount`` in the same pair order), and
    ``size_sq`` is the same float32 product the AoS kernel forms inline.
    """
    cx, cy, cz, cm, cs2, crefs = cell_cols
    bx, by, bz, bm = body_cols
    m = int(pos_i.shape[0])
    acc = np.zeros((m, 3), dtype=np.float32)
    inter = np.zeros(m, dtype=np.int64)
    if m == 0:
        return acc, inter
    px = np.ascontiguousarray(pos_i[:, 0])
    py = np.ascontiguousarray(pos_i[:, 1])
    pz = np.ascontiguousarray(pos_i[:, 2])
    pb = np.arange(m, dtype=np.int64)  # pair -> batch row
    pc = np.zeros(m, dtype=np.int64)   # pair -> cell id (all start at root)
    while pb.size:
        ensure_cells(pc)
        dx = cx[pc]
        dx -= px[pb]
        dy = cy[pc]
        dy -= py[pb]
        dz = cz[pc]
        dz -= pz[pb]
        r2 = dx * dx
        r2 += dy * dy
        r2 += dz * dz
        r2 += EPS2
        far = cs2[pc] < (THETA2 * r2)
        fi = np.flatnonzero(far)
        if fi.size:
            inv = np.float32(1.0) / np.sqrt(r2[fi])
            w = cm[pc[fi]] * inv
            w *= inv
            w *= inv
            rows = pb[fi]
            acc[:, 0] += np.bincount(
                rows, weights=dx[fi] * w, minlength=m
            ).astype(np.float32)
            acc[:, 1] += np.bincount(
                rows, weights=dy[fi] * w, minlength=m
            ).astype(np.float32)
            acc[:, 2] += np.bincount(
                rows, weights=dz[fi] * w, minlength=m
            ).astype(np.float32)
            inter += np.bincount(rows, minlength=m)
        ni = np.flatnonzero(~far)
        flat = crefs[pc[ni]].reshape(-1)
        pair_b = np.repeat(pb[ni], 8)
        keep = flat != 0
        pair_b, flat = pair_b[keep], flat[keep]
        is_cell = flat > 0
        jb = pair_b[~is_cell]
        js = (-flat[~is_cell] - 1).astype(np.int64)
        not_self = js != ids[jb]
        jb, js = jb[not_self], js[not_self]
        if js.size:
            ensure_bodies(js)
            dbx = bx[js]
            dbx -= px[jb]
            dby = by[js]
            dby -= py[jb]
            dbz = bz[js]
            dbz -= pz[jb]
            rb2 = dbx * dbx
            rb2 += dby * dby
            rb2 += dbz * dbz
            rb2 += EPS2
            invb = np.float32(1.0) / np.sqrt(rb2)
            wb = bm[js] * invb
            wb *= invb
            wb *= invb
            acc[:, 0] += np.bincount(
                jb, weights=dbx * wb, minlength=m
            ).astype(np.float32)
            acc[:, 1] += np.bincount(
                jb, weights=dby * wb, minlength=m
            ).astype(np.float32)
            acc[:, 2] += np.bincount(
                jb, weights=dbz * wb, minlength=m
            ).astype(np.float32)
            inter += np.bincount(jb, minlength=m)
        pb = pair_b[is_cell]
        pc = (flat[is_cell] - 1).astype(np.int64)
    return acc, inter


#: Flops charged per gravitational interaction.
FLOPS_PER_INTERACTION = 60


def _owned(n: int, nprocs: int, pid: int) -> List[int]:
    """Costzone-style partition: a contiguous range of the Morton-ordered
    body array (a contiguous chunk of the tree walk)."""
    lo, hi = Application.block_range(n, nprocs, pid)
    return list(range(lo, hi))


@AppRegistry.register
class Barnes(Application):
    """Barnes-Hut with master tree build and cyclic body partition."""

    name = "Barnes"
    checksum_rtol = 1e-4

    datasets = {
        # Paper: 16K bodies; scaled for simulator runtime.  1080 bodies
        # (not a multiple of 64 bodies/page) keeps the partition
        # boundaries inside pages, preserving the boundary write-write
        # false sharing of the original.
        "16K": {"n": 1080, "iters": 2, "max_cells": 4096},
        # Paper full size: 32K bodies, unscaled.  Only reachable at
        # simulator speed through the bulk-access fast path; kept out of
        # the default golden gate (see ``--full`` in repro.bench).
        "32K": {"n": 32768, "iters": 2, "max_cells": 65536},
    }

    def heap_bytes(self, dataset: str) -> int:
        p = self.params(dataset)
        return (p["n"] * BODY_REC + p["max_cells"] * CELL_REC) * 4 + 65536

    def setup(self, tmk: TreadMarks, dataset: str) -> dict:
        p = self.params(dataset)
        return {
            "bodies": tmk.array("bodies", (p["n"], BODY_REC), "float32"),
            "cells": tmk.array("cells", (p["max_cells"], CELL_REC), "float32"),
            "meta": tmk.array("meta", (16,), "int32"),
        }

    # ------------------------------------------------------------------
    def worker(self, proc: Proc, handles: dict, params: dict) -> float:
        bodies, cells, meta = handles["bodies"], handles["cells"], handles["meta"]
        n, iters = params["n"], params["iters"]
        mine = _owned(n, proc.nprocs, proc.id)

        # Distributed initialization: owners write their body ranges.
        init = _initial_bodies(n)
        if mine:
            bodies.write_rows(proc, mine[0], init[mine[0] : mine[-1] + 1])
        proc.barrier()

        rows = np.asarray(mine, dtype=np.int64)
        for _ in range(iters):
            # ---- Master builds the tree, reading every body record
            # fine-grained (one 10-word range per body, gathered in
            # index order), then writes the serialized cells.
            if proc.id == 0:
                recs = bodies.gather_rows(
                    proc, np.arange(n, dtype=np.int64), 0, 10
                )
                pos = np.ascontiguousarray(recs[:, 0:3])
                mass = np.ascontiguousarray(recs[:, 9])
                tree = build_tree(pos, mass)
                if tree.shape[0] > params["max_cells"]:
                    raise RuntimeError(
                        f"tree needs {tree.shape[0]} cells, "
                        f"max_cells={params['max_cells']}"
                    )
                proc.compute(us=15.0 * n)  # sequential build work
                cells.scatter_rows(
                    proc, np.arange(tree.shape[0], dtype=np.int64), tree
                )
                meta.write(proc, 0, np.array([tree.shape[0]], np.int32))
            proc.barrier()

            # ---- Parallel force computation over the cyclic partition.
            # Records are still read per body / per cell (10- and 16-word
            # ranges), but batched per traversal level: each level's
            # unseen records are gathered together in ascending id
            # order.  The visited record SET matches the scalar
            # traversal's, so coherence traffic is unchanged.
            mc = params["max_cells"]
            c_x = np.zeros(mc, dtype=np.float32)
            c_y = np.zeros(mc, dtype=np.float32)
            c_z = np.zeros(mc, dtype=np.float32)
            c_m = np.zeros(mc, dtype=np.float32)
            c_s2 = np.zeros(mc, dtype=np.float32)
            c_refs = np.zeros((mc, 8), dtype=np.int32)
            cell_have = np.zeros(mc, dtype=bool)
            cell_seen = np.zeros(mc, dtype=bool)
            b_x = np.zeros(n, dtype=np.float32)
            b_y = np.zeros(n, dtype=np.float32)
            b_z = np.zeros(n, dtype=np.float32)
            b_m = np.zeros(n, dtype=np.float32)
            body_have = np.zeros(n, dtype=bool)
            body_seen = np.zeros(n, dtype=bool)
            own = bodies.gather_rows(proc, rows, 0, 10) if mine else \
                np.zeros((0, 10), dtype=np.float32)
            b_x[rows] = own[:, 0]
            b_y[rows] = own[:, 1]
            b_z[rows] = own[:, 2]
            b_m[rows] = own[:, 9]
            body_have[rows] = True
            body_seen[rows] = True

            def ensure_cells(cids: np.ndarray) -> None:
                # Marking the "have" flags first makes them double as the
                # dedup scratch: the sorted missing set falls out of one
                # flatnonzero over the flag delta, an order of magnitude
                # cheaper than np.unique on the raw id stream.
                cand = cids[~cell_have[cids]]
                if cand.size:
                    cell_have[cand] = True
                    missing = np.flatnonzero(cell_have != cell_seen)
                    cell_seen[missing] = True
                    recs = cells.gather_rows(proc, missing, 0, CELL_REC)
                    c_x[missing] = recs[:, 0]
                    c_y[missing] = recs[:, 1]
                    c_z[missing] = recs[:, 2]
                    c_m[missing] = recs[:, 3]
                    c_s2[missing] = recs[:, 4] * recs[:, 4]
                    c_refs[missing] = recs[:, 8:16].astype(np.int32)

            def ensure_bodies(js: np.ndarray) -> None:
                cand = js[~body_have[js]]
                if cand.size:
                    body_have[cand] = True
                    missing = np.flatnonzero(body_have != body_seen)
                    body_seen[missing] = True
                    recs = bodies.gather_rows(proc, missing, 0, 10)
                    b_x[missing] = recs[:, 0]
                    b_y[missing] = recs[:, 1]
                    b_z[missing] = recs[:, 2]
                    b_m[missing] = recs[:, 9]

            acc, inter = batched_forces_soa(
                np.ascontiguousarray(own[:, 0:3]), rows,
                (c_x, c_y, c_z, c_m, c_s2, c_refs),
                (b_x, b_y, b_z, b_m),
                ensure_cells, ensure_bodies,
            )
            proc.compute(flops=int(inter.sum()) * FLOPS_PER_INTERACTION)
            proc.barrier()

            # ---- Update phase: owners integrate their bodies, publishing
            # the new accelerations with the position/velocity write.
            # Keeping accelerations private until here means the force
            # phase is read-only, so traversal reads of remote records
            # are never concurrent with owner writes (the phases are
            # race-free under the repro.trace happens-before check).
            if mine:
                recs = bodies.gather_rows(proc, rows, 0, BODY_REC)
                out = recs[:, 0:9].copy()
                out[:, 6:9] = acc
                out[:, 3:6] = out[:, 3:6] + out[:, 6:9] * DT
                out[:, 0:3] = out[:, 0:3] + out[:, 3:6] * DT
                proc.compute(flops=12 * len(mine))
                bodies.scatter_rows(proc, rows, out, 0)
            proc.barrier()

        local = 0.0
        if mine:
            local = float(
                np.abs(bodies.gather_rows(proc, rows, 0, 9))
                .astype(np.float64).sum()
            )
        return self.collect_checksum(proc, handles, local)

    # ------------------------------------------------------------------
    def access_pattern(self, handles, params, nprocs):
        """Declared pattern: master tree build, read-only force phase,
        fine-grained owner updates.  The cell writes are ``may`` (the
        tree size is data-dependent); the per-body 9-word updates are
        ``must`` and produce the predicted boundary-page conflicts."""
        from repro.analyze.access import AccessPattern

        bodies, cells, meta = (
            handles["bodies"], handles["cells"], handles["meta"],
        )
        n = params["n"]
        ranges = [self.block_range(n, nprocs, p) for p in range(nprocs)]
        pat = AccessPattern(app=self.name)

        ph = pat.phase("init")
        for p, (lo, hi) in enumerate(ranges):
            if hi > lo:
                ph.write_rows(bodies, p, lo, hi)
        for it in range(params["iters"]):
            ph = pat.phase(f"iter{it}:build")
            for j in range(n):
                ph.read(bodies, 0, (j, 0), 10)
            ph.write_all(cells, 0, must=False)
            ph.write(meta, 0, 0, 1)
            ph = pat.phase(f"iter{it}:force")
            for p, (lo, hi) in enumerate(ranges):
                ph.read_all(cells, p, must=False)
                ph.read_all(bodies, p, must=False)
                for i in range(lo, hi):
                    ph.read(bodies, p, (i, 0), 10)
            ph = pat.phase(f"iter{it}:update")
            for p, (lo, hi) in enumerate(ranges):
                for i in range(lo, hi):
                    ph.read(bodies, p, (i, 0), BODY_REC)
                    ph.write(bodies, p, (i, 0), 9)
        ph = pat.phase("checksum")
        for p, (lo, hi) in enumerate(ranges):
            for i in range(lo, hi):
                ph.read(bodies, p, (i, 0), 9)
        return pat

    # ------------------------------------------------------------------
    def reference(self, dataset: str) -> float:
        p = self.params(dataset)
        n, iters = p["n"], p["iters"]
        b = _initial_bodies(n)
        for _ in range(iters):
            tree = build_tree(b[:, 0:3].copy(), b[:, 9].copy())
            acc, _ = batched_forces_soa(
                np.ascontiguousarray(b[:, 0:3]),
                np.arange(n, dtype=np.int64),
                (
                    np.ascontiguousarray(tree[:, 0]),
                    np.ascontiguousarray(tree[:, 1]),
                    np.ascontiguousarray(tree[:, 2]),
                    np.ascontiguousarray(tree[:, 3]),
                    tree[:, 4] * tree[:, 4],
                    tree[:, 8:16].astype(np.int32),
                ),
                (
                    np.ascontiguousarray(b[:, 0]),
                    np.ascontiguousarray(b[:, 1]),
                    np.ascontiguousarray(b[:, 2]),
                    np.ascontiguousarray(b[:, 9]),
                ),
                _soa_noop, _soa_noop,
            )
            b[:, 6:9] = acc
            b[:, 3:6] = b[:, 3:6] + b[:, 6:9] * DT
            b[:, 0:3] = b[:, 0:3] + b[:, 3:6] * DT
        return float(np.abs(b[:, 0:9]).astype(np.float64).sum())
