"""3D-FFT: NAS-FT-style transpose-based 3-D Fourier transform
(Section 5.5).

The ``n1 x n2 x n3`` complex array is distributed as slabs of ``n1``
planes.  Each step applies FFTs along the two local dimensions, then a
*transpose* redistributes the array: processor ``p`` reads, from every
other processor's slab, the contiguous block holding ``p``'s columns of
each plane -- a producer-consumer pattern whose read granularity is
``(n2/P) * n3 * itemsize`` bytes.

Paper behaviour being reproduced:

* when the transpose read granularity matches the unit, communication is
  perfectly efficient; when the unit exceeds it, the extra words arrive
  as **piggybacked useless data** on useful messages.  Hence the
  paper's pattern: the small set degrades from 4 KB up, the medium set
  improves at 8 KB (aggregation) but degrades at 16 KB, the large set
  improves throughout;
* a one-page **checksum structure concurrently written by all
  processors and read by processor 0** produces the paper's "few useless
  messages": a writer's copy is invalidated by the other writers, so its
  write fault pulls diffs it never reads.

Dataset dims are scaled (complex64 instead of complex128, fewer planes)
while keeping the paper's transpose-granularity-to-page ratios:
``64x64x32`` -> 4 KB blocks, ``64x64x64`` -> 8 KB, ``128x128x128`` ->
16 KB.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, AppRegistry
from repro.core.proc import Proc
from repro.core.treadmarks import TreadMarks


def _initial_field(n1: int, n2: int, n3: int) -> np.ndarray:
    rng = np.random.default_rng(777)
    re = rng.standard_normal((n1, n2, n3)).astype(np.float32)
    im = rng.standard_normal((n1, n2, n3)).astype(np.float32)
    return (re + 1j * im).astype(np.complex64)


def _fft_flops(n: int) -> float:
    """Standard 5 n log2 n flop count for a length-n complex FFT."""
    return 5.0 * n * np.log2(max(n, 2))


@AppRegistry.register
class FFT3D(Application):
    """Transpose-based 3-D FFT over plane slabs."""

    name = "3D-FFT"
    checksum_rtol = 1e-3

    datasets = {
        # Transpose block = (n2/8) * n3 * 8 bytes.
        "64x64x32": {"n1": 32, "n2": 64, "n3": 64, "iters": 2},     # 4 KB
        "64x64x64": {"n1": 32, "n2": 64, "n3": 128, "iters": 2},    # 8 KB
        "128x128x128": {"n1": 32, "n2": 64, "n3": 256, "iters": 2}, # 16 KB
    }

    def heap_bytes(self, dataset: str) -> int:
        p = self.params(dataset)
        n = p["n1"] * p["n2"] * p["n3"] * 8
        return 2 * n + 65536

    def setup(self, tmk: TreadMarks, dataset: str) -> dict:
        p = self.params(dataset)
        shape = (p["n1"], p["n2"], p["n3"])
        return {
            "a": tmk.array("a", shape, "complex64"),
            "b": tmk.array("b", (p["n2"], p["n1"], p["n3"]), "complex64"),
            "check": tmk.array("check", (tmk.config.nprocs, 2), "complex64"),
        }

    def worker(self, proc: Proc, handles: dict, params: dict) -> float:
        a, b, check = handles["a"], handles["b"], handles["check"]
        n1, n2, n3, iters = params["n1"], params["n2"], params["n3"], params["iters"]
        P = proc.nprocs
        lo1, hi1 = self.block_range(n1, P, proc.id)   # slab of a
        lo2, hi2 = self.block_range(n2, P, proc.id)   # slab of b

        # Distributed initialization: each owner writes its slab and
        # drops the full-size field.
        field = _initial_field(n1, n2, n3)
        a.write(proc, (lo1, 0, 0), field[lo1:hi1].ravel())
        del field
        proc.barrier()

        local_abs = 0.0
        for _ in range(iters):
            # Local FFTs along dims 2 and 3 of the own slab of a.
            slab = (
                a.read(proc, (lo1, 0, 0), (hi1 - lo1) * n2 * n3)
                .reshape(hi1 - lo1, n2, n3)
            )
            slab = np.fft.fft(slab, axis=2).astype(np.complex64)
            slab = np.fft.fft(slab, axis=1).astype(np.complex64)
            proc.compute(
                flops=(hi1 - lo1) * (n2 * _fft_flops(n3) + n3 * _fft_flops(n2))
            )
            a.write(proc, (lo1, 0, 0), slab.ravel())
            proc.barrier()

            # Transpose: gather my n2-columns from every plane.  The
            # remote read granularity is one (n2/P, n3) block per plane.
            mine = np.empty((hi2 - lo2, n1, n3), dtype=np.complex64)
            for q in range(P):
                qlo, qhi = self.block_range(n1, P, q)
                for i in range(qlo, qhi):
                    block = (
                        a.read(proc, (i, lo2, 0), (hi2 - lo2) * n3)
                        .reshape(hi2 - lo2, n3)
                    )
                    mine[:, i, :] = block
            # FFT along the (formerly) first dimension.
            mine = np.fft.fft(mine, axis=1).astype(np.complex64)
            proc.compute(flops=(hi2 - lo2) * n3 * _fft_flops(n1))
            b.write(proc, (lo2, 0, 0), mine.ravel())

            # One-page checksum structure, written by all, read by 0.
            partial = mine.sum(dtype=np.complex64)
            check.write(proc, (proc.id, 0), np.array([partial, partial], np.complex64))
            local_abs = float(np.abs(mine).astype(np.float64).sum())
            proc.barrier()
            if proc.id == 0:
                for q in range(P):
                    check.read(proc, (q, 0), 1)
            proc.barrier()

        return self.collect_checksum(proc, handles, local_abs)

    def access_pattern(self, handles, params, nprocs):
        """Declared pattern: page-aligned slabs (single-writer) plus the
        one-page check structure concurrently written by all processors
        in the transpose epoch -- the predicted conflict page."""
        from repro.analyze.access import AccessPattern

        a, b, check = handles["a"], handles["b"], handles["check"]
        n1, n2, n3 = params["n1"], params["n2"], params["n3"]
        r1 = [self.block_range(n1, nprocs, p) for p in range(nprocs)]
        r2 = [self.block_range(n2, nprocs, p) for p in range(nprocs)]
        pat = AccessPattern(app=self.name)

        ph = pat.phase("init")
        for p, (lo1, hi1) in enumerate(r1):
            ph.write(a, p, (lo1, 0, 0), (hi1 - lo1) * n2 * n3)
        for it in range(params["iters"]):
            ph = pat.phase(f"iter{it}:local-fft")
            for p, (lo1, hi1) in enumerate(r1):
                nelems = (hi1 - lo1) * n2 * n3
                ph.read(a, p, (lo1, 0, 0), nelems)
                ph.write(a, p, (lo1, 0, 0), nelems)
            ph = pat.phase(f"iter{it}:transpose")
            for p in range(nprocs):
                lo2, hi2 = r2[p]
                for q in range(nprocs):
                    for i in range(*r1[q]):
                        ph.read(a, p, (i, lo2, 0), (hi2 - lo2) * n3)
                ph.write(b, p, (lo2, 0, 0), (hi2 - lo2) * n1 * n3)
                ph.write(check, p, (p, 0), 2)
            ph = pat.phase(f"iter{it}:check")
            for q in range(nprocs):
                ph.read(check, 0, (q, 0), 1)
        return pat

    def reference(self, dataset: str) -> float:
        p = self.params(dataset)
        n1, n2, n3 = p["n1"], p["n2"], p["n3"]
        a = _initial_field(n1, n2, n3)
        value = 0.0
        for _ in range(p["iters"]):
            # a is updated in place by the local FFT passes; the
            # transposed, axis-1-transformed copy lands in b (the workers
            # never copy b back, and neither do we).
            a = np.fft.fft(a, axis=2).astype(np.complex64)
            a = np.fft.fft(a, axis=1).astype(np.complex64)
            b = np.fft.fft(np.transpose(a, (1, 0, 2)), axis=1).astype(np.complex64)
            value = float(np.abs(b).astype(np.float64).sum())
        return value
