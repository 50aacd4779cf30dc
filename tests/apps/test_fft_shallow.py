"""FFT and Shallow numerical checks beyond the checksum."""

import tracemalloc

import numpy as np
import pytest

from repro.apps.fft3d import FFT3D, _fft_flops, _initial_field
from repro.apps.shallow import (
    _flux_cols,
    _h_col,
    _initial_state,
    _update_cols,
)
from repro.bench.harness import run_case


class TestFFT:
    def test_initial_field_deterministic(self):
        assert np.array_equal(_initial_field(4, 8, 8), _initial_field(4, 8, 8))

    def test_flop_count_formula(self):
        assert _fft_flops(1024) == pytest.approx(5 * 1024 * 10)
        assert _fft_flops(1) > 0  # guard against log2(1) = 0 pathologies

    def test_reference_matches_direct_numpy_transform(self):
        """The reference's staged FFTs equal one full 3-D FFT."""
        app = FFT3D()
        app.datasets = {**app.datasets, "t": {"n1": 8, "n2": 16, "n3": 16, "iters": 1}}
        ref = app.reference("t")
        a = _initial_field(8, 16, 16)
        b = np.fft.fftn(a, axes=(2, 1, 0)).astype(np.complex64)
        direct = float(np.abs(np.transpose(b, (1, 0, 2))).astype(np.float64).sum())
        assert ref == pytest.approx(direct, rel=1e-4)

    def test_transpose_block_granularity_documented(self):
        """The dataset dims must preserve the paper's block-to-page
        ratios: (n2/8) * n3 * 8 bytes = 4/8/16 KB."""
        app = FFT3D()
        expect = {"64x64x32": 4096, "64x64x64": 8192, "128x128x128": 16384}
        for ds, nbytes in expect.items():
            p = app.params(ds)
            assert (p["n2"] // 8) * p["n3"] * 8 == nbytes


class TestShallow:
    def test_initial_state_deterministic(self):
        a = _initial_state(8, 64)
        b = _initial_state(8, 64)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_flux_formulas_float32_closed(self):
        s = _initial_state(4, 32)
        cu, cv, z = _flux_cols(s["p"], s["p"], s["u"], s["v"])
        h = _h_col(s["p"], s["u"], s["v"])
        for arr in (cu, cv, z, h):
            assert arr.dtype == np.float32
            assert np.isfinite(arr).all()

    def test_update_is_stable_over_many_steps(self):
        """The explicit scheme with the chosen DT must not blow up over
        the benchmark's horizon."""
        s = _initial_state(16, 128)
        p, u, v = s["p"], s["u"], s["v"]
        for _ in range(50):
            p_sh = np.roll(p, -1, axis=0)
            u_sh = np.roll(u, -1, axis=0)
            v_sh = np.roll(v, -1, axis=0)
            cu, cv, z = _flux_cols(p, p_sh, u_sh, v_sh)
            h = _h_col(p, u, v)
            p, u, v = _update_cols(p, u, v, cu, cv, z, h)
        assert np.isfinite(p).all() and np.abs(p).max() < 1e4

    def test_column_bytes_match_paper_ratios(self):
        from repro.apps.shallow import Shallow

        app = Shallow()
        expect = {"1Kx0.5K": 4096, "2Kx0.5K": 8192, "4Kx0.5K": 16384}
        for ds, nbytes in expect.items():
            assert app.params(ds)["nrows"] * 4 == nbytes


@pytest.mark.parametrize(
    "app, dataset, peak",
    [("Shallow", "512x512", 264_935_146), ("3D-FFT", "64x64x32", 48_037_202)],
)
def test_workers_drop_their_full_size_inputs(app, dataset, peak):
    """Traced peak of one 4K cell.  Each worker writes its own slice of
    the initial grids and then drops them; holding them for the whole
    run read 290 110 351 bytes (Shallow: 3 x 1 MB per worker) and
    56 426 352 (3D-FFT: a 1 MB field per worker), dropping them 264 935
    146 and 48 037 202.  tracemalloc sees NumPy's buffers whatever the
    host's page backing, so the pin is exact up to the 1 MB slack."""
    tracemalloc.start()
    try:
        run_case(app, dataset, "4K")
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced < peak + 2**20
