"""The experiment registry: name sets, and cells that match renderers.

Each served experiment declares its cells and reads them back through
the lookup its renderer is given.  Drift between the two used to show
only at request time (a service 500); here every renderer runs against
a recording lookup that returns one fixed result, and the keys it asks
for must be exactly the keys of its declared cells.
"""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    cells_of,
    rendered,
    served,
    with_cells,
)
from repro.bench.harness import CaseResult
from repro.bench.pool import SweepCell
from repro.farm.submit import sweep_names

FIXED = CaseResult(
    app="X", dataset="x", label="4K", time_us=1000.0,
    useful_messages=3, useless_messages=1, sync_messages=2,
    useful_bytes=4096, useless_bytes=1024, piggybacked_useless_bytes=512,
    sync_bytes=64, signature={1: (0.75, 0.125), 3: (0.0, 0.125)},
    checksum=1.5, faults=4, monitoring_faults=0,
)


def test_name_sets():
    assert rendered() == [
        "table1", "figure1", "figure2", "figure3", "micro", "ablation",
        "protocols",
    ]
    assert with_cells() == [
        "table1", "figure1", "figure2", "figure3", "ablation", "protocols",
        "golden", "chaos",
    ]
    assert served() == [n for n in rendered() if n in with_cells()]
    assert sweep_names() == sorted(with_cells())
    for name in ("golden", "chaos"):
        assert cells_of([name]), name


@pytest.mark.parametrize("name", served())
def test_renderer_reads_exactly_its_declared_cells(name):
    requested = set()

    def get(app, dataset, label, **extra):
        requested.add(SweepCell.make(app, dataset, label, **extra).key)
        return FIXED

    text = EXPERIMENTS[name].render(get)
    assert text
    assert requested == {cell.key for cell in cells_of([name])}
