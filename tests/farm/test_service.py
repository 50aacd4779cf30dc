"""Read-only results service: routing, pending semantics, ETags.

Figure 1 is narrowed to the four precomputed Jacobi cells
(``FIGURE1_CASES`` monkeypatched) so the suite renders real bench
output from a store without running the paper's full coarse-grained
sweep.  One test binds a real socket to exercise the HTTP layer
(``If-None-Match`` revalidation); everything else drives
:class:`FarmService` directly.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench import figures
from repro.bench.golden import GOLDEN_FIELDS
from repro.bench.harness import ResultCache
from repro.farm.service import FarmService, make_server
from repro.farm.store import open_store

JACOBI_ONLY = [("Jacobi", "1Kx1K")]


@pytest.fixture()
def jacobi_figure1(monkeypatch):
    monkeypatch.setattr(figures, "FIGURE1_CASES", JACOBI_ONLY)


@pytest.fixture()
def empty_store(tmp_path):
    store = open_store(str(tmp_path / "store"))
    yield store
    store.close()


@pytest.fixture()
def full_store(empty_store, jacobi_cells, jacobi_results):
    for label, cell in jacobi_cells.items():
        empty_store.put_result(cell, jacobi_results[label])
    return empty_store


def _json_body(response):
    return json.loads(response.body.decode())


class TestRouting:
    def test_index_lists_endpoints(self, empty_store):
        response = FarmService(empty_store).handle("/")
        assert response.status == 200
        body = _json_body(response)
        assert "/v1/status.json" in body["endpoints"]

    def test_healthz(self, empty_store):
        response = FarmService(empty_store).handle("/healthz")
        assert response.status == 200
        assert response.body == b"ok\n"

    def test_status_counts_results(self, full_store, jacobi_cells):
        response = FarmService(full_store).handle("/v1/status.json")
        assert response.status == 200
        assert _json_body(response)["results"] == len(jacobi_cells)

    @pytest.mark.parametrize("path", [
        "/nope",
        "/v1/experiments/figure9.json",
        "/v1/experiments/figure1.pdf",
        "/v1/experiments/figure1",
    ])
    def test_unknown_resources_404(self, empty_store, path):
        assert FarmService(empty_store).handle(path).status == 404

    def test_query_string_is_ignored(self, empty_store):
        assert FarmService(empty_store).handle("/healthz?x=1").status == 200


class TestExperiments:
    def test_incomplete_experiment_is_pending_not_computed(
        self, empty_store, jacobi_figure1, jacobi_cells
    ):
        response = FarmService(empty_store).handle(
            "/v1/experiments/figure1.json"
        )
        assert response.status == 202
        body = _json_body(response)
        assert body["status"] == "pending"
        assert body["need"] == len(jacobi_cells)
        assert body["have"] == 0
        assert len(body["missing"]) == len(jacobi_cells)
        # Pending never triggers a simulation: the store stays empty.
        assert empty_store.backend.result_count() == 0

    def test_complete_experiment_json(
        self, full_store, jacobi_figure1, jacobi_cells, jacobi_results
    ):
        response = FarmService(full_store).handle(
            "/v1/experiments/figure1.json"
        )
        assert response.status == 200
        assert response.etag is not None
        body = _json_body(response)
        assert body["experiment"] == "figure1"
        assert len(body["cells"]) == len(jacobi_cells)
        by_label = {c["label"]: c for c in body["cells"]}
        for label, cell in jacobi_cells.items():
            served = by_label[label]
            assert served["key"] == cell.key
            want = jacobi_results[label].to_json_dict()
            assert served["result"] == want

    def test_etag_is_stable_across_requests(
        self, full_store, jacobi_figure1
    ):
        svc = FarmService(full_store)
        first = svc.handle("/v1/experiments/figure1.json")
        second = svc.handle("/v1/experiments/figure1.csv")
        assert first.etag == second.etag  # same cells, any format
        assert first.etag.startswith('"') and first.etag.endswith('"')

    def test_complete_experiment_csv(
        self, full_store, jacobi_figure1, jacobi_cells
    ):
        response = FarmService(full_store).handle(
            "/v1/experiments/figure1.csv"
        )
        assert response.status == 200
        assert response.content_type == "text/csv"
        lines = response.body.decode().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["app", "dataset", "label", "protocol", "key"]
        assert set(header[5:]) == set(GOLDEN_FIELDS)
        assert len(lines) == 1 + len(jacobi_cells)
        assert all(line.startswith("Jacobi,1Kx1K,") for line in lines[1:])

    def test_complete_experiment_txt_renders_bench_output(
        self, full_store, jacobi_figure1
    ):
        previous_compute = ResultCache._compute
        response = FarmService(full_store).handle(
            "/v1/experiments/figure1.txt"
        )
        assert response.status == 200
        text = response.body.decode()
        assert "Figure 1" in text
        assert "Jacobi" in text
        # Rendering restored the process-wide cache knobs.
        assert ResultCache._compute == previous_compute
        assert ResultCache.disk() is None


class TestCells:
    def test_stored_cell_served_with_key_etag(
        self, full_store, jacobi_cells
    ):
        cell = jacobi_cells["4K"]
        response = FarmService(full_store).handle(
            f"/v1/cells/{cell.key}.json"
        )
        assert response.status == 200
        assert response.etag == f'"{cell.key}"'
        body = _json_body(response)
        assert body["key"] == cell.key
        assert body["app"] == "Jacobi"

    def test_queued_cell_is_pending(self, empty_store, jacobi_cells):
        cell = jacobi_cells["4K"]
        empty_store.submit([cell])
        response = FarmService(empty_store).handle(
            f"/v1/cells/{cell.key}.json"
        )
        assert response.status == 202
        assert _json_body(response)["state"] == "queued"

    def test_unknown_cell_404(self, empty_store):
        response = FarmService(empty_store).handle(
            "/v1/cells/ffffffffffffffffffffffff.json"
        )
        assert response.status == 404


class TestCellKeyValidation:
    """``/v1/cells/<key>.json`` accepts only what ``cell_key`` emits (24
    lowercase hex digits); anything else is a 404 that never reaches
    the backend -- in particular no glob pattern can select an entry."""

    HOSTILE = ["*", "[0-9a-f]*", "3b35*", "?" * 24, "A" * 24, "a" * 23,
               "a" * 25, "../x", ""]

    @pytest.fixture(params=["local", "sqlite"])
    def store(self, request, tmp_path, jacobi_cells, jacobi_results):
        spec = (str(tmp_path / "store") if request.param == "local"
                else f"sqlite:{tmp_path / 'store.sqlite'}")
        store = open_store(spec)
        for label, cell in jacobi_cells.items():
            store.put_result(cell, jacobi_results[label])
        yield store
        store.close()

    @pytest.mark.parametrize("key", HOSTILE)
    def test_hostile_key_is_404_before_the_backend(self, store, monkeypatch,
                                                    key):
        def untouchable(*args, **kwargs):
            raise AssertionError("a malformed key reached the backend")

        monkeypatch.setattr(store.backend, "find_entry", untouchable)
        monkeypatch.setattr(store.backend, "queue_lookup", untouchable)
        response = FarmService(store).handle(f"/v1/cells/{key}.json")
        assert response.status == 404
        assert response.etag is None

    @pytest.mark.parametrize("key", HOSTILE[:3])
    def test_glob_key_never_selects_an_entry(self, store, key):
        assert FarmService(store).handle(f"/v1/cells/{key}.json").status == 404
        assert store.backend.find_entry(key) is None

    def test_every_real_key_still_served(self, store, jacobi_cells):
        svc = FarmService(store)
        for cell in jacobi_cells.values():
            response = svc.handle(f"/v1/cells/{cell.key}.json")
            assert response.status == 200
            assert response.etag == f'"{cell.key}"'


class TestHTTP:
    @pytest.fixture()
    def server(self, full_store):
        srv = make_server(full_store, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)

    def _get(self, server, path, headers=None):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def test_etag_revalidation_304(self, server, jacobi_figure1):
        path = "/v1/experiments/figure1.json"
        status, headers, body = self._get(server, path)
        assert status == 200
        etag = headers["ETag"]
        assert json.loads(body)["experiment"] == "figure1"
        status, headers, body = self._get(
            server, path, {"If-None-Match": etag}
        )
        assert status == 304
        assert headers["ETag"] == etag
        assert body == b""

    def test_head_has_no_body(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/healthz", method="HEAD"
        )
        with urllib.request.urlopen(request) as resp:
            assert resp.status == 200
            assert resp.read() == b""
