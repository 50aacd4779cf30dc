"""Pins on how much per-cell work the harness hot path does.

Every cache key, store read and response goes through
:func:`repro.bench.cache.cell_key`; these tests count its calls (in every
``repro`` module that binds it) on the paths the results service and a
warm ``--check`` take, and check that a revalidation (``304``) is
decided before any response body is built.
"""

import sys
import threading
import urllib.error
import urllib.request

import pytest

import repro.bench.cache as cache
from repro.bench import golden
from repro.bench.harness import ResultCache, config_for, run_case
from repro.farm import service, sweep_cells
from repro.farm.service import FarmService, make_server
from repro.farm.store import open_store

FIGURE1_APPS = ["Barnes", "ILINK", "TSP", "Water"]


@pytest.fixture(scope="module")
def figure1_results():
    """The 16 figure-1 cells, computed once for the module."""
    return [
        (cell, run_case(cell.app, cell.dataset, cell.label, **cell.kwargs))
        for cell in sweep_cells(["figure1"])
    ]


@pytest.fixture(params=["local", "sqlite"])
def figure1_store(request, tmp_path, figure1_results):
    spec = (str(tmp_path / "store") if request.param == "local"
            else f"sqlite:{tmp_path / 'store.sqlite'}")
    store = open_store(spec)
    for cell, result in figure1_results:
        store.put_result(cell, result)
    yield store
    store.close()


@pytest.fixture()
def key_calls(monkeypatch):
    """A one-element list counting ``cell_key`` calls from here on."""
    calls = [0]
    original = cache.cell_key

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name in sorted(sys.modules):
        if name == "repro" or name.startswith("repro."):
            module = sys.modules[name]
            if vars(module).get("cell_key") is original:
                monkeypatch.setattr(module, "cell_key", counting)
    return calls


def test_figure1_json_derives_each_cell_key_once(figure1_store, key_calls):
    response = FarmService(figure1_store).handle("/v1/experiments/figure1.json")
    assert response.status == 200
    assert key_calls[0] == 16


def test_figure1_txt_derives_each_cell_key_twice(figure1_store, key_calls):
    response = FarmService(figure1_store).handle("/v1/experiments/figure1.txt")
    assert response.status == 200
    # Once for the declared cell, once for the renderer's lookup.
    assert key_calls[0] == 32


def test_warm_golden_check_key_count_is_pinned(
    tmp_path, figure1_results, monkeypatch, key_calls
):
    disk = cache.DiskCache(tmp_path / "cache")
    for cell, result in figure1_results:
        disk.store(cell.app, cell.dataset, cell.label,
                   config_for(cell.label, **cell.kwargs), result)
    monkeypatch.setattr(ResultCache, "_cells", {})
    monkeypatch.setattr(ResultCache, "_disk", disk)
    key_calls[0] = 0
    report = golden.check(golden.GOLDEN_DIR, apps=FIGURE1_APPS)
    assert report.ok, report.render()
    assert report.cells_checked == 16 and disk.misses == 0
    # Per cell: one for the sweep's SweepCell (dedupe, cache probe), one
    # for the probe's resolved config, one for the comparison's get().
    assert key_calls[0] == 48


@pytest.mark.parametrize("fmt", ["json", "csv", "txt"])
def test_not_modified_never_builds_a_body(figure1_store, monkeypatch, fmt):
    svc = FarmService(figure1_store)
    path = f"/v1/experiments/figure1.{fmt}"
    etag = svc.handle(path).etag
    assert etag is not None

    def forbidden(*args, **kwargs):
        raise AssertionError("a 304 built a response body")

    for name in ("_json_payload", "_csv_payload", "_render_text"):
        monkeypatch.setattr(service, name, forbidden)
    response = svc.handle(path, if_none_match=etag)
    assert response.status == 304
    assert response.etag == etag
    assert response.body == b""
    # A stale validator still gets the full body (which now raises).
    with pytest.raises(AssertionError):
        svc.handle(path, if_none_match='"stale"')


def _corrupt_one_entry(store, cell):
    backend = store.backend
    if hasattr(backend, "root"):
        path = next(backend.root.glob(f"*-{cell.key}.json"))
        path.write_text(path.read_text().replace('"faults"', '"faultz"', 1))
    else:
        with backend._connect() as con:
            con.execute(
                "UPDATE results SET entry = replace(entry, '\"faults\"', "
                "'\"faultz\"') WHERE key = ?", (cell.key,),
            )


def test_corrupt_entry_with_matching_validator_is_pending(
    figure1_store, figure1_results
):
    svc = FarmService(figure1_store)
    path = "/v1/experiments/figure1.json"
    etag = svc.handle(path).etag
    cell = figure1_results[5][0]
    _corrupt_one_entry(figure1_store, cell)
    response = svc.handle(path, if_none_match=etag)
    assert response.status == 202
    body = response.body.decode()
    assert cell.key in body


def test_raw_cell_revalidation(figure1_store, figure1_results):
    svc = FarmService(figure1_store)
    key = figure1_results[0][0].key
    response = svc.handle(f"/v1/cells/{key}.json", if_none_match=f'"{key}"')
    assert (response.status, response.etag, response.body) == (
        304, f'"{key}"', b""
    )


class TestHTTP:
    @pytest.fixture()
    def base(self, figure1_store):
        srv = make_server(figure1_store, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.server_address[:2]
        yield f"http://{host}:{port}"
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)

    @staticmethod
    def _request(url, method="GET", headers=None):
        request = urllib.request.Request(url, method=method,
                                         headers=headers or {})
        try:
            with urllib.request.urlopen(request) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def test_head_matches_get_without_a_body(self, base):
        url = base + "/v1/experiments/figure1.txt"
        status, headers, body = self._request(url)
        assert status == 200 and body
        h_status, h_headers, h_body = self._request(url, method="HEAD")
        assert h_status == 200 and h_body == b""
        for name in ("ETag", "Content-Length", "Content-Type"):
            assert h_headers[name] == headers[name]
        status, headers_304, body = self._request(
            url, method="HEAD", headers={"If-None-Match": headers["ETag"]}
        )
        assert (status, body) == (304, b"")
        assert headers_304["ETag"] == headers["ETag"]

    def test_get_revalidation_over_the_socket(self, base, figure1_results):
        key = figure1_results[0][0].key
        url = f"{base}/v1/cells/{key}.json"
        status, headers, body = self._request(url)
        assert status == 200 and headers["ETag"] == f'"{key}"'
        status, _, body = self._request(
            url, headers={"If-None-Match": f'"{key}"'}
        )
        assert (status, body) == (304, b"")
