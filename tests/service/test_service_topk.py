"""Tests for the ``query_topk`` protocol operation and measure echo.

The parity bar mirrors the other service suites: answers delivered over the
wire must be bit-identical to :meth:`SimilarityIndex.query_topk` on the same
data, for every (k, floor) combination a client can send.
"""

from __future__ import annotations

import pytest

from repro.index import SimilarityIndex
from repro.service import ServiceClient, ServiceError, SimilarityServer, serve_in_thread
from repro.service.protocol import ProtocolError, parse_request

BASE_RECORDS = [
    (1, 2, 3, 4),
    (2, 3, 4, 5),
    (10, 11, 12, 13),
    (10, 11, 12, 14),
    (1, 2, 3, 4, 5),
    (20, 21, 22, 23),
]


def make_index(records=BASE_RECORDS, **options) -> SimilarityIndex:
    options.setdefault("backend", "numpy")
    options.setdefault("seed", 17)
    return SimilarityIndex.build(list(records), 0.5, **options)


def make_cosine_index() -> SimilarityIndex:
    return make_index(measure="cosine")


@pytest.fixture
def running_server():
    server = SimilarityServer(index_factory=make_index)
    handle = serve_in_thread(server)
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def running_cosine_server():
    server = SimilarityServer(index_factory=make_cosine_index)
    handle = serve_in_thread(server)
    try:
        yield handle
    finally:
        handle.stop()


class TestProtocolValidation:
    def test_valid_request_parses(self) -> None:
        request = parse_request(
            {"id": 1, "op": "query_topk", "record": [1, 2, 3], "k": 5}
        )
        assert request["k"] == 5
        assert request["floor"] is None

    def test_floor_coerced_to_float(self) -> None:
        request = parse_request(
            {"op": "query_topk", "record": [1], "k": 2, "floor": 1}
        )
        assert request["floor"] == 1.0
        assert isinstance(request["floor"], float)

    def test_missing_k_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="positive integer 'k'"):
            parse_request({"op": "query_topk", "record": [1, 2]})

    @pytest.mark.parametrize("bad", (0, -1, 1.5, True, "3", None))
    def test_invalid_k_rejected(self, bad) -> None:
        with pytest.raises(ProtocolError, match="positive integer 'k'"):
            parse_request({"op": "query_topk", "record": [1, 2], "k": bad})

    @pytest.mark.parametrize("bad", ("high", True, [0.5]))
    def test_invalid_floor_rejected(self, bad) -> None:
        with pytest.raises(ProtocolError, match="'floor' must be a number"):
            parse_request({"op": "query_topk", "record": [1], "k": 1, "floor": bad})

    def test_record_required(self) -> None:
        with pytest.raises(ProtocolError, match="requires a 'record'"):
            parse_request({"op": "query_topk", "k": 1})


class TestServedParity:
    def test_topk_matches_offline(self, running_server) -> None:
        offline = make_index()
        with ServiceClient.connect(*running_server.address) as client:
            for record in BASE_RECORDS:
                for k in (1, 2, 100):
                    assert client.query_topk(record, k) == offline.query_topk(record, k)

    def test_floor_travels_over_the_wire(self, running_server) -> None:
        offline = make_index()
        with ServiceClient.connect(*running_server.address) as client:
            for record in BASE_RECORDS:
                served = client.query_topk(record, 100, floor=0.8)
                assert served == offline.query_topk(record, 100, floor=0.8)

    def test_topk_is_query_prefix_over_the_wire(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            for record in BASE_RECORDS:
                full = client.query(record)
                assert client.query_topk(record, 2) == full[:2]

    def test_cosine_measure_served(self, running_cosine_server) -> None:
        offline = make_cosine_index()
        with ServiceClient.connect(*running_cosine_server.address) as client:
            for record in BASE_RECORDS:
                assert client.query_topk(record, 3) == offline.query_topk(record, 3)

    def test_invalid_k_rejected_over_the_wire(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            with pytest.raises(ServiceError, match="positive integer 'k'"):
                client.call({"op": "query_topk", "record": [1], "k": 0})


class TestStatsMeasureEcho:
    def test_default_measure_echoed(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            assert client.stats()["measure"] == "jaccard"

    def test_cosine_measure_echoed(self, running_cosine_server) -> None:
        with ServiceClient.connect(*running_cosine_server.address) as client:
            payload = client.stats()
        assert payload["measure"] == "cosine"
        assert payload["threshold"] == 0.5
