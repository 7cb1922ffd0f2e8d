"""Tests for the JSON-lines wire protocol."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    OPERATIONS,
    ProtocolError,
    decode_matches,
    decode_message,
    encode_matches,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)


class TestMessageFraming:
    def test_roundtrip(self) -> None:
        message = {"id": 3, "op": "query", "record": [1, 2, 3]}
        assert decode_message(encode_message(message)) == message

    def test_one_line_per_message(self) -> None:
        assert encode_message({"op": "health"}).endswith(b"\n")
        assert encode_message({"op": "health"}).count(b"\n") == 1

    def test_malformed_json_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_message(b"{not json}\n")

    def test_non_object_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_non_utf8_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe{}\n")

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(b"[" * 100_000, id="nested-100k"),
            pytest.param(
                b'{"id": ' + b"1" * 5000 + b"}",
                id="int-5000-digits",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int digit limit",
                ),
            ),
        ],
    )
    def test_hostile_lines_rejected(self, line) -> None:
        # Past the decoder's recursion limit or the interpreter's digit
        # limit: still a ProtocolError, which the server answers and counts.
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(line)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
"""Arbitrary JSON documents."""

REQUEST_LIKE = st.dictionaries(
    st.sampled_from(["op", "id", "record", "records", "k", "floor"]) | st.text(max_size=4),
    st.sampled_from(OPERATIONS) | JSON_VALUES,
    max_size=6,
)
"""JSON objects shaped like requests, so parse_request gets past the op check."""


def decode_and_parse(line: bytes) -> None:
    """The server's path for one wire line, tolerating only ProtocolError."""
    try:
        parse_request(decode_message(line))
    except ProtocolError:
        pass


class TestHostileInput:
    """Whatever arrives on the wire fails as a ProtocolError or not at all."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, line) -> None:
        decode_and_parse(line)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | REQUEST_LIKE)
    def test_arbitrary_json(self, value) -> None:
        decode_and_parse(json.dumps(value).encode("utf-8"))


class TestParseRequest:
    def test_query_shape(self) -> None:
        request = parse_request({"id": 9, "op": "query", "record": [3, 1, 2]})
        assert request == {"op": "query", "id": 9, "record": [3, 1, 2]}

    def test_query_batch_shape(self) -> None:
        request = parse_request({"op": "query_batch", "records": [[1], [2, 3]]})
        assert request["records"] == [[1], [2, 3]]
        assert request["id"] is None

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_every_operation_parses(self, operation) -> None:
        message = {"op": operation}
        if operation in ("query", "insert"):
            message["record"] = [1]
        elif operation == "query_topk":
            message["record"] = [1]
            message["k"] = 3
        elif operation == "query_batch":
            message["records"] = [[1]]
        assert parse_request(message)["op"] == operation

    def test_unknown_operation_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="unknown operation"):
            parse_request({"op": "qeury", "record": [1]})

    def test_missing_record_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="requires a 'record'"):
            parse_request({"op": "insert"})

    def test_non_integer_tokens_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="only integers"):
            parse_request({"op": "query", "record": [1, "two"]})
        with pytest.raises(ProtocolError, match="only integers"):
            parse_request({"op": "query", "record": [True]})

    def test_records_must_be_a_list(self) -> None:
        with pytest.raises(ProtocolError, match="'records' list"):
            parse_request({"op": "query_batch", "records": 7})

    def test_request_id_type_checked(self) -> None:
        with pytest.raises(ProtocolError, match="request id"):
            parse_request({"op": "health", "id": 1.5})


class TestMatchEncoding:
    def test_roundtrip_preserves_order_and_values(self) -> None:
        matches = [(12, 0.8), (3, 0.5), (7, 0.5)]
        assert decode_matches(encode_matches(matches)) == matches

    def test_responses_echo_ids(self) -> None:
        assert ok_response(4, {"matches": []}) == {"id": 4, "ok": True, "result": {"matches": []}}
        failed = error_response("abc", "boom")
        assert failed["id"] == "abc" and failed["ok"] is False and failed["error"] == "boom"
