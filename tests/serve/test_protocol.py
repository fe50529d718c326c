"""Protocol parsing and the hand-rolled HTTP layer."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.protocol import (
    Budget,
    ProtocolError,
    error_response,
    http_response,
    json_response,
    parse_infer_request,
    read_http_request,
)


def _minimal(**over):
    payload = {"model_source": "x ~ Normal(0, 1)", "data": {}}
    payload.update(over)
    return payload


class TestParseInferRequest:
    def test_defaults(self):
        req = parse_infer_request(_minimal())
        assert req.samples == 500
        assert req.chains == 1
        assert req.executor == "sequential"
        assert req.budget == Budget()
        assert req.resume is True
        assert req.return_draws is False

    def test_full_request(self):
        req = parse_infer_request(
            _minimal(
                request_id="job-1",
                query={
                    "samples": 10,
                    "burn_in": 2,
                    "thin": 2,
                    "chains": 3,
                    "seed": 9,
                    "collect": ["mu"],
                    "executor": "processes",
                    "chunk_size": 4,
                },
                budget={
                    "deadline_s": 1.5,
                    "max_draws": 5,
                    "target_rhat": 1.01,
                },
                return_draws=True,
            )
        )
        assert req.request_id == "job-1"
        assert req.samples == 10
        assert req.collect == ("mu",)
        assert req.executor == "processes"
        assert req.budget == Budget(1.5, 5, 1.01)
        assert req.return_draws is True

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"model_source": "", "data": {}},
            {"model_source": 3, "data": {}},
            _minimal(data=[1, 2]),
            _minimal(request_id=""),
            _minimal(query={"samples": 0}),
            _minimal(query={"samples": "many"}),
            _minimal(query={"thin": 0}),
            _minimal(query={"executor": "gpu"}),
            _minimal(query={"collect": "mu"}),
            _minimal(budget={"deadline_s": -1}),
            _minimal(budget={"max_draws": 0}),
            _minimal(budget={"target_rhat": 0.9}),
            _minimal(resume="yes"),
            _minimal(query={"executor": "threads"}),
        ],
    )
    def test_rejects_bad_requests(self, payload):
        with pytest.raises(ProtocolError):
            parse_infer_request(payload)

    def test_booleans_are_not_integers(self):
        with pytest.raises(ProtocolError):
            parse_infer_request(_minimal(query={"samples": True}))


class TestHttp:
    def _parse(self, raw: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_http_request(reader)

        return asyncio.run(go())

    def test_request_roundtrip(self):
        body = json.dumps({"a": 1}).encode()
        raw = (
            b"POST /v1/infer HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        req = self._parse(raw)
        assert req.method == "POST"
        assert req.path == "/v1/infer"
        assert req.headers["content-type"] == "application/json"
        assert json.loads(req.body) == {"a": 1}

    def test_empty_connection_returns_none(self):
        assert self._parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError):
            self._parse(b"nonsense\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(ProtocolError):
            self._parse(b"POST / HTTP/1.1\r\nContent-Length: soup\r\n\r\n")

    def test_response_builders(self):
        raw = json_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}
        assert b"404" in error_response(404, "nope")
        html = http_response(200, b"<html/>", content_type="text/html")
        assert b"Content-Type: text/html" in html

    def test_numpy_serialization(self):
        import numpy as np

        raw = json_response(
            200, {"arr": np.arange(3), "scalar": np.float64(1.5)}
        )
        body = raw.partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"arr": [0, 1, 2], "scalar": 1.5}
