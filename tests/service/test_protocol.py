"""Wire-protocol framing: decode/encode, validation, error frames."""

from __future__ import annotations

import json

import pytest

from repro.errors import ProtocolError
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    decode_request,
    decode_response,
    encode_frame,
    error_response,
    ok_response,
)


class TestDecodeRequest:
    def test_minimal(self):
        req = decode_request(b'{"verb": "ping"}\n')
        assert req.verb == "ping"
        assert req.params == {}
        assert req.id is None

    def test_full(self):
        req = decode_request(
            '{"verb": "infer", "id": "a7", "params": {"machine": "ivy"}}'
        )
        assert req.verb == "infer"
        assert req.id == "a7"
        assert req.params == {"machine": "ivy"}

    def test_unknown_top_level_keys_ignored(self):
        req = decode_request('{"verb": "ping", "future_field": [1, 2]}')
        assert req.verb == "ping"

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2, 3]\n",
        b"{}\n",
        b'{"verb": 7}\n',
        b'{"verb": ""}\n',
        b'{"verb": "ping", "params": [1]}\n',
        b'{"verb": "ping", "params": {"x": ' + b"[" * 100_000
        + b"]" * 100_000 + b"}}\n",
        b'{"verb": "ping", "id": ' + b"1" * 5_000 + b"}\n",
    ])
    def test_malformed(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_oversized_frame(self):
        line = b'{"verb": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_request(line)


class TestFrames:
    def test_encode_is_one_line(self):
        frame = encode_frame(ok_response(1, {"text": "two\nlines"}))
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1  # embedded newlines are escaped

    def test_roundtrip_ok(self):
        doc = decode_response(encode_frame(ok_response(42, {"x": 1})))
        assert doc["ok"] is True
        assert doc["id"] == 42
        assert doc["result"] == {"x": 1}

    def test_roundtrip_error(self):
        doc = decode_response(
            encode_frame(error_response(7, "timeout", "too slow"))
        )
        assert doc["ok"] is False
        assert doc["error"]["code"] == "timeout"
        assert doc["error"]["code"] in ERROR_CODES

    def test_decode_response_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_response(b"nope\n")
        with pytest.raises(ProtocolError):
            decode_response(json.dumps({"id": 1}))
