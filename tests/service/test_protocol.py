"""Wire-protocol framing: decode/encode, validation, error frames."""

from __future__ import annotations

import json

import pytest

from repro.errors import ProtocolError
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    FrameSplitter,
    FrameTooLong,
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

    @pytest.mark.parametrize("line", [
        b'{"verb": "ping", "id": NaN}',
        b'{"verb": "ping", "params": {"x": Infinity}}',
        b'{"verb": "ping", "params": {"x": [-Infinity]}}',
        b'{"verb": "infer", "params": {"table": {"stdev_floor": 1e999}}}',
        b'{"verb": "ping", "params": {"x": -1E400}}',
    ])
    def test_non_finite_numbers_are_refused(self, line):
        """Strict JSON: the tokens ``json.loads`` takes beyond the
        standard, and literals it reads as infinity, are refused."""
        with pytest.raises(ProtocolError, match="cannot be decoded"):
            decode_request(line)

    def test_finite_floats_still_decode(self):
        req = decode_request(b'{"verb": "ping", "id": 1.5, '
                             b'"params": {"x": [1e308, -0.0, 2.5E-3]}}')
        assert req.id == 1.5
        assert req.params == {"x": [1e308, -0.0, 0.0025]}

    def test_a_byte_order_mark_is_refused_as_json_loads_refuses_it(self):
        line = b'\xef\xbb\xbf{"verb": "ping"}'
        with pytest.raises(json.JSONDecodeError) as loads_error:
            json.loads(line.decode("utf-8"))
        with pytest.raises(ProtocolError) as refusal:
            decode_request(line)
        assert str(refusal.value) == \
            f"request is not valid JSON: {loads_error.value}"


class TestFrameSplitter:
    STREAM = b'{"verb": "ping"}\n\n  \n{"verb": "show", "id": 2}\ntail'

    def split(self, *chunks: bytes, eof: bool = True) -> list:
        frames = FrameSplitter()
        out = []
        for chunk in chunks:
            frames.feed(chunk)
            while (frame := frames.next_frame()) is not None:
                out.append(frame)
        if eof:
            frames.feed_eof()
            while (frame := frames.next_frame()) != b"":
                out.append(frame)
        return out

    def test_frames_keep_their_newline_and_the_tail_comes_at_eof(self):
        assert self.split(self.STREAM) == [
            b'{"verb": "ping"}\n', b"\n", b"  \n",
            b'{"verb": "show", "id": 2}\n', b"tail",
        ]
        assert self.split(self.STREAM, eof=False)[-1] == \
            b'{"verb": "show", "id": 2}\n'

    def test_every_cut_splits_the_same_frames(self):
        whole = self.split(self.STREAM)
        for cut in range(1, len(self.STREAM)):
            assert self.split(self.STREAM[:cut], self.STREAM[cut:]) \
                == whole, cut
        assert self.split(*(self.STREAM[i:i + 1]
                            for i in range(len(self.STREAM)))) == whole

    def test_the_end_is_empty_after_a_terminated_last_frame(self):
        frames = FrameSplitter()
        frames.feed(b"a\n")
        assert frames.next_frame() == b"a\n"
        assert frames.next_frame() is None
        frames.feed_eof()
        assert frames.next_frame() == b""
        assert frames.next_frame() == b""

    def test_pending_counts_the_bytes_not_split_off(self):
        frames = FrameSplitter()
        frames.feed(b"ab\ncd")
        assert frames.pending == 5
        assert frames.next_frame() == b"ab\n"
        assert frames.pending == 2
        assert frames.next_frame() is None
        frames.feed(b"e\n")
        assert frames.pending == 4
        assert frames.next_frame() == b"cde\n"
        assert frames.pending == 0

    def test_nothing_served_is_kept(self):
        """An idle connection must not hold its last, maybe 16 MiB,
        frame."""
        frames = FrameSplitter()
        frames.feed(b"x" * 1000 + b"\n")
        frames.feed(b"y\n")
        assert frames.next_frame() == b"x" * 1000 + b"\n"
        assert frames.next_frame() == b"y\n"
        assert frames._buffer == b""

    @pytest.mark.parametrize("newline", [True, False],
                             ids=["with-newline", "without-newline"])
    def test_a_frame_at_the_limit_passes_and_one_byte_more_does_not(
            self, newline):
        for size, too_long in ((MAX_LINE_BYTES, False),
                               (MAX_LINE_BYTES + 1, True)):
            frames = FrameSplitter()
            frames.feed(b"ok\n")
            frames.feed(b"x" * size + (b"\n" if newline else b""))
            assert frames.next_frame() == b"ok\n"
            if not too_long:
                if newline:
                    assert len(frames.next_frame()) == size + 1
                else:
                    assert frames.next_frame() is None
                continue
            with pytest.raises(FrameTooLong,
                               match=f"exceeds {MAX_LINE_BYTES} bytes"):
                frames.next_frame()
            # Framing is lost: the buffer is dropped.
            assert frames.pending == 0
            assert frames.next_frame() is None

    def test_an_over_long_tail_at_eof_is_too_long(self):
        frames = FrameSplitter()
        frames.feed(b"x" * (MAX_LINE_BYTES + 1))
        frames.feed_eof()
        with pytest.raises(FrameTooLong):
            frames.next_frame()
        assert frames.next_frame() == b""


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
