"""Protocol framing edge cases — no sockets anywhere in this file."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import protocol
from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    decode_frame,
    encode_frame,
    validate_request,
)


def frame_bytes(**fields) -> bytes:
    return (json.dumps({"v": PROTOCOL_VERSION, **fields}) + "\n").encode()


class TestCodec:
    @pytest.mark.parametrize(
        "message",
        [
            protocol.make_submit([{"name": "E1"}]),
            protocol.make_submit(
                [{"name": "DSE"}],
                sweep={"seed": [1, 2]},
                shard=(1, 4),
            ),
            protocol.make_status("job-1"),
            protocol.make_stream("job-1"),
            protocol.make_cancel("job-1"),
            protocol.make_shutdown(),
            protocol.make_ping(),
            protocol.make_ack("job-1", 3),
            protocol.make_result("job-1", 0, {"name": "E1", "rows": []}),
            protocol.make_done(
                "job-1", total=3, executed=2, cached=1, failed=0
            ),
            protocol.make_status_reply({"job-1": {"state": "done"}}),
            protocol.make_error("bad-spec", "nope", job="job-1",
                                detail={"index": 0}),
            protocol.make_pong(),
            protocol.make_bye(),
        ],
    )
    def test_every_message_round_trips(self, message):
        assert decode_frame(encode_frame(message).rstrip(b"\n")) == message

    def test_frames_are_single_lines(self):
        frame = encode_frame(protocol.make_submit([{"name": "E1"}]))
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1

    def test_version_mismatch_rejected(self):
        line = json.dumps({"v": 99, "type": "ping"}).encode()
        with pytest.raises(ProtocolError) as info:
            decode_frame(line)
        assert info.value.code == "version-mismatch"

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError) as info:
            decode_frame(b"[1,2,3]")
        assert info.value.code == "bad-frame"

    def test_missing_type_rejected(self):
        with pytest.raises(ProtocolError) as info:
            decode_frame(json.dumps({"v": PROTOCOL_VERSION}).encode())
        assert info.value.code == "bad-frame"

    def test_oversized_outgoing_frame_rejected(self):
        huge = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError) as info:
            encode_frame(protocol.make_result("j", 0, huge))
        assert info.value.code == "frame-too-large" and info.value.fatal


class TestFrameDecoder:
    def test_partial_frame_held_until_newline(self):
        decoder = FrameDecoder()
        whole = frame_bytes(type="ping")
        decoder.feed(whole[:5])
        assert decoder.next_frame() is None
        decoder.feed(whole[5:-1])
        assert decoder.next_frame() is None  # still no terminator
        decoder.feed(b"\n")
        assert decoder.next_frame()["type"] == "ping"
        assert decoder.next_frame() is None

    def test_many_frames_in_one_chunk(self):
        decoder = FrameDecoder()
        decoder.feed(
            frame_bytes(type="ping") + frame_bytes(type="status")
            + frame_bytes(type="shutdown")
        )
        types = [decoder.next_frame()["type"] for _ in range(3)]
        assert types == ["ping", "status", "shutdown"]
        assert decoder.next_frame() is None

    def test_byte_at_a_time_stream(self):
        decoder = FrameDecoder()
        seen = []
        for byte in frame_bytes(type="ping") + frame_bytes(type="status"):
            decoder.feed(bytes([byte]))
            message = decoder.next_frame()
            if message:
                seen.append(message["type"])
        assert seen == ["ping", "status"]

    def test_blank_lines_are_tolerated(self):
        # a long run of keep-alives must not grow the call stack
        for blanks in (b"\n  \n", b"\n" * 5000):
            decoder = FrameDecoder()
            decoder.feed(blanks + frame_bytes(type="ping"))
            assert decoder.next_frame()["type"] == "ping"
            assert decoder.next_frame() is None

    def test_oversized_unterminated_payload_is_fatal(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ProtocolError) as info:
            decoder.feed(b"x" * 65)
        assert info.value.code == "frame-too-large" and info.value.fatal

    def test_oversized_terminated_line_is_fatal(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        decoder.feed(b"x" * 30)
        decoder.feed(b"y" * 40 + b"\n")
        with pytest.raises(ProtocolError) as info:
            decoder.next_frame()
        assert info.value.code == "frame-too-large" and info.value.fatal

    def test_bad_json_consumes_one_line_and_recovers(self):
        decoder = FrameDecoder()
        decoder.feed(b"{not json}\n" + frame_bytes(type="ping"))
        with pytest.raises(ProtocolError) as info:
            decoder.next_frame()
        assert info.value.code == "bad-json" and not info.value.fatal
        assert decoder.next_frame()["type"] == "ping"

    def test_deeply_nested_json_is_bad_json_not_recursion(self):
        # under MAX_FRAME_BYTES, but past the JSON parser's nesting limit
        decoder = FrameDecoder()
        decoder.feed(b"[" * 200_000 + b"\n" + frame_bytes(type="ping"))
        with pytest.raises(ProtocolError) as info:
            decoder.next_frame()
        assert info.value.code == "bad-json" and not info.value.fatal
        assert decoder.next_frame()["type"] == "ping"


# --- fuzz: FrameDecoder == a split-on-newline reference decoder --------------

_VALID_LINES = [
    encode_frame(message).rstrip(b"\n")
    for message in (
        protocol.make_ping(),
        protocol.make_status(),
        protocol.make_status("job-1"),
        protocol.make_stream("job-1"),
        protocol.make_cancel("job-2"),
        protocol.make_submit([{"name": "E1"}]),
        protocol.make_ack("job-1", 3),
        protocol.make_pong(),
        protocol.make_heartbeat("w1"),
    )
]


@st.composite
def _framed_streams(draw):
    """Whole newline-terminated lines: valid frames, blank runs, garbage
    and lines longer than the decoder's (small) frame limit."""
    max_bytes = draw(st.sampled_from([256, 1 << 18]))
    line = st.one_of(
        st.sampled_from(_VALID_LINES).map(lambda l: [l]),
        st.lists(st.sampled_from([b"", b" ", b"\t", b"\r", b" \t \r"]),
                 max_size=8),
        st.integers(0, 3000).map(lambda n: [b""] * n),
        st.binary(max_size=40).map(lambda b: [b.replace(b"\n", b"")]),
        st.sampled_from([b"[1,2]", b"3", b'"x"', b"null", b"true", b"{}",
                         b'{"v":1}', b'{"v":1,"type":7}']).map(lambda l: [l]),
        st.one_of(st.none(), st.integers(-5, 99).filter(lambda v: v != 1),
                  st.text(max_size=3)).map(
            lambda v: [json.dumps({"v": v, "type": "ping"}).encode()]
        ),
        st.one_of(st.integers(1, 40), st.just(200_000)).map(
            lambda depth: [b"[" * depth]
        ),
        st.tuples(st.sampled_from([b"x", b" ", b"{"]),
                  st.integers(max_bytes - 2, max_bytes + 40)).map(
            lambda t: [t[0] * t[1]]
        ),
    )
    lines = [l for group in draw(st.lists(line, max_size=12)) for l in group]
    stream = b"".join(l + b"\n" for l in lines)
    cuts = draw(st.lists(st.integers(0, len(stream)), max_size=16))
    return max_bytes, lines, stream, sorted(set(cuts))


def _reference_decode(stream, max_bytes):
    decoded = []
    for line in stream.split(b"\n")[:-1]:
        if len(line) > max_bytes:
            return decoded + [("error", "frame-too-large", True)]
        if line.strip():
            try:
                decoded.append(("frame", decode_frame(line)))
            except ProtocolError as exc:
                decoded.append(("error", exc.code, exc.fatal))
    return decoded


def _chunked_decode(stream, cuts, max_bytes):
    """Feed *stream* in chunks, draining after every feed, up to the
    first fatal error."""
    decoder = FrameDecoder(max_bytes)
    decoded = []
    bounds = [0, *cuts, len(stream)]
    for start, end in zip(bounds, bounds[1:]):
        try:
            decoder.feed(stream[start:end])
        except ProtocolError as exc:
            return decoded + [("error", exc.code, exc.fatal)]
        while True:
            try:
                frame = decoder.next_frame()
            except ProtocolError as exc:
                decoded.append(("error", exc.code, exc.fatal))
                if exc.fatal:
                    return decoded
                continue
            if frame is None:
                break
            decoded.append(("frame", frame))
    return decoded


@given(case=_framed_streams())
@settings(max_examples=300, deadline=None)
def test_property_decoder_matches_reference_on_any_chunking(case):
    max_bytes, lines, stream, cuts = case
    decoded = _chunked_decode(stream, cuts, max_bytes)
    assert decoded == _reference_decode(stream, max_bytes)
    errors = [entry[1:] for entry in decoded if entry[0] == "error"]
    assert {code for code, _fatal in errors} <= {
        "bad-json", "bad-frame", "version-mismatch", "frame-too-large"
    }
    assert all(fatal == (code == "frame-too-large") for code, fatal in errors)
    assert any(code == "frame-too-large" for code, _fatal in errors) == any(
        len(line) > max_bytes for line in lines
    )


# --- the split decode: a spliced-in result keeps its text -------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_SEPARATORS = st.sampled_from([(",", ":"), (", ", ": "), (",", ": "),
                               (" ,", ":")])
_MESSAGES = st.fixed_dictionaries(
    {"v": st.sampled_from([1, 1, 1, 2, "1"]),
     "type": st.sampled_from(["lease-result", "result", "ping"])},
    optional={"lease": st.text(max_size=8), "token": st.text(max_size=8),
              "job": st.text(max_size=8), "result": _JSON},
)


@st.composite
def _result_lines(draw):
    """``(line, text)``: ``text`` is the result text ``line`` was
    spliced with, None for the lines no split may keep text from."""
    message = draw(_MESSAGES)
    text = json.dumps(draw(_JSON), separators=draw(_SEPARATORS))
    spliced = encode_frame(message, text).rstrip(b"\n")
    kind = draw(st.sampled_from(
        ["spliced", "duplicate-first", "mutated", "not-last",
         "empty-head", "loose", "junk", "arbitrary"]))
    if kind == "spliced":
        # a "result" already in the message is a duplicate key, and the
        # first: the cut then finds it, and the split is left unkept
        return spliced, None if "result" in message else text
    if kind == "duplicate-first":  # the cut finds the spliced one
        first = json.dumps(draw(_JSON)).encode()
        return b'{"result":' + first + b"," + spliced[1:], (
            None if "result" in message else text)
    if kind == "mutated":
        at = draw(st.integers(0, len(spliced)))
        cut = draw(st.integers(0, 2))
        byte = draw(st.binary(max_size=1).filter(lambda b: b != b"\n"))
        return spliced[:at] + byte + spliced[at + cut:], None
    if kind == "not-last":
        fields = dict(message, result=json.loads(text))
        fields["after"] = draw(_JSON)
        return json.dumps(fields, separators=(",", ":")).encode(), None
    if kind == "empty-head":
        return b'{,"result":' + text.encode() + b"}", None
    if kind == "loose":
        separators = draw(_SEPARATORS)
        fields = dict(message, result=json.loads(text))
        return json.dumps(fields, separators=separators).encode(), None
    if kind == "junk":
        junk = draw(st.sampled_from([b"}", b" ", b"\r", b"x", b"]", b",{}",
                                     b'"', b"\x00", b"\xff"]))
        return spliced + junk, None
    cut = draw(st.integers(0, 16))
    noise = draw(st.binary(max_size=24).map(lambda b: b.replace(b"\n", b"")))
    return noise[:cut] + b',"result":' + noise[cut:], None


def _outcome(decode, line):
    """``decode(line)`` as comparable text: its JSON, or its error code."""
    try:
        return "frame", json.dumps(decode(line))
    except ProtocolError as exc:
        return "error", exc.code


@given(case=_result_lines())
@settings(max_examples=500, deadline=None)
def test_property_split_decode_agrees_with_decode_frame(case):
    line, text = case
    decoder = FrameDecoder()
    decoder.feed(line + b"\n")
    if not line.strip():
        assert decoder.next_frame() is None
        return
    outcome = _outcome(lambda _l: decoder.next_frame(), line)
    assert outcome == _outcome(decode_frame, line)
    if text is not None and outcome[0] == "frame":
        assert decoder.result_json == text
    if decoder.result_json is not None:
        assert json.loads(decoder.result_json) == json.loads(
            json.dumps(decode_frame(line)["result"]))


class TestSplitDecode:
    def test_a_worker_frame_keeps_its_result_text(self):
        text = '{"name":"E1","rows":[{"x":1.5}],"error":null}'
        frame = encode_frame(
            protocol.attach_token(protocol.make_lease_result("lease-1"),
                                  "s3cret"), text)
        decoder = FrameDecoder()
        decoder.feed(frame + protocol.encode_frame(protocol.make_ping()))
        assert decoder.next_frame() == decode_frame(frame)
        assert decoder.result_json == text
        assert decoder.next_frame()["type"] == "ping"
        assert decoder.result_json is None

    @pytest.mark.parametrize("line", [
        b'{,"result":{}}',                              # nothing before it
        b'{"v":1,"type":"x","result":{},"after":1}',    # not last
        b'{"v":1,"type":"x","result":{}}\r',            # ends past the }
        b'{"v":1,"type":"x", "result":{}}',             # another separator
        b'{"v":1,"type":"x","result":{}}}',             # trailing junk
    ])
    def test_lines_it_keeps_no_text_from(self, line):
        decoder = FrameDecoder()
        decoder.feed(line + b"\n")
        assert _outcome(lambda _l: decoder.next_frame(), line) == _outcome(
            decode_frame, line)
        assert decoder.result_json is None


class TestRequestValidation:
    def test_known_requests_pass(self):
        assert validate_request(protocol.make_ping()) == "ping"
        assert validate_request(
            protocol.make_submit([{"name": "E1"}])
        ) == "submit"

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError) as info:
            validate_request({"v": PROTOCOL_VERSION, "type": "frobnicate"})
        assert info.value.code == "unknown-type"

    def test_responses_are_not_requests(self):
        with pytest.raises(ProtocolError) as info:
            validate_request(protocol.make_pong())
        assert info.value.code == "unknown-type"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"specs": []},
            {"specs": "E1"},
            {"specs": ["E1"]},
            {"sweep": {"seed": []}},
            {"sweep": [1, 2]},
            {"shard": [0, True]},
            {"shard": [0, 4, 1]},
            {"shard": [1]},
            {"shard": "0/4"},
        ],
    )
    def test_malformed_submit_fields_rejected(self, mutation):
        message = protocol.make_submit([{"name": "E1"}])
        message.update(mutation)
        with pytest.raises(ProtocolError) as info:
            validate_request(message)
        assert info.value.code == "bad-message"

    def test_stream_and_cancel_need_a_job_id(self):
        for type_ in ("stream", "cancel"):
            with pytest.raises(ProtocolError):
                validate_request({"v": PROTOCOL_VERSION, "type": type_})


class TestWorkerFrames:
    @pytest.mark.parametrize(
        "message",
        [
            protocol.make_register("wk-1", capacity=2),
            protocol.make_registered("w1", heartbeat_s=1.5,
                                     lease_timeout_s=6.0),
            protocol.make_lease("lease-9", {"name": "E1", "params": {}}),
            protocol.make_lease_result("lease-9", {"name": "E1",
                                                   "spec_hash": "ab"}),
            protocol.make_heartbeat("w1"),
        ],
    )
    def test_worker_messages_round_trip(self, message):
        assert decode_frame(encode_frame(message).rstrip(b"\n")) == message

    def test_worker_requests_validate(self):
        assert validate_request(
            protocol.make_register("wk-1", capacity=1)
        ) == "register"
        assert validate_request(protocol.make_heartbeat("w1")) == "heartbeat"
        assert validate_request(
            protocol.make_lease_result("lease-1", {"name": "E1"})
        ) == "lease-result"

    @pytest.mark.parametrize(
        "message",
        [
            {"type": "register", "capacity": 1},            # no name
            {"type": "register", "name": "w", "capacity": 0},
            {"type": "register", "name": "w", "capacity": True},
            {"type": "lease-result", "result": {}},          # no lease id
            {"type": "lease-result", "lease": "l1"},         # no result
            {"type": "lease-result", "lease": "l1", "result": [1]},
        ],
    )
    def test_malformed_worker_frames_rejected(self, message):
        with pytest.raises(ProtocolError) as info:
            validate_request({"v": PROTOCOL_VERSION, **message})
        assert info.value.code == "bad-message"

    def test_coordinator_pushed_frames_are_not_requests(self):
        for message in (
            protocol.make_registered("w1", 1.0, 4.0),
            protocol.make_lease("l1", {"name": "E1"}),
        ):
            with pytest.raises(ProtocolError) as info:
                validate_request(message)
            assert info.value.code == "unknown-type"


class TestAuthToken:
    def test_open_listener_accepts_everything(self):
        protocol.check_token(protocol.make_ping(), None)
        protocol.check_token({"type": "submit"}, None)

    def test_matching_token_passes(self):
        message = protocol.attach_token(protocol.make_ping(), "s3cret")
        assert message["token"] == "s3cret"
        protocol.check_token(message, "s3cret")

    @pytest.mark.parametrize(
        "message",
        [
            protocol.make_ping(),                            # missing
            {**protocol.make_ping(), "token": "wrong"},
            {**protocol.make_ping(), "token": 42},           # non-string
            {**protocol.make_ping(), "token": ""},
        ],
    )
    def test_unauthenticated_frames_rejected(self, message):
        with pytest.raises(ProtocolError) as info:
            protocol.check_token(message, "s3cret")
        assert info.value.code == "unauthorized"
        assert not info.value.fatal  # the connection may try again

    def test_attach_token_is_a_noop_without_a_secret(self):
        message = protocol.attach_token(protocol.make_ping(), None)
        assert "token" not in message


class TestFederationFrames:
    """Federation rides the worker frames: a pool bridge's ``register``
    names its pool, and the old pool admin frames are unknown types."""

    @pytest.mark.parametrize(
        "message",
        [protocol.make_register("pool-1", 4, pool="10.0.0.5:7450")],
    )
    def test_federation_messages_round_trip(self, message):
        assert decode_frame(encode_frame(message).rstrip(b"\n")) == message

    def test_federation_requests_validate(self):
        assert validate_request(
            protocol.make_register("pool-1", 4, pool="10.0.0.5:7450")
        ) == "register"
        # a local worker's register is the frame it always was
        assert protocol.make_register("wk-1", 1) == {
            "v": PROTOCOL_VERSION, "type": "register", "name": "wk-1",
            "capacity": 1,
        }

    @pytest.mark.parametrize(
        "message",
        [
            {"type": "register", "name": "b", "pool": pool}
            for pool in ("10.0.0.5", ":7450", "h:", "h:port", "h:0",
                         "h:70000", 7450, ["h", 7450])
        ],
    )
    def test_malformed_federation_frames_rejected(self, message):
        with pytest.raises(ProtocolError) as info:
            validate_request({"v": PROTOCOL_VERSION, **message})
        assert info.value.code == "bad-message"

    def test_pool_health_reply_is_not_a_request(self):
        for type_ in ("pool-health-reply", "pool-register", "pool-health",
                      "pool-rehome", "watch", "watch-ack", "event"):
            with pytest.raises(ProtocolError) as info:
                validate_request({"v": PROTOCOL_VERSION, "type": type_})
            assert info.value.code == "unknown-type"


class TestTraceFields:
    def test_submit_carries_an_optional_trace(self):
        message = protocol.make_submit(
            [{"name": "E1"}], trace={"id": "t" * 16, "span": "s1"}
        )
        assert message["trace"] == {"id": "t" * 16, "span": "s1"}
        assert validate_request(message) == "submit"
        assert "trace" not in protocol.make_submit([{"name": "E1"}])

    def test_lease_carries_an_optional_trace(self):
        message = protocol.make_lease(
            "lease-1", {"name": "E1"}, job="job-1",
            trace={"id": "t" * 16, "span": "s2"},
        )
        assert decode_frame(
            encode_frame(message).rstrip(b"\n")
        ) == message
        assert "trace" not in protocol.make_lease("l", {"name": "E1"})

    @pytest.mark.parametrize(
        "trace",
        [
            "t1",                      # not an object
            {},                        # no id
            {"id": 7},                 # non-string id
            {"id": "t1", "span": 5},   # non-string span
        ],
    )
    def test_malformed_submit_trace_rejected(self, trace):
        message = protocol.make_submit([{"name": "E1"}])
        message["trace"] = trace
        with pytest.raises(ProtocolError) as info:
            validate_request(message)
        assert info.value.code == "bad-message"
