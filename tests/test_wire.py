"""Wire protocol tests: codecs, error handling, and live loopback."""

import hashlib
import io
import math
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import cli, framestore, sounder, wire
from chansounder.chansim import apply_channel
from chansounder.config import CampaignConfig
from chansounder.framestore import CaptureMeta
from chansounder.frames import IqFrame, TriggerEvent
from chansounder.seqgen import descriptor, generate_fzc
from chansounder.wire import (
    End,
    Hello,
    HelloMismatchError,
    IqChunk,
    WireProtocolError,
    decode_message,
    encode_end,
    encode_hello,
    encode_iq_chunk,
    encode_trigger,
    read_message,
)

from check_memory import traced_peak
from conftest import serving


def body_of(framed: bytes) -> bytes:
    """Strip the length prefix from an encoded message."""
    (length,) = struct.unpack("<I", framed[:4])
    assert length == len(framed) - 4
    return framed[4:]


class TestRoundTrips:
    def test_hello(self):
        h = Hello(fs=1e6, f_c=5.8e9, sequence_descriptor="fzc:n=1024:u=7")
        back = decode_message(body_of(encode_hello(h)))
        assert isinstance(back, Hello)
        assert back.fs == 1e6 and back.f_c == 5.8e9
        assert back.sequence_descriptor == "fzc:n=1024:u=7"

    def test_hello_empty_descriptor(self):
        h = Hello(fs=2.0, f_c=0.0, sequence_descriptor="")
        back = decode_message(body_of(encode_hello(h)))
        assert back.sequence_descriptor == ""

    def test_iq_chunk_bitwise(self, rng):
        x = (rng.standard_normal(100) + 1j * rng.standard_normal(100)).astype(np.complex64)
        back = decode_message(body_of(encode_iq_chunk(12345, x.astype(np.complex128))))
        assert isinstance(back, IqChunk)
        assert back.start_index == 12345
        # float32 on the wire: the payload must round-trip bit-exactly
        assert np.array_equal(back.samples, x.astype(np.complex128))
        # a strided view goes out in sample order
        assert encode_iq_chunk(0, x[::3]) == encode_iq_chunk(0, x[::3].copy())

    def test_trigger_with_unicode_note(self):
        ev = TriggerEvent(987654321, "external", 40, "见 marker µ")
        back = decode_message(body_of(encode_trigger(ev)))
        assert back == ev
        assert back.kind == "external" and back.span == 40
        assert back.note == "见 marker µ"

    def test_trigger_overflow_kind(self):
        ev = TriggerEvent(0, "overflow", 1, "")
        back = decode_message(body_of(encode_trigger(ev)))
        assert back.kind == "overflow"

    def test_end(self):
        back = decode_message(body_of(encode_end(2 ** 40)))
        assert isinstance(back, End)
        assert back.total_samples == 2 ** 40


class TestDecodeErrors:
    def err(self, body):
        with pytest.raises(WireProtocolError):
            decode_message(body)

    def test_empty_body(self):
        self.err(b"")

    def test_unknown_type(self):
        self.err(bytes([99]) + b"\x00" * 8)

    def test_hello_truncated(self):
        good = body_of(encode_hello(Hello(1e6, 0.0, "abc")))
        for cut in (1, 5, len(good) - 1):
            self.err(good[:cut])

    def test_hello_bad_version(self):
        body = bytes([wire.MSG_HELLO]) + struct.pack("<HddH", 99, 1e6, 0.0, 0)
        with pytest.raises(WireProtocolError, match="version 99"):
            decode_message(body)

    def test_hello_descriptor_length_mismatch(self):
        body = bytes([wire.MSG_HELLO]) + struct.pack("<HddH", 1, 1e6, 0.0, 5) + b"ab"
        self.err(body)

    def test_hello_bad_fs(self):
        for fs in (0.0, -1.0, float("nan"), float("inf")):
            body = bytes([wire.MSG_HELLO]) + struct.pack("<HddH", 1, fs, 0.0, 0)
            self.err(body)

    def test_hello_non_utf8_descriptor(self):
        body = bytes([wire.MSG_HELLO]) + struct.pack("<HddH", 1, 1e6, 0.0, 2) + b"\xff\xfe"
        self.err(body)

    def test_chunk_count_mismatch(self):
        body = bytes([wire.MSG_IQ_CHUNK]) + struct.pack("<qI", 0, 3) + b"\x00" * 16
        with pytest.raises(WireProtocolError, match="3 samples"):
            decode_message(body)

    def test_chunk_zero_samples(self):
        body = bytes([wire.MSG_IQ_CHUNK]) + struct.pack("<qI", 0, 0)
        with pytest.raises(WireProtocolError, match="zero samples"):
            decode_message(body)

    def test_chunk_negative_start(self):
        body = bytes([wire.MSG_IQ_CHUNK]) + struct.pack("<qI", -1, 1) + b"\x00" * 8
        with pytest.raises(WireProtocolError, match="negative"):
            decode_message(body)

    def test_trigger_bad_kind_code(self):
        body = bytes([wire.MSG_TRIGGER]) + struct.pack("<qBIH", 5, 7, 1, 0)
        with pytest.raises(WireProtocolError, match="kind code 7"):
            decode_message(body)

    def test_trigger_bad_span_or_index(self):
        for index, span in ((-3, 1), (4, 0)):
            body = bytes([wire.MSG_TRIGGER]) + struct.pack("<qBIH", index, 0, span, 0)
            self.err(body)

    def test_trigger_note_length_mismatch(self):
        body = bytes([wire.MSG_TRIGGER]) + struct.pack("<qBIH", 5, 0, 1, 9) + b"hi"
        self.err(body)

    def test_end_wrong_size(self):
        self.err(bytes([wire.MSG_END]) + b"\x00" * 7)
        self.err(bytes([wire.MSG_END]) + b"\x00" * 9)

    def test_end_negative_total(self):
        body = bytes([wire.MSG_END]) + struct.pack("<q", -5)
        with pytest.raises(WireProtocolError, match="negative"):
            decode_message(body)

    def test_non_bytes_rejected(self):
        self.err("not bytes")


def _hello_body(fields, tail=b""):
    return bytes([wire.MSG_HELLO]) + struct.pack("<HddH", *fields) + tail


def _trigger_body(fields, tail=b""):
    return bytes([wire.MSG_TRIGGER]) + struct.pack("<qBIH", *fields) + tail


def _utf8_error(raw: bytes) -> str:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{raw!r} is valid utf-8")


#: Malformed HELLO and TRIGGER bodies, each breaking one framing rule,
#: with the exact message each is rejected with.
MALFORMED = [
    (_hello_body((1, 1e6, 0.0, 0))[:-1], "HELLO body is shorter than its fixed header"),
    (bytes([wire.MSG_HELLO]), "HELLO body is shorter than its fixed header"),
    (_hello_body((2, 1e6, 0.0, 0)), "unsupported protocol version 2 (supported: 1)"),
    (_hello_body((1, 1e6, 0.0, 5), b"ab"), "HELLO descriptor length 5 does not match body (2 bytes)"),
    (_hello_body((1, 1e6, 0.0, 0), b"abc"), "HELLO descriptor length 0 does not match body (3 bytes)"),
    (_hello_body((1, 0.0, 0.0, 0)), "HELLO carries invalid stream parameters fs=0.0 f_c=0.0"),
    (_hello_body((1, float("nan"), 0.0, 0)), "HELLO carries invalid stream parameters fs=nan f_c=0.0"),
    # a rate whose period is infinite, as a .meta sidecar's rule rejects it
    (_hello_body((1, 5e-324, 0.0, 0)), "HELLO carries invalid stream parameters fs=5e-324 f_c=0.0"),
    (_hello_body((1, 1e6, float("inf"), 0)), "HELLO carries invalid stream parameters fs=1000000.0 f_c=inf"),
    (
        _hello_body((1, 1e6, 0.0, 2), b"\xff\xfe"),
        "HELLO descriptor is not valid utf-8: " + _utf8_error(b"\xff\xfe"),
    ),
    (_trigger_body((5, 0, 1, 0))[:-1], "TRIGGER body is shorter than its fixed header"),
    (_trigger_body((5, 0, 1, 9), b"hi"), "TRIGGER note length 9 does not match body (2 bytes)"),
    (_trigger_body((5, 0, 1, 1), b"hi"), "TRIGGER note length 1 does not match body (2 bytes)"),
    (_trigger_body((5, 7, 1, 0)), "unknown trigger kind code 7"),
    (_trigger_body((-3, 0, 1, 0)), "TRIGGER with invalid position -3 or span 1"),
    (_trigger_body((4, 1, 0, 0)), "TRIGGER with invalid position 4 or span 0"),
    (
        _trigger_body((5, 0, 1, 3), b"a\xc3("),
        "TRIGGER note is not valid utf-8: " + _utf8_error(b"a\xc3("),
    ),
]


@pytest.mark.parametrize("body, message", MALFORMED)
def test_malformed_header_or_text_tail_keeps_its_message(body, message):
    with pytest.raises(WireProtocolError) as info:
        decode_message(body)
    assert str(info.value) == message


class TestReadMessage:
    def test_clean_eof_returns_none(self):
        assert read_message(io.BytesIO(b"")) is None

    def test_eof_inside_length_prefix(self):
        with pytest.raises(WireProtocolError, match="length prefix"):
            read_message(io.BytesIO(b"\x01\x02"))

    def test_eof_inside_body(self):
        blob = encode_end(7)[:-3]
        with pytest.raises(WireProtocolError, match="inside a message body"):
            read_message(io.BytesIO(blob))

    def test_oversize_declared_length(self):
        blob = struct.pack("<I", wire.MAX_MESSAGE_BYTES + 1)
        with pytest.raises(WireProtocolError, match="exceeds the limit"):
            read_message(io.BytesIO(blob))

    def test_sequence_of_messages(self):
        stream = io.BytesIO(
            encode_hello(Hello(1e6, 0.0, "x")) + encode_end(0)
        )
        assert isinstance(read_message(stream), Hello)
        assert isinstance(read_message(stream), End)
        assert read_message(stream) is None


class TestFuzz:
    def test_random_bodies_all_rejected(self):
        # seed pinned after checking it produces no accidentally valid
        # message (a random 9-byte body CAN parse as a legitimate END)
        rng = np.random.default_rng(0)
        for _ in range(10000):
            n = int(rng.integers(0, 65))
            body = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            with pytest.raises(WireProtocolError):
                decode_message(body)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=128))
    def test_decode_raises_only_protocol_errors(self, body):
        try:
            decode_message(body)
        except WireProtocolError:
            pass


def sending(blobs):
    """Serve raw bytes once (:func:`conftest.serving`), until the peer
    hangs up."""

    def serve(lsock):
        lsock.settimeout(5.0)
        conn, _ = lsock.accept()
        with conn:
            try:
                for blob in blobs:
                    conn.sendall(blob)
            except (BrokenPipeError, ConnectionResetError):
                return  # the peer gave up on a hostile stream
            try:
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    return serving(serve)


def receive_stream(endpoint, timeout):
    """The capture and :class:`CaptureMeta` of the stream served on ``endpoint``."""
    with wire.connect(endpoint, timeout) as link:
        return wire.consume_stream(*link)


def rejected(blobs, message):
    """Assert that receiving the raw ``blobs`` raises a protocol error
    that ``message`` matches."""
    with sending(blobs) as (endpoint, _):
        with pytest.raises(WireProtocolError, match=message):
            receive_stream(endpoint, 5.0)


class TestConsumeStream:
    def test_contiguity_enforced(self):
        x = np.ones(4, dtype=complex)
        gap = encode_iq_chunk(9, x)  # expected start 4
        rejected([encode_hello(Hello(1e6, 0.0, "")), encode_iq_chunk(0, x), gap], "not contiguous")

    def test_end_count_cross_checked(self):
        x = np.ones(4, dtype=complex)
        rejected([encode_hello(Hello(1e6, 0.0, "")), encode_iq_chunk(0, x), encode_end(99)], "99 samples")

    def test_missing_end_detected(self):
        x = np.ones(4, dtype=complex)
        rejected([encode_hello(Hello(1e6, 0.0, "")), encode_iq_chunk(0, x)], "without an END")

    def test_hello_must_come_first(self):
        rejected([encode_end(0)], "HELLO first")

    def test_duplicate_hello_rejected(self):
        h = encode_hello(Hello(1e6, 0.0, ""))
        rejected([h, h], "duplicate HELLO")


def framed_chunk(start, count, payload):
    """An IQ_CHUNK message with any header fields and payload."""
    body = bytes([wire.MSG_IQ_CHUNK]) + struct.pack("<qI", start, count) + payload
    return struct.pack("<I", len(body)) + body


TWO_SAMPLES = np.arange(2, dtype=np.complex64).tobytes()

#: Malformed IQ_CHUNK messages, sent after a good 4-sample chunk, with the
#: exact message each is rejected with.  A cut stream is named before a
#: bad header, as :func:`wire.read_message` names it.
MALFORMED_CHUNKS = [
    ("negative start", framed_chunk(-1, 2, TWO_SAMPLES), "IQ_CHUNK start index -1 is negative"),
    ("count mismatch", framed_chunk(4, 3, TWO_SAMPLES), "IQ_CHUNK declares 3 samples but carries 16 payload bytes"),
    ("zero samples", framed_chunk(4, 0, b""), "IQ_CHUNK with zero samples"),
    (
        "body shorter than the head",
        struct.pack("<I", 6) + bytes([wire.MSG_IQ_CHUNK]) + bytes(5),
        "IQ_CHUNK body is shorter than its fixed header",
    ),
    ("ends inside the head", framed_chunk(4, 2, TWO_SAMPLES)[:10], "stream ended inside a message body (6 of 29 bytes)"),
    ("ends inside the payload", framed_chunk(4, 2, TWO_SAMPLES)[:-5], "stream ended inside a message body (24 of 29 bytes)"),
    ("cut with a bad count", framed_chunk(4, 3, TWO_SAMPLES)[:-5], "stream ended inside a message body (24 of 29 bytes)"),
    ("cut and not contiguous", framed_chunk(9, 2, TWO_SAMPLES)[:-5], "stream ended inside a message body (24 of 29 bytes)"),
    (
        "declared length over the limit",
        struct.pack("<I", wire.MAX_MESSAGE_BYTES + 1) + bytes([wire.MSG_IQ_CHUNK]),
        f"declared message size {wire.MAX_MESSAGE_BYTES + 1} exceeds the limit",
    ),
]


@pytest.mark.parametrize("blob, message", [c[1:] for c in MALFORMED_CHUNKS], ids=[c[0] for c in MALFORMED_CHUNKS])
def test_malformed_chunk_keeps_its_message_on_receipt(blob, message):
    with pytest.raises(WireProtocolError) as info:
        read_message(io.BytesIO(blob))
    assert str(info.value) == message
    blobs = [encode_hello(Hello(1e6, 0.0, "")), encode_iq_chunk(0, np.ones(4, np.complex64)), blob]
    with sending(blobs) as (endpoint, _):
        with pytest.raises(WireProtocolError) as info:
            receive_stream(endpoint, 5.0)
    assert str(info.value) == message


def campaign_capture(cfg):
    """The campaign's sequence, its capture blocks joined into one
    capture, and its stamped trigger events."""
    stream = sounder.capture_stream(cfg)
    samples = np.concatenate([block.samples for block in stream])
    return stream.seq, IqFrame(samples, stream.fs, stream.f_c), stream.events


def clean_stream(step=40):
    """A clean stream of a 6-period, 32-sample campaign with one trigger:
    its messages as ``(kind, start, encoded)`` in the order
    :func:`wire.serve_capture` sends them, its capture and the frames
    its correlation with the campaign's own sequence gives."""
    cfg = CampaignConfig(length=32, n_sequences=6, cable=None, corrupt_span=4)
    cfg.channel_taps = [(0, 1 + 0j, 0.0), (2, 0.25j, 0.0)]
    cfg.triggers = [(2 * 32 + 5, "overflow", "cut")]
    seq, capture, events = campaign_capture(cfg)
    hello = Hello(capture.fs, capture.f_c, descriptor(seq))
    messages = [("hello", None, encode_hello(hello))]
    for a in range(0, len(capture), step):
        messages += [("trigger", ev.sample_index, encode_trigger(ev)) for ev in events if a <= ev.sample_index < a + step]
        messages.append(("chunk", a, encode_iq_chunk(a, capture.samples[a : a + step])))
    messages.append(("end", None, encode_end(len(capture))))
    frames, _ = sounder.correlate(cfg, capture, seq, events, None)
    return messages, capture, frames


CLEAN_MESSAGES, CLEAN_CAPTURE, CLEAN_FRAMES = clean_stream()


def hostile(kind, data):
    """The clean stream's bytes, changed as ``kind`` names."""
    blobs = [m[2] for m in CLEAN_MESSAGES]
    chunks = [i for i, m in enumerate(CLEAN_MESSAGES) if m[0] == "chunk"]
    if kind == "swap two chunks":
        i, j = data.draw(st.lists(st.sampled_from(chunks), min_size=2, max_size=2, unique=True))
        blobs[i], blobs[j] = blobs[j], blobs[i]
    elif kind == "repeat a chunk":
        i = data.draw(st.sampled_from(chunks))
        blobs.insert(i + 1, blobs[i])
    elif kind == "overlap the chunk before":
        i = data.draw(st.sampled_from(chunks[1:]))
        a = CLEAN_MESSAGES[i][1] - data.draw(st.integers(1, 40))
        blobs[i] = encode_iq_chunk(a, CLEAN_CAPTURE.samples[a : a + 40])
    elif kind == "second HELLO":
        blobs.insert(data.draw(st.integers(1, len(blobs))), blobs[0])
    elif kind == "second END":
        blobs.insert(data.draw(st.integers(1, len(blobs))), blobs[-1])
    elif kind == "trigger after its chunk":
        i = next(i for i, m in enumerate(CLEAN_MESSAGES) if m[0] == "trigger")
        trigger = blobs.pop(i)
        blobs.insert(data.draw(st.integers(i + 1, len(blobs) - 1)), trigger)  # still before END
    elif kind == "trigger after END":
        i = next(i for i, m in enumerate(CLEAN_MESSAGES) if m[0] == "trigger")
        blobs.append(blobs.pop(i))
    else:
        assert kind == "cut the stream"
        stream = b"".join(blobs)
        return [stream[: data.draw(st.integers(0, len(stream) - 1))]]
    return blobs


class TestHostileSequences:
    """A message sequence built from a clean stream by any change that
    breaks the message order raises :class:`WireProtocolError`."""

    def test_clean_stream_gives_its_frames(self):
        with sending([m[2] for m in CLEAN_MESSAGES]) as (endpoint, _):
            frames, _, _ = wire.consume_correlation(endpoint, CampaignConfig(timeout=5.0))
        assert len(frames) == 4 and 2 not in frames.sequence_index
        assert np.array_equal(frames.h, CLEAN_FRAMES.h)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(
            [
                "swap two chunks",
                "repeat a chunk",
                "overlap the chunk before",
                "second HELLO",
                "second END",
                "trigger after its chunk",
                "trigger after END",
                "cut the stream",
            ]
        ),
        data=st.data(),
    )
    def test_raises_protocol_error(self, kind, data):
        with sending(hostile(kind, data)) as (endpoint, _):
            with pytest.raises(WireProtocolError):
                wire.consume_correlation(endpoint, CampaignConfig(timeout=5.0))

    def test_late_messages_are_named(self):
        rejected(hostile("trigger after END", None), "TriggerEvent message after END")
        i = next(i for i, m in enumerate(CLEAN_MESSAGES) if m[0] == "trigger")
        blobs = [m[2] for m in CLEAN_MESSAGES]
        blobs.insert(i + 1, blobs.pop(i))  # right behind the chunk that holds its sample
        rejected(blobs, "TRIGGER at sample 69 arrived after its chunk")


def serving_capture(capture, meta):
    """Serve ``capture`` and its record ``meta`` with :func:`wire.serve_capture`
    (:func:`conftest.serving`)."""
    return serving(lambda lsock: wire.serve_capture(capture, meta, lsock, timeout=10.0))


def serving_config(cfg):
    """Serve ``cfg``'s campaign with :func:`wire.serve_stimulation` (:func:`conftest.serving`)."""
    return serving(lambda lsock: wire.serve_stimulation(cfg, lsock))


class TestServeArguments:
    def test_chunk_ceiling_checked_before_listening(self):
        # A chunk message body is 13 bytes plus 8 per sample, so this is the
        # largest chunk the peer accepts; one more sample and it would
        # reject every chunk.  A block goes out as one chunk, and the first
        # is encoded before the listener, so no peer is needed.
        assert len(body_of(encode_iq_chunk(0, np.zeros(5, np.complex64)))) == 13 + 8 * 5
        ceiling = (wire.MAX_MESSAGE_BYTES - 13) // 8

        def capture(n):
            return IqFrame(np.broadcast_to(np.complex64(0), (n,)), 1e6)

        for bad in (0, ceiling + 1):
            with pytest.raises(ValueError, match=rf"^an IQ_CHUNK carries 1\.\.{ceiling} samples, got {bad}$"):
                wire.serve_capture(capture(bad), CaptureMeta(), "127.0.0.1:0", timeout=0.01)
        # the ceiling itself passes the check and waits for a peer
        with pytest.raises(TimeoutError):
            wire.serve_capture(capture(ceiling), CaptureMeta(), "127.0.0.1:0", timeout=0.01)

    def test_a_non_finite_frame_or_a_note_too_long_fails_before_listening(self, monkeypatch):
        monkeypatch.setattr(socket, "create_server", lambda *args, **kwargs: pytest.fail("listened"))
        frame = IqFrame(np.array([1, 2, complex(0.0, math.nan)]), 1e6, start_index=4)
        with pytest.raises(ValueError, match="^served capture holds a non-finite sample at absolute index 6$"):
            wire.serve_capture(frame, CaptureMeta(), "127.0.0.1:0", timeout=0.01)
        # the last TRIGGER goes out after the only block, and is encoded before listening too
        meta = CaptureMeta(triggers=[TriggerEvent(0), TriggerEvent(99, note="x" * 70_000)])
        with pytest.raises(ValueError, match=r"^TRIGGER note length must fit its 16-bit field \(0\.\.65535\), got 70000$"):
            wire.serve_capture(IqFrame(np.ones(3), 1e6), meta, "127.0.0.1:0", timeout=0.01)

    def test_a_block_above_the_chunk_ceiling_names_chunk_samples(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_CHUNK_SAMPLES", 1000)
        cfg = CampaignConfig(length=256, n_sequences=10, chunk_samples=2000, timeout=0.01)
        with pytest.raises(ValueError, match=r"^chunk_samples must be at most 1000 to go out as one IQ_CHUNK, got 2000$"):
            wire.serve_stimulation(cfg, "127.0.0.1:0")
        # a campaign shorter than the ceiling is one block, which passes and waits for a peer
        cfg.n_sequences = 3
        with pytest.raises(TimeoutError):
            wire.serve_stimulation(cfg, "127.0.0.1:0")


class Blocks:
    """``x`` as a stream of ``size``-sample blocks, the way
    :func:`wire.serve_capture` takes a :class:`sounder.CaptureStream`,
    which sends each as one chunk; before block ``hold`` it waits until
    :attr:`resume` is set."""

    fs = 1e6
    f_c = 2.4e9

    def __init__(self, x, size, hold=None):
        self.x, self.size, self.hold = x, size, hold
        self.resume = threading.Event()

    def __iter__(self):
        for i, a in enumerate(range(0, len(self.x), self.size)):
            if i == self.hold:
                self.resume.wait(10.0)
            yield IqFrame(self.x[a : a + self.size], self.fs, self.f_c, a)

    def spans(self):
        """``(start, end)`` of each block, in the order they are sent."""
        return [(a, min(a + self.size, len(self.x))) for a in range(0, len(self.x), self.size)]


def received_bytes(endpoint):
    """Every byte the server on ``endpoint`` sends until it closes."""
    got = bytearray()
    with socket.create_connection(wire.parse_endpoint(endpoint), timeout=10.0) as peer:
        while data := peer.recv(1 << 16):
            got += data
    return bytes(got)


class TestSentBytes:
    def test_messages_leave_in_order_with_their_own_bytes(self):
        # 160 kB in 1024-sample blocks
        x = (np.arange(20_000) % 97 - 1j * (np.arange(20_000) % 7)).astype(np.complex64)
        blocks = Blocks(x, 1024)
        events = [
            TriggerEvent(i, "overflow", 8, f"t{i}") for i in (0, 2500, 2600, 3000, 19_999, 25_000)
        ]
        expected = [encode_hello(Hello(blocks.fs, blocks.f_c, "fzc:n=64:u=7"))]
        pending = list(events)
        for a, b in blocks.spans():
            while pending and pending[0].sample_index < b:
                expected.append(encode_trigger(pending.pop(0)))
            expected.append(encode_iq_chunk(a, x[a:b]))
        expected += [encode_trigger(ev) for ev in pending] + [encode_end(len(x))]

        with serving_capture(blocks, CaptureMeta("fzc:n=64:u=7", triggers=events[::-1])) as (endpoint, served):
            got = received_bytes(endpoint)
        assert got == b"".join(expected)
        (summary,) = served
        assert summary.complete
        assert (summary.samples_sent, summary.chunks_sent, summary.triggers_sent) == (20_000, 20, 6)

    def test_a_configured_campaign_sends_the_bytes_it_always_sent(self):
        # MLS-31 through dyadic taps and the default cable, with no noise,
        # CFO or Doppler, so every sample is exact and no platform's exp
        # enters; 50-sample blocks cut the periods.  The digest of every
        # byte sent was recorded at commit d480f89.
        cfg = CampaignConfig(family="mls", register_length=5, n_sequences=6, chunk_samples=50, corrupt_span=8)
        cfg.set_key("channel.taps", "0:1 ; 3:0.5j ; 7:-0.25", "test")
        cfg.triggers = [(40, "overflow", "first"), (130, "external", "second")]
        with serving_config(cfg) as (endpoint, served):
            got = received_bytes(endpoint)
        (summary,) = served
        assert (summary.samples_sent, summary.chunks_sent, summary.triggers_sent) == (186, 4, 2)
        assert len(got) == 1661
        assert hashlib.sha256(got).hexdigest() == "6dd104623b5a3e75fd6adae238a855b9843446d8608339fefd9ce7c1a424952b"

    def test_a_peer_that_hangs_up_is_counted_what_was_sent(self):
        x = (np.arange(600_000) % 251).astype(np.complex64)
        blocks = Blocks(x, 1024, hold=12)  # 96 kB before the hold: one send at least
        with serving_capture(blocks, CaptureMeta()) as (endpoint, served):
            with socket.create_connection(wire.parse_endpoint(endpoint), timeout=10.0) as peer:
                with peer.makefile("rb") as stream:
                    assert isinstance(read_message(stream), Hello)
                    read = [read_message(stream) for _ in range(3)]
            blocks.resume.set()
        assert [m.start_index for m in read] == [0, 1024, 2048]
        (summary,) = served
        assert not summary.complete
        assert summary.chunks_sent >= 3
        lengths = [b - a for a, b in blocks.spans()]
        assert summary.samples_sent == sum(lengths[: summary.chunks_sent])
        assert summary.samples_sent <= len(x)


class TestLoopback:
    def test_stream_matches_offline_bitwise(self):
        seq = generate_fzc(64, 7)
        capture = sounder.stimulate_capture(seq, 6, fs=1e6, f_c=2.4e9)
        capture = sounder.quantize_capture(capture)
        ev = TriggerEvent(2 * 64 + 5, "overflow", 12, "mid stream")
        with serving_capture(Blocks(capture.samples, 100), CaptureMeta(descriptor(seq), triggers=[ev])) as (endpoint, served):
            got, meta = receive_stream(endpoint, 10.0)

        assert np.array_equal(got.samples, capture.samples)
        assert got.fs == 1e6 and got.f_c == 2.4e9
        assert meta.sequence_descriptor == descriptor(seq)
        assert meta.triggers == [ev]
        assert meta.triggers[0].note == "mid stream"
        (summary,) = served
        assert summary.complete
        assert summary.samples_sent == len(capture.samples)
        assert summary.chunks_sent == -(-len(capture.samples) // 100)

    def test_correlation_over_wire_equals_offline(self):
        cfg = CampaignConfig()
        cfg.length = 64
        cfg.n_sequences = 6
        cfg.channel_taps = [(0, 1 + 0j, 0.0), (2, 0.25j, 0.0)]
        cfg.cable = None
        cfg.chunk_samples = 1000  # deliberately not a period multiple

        seq = cfg.make_sequence()
        capture = sounder.stimulate_capture(seq, 6, cfg.sample_rate, cfg.center_frequency)
        capture = apply_channel(capture, cfg.channel_model())
        capture = sounder.quantize_capture(capture)
        offline = sounder.frames_from_capture(capture, seq, discard_first=cfg.discard_first)

        with serving_config(cfg) as (endpoint, _):
            frames, _, _ = wire.consume_correlation(endpoint, cfg)

        assert len(frames) == len(offline) == 5
        for a, b in zip(frames, offline):
            assert np.array_equal(a.h, b.h)
            assert a.t_i == b.t_i and a.sequence_index == b.sequence_index

    def test_trigger_gating_matches_offline(self):
        cfg = CampaignConfig()
        cfg.length = 64
        cfg.n_sequences = 8
        cfg.channel_taps = [(0, 1 + 0j, 0.0)]
        cfg.cable = None
        cfg.triggers = [(3 * 64 + 10, "overflow", "buffer")]
        cfg.corrupt_span = 16

        with serving_config(cfg) as (endpoint, _):
            frames, _, meta = wire.consume_correlation(endpoint, cfg)

        kept = [f.sequence_index for f in frames]
        assert 3 not in kept
        assert kept == [1, 2, 4, 5, 6, 7]
        assert len(meta.triggers) == 1
        assert meta.triggers[0].span == 16


class TestHandshakeChecks:
    def make_served_config(self):
        cfg = CampaignConfig()
        cfg.length = 64
        cfg.n_sequences = 3
        cfg.channel_taps = [(0, 1 + 0j, 0.0)]
        cfg.cable = None
        return cfg

    def test_sample_rate_mismatch(self):
        local = self.make_served_config()
        local.sample_rate = 2e6
        with serving_config(self.make_served_config()) as (endpoint, _):
            with pytest.raises(HelloMismatchError, match="expects 2000000"):
                wire.consume_correlation(endpoint, local)

    def test_pinned_sequence_mismatch(self):
        local = self.make_served_config()
        local.root = 5
        local.explicit.add("sequence.root")  # pin the local choice
        with serving_config(self.make_served_config()) as (endpoint, _):
            with pytest.raises(HelloMismatchError, match="pins"):
                wire.consume_correlation(endpoint, local)

    def test_unpinned_local_adopts_peer_descriptor(self):
        local = self.make_served_config()
        local.root = 5  # differs, but nothing is marked explicit
        with serving_config(self.make_served_config()) as (endpoint, _):
            frames, _, meta = wire.consume_correlation(endpoint, local)
        assert meta.sequence_descriptor == "fzc:n=64:u=7"
        assert len(frames) == 2

    def serving_descriptor(self, desc):
        """Serve the served config's campaign under the HELLO descriptor ``desc``."""
        _, capture, events = campaign_capture(self.make_served_config())
        return serving_capture(capture, CaptureMeta(desc, triggers=events))

    def test_pinned_sequence_needs_peer_descriptor(self):
        local = self.make_served_config()
        local.explicit.add("sequence.root")  # same sequence, but pinned
        with self.serving_descriptor("") as (endpoint, _):
            with pytest.raises(HelloMismatchError, match="pins"):
                wire.consume_correlation(endpoint, local)

    def test_unpinned_local_fills_in_missing_descriptor(self):
        with self.serving_descriptor("") as (endpoint, _):
            frames, _, meta = wire.consume_correlation(endpoint, self.make_served_config())
        assert meta.sequence_descriptor == ""
        assert len(frames) == 2

    def test_unusable_peer_descriptor_fails_before_a_chunk(self, monkeypatch):
        received = []
        monkeypatch.setattr(wire, "consume_stream", lambda *a: received.append(a))
        with self.serving_descriptor("fzc:n=8:u=2") as (endpoint, _):
            with pytest.raises(HelloMismatchError, match="^peer sequence descriptor is unusable: root 2 is not coprime"):
                wire.consume_correlation(endpoint, self.make_served_config())
        assert received == []

    def test_timeout_with_no_peer(self):
        lsock = socket.create_server(("127.0.0.1", 0))
        with lsock:
            capture = IqFrame(np.ones(8, dtype=complex), fs=1e6)
            with pytest.raises(TimeoutError, match="no correlation peer"):
                wire.serve_capture(capture, CaptureMeta(), lsock, timeout=0.2)


class TestEndpointParsing:
    def test_good(self):
        assert wire.parse_endpoint("127.0.0.1:5000") == ("127.0.0.1", 5000)
        assert wire.parse_endpoint("::1:5000") == ("::1", 5000)

    def test_bad(self):
        for text in ("nocolon", ":90", "host:", "host:abc", "host:70000"):
            with pytest.raises(ValueError):
                wire.parse_endpoint(text)


class TestOneCorrelationPath:
    """``sounder.correlate`` correlates a capture file's and a wire stream's
    capture alike; only the adoption rules differ, each stated where its
    capture is read and run here through that receiver:
    ``cli.cmd_correlate`` adopts a file's rate unless the configuration
    states another, and ``wire.consume_correlation`` takes a peer's only
    when it equals the local rate."""

    def campaign(self):
        cfg = CampaignConfig()
        cfg.length = 64
        cfg.n_sequences = 6
        cfg.channel_taps = [(0, 1 + 0j, 0.0), (2, 0.25j, 0.0)]
        cfg.cable = None
        cfg.triggers = [(2 * 64 + 5, "overflow", "")]
        cfg.corrupt_span = 4
        seq, capture, events = campaign_capture(cfg)
        return capture, CaptureMeta(descriptor(seq), triggers=events)

    @staticmethod
    def correlate_file(local, capture, meta, tmp_path):
        """Write ``capture`` and its record ``meta`` to a capture file,
        correlate it with ``cli.cmd_correlate`` under the config ``local``
        and return the ``.frames`` file's series and header."""
        local.input, local.out = str(tmp_path / "c.iq"), str(tmp_path / "c")
        framestore.write_capture(local.input, capture, meta)
        assert cli.cmd_correlate(local) == 0
        return framestore.read_frames(local.out + ".frames")

    def test_file_and_wire_records_give_the_same_frames(self, tmp_path):
        capture, meta = self.campaign()
        a, header = self.correlate_file(CampaignConfig(), capture, meta, tmp_path)
        with serving_capture(capture, meta) as (endpoint, _):
            b, total_b, _ = wire.consume_correlation(endpoint, CampaignConfig())
        assert header.total_sequences == total_b == 6
        assert a.sequence_index.tolist() == b.sequence_index.tolist() == [1, 3, 4, 5]
        assert np.array_equal(a.h, b.h) and np.array_equal(a.t_i, b.t_i)

    def test_a_capture_file_sets_an_unstated_local_rate(self, tmp_path):
        capture, meta = self.campaign()
        local = CampaignConfig(sample_rate=2e6)
        _, header = self.correlate_file(local, capture, meta, tmp_path)
        assert local.sample_rate == capture.fs and header.t_s == 1 / capture.fs

    def test_a_capture_file_must_match_an_explicit_rate(self, tmp_path):
        capture, meta = self.campaign()
        local = CampaignConfig()
        local.set_key("sample_rate", "2e6", "--fs")
        with pytest.raises(ValueError, match="capture samples at 1000000.0 Hz"):
            self.correlate_file(local, capture, meta, tmp_path)

    def test_every_transport_holds_the_same_complex64_capture(self, tmp_path):
        capture, meta = self.campaign()
        path = str(tmp_path / "c.iq")
        framestore.write_capture(path, capture, meta)
        from_file, _ = framestore.read_capture(path)
        with serving_capture(Blocks(capture.samples, 100), meta) as (endpoint, _):
            from_wire, _ = receive_stream(endpoint, 10.0)
        for got in (capture, from_file, from_wire):
            assert got.samples.dtype == np.complex64
            assert np.array_equal(got.samples.view(np.uint64), capture.samples.view(np.uint64))

    def test_the_wire_must_match_any_local_rate(self):
        capture, meta = self.campaign()
        local = CampaignConfig(sample_rate=2e6)  # not stated, as above
        with serving_capture(capture, meta) as (endpoint, _):
            with pytest.raises(HelloMismatchError, match="peer samples at 1000000.0 Hz"):
                wire.consume_correlation(endpoint, local)


class TestCaptureRecord:
    """A capture goes out as it came in: ``write_capture`` and
    ``serve_capture`` take the :class:`CaptureMeta` record that
    ``read_capture`` and ``consume_stream`` return beside the samples."""

    @staticmethod
    def write(path):
        """Write a campaign with triggers of both kinds as ``stimulate`` does."""
        cfg = CampaignConfig(length=64, n_sequences=6, cable=None, corrupt_span=4, seed=3)
        cfg.triggers = [(2 * 64 + 5, "overflow", "buf"), (4 * 64, "external", "mark")]
        stream = sounder.capture_stream(cfg)
        framestore.write_capture(path, stream, stream.meta)

    @staticmethod
    def events(meta):
        return [(e.sample_index, e.kind, e.span, e.note) for e in meta.triggers]

    def test_a_read_record_writes_the_same_files(self, tmp_path):
        p, q = str(tmp_path / "p.iq"), str(tmp_path / "q.iq")
        self.write(p)
        framestore.write_capture(q, *framestore.read_capture(p))
        for suffix in ("", ".meta", ".triggers"):
            assert (tmp_path / f"q.iq{suffix}").read_bytes() == (tmp_path / f"p.iq{suffix}").read_bytes()

    def test_a_read_record_serves_the_same_stream(self, tmp_path):
        p = str(tmp_path / "p.iq")
        self.write(p)
        capture, meta = framestore.read_capture(p)
        with serving(lambda lsock: wire.serve_capture(*framestore.read_capture(p), lsock)) as (endpoint, _):
            got, got_meta = receive_stream(endpoint, 10.0)
        assert np.array_equal(got.samples.view(np.uint64), capture.samples.view(np.uint64))
        assert got_meta.sequence_descriptor == meta.sequence_descriptor == "fzc:n=64:u=7"
        assert self.events(got_meta) == self.events(meta) == [(133, "overflow", 4, "buf"), (256, "external", 4, "mark")]
        # the seed note stays in the file's sidecar; the HELLO has no field for it
        assert (meta.seed_note, got_meta.seed_note) == ("seed=3", "")


class TestStreamedCapture:
    def test_one_sample_chunks_equal_offline(self):
        # every block is shorter than the channel's 13-sample reach
        cfg = CampaignConfig(length=32, n_sequences=4, snr_db=15.0, seed=3)
        cfg.channel_taps = [(0, 1, 0.0), (11, 0.5j, 3000.0)]
        cfg.triggers = [(40, "overflow", "cut")]
        cfg.corrupt_span = 30
        cfg.chunk_samples = 1
        offline = sounder.run_sounding(cfg)

        with serving_config(cfg) as (endpoint, served):
            frames, _, meta = wire.consume_correlation(endpoint, cfg)

        assert served[0].chunks_sent == 128 and served[0].complete
        assert [(e.sample_index, e.span) for e in meta.triggers] == [(40, 30)]
        assert len(frames) == len(offline) == 1
        assert np.array_equal(frames.h, offline.h)
        assert np.array_equal(frames.sequence_index, offline.sequence_index)

    def test_unmakeable_stream_fails_before_listening(self):
        # the first block is made before the listener opens, so no peer is needed
        cfg = CampaignConfig(length=32, n_sequences=2, cfo_hz=2e6)
        with pytest.raises(ValueError, match="not representable"):
            wire.serve_stimulation(cfg, "127.0.0.1:0")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"cfo_hz": float("nan")}, "CFO nan Hz is not representable"),
            ({"channel_taps": [(0, 1, 0.0), (3, 0.5, float("nan"))]}, "Doppler shift nan Hz aliases"),
        ],
    )
    def test_nan_cfo_or_doppler_fails_before_listening(self, fields, message):
        cfg = CampaignConfig(length=32, n_sequences=2, timeout=0.5, **fields)
        with pytest.raises(ValueError, match=message):
            wire.serve_stimulation(cfg, "127.0.0.1:0")


def sending_stream(x, desc="", step=4096):
    """Serve ``x`` as one wire stream in ``step``-sample chunks (:func:`sending`)."""
    blobs = (
        [encode_hello(Hello(1e6, 0.0, desc))]
        + [encode_iq_chunk(a, x[a : a + step]) for a in range(0, len(x), step)]
        + [encode_end(len(x))]
    )
    return sending(blobs)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("i, value", [(0, complex(math.inf, 0.0)), (70_001, complex(0.0, math.nan))])
    def test_named_by_absolute_index(self, i, value):
        # checked over the received region after END, in spans of 64 Ki samples
        x = np.ones(100_000, dtype=np.complex64)
        x[i] = value
        with sending_stream(x) as (endpoint, _):
            with pytest.raises(WireProtocolError, match=f"^received stream holds a non-finite sample at absolute index {i}$"):
                receive_stream(endpoint, 10.0)


class TestReceiveMemory:
    @pytest.mark.parametrize("n", [1 << 18, (1 << 18) + 1000])
    def test_stream_is_widened_once(self, n):
        # Each chunk is read straight into the 8-byte complex64 capture,
        # which grows by at most an eighth at a time and is trimmed at END,
        # next to the 256 KiB receive buffer: about 10 bytes per sample at
        # the peak, where widening the capture to complex128 needs about 24.
        x = (np.arange(n) % 251 + 1j * (np.arange(n) % 13)).astype(np.complex64)
        with sending_stream(x) as (endpoint, _):
            (capture, _), peak = traced_peak(lambda: receive_stream(endpoint, 10.0))
        assert capture.samples.dtype == np.complex64
        assert np.array_equal(capture.samples, x)
        assert peak / n < 12

    def test_receive_and_correlate_in_bounded_memory(self):
        # The complex64 capture (8 bytes per sample) plus the complex128
        # frame matrix its kept periods are widened into and correlated in
        # place (16) stay below 26 bytes per sample; a capture widened on
        # receipt needs about 33.
        seq = generate_fzc(1024, 7)
        n = 1 << 18
        x = sounder.quantize_capture(sounder.stimulate_capture(seq, n // 1024, 1e6)).samples
        with sending_stream(x, descriptor(seq)) as (endpoint, _):
            (frames, total, _), peak = traced_peak(lambda: wire.consume_correlation(endpoint, CampaignConfig()))
        assert total == 256 and len(frames) == 255
        assert peak / n < 26
