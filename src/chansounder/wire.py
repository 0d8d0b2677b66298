"""TCP wire protocol linking a stimulation process to a correlation process.

Every message is a 4-byte little-endian unsigned length followed by the
message body; the first body byte is the message type:

* HELLO (1): ``<u16 protocol_version> <f64 fs> <f64 f_c>
  <u16 desc_len> <descriptor utf-8>``.  Sent once by the stimulation
  side before any samples; the correlation side aborts on any mismatch
  with its own configuration before it reads a chunk.
* IQ_CHUNK (2): ``<i64 start_index> <u32 n_samples>`` then the samples
  as interleaved little-endian float32 IQ pairs, exactly the capture
  file payload encoding.  Chunks arrive with strictly increasing,
  gap-free start indices.
* TRIGGER (3): ``<i64 sample_index> <u8 kind> <u32 span>
  <u16 note_len> <note utf-8>``; kind 0 is overflow, 1 external.  A
  trigger comes before the chunk that holds its sample: one whose sample
  has already been received is rejected.
* END (4): ``<i64 total_samples>`` closing the stream; the receiver
  cross-checks its sample count.  END is final: the sender closes the
  connection after it, and any message that follows is rejected.

Messages leave in sends of 64 KiB or a little more, byte for byte as
encoded; the receiver reads each IQ_CHUNK's samples into its capture.

Anything that does not parse exactly raises :class:`WireProtocolError`
(a handshake disagreement raises the :class:`HelloMismatchError`
subtype), never a bare struct or index error.
"""

from __future__ import annotations

import itertools
import socket
import struct
from dataclasses import dataclass

import numpy as np

from . import sounder
from .frames import CAPTURE_DTYPE, FrameSeries, IqFrame, TriggerEvent, check_finite
from .seqgen import descriptor as seq_descriptor

PROTOCOL_VERSION = 1
MSG_HELLO = 1
MSG_IQ_CHUNK = 2
MSG_TRIGGER = 3
MSG_END = 4

#: Upper bound on a single message body; anything larger is rejected
#: before allocation.
MAX_MESSAGE_BYTES = 1 << 26

_TRIGGER_KIND_CODES = {"overflow": 0, "external": 1}
_TRIGGER_KIND_NAMES = {v: k for k, v in _TRIGGER_KIND_CODES.items()}

_HELLO_HEAD = struct.Struct("<HddH")
_CHUNK_HEAD = struct.Struct("<qI")
_TRIGGER_HEAD = struct.Struct("<qBIH")
_END_BODY = struct.Struct("<q")
_LENGTH = struct.Struct("<I")
#: An IQ_CHUNK's length prefix, type byte and fixed header.
_IQ_HEAD = struct.Struct("<IBqI")
_IQ_BODY_HEAD = _IQ_HEAD.size - _LENGTH.size

#: The sender passes its messages to the socket in sends of this many
#: bytes or more; the receiver reads the socket through a buffer of
#: ``_RECV_BUFFER`` bytes.
_SEND_BYTES = 1 << 16
_RECV_BUFFER = 1 << 18


class WireProtocolError(ValueError):
    """A wire message violated the protocol."""


class HelloMismatchError(WireProtocolError):
    """The peers disagree on stream parameters."""


@dataclass
class Hello:
    fs: float
    f_c: float
    sequence_descriptor: str
    protocol_version: int = PROTOCOL_VERSION


@dataclass
class IqChunk:
    start_index: int
    samples: np.ndarray


@dataclass
class End:
    total_samples: int


def _frame(body: bytes) -> bytes:
    return _LENGTH.pack(len(body)) + body


def encode_hello(hello: Hello) -> bytes:
    desc = hello.sequence_descriptor.encode("utf-8")
    body = (
        bytes([MSG_HELLO])
        + _HELLO_HEAD.pack(hello.protocol_version, hello.fs, hello.f_c, len(desc))
        + desc
    )
    return _frame(body)


def encode_iq_chunk(start_index: int, samples: np.ndarray) -> bytes:
    x = np.ascontiguousarray(samples, dtype=CAPTURE_DTYPE)
    head = _IQ_HEAD.pack(_IQ_BODY_HEAD + x.nbytes, MSG_IQ_CHUNK, start_index, len(x))
    return b"".join((head, x))


def encode_trigger(event: TriggerEvent) -> bytes:
    note = event.note.encode("utf-8")
    body = (
        bytes([MSG_TRIGGER])
        + _TRIGGER_HEAD.pack(
            event.sample_index, _TRIGGER_KIND_CODES[event.kind], event.span, len(note)
        )
        + note
    )
    return _frame(body)


def encode_end(total_samples: int) -> bytes:
    return _frame(bytes([MSG_END]) + _END_BODY.pack(total_samples))


def _fixed_head(payload: memoryview, head: struct.Struct, name: str) -> tuple:
    """The fields of message ``name``'s fixed header at the start of ``payload``."""
    if len(payload) < head.size:
        raise WireProtocolError(f"{name} body is shorter than its fixed header")
    return head.unpack_from(payload)


def _text_tail(payload: memoryview, head: struct.Struct, length: int, what: str) -> str:
    """The utf-8 text ``what`` that follows the fixed header ``head`` to the
    end of ``payload`` and that the header declares ``length`` bytes long."""
    tail = payload[head.size :]
    if len(tail) != length:
        raise WireProtocolError(f"{what} length {length} does not match body ({len(tail)} bytes)")
    try:
        return str(tail, "utf-8")
    except UnicodeDecodeError as exc:
        raise WireProtocolError(f"{what} is not valid utf-8: {exc}") from None


def _chunk_head(payload: memoryview, payload_bytes: int) -> tuple[int, int]:
    """The checked start index and sample count of an IQ_CHUNK header."""
    start_index, count = _fixed_head(payload, _CHUNK_HEAD, "IQ_CHUNK")
    if start_index < 0:
        raise WireProtocolError(f"IQ_CHUNK start index {start_index} is negative")
    if payload_bytes != CAPTURE_DTYPE.itemsize * count:
        raise WireProtocolError(
            f"IQ_CHUNK declares {count} samples but carries {payload_bytes} payload bytes"
        )
    if count == 0:
        raise WireProtocolError("IQ_CHUNK with zero samples")
    return start_index, count


def decode_message(body: bytes) -> "Hello | IqChunk | TriggerEvent | End":
    """Decode one message body (without the length prefix); an IQ_CHUNK's
    samples are a :data:`frames.CAPTURE_DTYPE` view of it, the capture
    format of every transport.

    Raises :class:`WireProtocolError` on any structural violation.
    """
    if not isinstance(body, (bytes, bytearray, memoryview)):
        raise WireProtocolError("message body must be bytes")
    body = bytes(body)
    if len(body) == 0:
        raise WireProtocolError("empty message body")
    if len(body) > MAX_MESSAGE_BYTES:
        raise WireProtocolError(f"message of {len(body)} bytes exceeds the size limit")
    mtype = body[0]
    payload = memoryview(body)[1:]

    if mtype == MSG_HELLO:
        version, fs, f_c, desc_len = _fixed_head(payload, _HELLO_HEAD, "HELLO")
        if version != PROTOCOL_VERSION:
            raise WireProtocolError(
                f"unsupported protocol version {version} (supported: {PROTOCOL_VERSION})"
            )
        text = _text_tail(payload, _HELLO_HEAD, desc_len, "HELLO descriptor")
        if not (fs > 0) or not np.isfinite(fs) or not np.isfinite(f_c):
            raise WireProtocolError(f"HELLO carries invalid stream parameters fs={fs} f_c={f_c}")
        return Hello(fs=fs, f_c=f_c, sequence_descriptor=text, protocol_version=version)

    if mtype == MSG_IQ_CHUNK:
        start_index, _ = _chunk_head(payload, len(payload) - _CHUNK_HEAD.size)
        return IqChunk(start_index, np.frombuffer(payload[_CHUNK_HEAD.size :], dtype=CAPTURE_DTYPE))

    if mtype == MSG_TRIGGER:
        sample_index, kind_code, span, note_len = _fixed_head(payload, _TRIGGER_HEAD, "TRIGGER")
        note = _text_tail(payload, _TRIGGER_HEAD, note_len, "TRIGGER note")
        if kind_code not in _TRIGGER_KIND_NAMES:
            raise WireProtocolError(f"unknown trigger kind code {kind_code}")
        if sample_index < 0 or span < 1:
            raise WireProtocolError(
                f"TRIGGER with invalid position {sample_index} or span {span}"
            )
        return TriggerEvent(
            sample_index=sample_index,
            kind=_TRIGGER_KIND_NAMES[kind_code],
            span=span,
            note=note,
        )

    if mtype == MSG_END:
        if len(payload) != _END_BODY.size:
            raise WireProtocolError(
                f"END body must be exactly {_END_BODY.size + 1} bytes, got {len(body)}"
            )
        (total,) = _END_BODY.unpack(payload)
        if total < 0:
            raise WireProtocolError(f"END with negative sample count {total}")
        return End(total_samples=total)

    raise WireProtocolError(f"unknown message type {mtype}")


def _read_length(stream) -> int | None:
    """The next message's body length, or None at a clean end-of-stream."""
    head = stream.read(_LENGTH.size)
    if len(head) == 0:
        return None
    if len(head) < _LENGTH.size:
        raise WireProtocolError("stream ended inside a length prefix")
    (length,) = _LENGTH.unpack(head)
    if length > MAX_MESSAGE_BYTES:
        raise WireProtocolError(f"declared message size {length} exceeds the limit")
    return length


def _cut(got: int, length: int) -> WireProtocolError:
    return WireProtocolError(f"stream ended inside a message body ({got} of {length} bytes)")


def _read_body(stream, n: int, length: int, done: int = 0) -> bytes:
    """The next ``n`` bytes of a ``length``-byte body, ``done`` bytes in."""
    data = stream.read(n)
    if len(data) < n:
        raise _cut(done + len(data), length)
    return data


def read_message(stream) -> "Hello | IqChunk | TriggerEvent | End | None":
    """Read one framed message from a binary stream.

    Returns None on a clean end-of-stream at a message boundary; raises
    :class:`WireProtocolError` on truncation or garbage.
    """
    length = _read_length(stream)
    return None if length is None else decode_message(_read_body(stream, length, length))


@dataclass
class StimulationSummary:
    """What the stimulation side managed to deliver."""

    samples_sent: int
    chunks_sent: int
    triggers_sent: int
    complete: bool
    endpoint: str


@dataclass
class ConsumeSummary:
    """What a received stream carried besides its samples: the trigger
    events and the handshake."""

    triggers: list[TriggerEvent]
    hello: Hello


def parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    try:
        port_no = int(port)
    except ValueError:
        raise ValueError(f"endpoint port must be an integer, got {port!r}") from None
    if not 0 <= port_no < 65536:
        raise ValueError(f"endpoint port {port_no} is out of range")
    return host, port_no


def _listening_socket(endpoint) -> tuple[socket.socket, bool]:
    if hasattr(endpoint, "accept"):
        return endpoint, False
    host, port = parse_endpoint(endpoint)
    return socket.create_server((host, port)), True


def serve_capture(
    capture: "IqFrame | sounder.CaptureStream",
    sequence_descriptor: str,
    endpoint,
    events: list[TriggerEvent] = (),
    chunk_samples: int = 4096,
    timeout: float = 10.0,
) -> StimulationSummary:
    """Serve one capture to a single correlation peer.

    ``capture`` is an :class:`IqFrame` or a stream of contiguous blocks
    with ``fs`` and ``f_c`` attributes (a :class:`sounder.CaptureStream`);
    each block is encoded as it is made, in chunks of at most
    ``chunk_samples``, so a whole frame goes out in the same chunks as
    the stream of its ``chunk_samples`` blocks.  The messages leave in
    sends of 64 KiB or a little more, byte for byte as encoded.  The
    first block is made before listening, so a capture that cannot be
    made fails before a peer connects.  ``endpoint`` is a ``host:port``
    string or an already-listening socket (useful for tests on ephemeral
    ports).  Waits up to ``timeout`` seconds for the peer; a peer that
    disconnects mid-stream yields a summary with ``complete=False``, which
    counts the messages of the sends that completed, not an exception.
    """
    max_chunk = (MAX_MESSAGE_BYTES - _IQ_BODY_HEAD) // CAPTURE_DTYPE.itemsize
    if not 1 <= chunk_samples <= max_chunk:
        raise ValueError(f"chunk_samples must lie in 1..{max_chunk}, got {chunk_samples}")
    blocks = iter([capture] if isinstance(capture, IqFrame) else capture)
    first = list(itertools.islice(blocks, 1))
    lsock, owned = _listening_socket(endpoint)
    name = "%s:%d" % lsock.getsockname()[:2]
    evs = sorted(events, key=lambda e: e.sample_index)
    sent = chunks = triggers = 0
    complete = False
    try:
        lsock.settimeout(timeout)
        try:
            conn, _ = lsock.accept()
        except socket.timeout:
            raise TimeoutError(
                f"no correlation peer connected to {name} within {timeout} s"
            ) from None
        with conn:
            conn.settimeout(timeout)
            # A message counts as sent once the sendall that carried it returns.
            out = bytearray()
            counted = (0, 0, 0)
            try:
                out += encode_hello(Hello(capture.fs, capture.f_c, sequence_descriptor))
                for block in itertools.chain(first, blocks):
                    x = block.samples
                    # Each trigger goes out ahead of the chunk holding its sample.
                    for a in range(0, len(x), chunk_samples):
                        b = min(a + chunk_samples, len(x))
                        while triggers < len(evs) and evs[triggers].sample_index < block.start_index + b:
                            out += encode_trigger(evs[triggers])
                            triggers += 1
                        out += encode_iq_chunk(block.start_index + a, x[a:b])
                        chunks += 1
                        sent += b - a
                        if len(out) >= _SEND_BYTES:
                            conn.sendall(out)
                            out.clear()
                            counted = (sent, chunks, triggers)
                for ev in evs[triggers:]:
                    out += encode_trigger(ev)
                    triggers += 1
                out += encode_end(sent)
                conn.sendall(out)
                counted = (sent, chunks, triggers)
                complete = True
            except (BrokenPipeError, ConnectionResetError, socket.timeout):
                complete = False
    finally:
        if owned:
            lsock.close()
    return StimulationSummary(*counted, complete=complete, endpoint=name)


def serve_stimulation(config, endpoint=None) -> StimulationSummary:
    """Make the configured stimulation stream and serve it.

    The stream is generated, passed through the configured channel,
    damaged by any configured trigger faults, and quantized to the wire
    sample format in blocks of ``chunk_samples``
    (:func:`sounder.capture_stream`), each encoded as it is made, so the
    peer receives exactly what a capture file of the same campaign would
    contain.
    """
    stream = sounder.capture_stream(config)
    return serve_capture(
        stream,
        seq_descriptor(stream.seq),
        endpoint if endpoint is not None else config.endpoint,
        events=stream.events,
        chunk_samples=config.chunk_samples,
        timeout=config.timeout,
    )


class Link:
    """A connection to a stimulation peer whose HELLO has been read
    (:attr:`hello`), so the receiver can check the stream's parameters
    before any chunk arrives; :func:`consume_stream` reads the rest.
    ``endpoint`` is a ``host:port`` string or a ``(host, port)`` pair.
    Used as a context manager, it closes the connection on exit."""

    def __init__(self, endpoint, timeout: float = 10.0) -> None:
        host, port = parse_endpoint(endpoint) if isinstance(endpoint, str) else endpoint
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self.stream = self._sock.makefile("rb", buffering=_RECV_BUFFER)
        try:
            self._sock.settimeout(timeout)
            hello = read_message(self.stream)
            if hello is None:
                raise WireProtocolError("peer closed the stream before HELLO")
            if not isinstance(hello, Hello):
                raise WireProtocolError(f"expected HELLO first, got {type(hello).__name__}")
        except BaseException:
            self.__exit__()
            raise
        self.hello = hello

    def __enter__(self) -> "Link":
        return self

    def __exit__(self, *exc) -> None:
        self.stream.close()
        self._sock.close()


def consume_stream(endpoint, timeout: float = 10.0) -> tuple[IqFrame, ConsumeSummary]:
    """Connect to a stimulation peer and collect the whole stream.

    ``endpoint`` is a ``host:port`` string, a ``(host, port)`` pair or an
    open :class:`Link`, which this closes.  Verifies chunk contiguity,
    that each trigger comes before the chunk holding its sample, the END
    sample count, that nothing follows END before the peer closes, and
    that every received sample is finite.
    Returns the capture frame plus the stream summary (handshake and
    trigger events); each chunk is read straight into the complex64
    capture, the capture format of every transport, grown in place.
    """
    with endpoint if isinstance(endpoint, Link) else Link(endpoint, timeout) as link:
        capture = np.empty(0, dtype=CAPTURE_DTYPE)
        triggers: list[TriggerEvent] = []
        received = 0
        while True:
            length = _read_length(link.stream)
            if length is None:
                raise WireProtocolError("stream ended without an END message")
            head = _read_body(link.stream, min(length, _IQ_BODY_HEAD), length)
            if len(head) < _IQ_BODY_HEAD or head[0] != MSG_IQ_CHUNK:
                msg = decode_message(head + _read_body(link.stream, length - len(head), length, len(head)))
                if isinstance(msg, Hello):
                    raise WireProtocolError("duplicate HELLO mid-stream")
                if isinstance(msg, End):
                    if msg.total_samples != received:
                        raise WireProtocolError(
                            f"END declares {msg.total_samples} samples but {received} were delivered"
                        )
                    break
                if msg.sample_index < received:
                    raise WireProtocolError(
                        f"TRIGGER at sample {msg.sample_index} arrived after its chunk "
                        f"({received} samples received)"
                    )
                triggers.append(msg)
                continue
            try:
                start_index, count = _chunk_head(memoryview(head)[1:], length - _IQ_BODY_HEAD)
            except WireProtocolError:
                # a cut stream is named first, as read_message names it
                _read_body(link.stream, length - _IQ_BODY_HEAD, length, _IQ_BODY_HEAD)
                raise
            if received + count > len(capture):
                # Grow by an eighth or more, in place: no view of the
                # capture outlives the readinto call it is made for.
                capture.resize(max(received + count, received + received // 8), refcheck=False)
            got = link.stream.readinto(capture[received : received + count])
            if got < CAPTURE_DTYPE.itemsize * count:
                raise _cut(_IQ_BODY_HEAD + got, length)
            if start_index != received:
                raise WireProtocolError(
                    f"IQ chunk starts at {start_index}, expected {received}; "
                    "the stream is not contiguous"
                )
            received += count
        late = read_message(link.stream)
        if late is not None:
            raise WireProtocolError(f"{type(late).__name__} message after END")

    capture.resize(received, refcheck=False)
    check_finite(capture, 0, "received stream", WireProtocolError)
    return IqFrame(capture, link.hello.fs, link.hello.f_c, 0), ConsumeSummary(triggers, link.hello)


def consume_correlation(endpoint, config) -> tuple[FrameSeries, int, ConsumeSummary]:
    """Receive a stimulation stream and run the correlation side on it.

    The peer's rule: after the HELLO and before any chunk is read, any
    local sample rate and a pinned sequence must match the HELLO's
    (otherwise the peer's descriptor is adopted), and the calibration
    profile and the DC band are checked against the adopted sequence and
    rate.  Returns :func:`sounder.correlate`'s frames and period count
    and the stream summary.
    """
    profile = config.load_profile()  # a bad profile fails before anything is received
    with Link(endpoint, config.timeout) as link:
        hello = link.hello
        seq = config.stream_sequence(hello.sequence_descriptor, hello.fs, "peer", HelloMismatchError, strict=True)
        sounder.check_corrections(config, profile, seq.n_seq, hello.fs)
        capture, summary = consume_stream(link)
    frames, total = sounder.correlate(config, capture, seq, summary.triggers, profile)
    return frames, total, summary
