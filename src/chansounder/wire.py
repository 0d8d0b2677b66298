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
  gap-free start indices, each of 1 to :data:`MAX_CHUNK_SAMPLES` samples.
* TRIGGER (3): ``<i64 sample_index> <u8 kind> <u32 span>
  <u16 note_len> <note utf-8>``; kind 0 is overflow, 1 external.  A
  trigger comes before the chunk that holds its sample: one whose sample
  has already been received is rejected.
* END (4): ``<i64 total_samples>`` closing the stream; the receiver
  cross-checks its sample count.  END is final: the sender closes the
  connection after it, and any message that follows is rejected.

:func:`serve_capture` sends a capture, each block as one IQ_CHUNK, and its
:class:`framestore.CaptureMeta` in sends of 64 KiB or a little more;
:func:`connect` reads the HELLO, and :func:`consume_stream` reads each
chunk's samples into its capture and returns both, as a capture file's reader does.

Anything that does not parse exactly raises :class:`WireProtocolError`
(a handshake disagreement raises the :class:`HelloMismatchError`
subtype), never a bare struct or index error.  The encoders refuse what
the decoder would: a :class:`Hello` and a :class:`frames.TriggerEvent`
check their fields as they are built, and a value too wide for its
field raises ``ValueError`` naming the field (:func:`_packed`).
"""

from __future__ import annotations

import itertools
import socket
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import sounder
from .framestore import CaptureMeta
from .frames import CAPTURE_DTYPE, FINITE, NON_NEGATIVE, RATE, TRIGGER_KINDS, FrameSeries, IqFrame, TriggerEvent
from .frames import capture_blocks, check, check_finite

PROTOCOL_VERSION = 1
MSG_HELLO = 1
MSG_IQ_CHUNK = 2
MSG_TRIGGER = 3
MSG_END = 4

#: Upper bound on a single message body; anything larger is rejected
#: before allocation.
MAX_MESSAGE_BYTES = 1 << 26

#: A TRIGGER's kind code is the kind's place in :data:`frames.TRIGGER_KINDS`.
_TRIGGER_KIND_CODES = {kind: code for code, kind in enumerate(TRIGGER_KINDS)}

_HELLO_HEAD = struct.Struct("<HddH")
_CHUNK_HEAD = struct.Struct("<qI")
_TRIGGER_HEAD = struct.Struct("<qBIH")
_END_BODY = struct.Struct("<q")
_LENGTH = struct.Struct("<I")
#: An IQ_CHUNK's length prefix, type byte and fixed header.
_IQ_HEAD = struct.Struct("<IBqI")
#: The names the encoders give the fields of each fixed header they pack.
_HELLO_NAMES = ("HELLO protocol_version", "HELLO fs", "HELLO f_c", "HELLO descriptor length")
_IQ_NAMES = ("IQ_CHUNK length", "IQ_CHUNK type", "IQ_CHUNK start_index", "IQ_CHUNK n_samples")
_TRIGGER_NAMES = ("TRIGGER sample_index", "TRIGGER kind", "TRIGGER span", "TRIGGER note length")
_IQ_BODY_HEAD = _IQ_HEAD.size - _LENGTH.size
#: The most samples one IQ_CHUNK carries within :data:`MAX_MESSAGE_BYTES`.
MAX_CHUNK_SAMPLES = (MAX_MESSAGE_BYTES - _IQ_BODY_HEAD) // CAPTURE_DTYPE.itemsize

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
    """The stream's parameters, held to a ``.meta`` sidecar's rules:
    ``fs`` to :data:`frames.RATE` and ``f_c`` to :data:`frames.FINITE`."""

    fs: float
    f_c: float
    sequence_descriptor: str

    def __post_init__(self) -> None:
        if not (RATE[0](self.fs) and FINITE[0](self.f_c)):
            raise ValueError(f"HELLO carries invalid stream parameters fs={self.fs} f_c={self.f_c}")


@dataclass
class IqChunk:
    start_index: int
    samples: np.ndarray


@dataclass
class End:
    total_samples: int

    def __post_init__(self) -> None:
        check(self.total_samples, *NON_NEGATIVE, "END total_samples")


def _packed(head: struct.Struct, names: tuple[str, ...], *fields) -> bytes:
    """``fields``, named ``names``, packed by ``head``; a field that does
    not fit its struct code raises ``ValueError``, naming an integer too
    wide for its field and the field's range."""
    try:
        return head.pack(*fields)
    except struct.error as exc:
        for name, code, value in zip(names, head.format[1:], fields):
            bits = 8 * struct.calcsize(code)
            hi = 2 ** (bits - code.islower()) - 1  # a signed code's sign takes a bit
            lo = -hi - 1 if code.islower() else 0
            if isinstance(value, (int, np.integer)) and not lo <= value <= hi:
                raise ValueError(f"{name} must fit its {bits}-bit field ({lo}..{hi}), got {value}") from None
        raise ValueError(str(exc)) from None


def _framed(mtype: int, head: struct.Struct, names: tuple[str, ...], *fields, tail: bytes = b"") -> bytes:
    """A message of type ``mtype``: its length prefix, type byte, fixed
    header ``head`` packed from ``fields`` (:func:`_packed`), then ``tail``."""
    return b"".join((_LENGTH.pack(1 + head.size + len(tail)), bytes([mtype]), _packed(head, names, *fields), tail))


def encode_hello(hello: Hello) -> bytes:
    desc = hello.sequence_descriptor.encode("utf-8")
    fields = PROTOCOL_VERSION, hello.fs, hello.f_c, len(desc)
    return _framed(MSG_HELLO, _HELLO_HEAD, _HELLO_NAMES, *fields, tail=desc)


def encode_iq_chunk(start_index: int, samples: np.ndarray) -> bytes:
    if not 1 <= len(samples) <= MAX_CHUNK_SAMPLES:
        raise ValueError(f"an IQ_CHUNK carries 1..{MAX_CHUNK_SAMPLES} samples, got {len(samples)}")
    x = np.ascontiguousarray(samples, dtype=CAPTURE_DTYPE)
    head = _packed(_IQ_HEAD, _IQ_NAMES, _IQ_BODY_HEAD + x.nbytes, MSG_IQ_CHUNK, start_index, len(x))
    return b"".join((head, x))


def encode_trigger(event: TriggerEvent) -> bytes:
    note = event.note.encode("utf-8")
    fields = event.sample_index, _TRIGGER_KIND_CODES[event.kind], event.span, len(note)
    return _framed(MSG_TRIGGER, _TRIGGER_HEAD, _TRIGGER_NAMES, *fields, tail=note)


def encode_end(total_samples: int) -> bytes:
    return _framed(MSG_END, _END_BODY, ("END total_samples",), End(total_samples).total_samples)


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


def _built(record, *fields):
    """The decoded message ``record(*fields)``; a field its constructor
    refuses raises :class:`WireProtocolError` with the constructor's message."""
    try:
        return record(*fields)
    except ValueError as exc:
        raise WireProtocolError(str(exc)) from None


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
        return _built(Hello, fs, f_c, text)

    if mtype == MSG_IQ_CHUNK:
        start_index, _ = _chunk_head(payload, len(payload) - _CHUNK_HEAD.size)
        return IqChunk(start_index, np.frombuffer(payload[_CHUNK_HEAD.size :], dtype=CAPTURE_DTYPE))

    if mtype == MSG_TRIGGER:
        sample_index, kind_code, span, note_len = _fixed_head(payload, _TRIGGER_HEAD, "TRIGGER")
        note = _text_tail(payload, _TRIGGER_HEAD, note_len, "TRIGGER note")
        if kind_code >= len(TRIGGER_KINDS):
            raise WireProtocolError(f"unknown trigger kind code {kind_code}")
        try:
            return TriggerEvent(sample_index, TRIGGER_KINDS[kind_code], span, note)
        except ValueError:  # its position or span
            raise WireProtocolError(f"TRIGGER with invalid position {sample_index} or span {span}") from None

    if mtype == MSG_END:
        if len(payload) != _END_BODY.size:
            raise WireProtocolError(
                f"END body must be exactly {_END_BODY.size + 1} bytes, got {len(body)}"
            )
        return _built(End, *_END_BODY.unpack(payload))

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


@contextmanager
def _listening(endpoint):
    """A socket listening on ``endpoint``: a ``host:port`` string, closed
    on exit, or an already-listening socket, left open."""
    if hasattr(endpoint, "accept"):
        yield endpoint
    else:
        with socket.create_server(parse_endpoint(endpoint)) as lsock:
            yield lsock


def _encoded(blocks, events: list[tuple[int, bytes]], out: bytearray):
    """Append the messages of a capture's ``blocks`` to ``out``: each block
    as one IQ_CHUNK behind the TRIGGERs of the samples before its end, then
    the remaining TRIGGERs and END.  ``events`` are the encoded TRIGGERs,
    each after its sample index, in order.  Yields the (samples, chunks,
    triggers) appended so far after each block, and once more after END."""
    sent = chunks = triggers = 0
    for block in blocks:
        while triggers < len(events) and events[triggers][0] < block.end_index:
            out += events[triggers][1]
            triggers += 1
        out += encode_iq_chunk(block.start_index, block.samples)
        chunks += 1
        sent += len(block)
        yield sent, chunks, triggers
    for _, message in events[triggers:]:
        out += message
    out += encode_end(sent)
    yield sent, chunks, len(events)


def serve_capture(
    capture: "IqFrame | sounder.CaptureStream", meta: CaptureMeta, endpoint, timeout: float = 10.0
) -> StimulationSummary:
    """Serve one capture and its record ``meta``, but its seed note, to a single correlation peer.

    ``capture`` is an :class:`IqFrame` or a stream of contiguous blocks
    with ``fs`` and ``f_c`` attributes (a :class:`sounder.CaptureStream`);
    each block goes out as one IQ_CHUNK, encoded as it is made.  The
    messages leave in sends of 64 KiB or a little more, byte for byte as
    encoded.  The HELLO, every TRIGGER and the first block are made and
    encoded before listening, and an :class:`IqFrame`'s samples are
    checked finite (:func:`frames.capture_blocks`), so a capture that
    cannot be made or sent fails before a peer connects.
    ``endpoint`` is a ``host:port`` string or an already-listening socket
    (useful for tests on ephemeral ports).  Waits up to ``timeout``
    seconds for the peer; a peer that disconnects mid-stream yields a
    summary with ``complete=False``, which counts the messages of the
    sends that completed, not an exception.
    """
    out = bytearray(encode_hello(Hello(capture.fs, capture.f_c, meta.sequence_descriptor)))
    triggers = [(ev.sample_index, encode_trigger(ev)) for ev in sorted(meta.triggers)]
    progress = _encoded(capture_blocks(capture, "served capture"), triggers, out)
    progress = itertools.chain([next(progress)], progress)  # the first block, before listening
    counted, complete = (0, 0, 0), False
    with _listening(endpoint) as lsock:
        name = "%s:%d" % lsock.getsockname()[:2]
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
            try:
                for counts in progress:
                    if len(out) >= _SEND_BYTES:
                        conn.sendall(out)
                        out.clear()
                        counted = counts
                conn.sendall(out)
                counted, complete = counts, True
            except (BrokenPipeError, ConnectionResetError, socket.timeout):
                pass
    return StimulationSummary(*counted, complete=complete, endpoint=name)


def serve_stimulation(config, endpoint=None) -> StimulationSummary:
    """Make the configured stimulation stream and serve it.

    The stream is generated, passed through the configured channel,
    damaged by any configured trigger faults, and quantized to the wire
    sample format in blocks of ``chunk_samples``
    (:func:`sounder.capture_stream`), each encoded as it is made, so the
    peer receives exactly what a capture file of the same campaign would
    contain.  A block longer than one IQ_CHUNK carries fails before
    listening, naming ``chunk_samples``.
    """
    stream = sounder.capture_stream(config)
    if min(stream.chunk_samples, stream.n_samples) > MAX_CHUNK_SAMPLES:
        limit = f"at most {MAX_CHUNK_SAMPLES} to go out as one IQ_CHUNK"
        raise ValueError(f"chunk_samples must be {limit}, got {stream.chunk_samples}")
    return serve_capture(stream, stream.meta, config.endpoint if endpoint is None else endpoint, config.timeout)


@contextmanager
def connect(endpoint: str, timeout: float):
    """Connect to the stimulation peer at ``endpoint`` (``host:port``) and
    read its HELLO, so the receiver can check the stream's parameters
    before any chunk arrives.  Yields ``(stream, hello)``, the arguments
    of :func:`consume_stream`, and closes the connection on exit."""
    with socket.create_connection(parse_endpoint(endpoint), timeout=timeout) as sock:
        with sock.makefile("rb", buffering=_RECV_BUFFER) as stream:
            hello = read_message(stream)
            if hello is None:
                raise WireProtocolError("peer closed the stream before HELLO")
            if not isinstance(hello, Hello):
                raise WireProtocolError(f"expected HELLO first, got {type(hello).__name__}")
            yield stream, hello


def consume_stream(stream, hello: Hello) -> tuple[IqFrame, CaptureMeta]:
    """Collect the rest of a stream whose ``hello`` has been read
    (:func:`connect`).

    Verifies chunk contiguity, that each trigger comes before the chunk
    holding its sample, the END sample count, that nothing follows END
    before the peer closes, and that every received sample is finite.
    Returns the capture frame and, as :func:`framestore.read_capture`
    does, its :class:`framestore.CaptureMeta` (the HELLO's descriptor and
    the triggers); each chunk is read straight into the complex64
    capture, the capture format of every transport, grown in place.
    """
    capture = np.empty(0, dtype=CAPTURE_DTYPE)
    triggers: list[TriggerEvent] = []
    received = 0
    while True:
        length = _read_length(stream)
        if length is None:
            raise WireProtocolError("stream ended without an END message")
        head = _read_body(stream, min(length, _IQ_BODY_HEAD), length)
        if len(head) < _IQ_BODY_HEAD or head[0] != MSG_IQ_CHUNK:
            msg = decode_message(head + _read_body(stream, length - len(head), length, len(head)))
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
            _read_body(stream, length - _IQ_BODY_HEAD, length, _IQ_BODY_HEAD)
            raise
        if received + count > len(capture):
            # Grow by an eighth or more, in place: no view of the
            # capture outlives the readinto call it is made for.
            capture.resize(max(received + count, received + received // 8), refcheck=False)
        got = stream.readinto(capture[received : received + count])
        if got < CAPTURE_DTYPE.itemsize * count:
            raise _cut(_IQ_BODY_HEAD + got, length)
        if start_index != received:
            raise WireProtocolError(
                f"IQ chunk starts at {start_index}, expected {received}; "
                "the stream is not contiguous"
            )
        received += count
    late = read_message(stream)
    if late is not None:
        raise WireProtocolError(f"{type(late).__name__} message after END")

    capture.resize(received, refcheck=False)
    check_finite(capture, 0, "received stream", WireProtocolError)
    return IqFrame(capture, hello.fs, hello.f_c, 0), CaptureMeta(hello.sequence_descriptor, triggers=triggers)


def consume_correlation(endpoint: str, config) -> tuple[FrameSeries, int, CaptureMeta]:
    """Receive a stimulation stream and run the correlation side on it.

    The peer's rule: after the HELLO and before any chunk is read, any
    local sample rate and a pinned sequence must match the HELLO's
    (otherwise the peer's descriptor is adopted), and the calibration
    profile and the DC band are checked against the adopted sequence and
    rate.  Returns :func:`sounder.correlate`'s frames and period count
    and the stream's :class:`framestore.CaptureMeta`.
    """
    profile = config.load_profile()  # a bad profile fails before anything is received
    with connect(endpoint, config.timeout) as (stream, hello):
        seq = config.stream_sequence(hello.sequence_descriptor, hello.fs, "peer", HelloMismatchError, strict=True)
        sounder.check_corrections(profile, seq.n_seq, hello.fs, config.dc_suppression_hz, config.dc_position)
        capture, meta = consume_stream(stream, hello)
    frames, total = sounder.correlate(config, capture, seq, meta.triggers, profile)
    return frames, total, meta
