"""Lens-specific zero-shot agents over an OpenAI-compatible chat endpoint.

Each agent renders a fixed prompt for its financial lens, decodes
deterministically (temperature 0, top-p 1, fixed seed), and must answer with
a JSON object carrying exactly {label, rationale, confidence}. A schema
violation earns exactly one retry with the identical request; a second
violation produces a neutral zero-confidence fallback output that stays in
the dataset. Transport failures are a separate concern and get bounded
exponential backoff.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence
from urllib.parse import SplitResult, urlsplit

from .domain import (
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
)

if TYPE_CHECKING:
    import socket
    import ssl

API_KEY_ENV_VAR = "ENSEMBLE_JUDGE_API_KEY"

_PROMPT_SHARED = (
    "Decide whether the disclosure is positive, neutral, or negative for "
    "next-day stock reaction. Output exactly three fields in JSON format: "
    '{"label": ..., "rationale": ..., "confidence": ...}. The rationale must '
    "be one sentence and confidence must be a number between 0 and 1. "
    "Disclosure: <DISCLOSURE>"
)

PROMPT_TEMPLATES: dict[Lens, str] = {
    Lens.PERFORMANCE: (
        "Read the corporate disclosure below. Focus on realized operating "
        "performance, including earnings, revenue, margins, costs, and "
        "reported business outcomes. " + _PROMPT_SHARED
    ),
    Lens.GUIDANCE: (
        "Read the corporate disclosure below. Focus on forward guidance, "
        "management outlook, demand expectations, and any revisions to "
        "future expectations. " + _PROMPT_SHARED
    ),
    Lens.RISK: (
        "Read the corporate disclosure below. Focus on uncertainty, "
        "litigation, regulation, liquidity, operational disruption, and "
        "downside risk. " + _PROMPT_SHARED
    ),
}


_PLACEHOLDER = "<DISCLOSURE>"


def render_prompt(lens: Lens, clean_text: str) -> str:
    """The fixed prompt for a lens with the disclosure text substituted in."""
    return PROMPT_TEMPLATES[lens].replace(_PLACEHOLDER, clean_text)


def templates_sha256() -> str:
    """sha256 of :data:`PROMPT_TEMPLATES` as it stands: the prompts every
    prompt digest depends on."""
    templates = [[lens.value, template] for lens, template in PROMPT_TEMPLATES.items()]
    return hashlib.sha256(json.dumps(templates).encode("ascii")).hexdigest()


def prompt_digests(lens: Lens, clean_texts: Iterable[str]) -> list[bytes]:
    """The raw sha256 of each text's :func:`render_prompt` prompt, without
    rendering it: each hash continues a copy of one state that has taken the
    template text before the placeholder."""
    head, *tails = (part.encode("utf-8") for part in PROMPT_TEMPLATES[lens].split(_PLACEHOLDER))
    seeded = hashlib.sha256(head)
    digests = []
    for text in clean_texts:
        digest = seeded.copy()
        encoded = text.encode("utf-8")
        for tail in tails:
            digest.update(encoded)
            digest.update(tail)
        digests.append(digest.digest())
    return digests


# ``perfbench/traced_stage.py`` wraps this name for a span; no stage calls it.
expected_cache_keys = prompt_digests


@dataclass(frozen=True)
class AgentSpec:
    lens: Lens
    model_name: str
    endpoint_url: str
    supports_logprobs: bool = False

    def __post_init__(self) -> None:
        if not self.endpoint_url:
            raise ValueError("endpoint_url must be non-empty")


# Deterministic decoding: every request carries these, whatever the config.
TEMPERATURE = 0.0
TOP_P = 1.0


@dataclass(frozen=True)
class DecodingConfig:
    """The per-run decoding settings; temperature and top-p are the constants above."""

    seed: int
    max_output_tokens: int


@dataclass(frozen=True)
class RawGeneration:
    """One model response: generated text plus the token logprob stream."""

    text: str
    token_logprobs: tuple[tuple[str, float], ...] | None

    def __post_init__(self) -> None:
        if self.token_logprobs is not None:
            for token, lp in self.token_logprobs:
                if lp > 0:
                    raise ValueError(f"log probability above zero for token {token!r}: {lp}")


class ViolationCategory(str, Enum):
    NO_JSON = "no_json"
    MISSING_KEY = "missing_key"
    BAD_LABEL = "bad_label"
    BAD_CONFIDENCE = "bad_confidence"
    EXTRA_KEYS = "extra_keys"


class SchemaViolation(Exception):
    """The generation does not satisfy the constrained output schema."""

    def __init__(self, category: ViolationCategory, detail: str = ""):
        self.category = category
        self.detail = detail
        super().__init__(f"{category.value}: {detail}" if detail else category.value)


class TransportError(RuntimeError):
    """HTTP or connection failure that exhausted (or bypassed) backoff."""


REQUIRED_KEYS = frozenset({"label", "rationale", "confidence"})


def extract_json_object(text: str) -> tuple[str, int] | None:
    """First balanced ``{...}`` object in the text and its start offset.

    Brace depth is tracked outside of string literals (with escape handling),
    so braces inside rationale strings do not confuse the scan.
    """
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return text[start : i + 1], start
        start = text.find("{", start + 1)
    return None


@dataclass(frozen=True)
class ParsedOutput:
    label: SentimentLabel
    rationale: str
    self_confidence: float
    # Character span of the label value string inside the generation, used to
    # line the parsed label up with the server's token stream.
    label_span: tuple[int, int] | None


_LABEL_VALUE = re.compile(r'"label"\s*:\s*"((?:[^"\\]|\\.)*)"')


def parse_output(raw: RawGeneration) -> ParsedOutput:
    """Validate a generation against the three-field schema.

    Surrounding prose is tolerated by extracting the first balanced JSON
    object. Raises :class:`SchemaViolation` with a category on any failure.
    """
    found = extract_json_object(raw.text)
    if found is None:
        raise SchemaViolation(ViolationCategory.NO_JSON, "no balanced JSON object in generation")
    snippet, offset = found
    try:
        obj = json.loads(snippet)
    except (ValueError, RecursionError) as exc:
        # Besides malformed JSON: an integer past Python's digit limit
        # (ValueError) or nesting past the recursion limit.
        raise SchemaViolation(ViolationCategory.NO_JSON, f"unparsable JSON object: {exc}") from None

    missing = REQUIRED_KEYS - obj.keys()
    if missing:
        raise SchemaViolation(ViolationCategory.MISSING_KEY, f"missing {sorted(missing)}")
    extra = obj.keys() - REQUIRED_KEYS
    if extra:
        raise SchemaViolation(ViolationCategory.EXTRA_KEYS, f"unexpected {sorted(extra)}")

    label_value = obj["label"]
    if not isinstance(label_value, str):
        raise SchemaViolation(ViolationCategory.BAD_LABEL, f"label is not a string: {label_value!r}")
    try:
        label = SentimentLabel.from_string(label_value)
    except ValueError:
        raise SchemaViolation(ViolationCategory.BAD_LABEL, f"label {label_value!r}") from None

    conf_value = obj["confidence"]
    if isinstance(conf_value, bool) or not isinstance(conf_value, (int, float, str)):
        raise SchemaViolation(
            ViolationCategory.BAD_CONFIDENCE, f"confidence {conf_value!r} is not numeric"
        )
    try:
        self_confidence = float(conf_value)
    except (ValueError, OverflowError):  # an integer too large for a float overflows
        raise SchemaViolation(
            ViolationCategory.BAD_CONFIDENCE, f"confidence {conf_value!r} does not parse"
        ) from None
    if not math.isfinite(self_confidence):
        raise SchemaViolation(ViolationCategory.BAD_CONFIDENCE, f"confidence {conf_value!r} not finite")

    rationale_value = obj["rationale"]
    rationale = rationale_value if isinstance(rationale_value, str) else str(rationale_value)

    span_match = _LABEL_VALUE.search(snippet)
    label_span = (offset + span_match.start(1), offset + span_match.end(1)) if span_match else None
    return ParsedOutput(
        label=label, rationale=rationale, self_confidence=self_confidence, label_span=label_span
    )


def confidence_from_logprobs(logprobs: Sequence[float]) -> float:
    """Geometric-mean token probability: exp of the mean log probability."""
    if not logprobs:
        raise ValueError("cannot compute confidence from an empty logprob list")
    for lp in logprobs:
        if lp > 0:
            raise ValueError(f"log probability above zero: {lp}")
    return math.exp(sum(logprobs) / len(logprobs))


def clip_confidence(v: float) -> float:
    """Clip a self-reported confidence into [0, 1]."""
    if not math.isfinite(v):
        raise SchemaViolation(ViolationCategory.BAD_CONFIDENCE, f"non-finite confidence {v!r}")
    return min(max(v, 0.0), 1.0)


def label_logprobs_for_span(
    token_logprobs: Sequence[tuple[str, float]], span: tuple[int, int]
) -> list[float]:
    """Logprobs of the tokens overlapping a character span of the generation."""
    lo, hi = span
    out: list[float] = []
    pos = 0
    for token, lp in token_logprobs:
        token_end = pos + len(token)
        if pos < hi and token_end > lo:
            out.append(lp)
        pos = token_end
        if pos >= hi:
            break
    return out


# HTTP statuses worth retrying: rate limiting and transient server failures.
_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# Seconds one chat request may take before it counts as a transport failure.
REQUEST_TIMEOUT_S = 120.0
# Transport attempts per request; the waits between them double from the base.
MAX_ATTEMPTS = 4
BACKOFF_BASE_S = 0.5
# The longest wait a 429 or 503 may ask for in its Retry-After header.
RETRY_AFTER_MAX_S = 60.0
_DELAY_SECONDS = re.compile(r"[0-9]+")


def _retry_after(value: str | None, backoff: float) -> float:
    """The wait a ``Retry-After`` header value asks for when it is
    delay-seconds (RFC 9110 §10.2.3), capped at :data:`RETRY_AFTER_MAX_S`;
    ``backoff`` when it is absent or an HTTP date."""
    if value is None or not _DELAY_SECONDS.fullmatch(value.strip()):
        return backoff
    return min(float(value), RETRY_AFTER_MAX_S)


def http_url(url: str) -> SplitResult:
    """``url`` split into its parts; a ``ValueError`` unless it is http(s)
    with a host, and its path and query are visible ASCII."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"{url!r} is not an http:// or https:// URL with a host")
    parts.port  # noqa: B018 - raises ValueError on a malformed port
    if re.search(r"[^\x21-\x7e]", parts.path + parts.query):
        raise ValueError(f"{url!r} has a character other than visible ASCII in its path or query")
    return parts


class Endpoint(NamedTuple):
    """Where a client's requests go: each transport thread keeps one
    connection per endpoint."""

    host: str
    port: int
    tls: bool


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """The context of every https connection: the system trust store, with
    the certificate and the host name both checked."""
    import ssl

    return ssl.create_default_context()


class BadResponse(Exception):
    """A response this client does not read. The exchange is a transport
    failure, and its connection is closed."""


# http.client's limits: the bytes in one header line, and the header fields
# of one response.
_MAX_LINE = 65_536
_MAX_FIELDS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([0-9]{3})(?: [^\r\n]*)?\r?\n")
_CONTENT_LENGTH = re.compile(rb"[0-9]{1,18}")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_LINE_END = (b"\r\n", b"\n")


def _tokens(values: list[bytes]) -> list[bytes]:
    """The lower-cased items of a comma-separated list field."""
    return [item.strip().lower() for value in values for item in value.split(b",") if item.strip()]


class _Connection:
    """One HTTP/1.1 connection, owned by one transport thread.

    A response is read by its framing rules (RFC 9112 §6): interim 1xx
    responses are skipped; the body is empty for a 204 or 304, else chunked,
    else ``Content-Length`` bytes, else everything until the server closes.
    """

    def __init__(self, endpoint: Endpoint):
        import socket

        sock = socket.create_connection((endpoint.host, endpoint.port), REQUEST_TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if endpoint.tls:
                sock = _tls_context().wrap_socket(sock, server_hostname=endpoint.host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self._buffer = bytearray()  # received, not yet read: never more than was sent

    def close(self) -> None:
        self.sock.close()

    def receive(self) -> tuple[int, str | None, bytes, bool]:
        """The response to the request just sent: its status, its
        ``Retry-After`` value, its body, and whether the connection may carry
        another request. Raises ``OSError`` or :class:`BadResponse`."""
        status = 100
        while status < 200:
            line = self._line()
            head = _STATUS_LINE.fullmatch(line)
            if head is None:
                raise BadResponse(f"status line {line[:80]!r}")
            status, fields = int(head[2]), self._fields()
        # An HTTP/1.0 response closes the connection, whatever it says.
        reusable = head[1] != b"0" and b"close" not in _tokens(fields.get(b"connection", []))
        if status in (204, 304):
            body = b""
        elif b"transfer-encoding" in fields:
            if _tokens(fields[b"transfer-encoding"]) != [b"chunked"]:
                raise BadResponse("a transfer coding other than chunked")
            body = self._chunked()
            # A Content-Length beside it was not what framed this message.
            reusable = reusable and b"content-length" not in fields
        elif b"content-length" in fields:
            lengths = set(_tokens(fields[b"content-length"]))
            if len(lengths) != 1 or not _CONTENT_LENGTH.fullmatch(length := lengths.pop()):
                raise BadResponse(f"Content-Length {b', '.join(fields[b'content-length'])[:80]!r}")
            body = self._exactly(int(length))
        else:
            self._fill(math.inf)
            body, reusable = self._take(len(self._buffer)), False
        retry_after = fields.get(b"retry-after")
        # Bytes after the response would be read as the next one's.
        reusable = reusable and not self._buffer
        return status, retry_after[0].decode("latin-1") if retry_after else None, body, reusable

    def _fill(self, size: float) -> bool:
        """Whether ``size`` bytes are buffered, received until they are or the server closes."""
        while len(self._buffer) < size and (data := self.sock.recv(8192)):
            self._buffer += data
        return len(self._buffer) >= size

    def _take(self, size: int) -> bytes:
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def _line(self) -> bytes:
        while (end := self._buffer.find(b"\n", 0, _MAX_LINE + 1)) < 0:
            if len(self._buffer) > _MAX_LINE or not self._fill(len(self._buffer) + 1):
                break
        line = self._take(end + 1 if end >= 0 else _MAX_LINE + 1)
        if not line:
            raise BadResponse("the server closed the connection")
        if len(line) > _MAX_LINE:
            raise BadResponse(f"a line longer than {_MAX_LINE} bytes")
        return line

    def _fields(self) -> dict[bytes, list[bytes]]:
        """A header or trailer section: each field's values under its
        lower-cased name, an obsolete line folding replaced by a space."""
        fields: dict[bytes, list[bytes]] = {}
        values: list[bytes] = []
        for _ in range(_MAX_FIELDS + 1):
            line = self._line()
            if line in _LINE_END:
                return fields
            if line[:1] in (b" ", b"\t") and values:
                values[-1] += b" " + line.strip()
                continue
            name, colon, value = line.partition(b":")
            if not colon or not name.strip():
                raise BadResponse(f"header line {line[:80]!r}")
            values = fields.setdefault(name.strip().lower(), [])
            values.append(value.strip())
        raise BadResponse(f"more than {_MAX_FIELDS} header fields")

    def _exactly(self, size: int) -> bytes:
        self._fill(size)
        data = self._take(size)
        if len(data) < size:
            raise BadResponse(f"the body ended after {len(data)} of {size} bytes")
        return data

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._line()
            digits = line.split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(digits):
                raise BadResponse(f"chunk size line {line[:80]!r}")
            size = int(digits, 16)
            if not size:
                break
            chunks.append(self._exactly(size))
            if self._line() not in _LINE_END:
                raise BadResponse("a chunk longer than its size")
        self._fields()  # the trailer section, read and dropped
        return b"".join(chunks)


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle keep-alive socket polls readable: the server closed it
    (or sent bytes nobody asked for), so it cannot carry another request."""
    import select

    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class Transport:
    """The ``threads`` threads of a thread pool, each started on first use,
    that carry chat requests to their endpoints.

    Requests wait in the pool's FIFO work queue, so the longest-waiting one
    goes first. A thread takes a request, sends it on its own keep-alive
    connection to that endpoint, reads the response and hands it back to its
    caller; then it takes the next request at once. So at most ``threads``
    requests are on the wire, and a caller that backs off holds no thread. A
    thread opens its connection to an endpoint on first use and reopens it
    after the server closes it. ``socket`` and ``ssl`` are imported only when
    a connection opens, so stub-agent runs never pay for them.
    """

    def __init__(self, threads: int):
        self._local = threading.local()
        # Each pool thread's connections by endpoint, for close() to close.
        self._connections: list[dict[Endpoint, _Connection]] = []
        # Set by close(); a client's default backoff wait ends on it.
        self.closed = threading.Event()
        self._pool = ThreadPoolExecutor(threads, initializer=self._start_thread)

    def exchange(self, endpoint: Endpoint, request: bytes) -> tuple[int, str | None, bytes]:
        """The status, ``Retry-After`` value and body of the response to
        ``request``. Raises ``OSError`` or :class:`BadResponse` when the
        exchange fails, and :class:`TransportError` once the transport is
        closed."""
        try:
            answer = self._pool.submit(self._exchange, endpoint, request)
        except RuntimeError:  # the pool has shut down
            raise TransportError("the transport is closed") from None
        try:
            return answer.result()
        except CancelledError:  # close() took it off the queue
            raise TransportError("the transport is closed") from None

    def close(self) -> None:
        """Fail the queued requests, wait for the exchanges on the wire and
        close every connection; each later request raises
        :class:`TransportError`."""
        self.closed.set()
        self._pool.shutdown(cancel_futures=True)
        for connections in self._connections:
            for connection in connections.values():
                connection.close()

    def _start_thread(self) -> None:
        self._local.connections = {}
        self._connections.append(self._local.connections)

    def _exchange(self, endpoint: Endpoint, request: bytes) -> tuple[int, str | None, bytes]:
        if self.closed.is_set():
            raise TransportError("the transport is closed")
        connections = self._local.connections
        connection = connections.pop(endpoint, None)
        # A server's idle timeout closes the socket between requests;
        # reconnecting then costs no attempt.
        if connection is not None and _dropped(connection.sock):
            connection.close()
            connection = None
        try:
            if connection is None:
                connection = _Connection(endpoint)
            connection.sock.sendall(request)
            status, retry_after, body, reusable = connection.receive()
        except BaseException:  # the caller decides what a failure costs
            if connection is not None:
                connection.close()
            raise
        if reusable:
            connections[endpoint] = connection
        else:
            connection.close()
        return status, retry_after, body


class ChatCompletionsClient:
    """Minimal OpenAI-compatible chat-completions client for one endpoint and model.

    Its requests go out on a shared :class:`Transport`, and it holds no
    connection of its own, so any number of threads may share it. The
    request head is built once, laid out as ``http.client`` lays it out;
    bearer auth comes from the ``ENSEMBLE_JUDGE_API_KEY`` environment
    variable, read at construction, when set. Connection errors, timeouts,
    unreadable responses, 429 and 5xx responses are retried with exponential
    backoff, or after the delay a 429 or 503 asks for in ``Retry-After``;
    other statuses from 300 up fail immediately since repeating them cannot
    help. A backoff wait ends at once when the transport closes, and the
    next attempt then raises :class:`TransportError`. Proxy variables are not
    read, and https verifies the server against the system trust store.
    """

    def __init__(
        self,
        endpoint_url: str,
        model_name: str,
        transport: Transport,
        *,
        sleep: Callable[[float], object] | None = None,
    ):
        url = http_url(endpoint_url)
        tls = url.scheme == "https"
        default_port = 443 if tls else 80
        port = default_port if url.port is None else url.port
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.endpoint = Endpoint(url.hostname, port, tls)
        self._transport = transport
        self._sleep = transport.closed.wait if sleep is None else sleep

        host = url.hostname if url.hostname.isascii() else url.hostname.encode("idna").decode("ascii")
        host = f"[{host}]" if ":" in host else host
        host = host if port == default_port else f"{host}:{port}"
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if api_key and re.search(r"[\x00-\x1f\x7f]", api_key):
            raise ValueError(f"{API_KEY_ENV_VAR} holds a control character")
        auth = f"Authorization: Bearer {api_key}\r\n" if api_key else ""
        # The head before and after the body's length.
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            "Content-Length: "
        ).encode("ascii")
        self._tail = f"\r\nContent-Type: application/json\r\n{auth}\r\n".encode("latin-1")

    def generate(self, prompt: str, decoding: DecodingConfig, want_logprobs: bool) -> RawGeneration:
        payload: dict = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "top_p": TOP_P,
            "seed": decoding.seed,
            "max_tokens": decoding.max_output_tokens,
        }
        if want_logprobs:
            payload["logprobs"] = True
        body = json.dumps(payload).encode("utf-8")
        request = b"%s%d%s%s" % (self._head, len(body), self._tail, body)

        last_failure, wait = "", 0.0
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(wait)
            wait = BACKOFF_BASE_S * 2**attempt
            try:
                status, retry_after, data = self._transport.exchange(self.endpoint, request)
            except (OSError, BadResponse) as exc:
                last_failure = f"transport error: {exc}"
                continue
            if status in _RETRYABLE_STATUSES:
                last_failure = f"HTTP {status}"
                if status in (429, 503):
                    wait = _retry_after(retry_after, wait)
                continue
            if status >= 300:
                raise TransportError(
                    f"{self.endpoint_url} answered HTTP {status}: "
                    f"{data.decode('utf-8', 'replace')[:200]}"
                )
            return self._parse_response(data)
        raise TransportError(
            f"{self.endpoint_url} unreachable after {MAX_ATTEMPTS} attempts "
            f"(last: {last_failure})"
        )

    def _parse_response(self, data: bytes) -> RawGeneration:
        try:
            body = json.loads(data, parse_int=_readable_int)
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise TransportError(f"malformed chat-completions envelope: {exc}") from None
        token_logprobs: tuple[tuple[str, float], ...] | None = None
        logprobs = choice.get("logprobs")
        if isinstance(logprobs, dict) and isinstance(logprobs.get("content"), list):
            # Some backends report logprobs a hair above zero; clamp to keep
            # the <= 0 invariant. A stream with missing, non-string,
            # non-finite, float-overflowing or unreadably long entries is
            # dropped wholesale so confidence falls back to the self-reported
            # value instead of poisoning the geometric mean.
            try:
                entries = [
                    (entry["token"], min(float(entry["logprob"]), 0.0))
                    for entry in logprobs["content"]
                ]
            except (KeyError, TypeError, ValueError, OverflowError):
                entries = None
            if entries is not None and all(
                isinstance(token, str) and math.isfinite(lp) for token, lp in entries
            ):
                token_logprobs = tuple(entries)
        return RawGeneration(
            text=text if isinstance(text, str) else "",
            token_logprobs=token_logprobs,
        )


def _readable_int(text: str) -> int | None:
    """A JSON integer, or None past the integer string limit: one unreadable
    number must not make the whole envelope malformed."""
    try:
        return int(text)
    except ValueError:
        return None


def _as_json_reads(text: str) -> str:
    """``text`` with each high surrogate that a low one follows joined to it,
    as JSON reads the escapes of the two back: one character."""
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def run_agent(
    spec: AgentSpec,
    decoding: DecodingConfig,
    record: DisclosureRecord,
    client: ChatCompletionsClient,
) -> AgentOutput:
    """Query one agent about one disclosure and apply the retry/fallback protocol.

    First schema violation: retried once with the identical prompt and
    decoding. Second violation: a (neutral, 0.0) fallback output is returned
    and kept in the dataset. Transport errors propagate as
    :class:`TransportError` after the client's backoff is exhausted; no
    output is ever fabricated for them.
    """
    if not record.clean_text:
        raise ValueError(f"record {record.id!r} has no clean_text; preprocess first")

    prompt = render_prompt(spec.lens, record.clean_text)
    label, confidence, rationale = SentimentLabel.NEUTRAL, 0.0, ""
    source = ConfidenceSource.FALLBACK
    for attempt in (0, 1):
        raw = client.generate(prompt, decoding, spec.supports_logprobs)
        try:
            parsed = parse_output(raw)
        except SchemaViolation:
            continue
        label, rationale = parsed.label, parsed.rationale
        label_lps = (
            label_logprobs_for_span(raw.token_logprobs, parsed.label_span)
            if spec.supports_logprobs and raw.token_logprobs and parsed.label_span
            else []
        )
        if label_lps:
            confidence, source = confidence_from_logprobs(label_lps), ConfidenceSource.TOKEN_LOGPROB
        else:
            confidence = clip_confidence(parsed.self_confidence)
            source = ConfidenceSource.SELF_REPORTED
        break

    return AgentOutput(
        disclosure_id=record.id,
        agent=spec.lens,
        label=label,
        confidence=confidence,
        rationale=_as_json_reads(rationale),
        confidence_source=source,
        model_name=spec.model_name,
        prompt_hash=prompt_digests(spec.lens, [record.clean_text])[0].hex(),
        seed=decoding.seed,
        raw_json=_as_json_reads(raw.text),
        retry_count=attempt,
    )
