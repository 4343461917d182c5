"""Mock OpenAI-compatible chat endpoint for the ``http-agents-2k`` workload.

Runs as its own process so its CPU time is not charged to the pipeline.
Each prompt is answered with exactly the stub agent's JSON for that
(lens, disclosure), after a fixed service latency. A deterministic fault
schedule keyed on the prompt hash injects schema violations and 503s in
fixed shares, so every seed costs the client the same number of retries
and backoffs.

Every response goes out in a single socket write: headers and body written
separately stall a keep-alive client on Nagle's algorithm plus delayed ACK
(~45 ms per request on loopback), which would measure the mock, not the
pipeline.

Usage (the benchmark starts it; stdin closing stops it)::

    python3 perfbench/mock_endpoint.py --src SRC --prepared P --latents L \
        --seed N --table-out T

It prints ``listening <port>`` once serving. ``GET /_stats`` returns the
request counters, ``POST /_reset`` clears them and the per-prompt attempts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from collections import deque
from enum import Enum
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterable


class Fault(str, Enum):
    NONE = "none"
    ONE_VIOLATION = "one_violation"  # invalid, then valid: one schema retry
    TWO_VIOLATIONS = "two_violations"  # invalid twice: the agent falls back
    ONE_503 = "one_503"  # one 503, then valid: one transport retry + backoff


# Share of prompts that get each fault.
FAULT_SHARES = (
    (Fault.TWO_VIOLATIONS, 0.005),
    (Fault.ONE_VIOLATION, 0.02),
    (Fault.ONE_503, 0.002),
)

VIOLATION_TEXT = "I would rather not answer in JSON today."
LATENCY_S = 0.005  # fixed service time of every chat request


def fault_schedule(prompt_hashes: Iterable[str], seed: int) -> dict[str, Fault]:
    """Faults for the prompts ranked first by a seeded hash of their prompt hash.

    Exact shares of the prompt set, not independent draws, so the number of
    requests, retries and backoffs is the same for every seed. Depends only
    on the set of hashes and the seed, not on their order.
    """

    def rank(phash: str) -> bytes:
        return hashlib.sha256(f"fault:{seed}:{phash}".encode("ascii")).digest()

    ranked = sorted(set(prompt_hashes), key=rank)
    schedule = dict.fromkeys(ranked, Fault.NONE)
    start = 0
    for fault, share in FAULT_SHARES:
        count = round(share * len(ranked))
        schedule.update(dict.fromkeys(ranked[start : start + count], fault))
        start += count
    return schedule


def response_for(fault: Fault, attempt: int, stub_json: str) -> tuple[int, str | None]:
    """(status, generated text) for the ``attempt``-th request of a prompt.

    The text is None for a 503. Attempts past a fault's script answer validly.
    """
    if fault is Fault.ONE_503 and attempt == 0:
        return 503, None
    if fault is Fault.ONE_VIOLATION and attempt == 0:
        return 200, VIOLATION_TEXT
    if fault is Fault.TWO_VIOLATIONS and attempt <= 1:
        return 200, VIOLATION_TEXT
    return 200, stub_json


def frame(status: int, body: bytes) -> bytes:
    """One complete HTTP/1.1 response: status line, headers and body."""
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def completion_body(text: str) -> bytes:
    return json.dumps(
        {
            "id": "cmpl-mock",
            "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
        }
    ).encode("utf-8")


class MockState:
    """Answer table, per-prompt attempt counts and request statistics."""

    def __init__(self, table: dict[str, str], seed: int, latency_s: float):
        self.table = table
        self.faults = fault_schedule(table, seed)
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts: dict[str, int] = {}
            self.by_status: dict[str, int] = {}
            self.turnaround_s: list[float] = []
            self.unanswered: deque[float] = deque()
            self.service_s = 0.0
            self.first_arrival: float | None = None
            self.last_sent: float | None = None

    def next_attempt(self, phash: str) -> int:
        with self.lock:
            attempt = self.attempts.get(phash, 0)
            self.attempts[phash] = attempt + 1
            return attempt

    def arrive(self, arrived: float) -> None:
        """Pair a request with the oldest response no request has followed yet.

        The client is a closed loop: each response it reads is followed by
        its next request, on whichever of its connections that agent uses,
        so the gap is the client-side cost of one request.
        """
        with self.lock:
            if self.unanswered:
                self.turnaround_s.append(arrived - self.unanswered.popleft())

    def record(self, status: int, arrived: float, sent: float) -> None:
        with self.lock:
            key = str(status)
            self.by_status[key] = self.by_status.get(key, 0) + 1
            self.unanswered.append(sent)
            self.service_s += sent - arrived
            if self.first_arrival is None or arrived < self.first_arrival:
                self.first_arrival = arrived
            if self.last_sent is None or sent > self.last_sent:
                self.last_sent = sent

    def stats(self) -> dict:
        with self.lock:
            window = (
                self.last_sent - self.first_arrival
                if self.first_arrival is not None and self.last_sent is not None
                else 0.0
            )
            return {
                "requests": sum(self.by_status.values()),
                "by_status": dict(self.by_status),
                "turnaround_s": list(self.turnaround_s),
                # Time-weighted mean of requests in service over the busy window.
                "in_flight_mean": self.service_s / window if window > 0 else 0.0,
            }


def make_handler(state: MockState) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.arrived = 0.0

        def parse_request(self) -> bool:  # called right after the request line is read
            self.arrived = time.perf_counter()
            return super().parse_request()

        def _send(self, status: int, body: bytes) -> None:
            self.wfile.write(frame(status, body))

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path != "/_stats":
                self._send(404, b"{}")
                return
            self._send(200, json.dumps(state.stats()).encode("utf-8"))

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            if self.path == "/_reset":
                state.reset()
                self._send(200, b"{}")
                return
            state.arrive(self.arrived)
            prompt = json.loads(body)["messages"][0]["content"]
            phash = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            stub_json = state.table.get(phash)
            if stub_json is None:
                status, payload = 404, json.dumps({"error": "unknown prompt"}).encode("utf-8")
            else:
                fault = state.faults[phash]
                status, text = response_for(fault, state.next_attempt(phash), stub_json)
                payload = b'{"error": "overloaded"}' if text is None else completion_body(text)
            time.sleep(state.latency_s)
            self._send(status, payload)
            state.record(status, self.arrived, time.perf_counter())

        def log_message(self, *args: object) -> None:
            pass

    return Handler


class MockServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        # A client that goes away mid-request is not a mock failure.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def build_table(src: Path, prepared: Path, latents: Path) -> dict[str, str]:
    """prompt hash -> the stub agent's raw JSON, for every (record, lens)."""
    sys.path.insert(0, str(src))
    from ensemble_judge.domain import LENS_ORDER
    from ensemble_judge.pipeline import load_prepared
    from ensemble_judge.synth import load_latents, stub_agent

    lat = load_latents(latents)
    table: dict[str, str] = {}
    for record in load_prepared(prepared):
        for lens in LENS_ORDER:
            out = stub_agent(lens, record, lat)
            table[out.prompt_hash] = out.raw_json
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--prepared", type=Path, required=True)
    parser.add_argument("--latents", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--table-out", type=Path, required=True)
    args = parser.parse_args()

    table = build_table(args.src, args.prepared, args.latents)
    args.table_out.write_text(json.dumps(table), encoding="utf-8")
    state = MockState(table, args.seed, LATENCY_S)
    server = MockServer(("127.0.0.1", 0), make_handler(state))

    def _stop_on_eof() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=_stop_on_eof, daemon=True).start()
    print(f"listening {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
