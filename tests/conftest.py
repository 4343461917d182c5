"""Shared fixtures: agent-output factory, a scripted chat endpoint and the
characters that JSON-lines byte tests put in their strings."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ensemble_judge.domain import AgentOutput, ConfidenceSource, Lens, SentimentLabel

# Characters a JSON text holds escaped (a quote, a backslash, a control
# character) or, without ensure_ascii, as they are (é, a non-BMP character).
AWKWARD_CHARACTERS = ("é", '"', "\\", "\x01", "\U0001f600")


def make_output(
    lens: Lens = Lens.PERFORMANCE,
    label: SentimentLabel = SentimentLabel.POSITIVE,
    confidence: float = 0.5,
    disclosure_id: str = "d1",
    source: ConfidenceSource = ConfidenceSource.SELF_REPORTED,
    retry_count: int = 0,
) -> AgentOutput:
    return AgentOutput(
        disclosure_id=disclosure_id,
        agent=lens,
        label=label,
        confidence=confidence,
        rationale="Test rationale.",
        confidence_source=source,
        model_name="test-model",
        prompt_hash="0" * 64,
        seed=42,
        raw_json=json.dumps(
            {"label": label.as_string(), "rationale": "Test rationale.", "confidence": confidence}
        ),
        retry_count=retry_count,
    )


def make_triple(labels, confidences, disclosure_id: str = "d1") -> list[AgentOutput]:
    """One output per lens in fixed order from raw label codes and confidences."""
    return [
        make_output(
            lens=lens,
            label=SentimentLabel(code),
            confidence=conf,
            disclosure_id=disclosure_id,
        )
        for lens, code, conf in zip(
            (Lens.PERFORMANCE, Lens.GUIDANCE, Lens.RISK), labels, confidences
        )
    ]


class ScriptedChatEndpoint:
    """Minimal OpenAI-compatible endpoint driven by a scripting callback.

    ``script(prompt, call_index)`` returns ``(status, payload)`` where payload
    is the JSON body to serve (or a raw string for malformed bodies), or
    ``(status, payload, headers)`` to add response headers; ``call_index``
    counts calls seen for that exact prompt, so tests can make the first
    attempt fail and the retry succeed. Each request's payload and headers
    are recorded in arrival order, and so is all of it as it arrived
    (``received``: method, target, header fields and body bytes).
    ``peak_in_service`` is the most requests that were ever read and not
    yet answered at once.
    """

    def __init__(self, script):
        self.script = script
        self.lock = threading.Lock()
        self.calls_by_prompt: dict[str, int] = {}
        self.requests: list[dict] = []
        self.headers: list[dict[str, str]] = []
        self.received: list[tuple[str, str, list[tuple[str, str]], bytes]] = []
        self.in_service = self.peak_in_service = 0
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                sent = self.rfile.read(length)
                payload = json.loads(sent.decode("utf-8"))
                prompt = payload["messages"][0]["content"]
                with endpoint.lock:
                    index = endpoint.calls_by_prompt.get(prompt, 0)
                    endpoint.calls_by_prompt[prompt] = index + 1
                    endpoint.requests.append(payload)
                    endpoint.headers.append(dict(self.headers))
                    endpoint.received.append((self.command, self.path, self.headers.items(), sent))
                    endpoint.in_service += 1
                    endpoint.peak_in_service = max(endpoint.peak_in_service, endpoint.in_service)
                try:
                    status, body, *extra = endpoint.script(prompt, index)
                finally:
                    # Before the first response byte: the client that sent this
                    # request is still waiting for it.
                    with endpoint.lock:
                        endpoint.in_service -= 1
                raw = body if isinstance(body, (bytes, str)) else json.dumps(body)
                if isinstance(raw, str):
                    raw = raw.encode("utf-8")
                self.send_response(status)
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def log_message(self, *args):  # silence test output
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll, so stop() does not wait out serve_forever's 0.5 s default.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def start(self) -> "ScriptedChatEndpoint":
        self.thread.start()
        return self

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def chat_endpoint():
    """Factory fixture: start a scripted endpoint, stop it on teardown."""
    endpoints: list[ScriptedChatEndpoint] = []

    def _make(script) -> ScriptedChatEndpoint:
        ep = ScriptedChatEndpoint(script).start()
        endpoints.append(ep)
        return ep

    yield _make
    for ep in endpoints:
        ep.stop()


def completion_body(content: str, token_logprobs=None) -> dict:
    """A chat-completions response envelope around generated text."""
    choice: dict = {"index": 0, "message": {"role": "assistant", "content": content}}
    if token_logprobs is not None:
        choice["logprobs"] = {
            "content": [{"token": tok, "logprob": lp} for tok, lp in token_logprobs]
        }
    return {"id": "cmpl-test", "object": "chat.completion", "choices": [choice]}


def agent_json(label: str, rationale: str = "One sentence.", confidence: float = 0.8) -> str:
    return json.dumps({"label": label, "rationale": rationale, "confidence": confidence})
