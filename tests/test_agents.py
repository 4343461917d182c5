import json
import math
import os
import socket
import ssl
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensemble_judge import agents
from ensemble_judge.agents import (
    AgentSpec,
    ChatCompletionsClient,
    DecodingConfig,
    RawGeneration,
    SchemaViolation,
    Transport,
    TransportError,
    ViolationCategory,
    clip_confidence,
    confidence_from_logprobs,
    extract_json_object,
    label_logprobs_for_span,
    parse_output,
    render_prompt,
    run_agent,
)
from ensemble_judge.domain import ConfidenceSource, DisclosureRecord, Lens, SentimentLabel
from ensemble_judge.ingest import PreparedKeys
from tests import oracles
from tests.conftest import agent_json, completion_body
from tests.oracles import prompt_hash

DECODING = DecodingConfig(seed=42, max_output_tokens=64)


def raw(text, logprobs=None):
    return RawGeneration(text=text, token_logprobs=logprobs)


def disclosure(rid="d1", clean="Quarterly results improved."):
    return DisclosureRecord(
        id=rid,
        timestamp=datetime(2020, 5, 1, tzinfo=timezone.utc),
        ticker="ACME",
        raw_text=clean,
        clean_text=clean,
        next_day_return=0.01,
    )


_TRANSPORTS: list[Transport] = []


def _transport(threads=1):
    """A transport that the autouse fixture below closes after the test."""
    _TRANSPORTS.append(Transport(threads))
    return _TRANSPORTS[-1]


@pytest.fixture(autouse=True)
def _close_transports():
    yield
    while _TRANSPORTS:
        _TRANSPORTS.pop().close()


def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def spec_for(url, supports_logprobs=True, lens=Lens.PERFORMANCE):
    return AgentSpec(
        lens=lens, model_name="test-model", endpoint_url=url, supports_logprobs=supports_logprobs
    )


class TestRenderPrompt:
    def test_performance_prompt_prefix(self):
        p = render_prompt(Lens.PERFORMANCE, "X")
        assert p.startswith(
            "Read the corporate disclosure below. Focus on realized operating performance"
        )
        assert p.endswith("Disclosure: X")

    def test_guidance_prompt_scope(self):
        assert "forward guidance, management outlook" in render_prompt(Lens.GUIDANCE, "X")

    def test_risk_prompt_scope(self):
        assert "litigation, regulation, liquidity" in render_prompt(Lens.RISK, "X")

    def test_shared_output_contract(self):
        for lens in Lens:
            p = render_prompt(lens, "X")
            assert 'Output exactly three fields in JSON format: {"label": ..., "rationale": ..., "confidence": ...}' in p
            assert "confidence must be a number between 0 and 1" in p

    def test_deterministic_bytes_and_hash(self):
        a = render_prompt(Lens.RISK, "Some text")
        b = render_prompt(Lens.RISK, "Some text")
        assert a == b
        assert prompt_hash(a) == prompt_hash(b)
        assert prompt_hash(a) != prompt_hash(render_prompt(Lens.RISK, "Other text"))


class TestParseOutput:
    def test_well_formed(self):
        parsed = parse_output(raw('{"label":"positive","rationale":"Strong beat.","confidence":0.8}'))
        assert parsed.label is SentimentLabel.POSITIVE
        assert parsed.rationale == "Strong beat."
        assert parsed.self_confidence == 0.8

    def test_bad_label_category(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw(agent_json("bullish")))
        assert exc.value.category is ViolationCategory.BAD_LABEL

    def test_surrounding_prose_tolerated(self):
        text = 'Sure! {"label":"neutral","rationale":"Routine.","confidence":0.5} Hope that helps.'
        parsed = parse_output(raw(text))
        assert parsed.label is SentimentLabel.NEUTRAL
        assert parsed.rationale == "Routine."

    def test_extraction_matches_brace_scan_oracle(self):
        text = 'prefix {"label":"negative","rationale":"Q} brace {inside.","confidence":0.3} suffix'
        assert extract_json_object(text) == oracles.extract_json_object(text)
        parsed = parse_output(raw(text))
        assert parsed.label is SentimentLabel.NEGATIVE
        assert parsed.rationale == "Q} brace {inside."

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet='{}"\\a', max_size=80))
    @example('{"\\a"}')  # an escape that a plain character resolves
    @example('{"\\{"}')  # ... that a brace resolves
    @example('{"\\}"} {}')
    @example('{"\\""}')  # ... that a quote resolves
    @example('{"\\\\"}')  # ... that a backslash resolves
    @example('{"\\')  # a backslash as the last character
    @example('a{"{"}')  # the first ``{`` closes while a later scan is open
    def test_extraction_takes_the_first_brace_whose_scan_balances(self, text):
        assert extract_json_object(text) == oracles.extract_json_object(text)

    @pytest.mark.parametrize(
        "flood", ["'{' * 200_000", r"""'{"\\"' * 50_000"""], ids=["braces", "string-state"]
    )
    def test_extraction_is_linear_in_a_flood_of_braces_that_never_close(self, flood):
        """A scan from each ``{`` to the end of the text would take hours on
        these; the child process gets 20 s."""
        src = str(Path(agents.__file__).resolve().parents[1])
        code = f"from ensemble_judge.agents import extract_json_object as x; assert x({flood}) is None"
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            timeout=20,
            check=True,
        )

    def test_missing_key(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw('{"label":"positive","confidence":0.8}'))
        assert exc.value.category is ViolationCategory.MISSING_KEY

    def test_extra_keys_violation(self):
        text = '{"label":"positive","rationale":"r","confidence":0.8,"mood":"great"}'
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw(text))
        assert exc.value.category is ViolationCategory.EXTRA_KEYS

    def test_no_json(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw("I cannot answer that."))
        assert exc.value.category is ViolationCategory.NO_JSON

    def test_balanced_but_unparsable(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw("{'label': oops}"))
        assert exc.value.category is ViolationCategory.NO_JSON

    def test_numeric_string_confidence_accepted(self):
        parsed = parse_output(raw('{"label":"positive","rationale":"r","confidence":"0.8"}'))
        assert parsed.self_confidence == 0.8

    @pytest.mark.parametrize("conf", ["high", "true", "[]"])
    def test_unparsable_confidence(self, conf):
        text = '{"label":"positive","rationale":"r","confidence":%s}' % json.dumps(conf)
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw(text))
        assert exc.value.category is ViolationCategory.BAD_CONFIDENCE

    def test_boolean_confidence_rejected(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw('{"label":"positive","rationale":"r","confidence":true}'))
        assert exc.value.category is ViolationCategory.BAD_CONFIDENCE

    def test_non_finite_confidence_rejected(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw('{"label":"positive","rationale":"r","confidence":NaN}'))
        assert exc.value.category is ViolationCategory.BAD_CONFIDENCE

    def test_integer_confidence_too_large_for_a_float(self):
        text = '{"label":"positive","rationale":"r","confidence":%s}' % ("9" * 401)
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw(text))
        assert exc.value.category is ViolationCategory.BAD_CONFIDENCE

    @pytest.mark.parametrize(
        "text",
        [
            # Past Python's 4,300-digit limit for reading an integer.
            '{"label":"positive","rationale":"r","confidence":%s}' % ("9" * 5000),
            # Past the recursion limit of the JSON reader.
            '{"label":%s"positive"%s,"rationale":"r","confidence":0.5}'
            % ("[" * 100_000, "]" * 100_000),
        ],
        ids=["confidence-of-5000-digits", "label-nested-100000-deep"],
    )
    def test_object_python_cannot_read_is_no_json(self, text):
        with pytest.raises(SchemaViolation) as exc:
            parse_output(raw(text))
        assert exc.value.category is ViolationCategory.NO_JSON

    def test_label_span_covers_value(self):
        text = 'note {"label": "positive", "rationale": "r", "confidence": 0.5}'
        parsed = parse_output(raw(text))
        lo, hi = parsed.label_span
        assert text[lo:hi] == "positive"


class TestConfidenceFromLogprobs:
    def test_equal_probabilities(self):
        assert confidence_from_logprobs([math.log(0.5), math.log(0.5)]) == pytest.approx(0.5, abs=1e-12)

    def test_certain_single_token(self):
        assert confidence_from_logprobs([0.0]) == 1.0

    def test_hand_evaluated_geometric_mean(self):
        # exp((ln .9 + ln .4) / 2) = sqrt(.36) = .6
        got = confidence_from_logprobs([math.log(0.9), math.log(0.4)])
        assert got == pytest.approx(0.6, abs=1e-12)

    def test_empty_list_errors(self):
        with pytest.raises(ValueError):
            confidence_from_logprobs([])

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            confidence_from_logprobs([0.1])

    @given(st.lists(st.floats(min_value=-30, max_value=0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant_and_in_range(self, lps):
        value = confidence_from_logprobs(lps)
        assert 0.0 <= value <= 1.0
        assert confidence_from_logprobs(list(reversed(lps))) == pytest.approx(value, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=-10, max_value=-0.01), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.001, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_each_entry(self, lps, idx, bump):
        idx = idx % len(lps)
        bumped = list(lps)
        bumped[idx] = min(0.0, bumped[idx] + bump)
        if bumped[idx] > lps[idx]:
            assert confidence_from_logprobs(bumped) > confidence_from_logprobs(lps)


class TestClipConfidence:
    @pytest.mark.parametrize("value,expected", [(1.3, 1.0), (-0.2, 0.0), (0.7, 0.7)])
    def test_clipping(self, value, expected):
        assert clip_confidence(value) == expected

    def test_non_finite_is_schema_violation(self):
        with pytest.raises(SchemaViolation):
            clip_confidence(float("inf"))


class TestLabelLogprobSpan:
    def test_overlapping_tokens_selected(self):
        text = '{"label": "positive", "rationale": "r", "confidence": 0.5}'
        chunk = 4
        tokens = [
            (text[pos : pos + chunk], -0.01 * (pos // chunk + 1))
            for pos in range(0, len(text), chunk)
        ]
        lo = text.index("positive")
        span = (lo, lo + len("positive"))
        # "positive" covers chars 11..19, i.e. 4-char tokens 2, 3, and 4.
        assert label_logprobs_for_span(tokens, span) == [
            tokens[2][1],
            tokens[3][1],
            tokens[4][1],
        ]

    def test_empty_when_span_beyond_stream(self):
        assert label_logprobs_for_span([("ab", -0.1)], (10, 14)) == []


class TestRunAgentProtocol:
    def test_happy_path_with_logprobs(self, chat_endpoint):
        content = agent_json("positive", confidence=0.9)
        lo = content.index("positive")
        tokens = [
            (content[:lo], -0.001),
            ("posit", math.log(0.9)),
            ("ive", math.log(0.4)),
            (content[lo + 8 :], -0.002),
        ]
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(content, tokens)))
        out = run_agent(spec_for(ep.url), DECODING, disclosure(), client=_client(ep))
        assert out.retry_count == 0
        assert out.confidence_source is ConfidenceSource.TOKEN_LOGPROB
        # geometric mean over the two label tokens: sqrt(0.9 * 0.4) = 0.6
        assert out.confidence == pytest.approx(0.6, abs=1e-12)
        assert out.label is SentimentLabel.POSITIVE
        assert out.raw_json == content

    def test_self_reported_when_no_logprobs(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(agent_json("negative", confidence=1.7))))
        out = run_agent(
            spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=_client(ep)
        )
        assert out.confidence_source is ConfidenceSource.SELF_REPORTED
        assert out.confidence == 1.0  # clipped
        assert out.label is SentimentLabel.NEGATIVE

    def test_single_retry_then_success(self, chat_endpoint):
        def script(prompt, i):
            if i == 0:
                return 200, completion_body("no json here")
            return 200, completion_body(agent_json("neutral", confidence=0.4))

        ep = chat_endpoint(script)
        out = run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=_client(ep))
        assert out.retry_count == 1
        assert out.label is SentimentLabel.NEUTRAL
        assert out.confidence == pytest.approx(0.4)
        assert list(ep.calls_by_prompt.values()) == [2]

    def test_double_failure_yields_fallback(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (200, completion_body("still not json")))
        out = run_agent(spec_for(ep.url), DECODING, disclosure(), client=_client(ep))
        assert out.label is SentimentLabel.NEUTRAL
        assert out.confidence == 0.0
        assert out.confidence_source is ConfidenceSource.FALLBACK
        assert out.retry_count == 1
        assert out.rationale == ""
        # exactly one retry: two requests total
        assert list(ep.calls_by_prompt.values()) == [2]

    def test_retry_uses_identical_request(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (200, completion_body("nope")))
        run_agent(spec_for(ep.url), DECODING, disclosure(), client=_client(ep))
        first, second = ep.requests
        assert first == second
        assert first["temperature"] == 0.0 and first["top_p"] == 1.0 and first["seed"] == 42

    def test_transport_backoff_then_success(self, chat_endpoint):
        def script(prompt, i):
            if i < 2:
                return 503, {"error": "busy"}
            return 200, completion_body(agent_json("positive"))

        ep = chat_endpoint(script)
        sleeps = []
        client = ChatCompletionsClient(ep.url, "test-model", _transport(), sleep=sleeps.append)
        out = run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=client)
        assert out.label is SentimentLabel.POSITIVE
        assert sleeps == [0.5, 1.0]  # exponential backoff between attempts

    @pytest.mark.parametrize(
        "status, retry_after, waits",
        [
            (503, "7", [7.0, 7.0]),
            (429, " 0 ", [0.0, 0.0]),
            (429, "86400", [60.0, 60.0]),  # capped at RETRY_AFTER_MAX_S
            (503, "Fri, 31 Dec 1999 23:59:59 GMT", [0.5, 1.0]),  # an HTTP date is not read
            (503, "1.5", [0.5, 1.0]),  # delay-seconds are whole
            (500, "7", [0.5, 1.0]),  # only a 429 or a 503 sets the pace
        ],
    )
    def test_retry_after_paces_the_retries(self, chat_endpoint, status, retry_after, waits):
        def script(prompt, i):
            if i < 2:
                return status, {"error": "busy"}, {"Retry-After": retry_after}
            return 200, completion_body(agent_json("positive"))

        ep = chat_endpoint(script)
        sleeps = []
        client = ChatCompletionsClient(ep.url, "test-model", _transport(), sleep=sleeps.append)
        out = run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=client)
        assert out.label is SentimentLabel.POSITIVE
        assert sleeps == waits

    def test_requests_go_out_in_the_order_they_were_queued(self, chat_endpoint):
        release = threading.Event()

        def script(prompt, i):
            if prompt == "holder":
                release.wait(timeout=5)
            return 200, completion_body(agent_json("neutral"))

        ep = chat_endpoint(script)
        transport = _transport(1)
        client = ChatCompletionsClient(ep.url, "test-model", transport)
        callers = []
        for queued, prompt in enumerate(("holder", "first", "second", "third")):
            callers.append(
                threading.Thread(target=client.generate, args=(prompt, DECODING, False), daemon=True)
            )
            callers[-1].start()
            # The holder is on the wire, and each later prompt waits behind it.
            _until(lambda: ep.requests and len(transport._queue) == queued)
        release.set()
        for caller in callers:
            caller.join(timeout=5)
        assert not any(caller.is_alive() for caller in callers)
        sent = [request["messages"][0]["content"] for request in ep.requests]
        assert sent == ["holder", "first", "second", "third"]

    def test_no_more_exchanges_at_once_than_threads(self, chat_endpoint):
        """Eight callers on three transport threads: never more than three
        requests in service, every caller gets its own answers, and all three
        threads still serve at the end."""
        barrier = {"at_once": None}

        def script(prompt, i):
            if barrier["at_once"] is not None:
                barrier["at_once"].wait()
            else:
                time.sleep(0.001)
            return 200, completion_body(agent_json("neutral", rationale=prompt))

        ep = chat_endpoint(script)
        client = ChatCompletionsClient(ep.url, "test-model", _transport(3))
        answers = {}

        def call(name, count):
            answers[name] = [
                json.loads(client.generate(f"{name} {k}", DECODING, False).text)["rationale"]
                for k in range(count)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [
                threading.Thread(target=call, args=(f"caller {c}", 25), daemon=True)
                for c in range(8)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert answers == {f"caller {c}": [f"caller {c} {k}" for k in range(25)] for c in range(8)}
        assert 2 <= ep.peak_in_service <= 3
        barrier["at_once"] = threading.Barrier(3, timeout=5)
        callers = [
            threading.Thread(target=call, args=(f"last {c}", 1), daemon=True) for c in range(3)
        ]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=10)
        assert not any(caller.is_alive() for caller in callers)
        assert not barrier["at_once"].broken

    def test_a_backoff_holds_no_transport_thread(self, chat_endpoint):
        ep = chat_endpoint(
            lambda prompt, i: (503, {}, {"Retry-After": "1"}) if prompt == "backs off" and i == 0
            else (200, completion_body(agent_json("positive")))
        )
        transport = _transport(1)
        other = ChatCompletionsClient(ep.url, "test-model", transport)
        answered = []

        def sleep(seconds):
            caller = threading.Thread(
                target=lambda: answered.append(other.generate("other", DECODING, False).text),
                daemon=True,
            )
            caller.start()
            caller.join(timeout=2)

        client = ChatCompletionsClient(ep.url, "test-model", transport, sleep=sleep)
        assert client.generate("backs off", DECODING, False).text == agent_json("positive")
        assert answered == [agent_json("positive")]

    def test_closing_the_transport_ends_a_backoff_at_once(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (503, {}, {"Retry-After": "30"}))
        transport = Transport(1)
        client = ChatCompletionsClient(ep.url, "test-model", transport)
        failed = []

        def call():
            with pytest.raises(TransportError, match="closed") as caught:
                client.generate("Prompt.", DECODING, False)
            failed.append(caught.value)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        _until(lambda: ep.requests)
        started = time.monotonic()
        transport.close()
        caller.join(timeout=5)
        assert len(failed) == 1 and time.monotonic() - started < 2
        assert len(ep.requests) == 1

    def test_a_closed_transport_fails_its_queued_and_later_requests(self, chat_endpoint):
        """One thread: the request on the wire when the transport closes gets
        its answer; the one queued behind it and those made after the close
        began and after it ended raise TransportError, never a pool's
        CancelledError or RuntimeError."""
        release = threading.Event()

        def script(prompt, i):
            if prompt == "on the wire":
                release.wait(timeout=5)
            return 200, completion_body(agent_json("neutral"))

        ep = chat_endpoint(script)
        transport = Transport(1)
        client = ChatCompletionsClient(ep.url, "test-model", transport)
        outcomes = {}

        def call(prompt):
            try:
                outcomes[prompt] = client.generate(prompt, DECODING, False).text
            except Exception as exc:  # the test reads its type
                outcomes[prompt] = exc

        callers = [threading.Thread(target=call, args=("on the wire",), daemon=True)]
        callers[0].start()
        _until(lambda: ep.requests)
        callers.append(threading.Thread(target=call, args=("queued",), daemon=True))
        callers[1].start()
        _until(lambda: len(transport._queue) == 1)
        closer = threading.Thread(target=transport.close, daemon=True)
        closer.start()
        _until(transport.closed.is_set)
        call("after the close")
        release.set()
        for thread in (*callers, closer):
            thread.join(timeout=5)
            assert not thread.is_alive()
        call("after the close ended")
        assert outcomes["on the wire"] == agent_json("neutral")
        for prompt in ("queued", "after the close", "after the close ended"):
            assert type(outcomes[prompt]) is TransportError, outcomes[prompt]
            assert "closed" in str(outcomes[prompt])
        assert [request["messages"][0]["content"] for request in ep.requests] == ["on the wire"]

    def test_transport_exhaustion_fails_loudly(self, chat_endpoint, monkeypatch):
        monkeypatch.setattr(agents, "MAX_ATTEMPTS", 3)
        ep = chat_endpoint(lambda prompt, i: (500, {"error": "down"}))
        client = ChatCompletionsClient(ep.url, "test-model", _transport(), sleep=lambda s: None)
        with pytest.raises(TransportError, match="after 3 attempts"):
            run_agent(spec_for(ep.url), DECODING, disclosure(), client=client)

    def test_client_error_fails_immediately(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (401, {"error": "no auth"}))
        client = ChatCompletionsClient(ep.url, "test-model", _transport(), sleep=lambda s: None)
        with pytest.raises(TransportError, match="401"):
            run_agent(spec_for(ep.url), DECODING, disclosure(), client=client)
        assert list(ep.calls_by_prompt.values()) == [1]

    def test_bearer_token_from_environment(self, chat_endpoint, monkeypatch):
        monkeypatch.setenv("ENSEMBLE_JUDGE_API_KEY", "sk-test-123")
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(agent_json("neutral"))))
        run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=_client(ep))
        assert [h.get("Authorization") for h in ep.headers] == ["Bearer sk-test-123"]

    def test_requires_clean_text(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(agent_json("neutral"))))
        bare = disclosure()
        bare = DisclosureRecord(
            id=bare.id,
            timestamp=bare.timestamp,
            ticker=bare.ticker,
            raw_text=bare.raw_text,
            clean_text="",
            next_day_return=bare.next_day_return,
        )
        with pytest.raises(ValueError, match="clean_text"):
            run_agent(spec_for(ep.url), DECODING, bare, client=_client(ep))

    @pytest.mark.parametrize(
        "bad_entry",
        [
            {"logprob": float("nan")},
            {"logprob": None},
            {"token": None},
            {"token": 5},
            {"logprob": -(10**400)},
        ],
        ids=["nan", "None", "token-null", "token-5", "too-large-for-a-float"],
    )
    def test_degenerate_logprobs_fall_back_to_self_reported(self, chat_endpoint, bad_entry):
        content = agent_json("positive", confidence=0.8)
        entry = (bad_entry.get("token", content), bad_entry.get("logprob", -0.1))
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(content, [entry])))
        out = run_agent(spec_for(ep.url), DECODING, disclosure(), client=_client(ep))
        assert out.confidence_source is ConfidenceSource.SELF_REPORTED
        assert out.confidence == pytest.approx(0.8)

    def test_a_label_logprob_a_hair_above_zero_is_clamped_to_zero(self, chat_endpoint):
        content = agent_json("positive", confidence=0.8)
        lo = content.index("positive")
        tokens = [(content[:lo], -0.001), ("positive", 1e-6), (content[lo + 8 :], -0.002)]
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(content, tokens)))
        out = run_agent(spec_for(ep.url), DECODING, disclosure(), client=_client(ep))
        assert out.confidence_source is ConfidenceSource.TOKEN_LOGPROB
        assert out.confidence == 1.0

    def test_envelope_nested_past_the_recursion_limit_is_a_transport_error(self, chat_endpoint):
        body = '{"choices": %s}' % ("[" * 100_000 + "]" * 100_000)
        ep = chat_endpoint(lambda prompt, i: (200, body))
        with pytest.raises(TransportError, match="malformed chat-completions envelope"):
            run_agent(spec_for(ep.url), DECODING, disclosure(), client=_client(ep))

    @pytest.mark.parametrize("sign", ["-", ""])
    def test_a_logprob_past_the_integer_digit_limit_drops_only_the_stream(self, sign):
        """A number json cannot turn into an int is an unreadable entry, not a
        malformed envelope; elsewhere in the body it is ignored."""
        content = agent_json("positive", confidence=0.8)
        entry = '{"token": %s, "logprob": %s%s}' % (json.dumps(content), sign, "7" * 5_000)
        body = (
            '{"choices": [{"message": {"content": %s}, "logprobs": {"content": [%s]}}], '
            '"usage": {"total_tokens": %s}}' % (json.dumps(content), entry, "9" * 5_000)
        )
        parsed = ChatCompletionsClient("http://localhost:1/v1", "m", _transport())._parse_response(
            body.encode()
        )
        assert parsed == RawGeneration(text=content, token_logprobs=None)

    def test_pure_function_of_inputs_for_deterministic_server(self, chat_endpoint):
        content = agent_json("positive", confidence=0.8)
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(content)))
        spec = spec_for(ep.url, supports_logprobs=False)
        first = run_agent(spec, DECODING, disclosure(), client=_client(ep))
        second = run_agent(spec, DECODING, disclosure(), client=_client(ep))
        assert first == second

    def test_logprob_request_flag_follows_spec(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(agent_json("neutral"))))
        run_agent(spec_for(ep.url, supports_logprobs=True), DECODING, disclosure(), client=_client(ep))
        assert ep.requests[0].get("logprobs") is True
        ep2 = chat_endpoint(lambda prompt, i: (200, completion_body(agent_json("neutral"))))
        run_agent(spec_for(ep2.url, supports_logprobs=False), DECODING, disclosure(), client=_client(ep2))
        assert "logprobs" not in ep2.requests[0]


def _client(ep):
    return ChatCompletionsClient(ep.url, "test-model", _transport(), sleep=lambda s: None)


def _held_endpoint(chat_endpoint, release):
    """An endpoint that answers each prompt with itself as the rationale, and
    holds the answer to ``"held"`` until ``release`` is set."""

    def script(prompt, i):
        if prompt == "held":
            release.wait(timeout=5)
        return 200, completion_body(agent_json("neutral", rationale=prompt))

    return chat_endpoint(script)


def _request(prompt):
    body = json.dumps({"messages": [{"role": "user", "content": prompt}]}).encode("utf-8")
    return b"POST /v1 HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


def _prompt_sent(request):
    return json.loads(request.partition(b"\r\n\r\n")[2])["messages"][0]["content"]


def _prompt_answered(body):
    return json.loads(json.loads(body)["choices"][0]["message"]["content"])["rationale"]


def _queue_behind_held(ep, transport, endpoints, prompts):
    """Each prompt's exchange on its own thread, the first ``"held"`` by
    ``ep`` and each later one queued behind it in order; the callers, and
    the outcomes by prompt, a body's rationale or the exception raised."""
    outcomes = {}

    def call(endpoint, prompt):
        try:
            outcomes[prompt] = _prompt_answered(transport.exchange(endpoint, _request(prompt))[2])
        except Exception as exc:  # the test reads its type
            outcomes[prompt] = exc

    callers = []
    for queued, (endpoint, prompt) in enumerate(zip(endpoints, prompts)):
        callers.append(threading.Thread(target=call, args=(endpoint, prompt), daemon=True))
        callers[-1].start()
        _until(lambda: ep.requests and len(transport._queue) == queued)
    return callers, outcomes


class TestTransportThreads:
    def test_the_next_request_goes_out_before_the_last_answer_is_handed_back(
        self, chat_endpoint, monkeypatch
    ):
        """One thread serves a held request and three queued behind it. After
        it reads each response, it sends the next queued request, and only
        then wakes the caller of the response it read."""
        from concurrent.futures import Future

        release = threading.Event()
        ep = _held_endpoint(chat_endpoint, release)
        log = []
        sendall, receive = socket.socket.sendall, agents._Connection.receive
        set_result, set_exception = Future.set_result, Future.set_exception

        def logged_sendall(sock, data, *args):
            if data.startswith(b"POST"):  # not the endpoint's own writes
                log.append(("send", _prompt_sent(data)))
            return sendall(sock, data, *args)

        def logged_receive(connection):
            response = receive(connection)
            log.append(("receive", _prompt_answered(response[2])))
            return response

        def logged_set_result(future, result):
            log.append(("resolve", _prompt_answered(result[2])))
            return set_result(future, result)

        def logged_set_exception(future, exc):
            log.append(("fail", repr(exc)))
            return set_exception(future, exc)

        monkeypatch.setattr(socket.socket, "sendall", logged_sendall)
        monkeypatch.setattr(agents._Connection, "receive", logged_receive)
        monkeypatch.setattr(Future, "set_result", logged_set_result)
        monkeypatch.setattr(Future, "set_exception", logged_set_exception)
        transport = _transport(1)
        endpoint = ChatCompletionsClient(ep.url, "test-model", transport).endpoint
        prompts = ("held", "A", "B", "C")
        callers, outcomes = _queue_behind_held(ep, transport, [endpoint] * 4, prompts)
        release.set()
        for caller in callers:
            caller.join(timeout=5)
            assert not caller.is_alive()
        assert outcomes == {prompt: prompt for prompt in prompts}
        assert log == [
            ("send", "held"), ("receive", "held"),
            ("send", "A"), ("resolve", "held"), ("receive", "A"),
            ("send", "B"), ("resolve", "A"), ("receive", "B"),
            ("send", "C"), ("resolve", "B"), ("receive", "C"),
            ("resolve", "C"),
        ]

    def test_an_unexpected_exception_reaches_its_caller(self, chat_endpoint, monkeypatch):
        """A failure that is not a transport failure ends its request, not the
        thread: the caller gets it and the next request is served."""
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(agent_json("positive"))))
        receive = agents._Connection.receive
        failures = [RuntimeError("a defect in the reader")]

        def receive_once_failing(connection):
            if failures:
                raise failures.pop()
            return receive(connection)

        monkeypatch.setattr(agents._Connection, "receive", receive_once_failing)
        client = ChatCompletionsClient(ep.url, "test-model", _transport(1), sleep=lambda s: None)
        outcomes = {}

        def call(prompt):
            try:
                outcomes[prompt] = client.generate(prompt, DECODING, False).text
            except Exception as exc:  # the test reads its type
                outcomes[prompt] = exc

        for prompt in ("first", "second"):
            caller = threading.Thread(target=call, args=(prompt,), daemon=True)
            caller.start()
            caller.join(timeout=5)
            assert not caller.is_alive(), f"{prompt!r} got no answer"
        assert type(outcomes["first"]) is RuntimeError, outcomes["first"]
        assert outcomes["second"] == agent_json("positive")
        assert [request["messages"][0]["content"] for request in ep.requests] == ["first", "second"]

    @pytest.mark.parametrize("step", ["open", "sendall"])
    def test_a_request_sent_ahead_that_fails_fails_alone(self, chat_endpoint, monkeypatch, step):
        """The request sent before the held one's answer is handed back fails
        to open its connection or to go out: the held one still gets its
        answer, the failing one its ``OSError``, and the one queued after it
        is served."""
        release = threading.Event()
        ep = _held_endpoint(chat_endpoint, release)
        transport = _transport(1)
        endpoint = ChatCompletionsClient(ep.url, "test-model", transport).endpoint
        failing = endpoint
        if step == "open":
            with socket.socket() as unused:  # a port nobody listens on
                unused.bind(("127.0.0.1", 0))
                failing = agents.Endpoint("127.0.0.1", unused.getsockname()[1], False)
        else:
            sendall = socket.socket.sendall

            def failing_sendall(sock, data, *args):
                if data.startswith(b"POST") and _prompt_sent(data) == "fails":
                    raise OSError("the send failed")
                return sendall(sock, data, *args)

            monkeypatch.setattr(socket.socket, "sendall", failing_sendall)
        callers, outcomes = _queue_behind_held(
            ep, transport, [endpoint, failing, endpoint], ("held", "fails", "after")
        )
        release.set()
        for caller in callers:
            caller.join(timeout=5)
            assert not caller.is_alive()
        assert outcomes["held"] == "held" and outcomes["after"] == "after"
        assert isinstance(outcomes["fails"], OSError), outcomes["fails"]
        assert [request["messages"][0]["content"] for request in ep.requests] == ["held", "after"]


class TestExpectedCacheKeys:
    """The cache-key digests the pipeline derives, one per (disclosure, agent) pair."""

    def test_one_key_per_pair(self):
        records = [disclosure("a"), disclosure("b", clean="Different text.")]
        specs = [spec_for("http://x", lens=lens) for lens in Lens]
        keys = PreparedKeys.of(records, specs, DECODING.seed).keys
        assert keys.shape == (2, 3)
        assert len(set(keys.ravel().tolist())) == 6

    def test_prompt_change_invalidates(self):
        specs = [spec_for("http://x")]
        old = PreparedKeys.of([disclosure("a", clean="Old text")], specs, DECODING.seed)
        new = PreparedKeys.of([disclosure("a", clean="New text")], specs, DECODING.seed)
        assert old.prompts[0, 0].tobytes() != new.prompts[0, 0].tobytes()
        assert old.keys[0, 0] != new.keys[0, 0]


class TestRunAgentKeepsTheLastGeneration:
    """The output carries the generation it came from and the request's provenance."""

    SPEC = AgentSpec(lens=Lens.RISK, model_name="judge-7b", endpoint_url="http://unused")
    DECODING = DecodingConfig(seed=9, max_output_tokens=64)

    def _run(self, chat_endpoint, first, second):
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(first if i == 0 else second)))
        record = disclosure("d9", clean="Litigation was settled.")
        return run_agent(self.SPEC, self.DECODING, record, client=_client(ep)), record

    def test_fallback_after_two_different_violations(self, chat_endpoint):
        second = agent_json("bullish")
        out, record = self._run(chat_endpoint, "no json at all", second)
        assert out.confidence_source is ConfidenceSource.FALLBACK
        assert (out.label, out.confidence, out.rationale) == (SentimentLabel.NEUTRAL, 0.0, "")
        assert out.raw_json == second
        assert out.retry_count == 1
        assert (out.disclosure_id, out.agent, out.model_name, out.seed) == (
            "d9", Lens.RISK, "judge-7b", 9
        )
        assert out.prompt_hash == prompt_hash(render_prompt(Lens.RISK, record.clean_text))

    def test_success_on_retry_keeps_that_response(self, chat_endpoint):
        second = agent_json("negative", rationale="Costs rose.", confidence=0.3)
        out, record = self._run(chat_endpoint, '{"label": "negative"}', second)
        assert out.confidence_source is ConfidenceSource.SELF_REPORTED
        assert (out.label, out.confidence, out.rationale) == (
            SentimentLabel.NEGATIVE, 0.3, "Costs rose."
        )
        assert out.raw_json == second
        assert out.retry_count == 1
        assert (out.model_name, out.seed) == ("judge-7b", 9)
        assert out.prompt_hash == prompt_hash(render_prompt(Lens.RISK, record.clean_text))


class KeepAliveServer(ThreadingHTTPServer):
    """An HTTP/1.1 endpoint that counts the connections it accepts.

    ``respond(handler, n)`` answers the n-th POST, counted across
    connections; setting ``handler.close_connection`` closes that connection
    after the response without telling the client. ``closed`` is released
    once per connection the server has closed.
    """

    daemon_threads = True

    def __init__(self, respond):
        self.connections = 0
        self.posts = 0
        self.lock = threading.Lock()
        self.closed = threading.Semaphore(0)
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):  # noqa: N802 - http.server API
                self.rfile.read(int(self.headers["Content-Length"]))
                with server.lock:
                    n, server.posts = server.posts, server.posts + 1
                respond(self, n)

            def log_message(self, *args):
                pass

        super().__init__(("127.0.0.1", 0), Handler)

    def get_request(self):
        accepted = super().get_request()
        with self.lock:
            self.connections += 1
        return accepted

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"


@pytest.fixture
def keepalive_server():
    servers = []

    def _start(respond):
        server = KeepAliveServer(respond)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return server

    yield _start
    for server in servers:
        server.shutdown()
        server.server_close()


CONTENT = agent_json("positive", confidence=0.7)


def _frame(status, body, content_length=None):
    head = (
        f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body) if content_length is None else content_length}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _answer(handler, n):
    handler.wfile.write(_frame(200, json.dumps(completion_body(CONTENT)).encode("utf-8")))


class TestKeepAliveTransport:
    def _client(self, server, sleeps):
        return ChatCompletionsClient(server.url, "test-model", _transport(), sleep=sleeps.append)

    def _generate(self, client):
        assert client.generate("Prompt.", DECODING, False).text == CONTENT

    def test_one_connection_carries_every_request(self, keepalive_server):
        server = keepalive_server(_answer)
        sleeps = []
        client = self._client(server, sleeps)
        for _ in range(5):
            self._generate(client)
        assert (server.posts, server.connections, sleeps) == (5, 1, [])

    def test_idle_connection_closed_by_the_server_costs_no_attempt(self, keepalive_server):
        def respond(handler, n):
            _answer(handler, n)
            handler.close_connection = n == 0

        server = keepalive_server(respond)
        sleeps = []
        client = self._client(server, sleeps)
        self._generate(client)
        assert server.closed.acquire(timeout=5)
        self._generate(client)
        assert (server.posts, server.connections, sleeps) == (2, 2, [])

    def test_truncated_body_is_one_transport_failure(self, keepalive_server):
        def respond(handler, n):
            if n == 0:
                handler.wfile.write(_frame(200, b'{"choices": [', content_length=100))
                handler.close_connection = True
            else:
                _answer(handler, n)

        server = keepalive_server(respond)
        sleeps = []
        self._generate(self._client(server, sleeps))
        assert (server.posts, server.connections, sleeps) == (2, 2, [0.5])

    def test_redirect_is_not_followed_or_retried(self, keepalive_server):
        server = keepalive_server(lambda handler, n: handler.wfile.write(_frame(301, b"")))
        sleeps = []
        with pytest.raises(TransportError, match="HTTP 301"):
            self._generate(self._client(server, sleeps))
        assert (server.posts, sleeps) == (1, [])

    def test_chunked_body_with_a_trailer(self, keepalive_server):
        body = json.dumps(completion_body(CONTENT)).encode("utf-8")

        def respond(handler, n):
            handler.wfile.write(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"a;name=value\r\n" + body[:10] + b"\r\n"
                + b"%X\r\n" % (len(body) - 10) + body[10:] + b"\r\n"
                + b"0\r\nX-Checksum: 1\r\n\r\n"
            )

        server = keepalive_server(respond)
        sleeps = []
        client = self._client(server, sleeps)
        self._generate(client)
        self._generate(client)
        assert (server.posts, server.connections, sleeps) == (2, 1, [])

    @pytest.mark.parametrize(
        "status_line, field",
        [("HTTP/1.1 200 OK", "Connection: close\r\n"), ("HTTP/1.0 200 OK", "")],
        ids=["connection-close", "http-1.0"],
    )
    def test_a_response_that_ends_its_connection_costs_no_attempt(
        self, keepalive_server, status_line, field
    ):
        body = json.dumps(completion_body(CONTENT)).encode("utf-8")

        def respond(handler, n):
            head = f"{status_line}\r\n{field}Content-Length: {len(body)}\r\n\r\n"
            handler.wfile.write(head.encode("latin-1") + body)

        server = keepalive_server(respond)
        sleeps = []
        client = self._client(server, sleeps)
        self._generate(client)
        self._generate(client)
        assert (server.posts, server.connections, sleeps) == (2, 2, [])

    def test_an_interim_100_continue_is_skipped(self, keepalive_server):
        def respond(handler, n):
            handler.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            _answer(handler, n)

        server = keepalive_server(respond)
        sleeps = []
        client = self._client(server, sleeps)
        self._generate(client)
        self._generate(client)
        assert (server.posts, server.connections, sleeps) == (2, 1, [])

    @pytest.mark.parametrize(
        "fields",
        [
            "X-Long: " + "a" * 65_536 + "\r\n",
            "".join(f"X-Field-{k}: {k}\r\n" for k in range(101)),
            "Content-Length: 7\r\nContent-Length: 8\r\n",
            "Content-Length: 12a\r\n",
            "Content-Length: 999999999999999999\r\n",
        ],
        ids=[
            "line-over-65536-bytes", "over-100-fields", "two-content-lengths", "non-numeric-length",
            "length-past-memory",
        ],
    )
    def test_an_unreadable_head_is_one_transport_failure(self, keepalive_server, fields):
        def respond(handler, n):
            if n == 0:
                handler.wfile.write(f"HTTP/1.1 200 OK\r\n{fields}\r\n{{}}".encode("latin-1"))
                handler.close_connection = True
            else:
                _answer(handler, n)

        server = keepalive_server(respond)
        sleeps = []
        self._generate(self._client(server, sleeps))
        assert (server.posts, server.connections, sleeps) == (2, 2, [0.5])

    def test_bytes_after_a_response_are_not_the_next_answer(self, keepalive_server):
        """A second response sent with the first, unasked, is dropped with
        its connection; the next prompt gets its own answer on a new one."""
        answers = [agent_json(label, confidence=0.7) for label in ("positive", "negative")]

        def respond(handler, n):
            frame = _frame(200, json.dumps(completion_body(answers[n])).encode("utf-8"))
            stale = _frame(200, json.dumps(completion_body("stale")).encode("utf-8"))
            handler.wfile.write(frame + stale if n == 0 else frame)

        server = keepalive_server(respond)
        sleeps = []
        client = self._client(server, sleeps)
        texts = [client.generate(f"Prompt {n}.", DECODING, False).text for n in range(2)]
        assert texts == answers
        assert (server.posts, server.connections, sleeps) == (2, 2, [])

    def test_https_verifies_the_server_certificate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(socket, "create_connection", refuse)
        client = ChatCompletionsClient("https://judge.example/v1/chat/completions", "m", _transport())
        assert client.endpoint == agents.Endpoint("judge.example", 443, tls=True)
        context = agents._tls_context()
        assert context.check_hostname is True
        assert context.verify_mode is ssl.CERT_REQUIRED

    @pytest.mark.parametrize("scheme, port, wrapped", [("https", 443, True), ("http", 80, False)])
    def test_an_https_request_goes_out_on_a_tls_socket(self, monkeypatch, scheme, port, wrapped):
        """Every socket an https client's transport opens is wrapped by the
        verifying context for the URL's host; a failed handshake is one
        transport failure. An http client's sockets are not wrapped."""

        class NoWire:  # sent bytes vanish, and the peer has closed
            def setsockopt(self, *args):
                pass

            def sendall(self, data):
                pass

            def recv(self, size):
                return b""

            def close(self):
                pass

        class Context:
            def wrap_socket(self, sock, server_hostname):
                handshakes.append(server_hostname)
                raise ssl.SSLCertVerificationError("certificate verify failed")

        opened, handshakes = [], []

        def connect(address, timeout):
            opened.append(address)
            return NoWire()

        monkeypatch.setattr(socket, "create_connection", connect)
        monkeypatch.setattr(agents, "_tls_context", Context)
        sleeps = []
        url = f"{scheme}://judge.example/v1"
        client = ChatCompletionsClient(url, "m", _transport(), sleep=sleeps.append)
        with pytest.raises(TransportError, match="certificate verify failed" if wrapped else "closed"):
            client.generate("Prompt.", DECODING, False)
        assert opened == [("judge.example", port)] * agents.MAX_ATTEMPTS
        assert handshakes == (["judge.example"] * agents.MAX_ATTEMPTS if wrapped else [])


class TestRequestBytes:
    def test_the_head_and_body_of_a_request(self, chat_endpoint, monkeypatch):
        """Method, target, header fields in order and body, as ``http.client``
        laid them out before the transport replaced it."""
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(agent_json("neutral"))))
        url = ep.url + "?api-version=2"
        monkeypatch.setenv("ENSEMBLE_JUDGE_API_KEY", "sk-test-123")
        ChatCompletionsClient(url, "test-model", _transport()).generate("Prompt \u00e9.", DECODING, True)
        monkeypatch.delenv("ENSEMBLE_JUDGE_API_KEY")
        ChatCompletionsClient(url, "test-model", _transport()).generate("Prompt.", DECODING, False)

        def body(prompt, logprobs):
            return (
                '{"model": "test-model", "messages": [{"role": "user", "content": "%s"}], '
                '"temperature": 0.0, "top_p": 1.0, "seed": 42, "max_tokens": 64%s}'
                % (prompt, ', "logprobs": true' if logprobs else "")
            ).encode("ascii")

        def fields(body, auth):
            return [
                ("Host", ep.url.split("/")[2]),
                ("Accept-Encoding", "identity"),
                ("Content-Length", str(len(body))),
                ("Content-Type", "application/json"),
                *([("Authorization", auth)] if auth else []),
            ]

        first, second = body("Prompt \\u00e9.", True), body("Prompt.", False)
        target = "/v1/chat/completions?api-version=2"
        assert ep.received == [
            ("POST", target, fields(first, "Bearer sk-test-123"), first),
            ("POST", target, fields(second, None), second),
        ]
