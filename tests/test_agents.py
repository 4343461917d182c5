import http.client
import json
import math
import ssl
import sys
import threading
import time
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge import agents
from ensemble_judge.agents import (
    AgentSpec,
    ChatCompletionsClient,
    DecodingConfig,
    RawGeneration,
    SchemaViolation,
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
        # Independent oracle: first balanced object by a simple quote-aware scan.
        text = 'prefix {"label":"negative","rationale":"Q} brace {inside.","confidence":0.3} suffix'

        def oracle(s):
            start = s.index("{")
            depth, in_str, esc = 0, False, False
            for i, ch in enumerate(s[start:], start):
                if in_str:
                    if esc:
                        esc = False
                    elif ch == "\\":
                        esc = True
                    elif ch == '"':
                        in_str = False
                elif ch == '"':
                    in_str = True
                elif ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        return s[start : i + 1], start
            raise AssertionError("unbalanced")

        assert extract_json_object(text) == oracle(text)
        parsed = parse_output(raw(text))
        assert parsed.label is SentimentLabel.NEGATIVE
        assert parsed.rationale == "Q} brace {inside."

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
        client = ChatCompletionsClient(ep.url, "test-model", sleep=sleeps.append)
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
        client = ChatCompletionsClient(ep.url, "test-model", sleep=sleeps.append)
        out = run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=client)
        assert out.label is SentimentLabel.POSITIVE
        assert sleeps == waits

    def test_backoff_leaves_the_request_slot_free(self, chat_endpoint):
        ep = chat_endpoint(
            lambda prompt, i: (503, {}, {"Retry-After": "1"}) if i == 0
            else (200, completion_body(agent_json("positive")))
        )
        slots = agents.RequestSlots(1)
        free = []

        def slot_is_free() -> bool:
            entered = threading.Event()

            def take_the_slot():
                with slots:
                    entered.set()

            threading.Thread(target=take_the_slot, daemon=True).start()
            return entered.wait(timeout=2)

        def sleep(seconds):
            free.append(slot_is_free())

        client = ChatCompletionsClient(ep.url, "test-model", slots=slots, sleep=sleep)
        run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=client)
        assert free == [True]
        assert slot_is_free()  # and the exchange gave its slot back

    def test_a_freed_slot_goes_to_the_longest_waiter(self):
        slots = agents.RequestSlots(1)
        entered = []

        def wait_for_the_slot(name):
            with slots:
                entered.append(name)

        threads = []
        with slots:
            for name in ("first", "second"):
                threads.append(threading.Thread(target=wait_for_the_slot, args=(name,), daemon=True))
                threads[-1].start()
                deadline = time.monotonic() + 5
                while len(slots._waiting) < len(threads) and time.monotonic() < deadline:
                    time.sleep(0.001)
        with slots:  # the holder asks again at once, and queues behind both
            entered.append("holder")
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert entered == ["first", "second", "holder"]

    def test_request_slots_under_contention(self):
        """Eight threads entering and leaving three slots as fast as they can:
        never more than three holders, and no slot lost at the end."""
        slots, guard = agents.RequestSlots(3), threading.Lock()
        holders, peak = [0], [0]

        def hammer():
            for _ in range(300):
                with slots:
                    with guard:
                        holders[0] += 1
                        peak[0] = max(peak[0], holders[0])
                    with guard:
                        holders[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, daemon=True) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert peak[0] <= 3
        all_three = threading.Barrier(3, timeout=5)

        def hold_one():
            with slots:
                all_three.wait()

        holding = [threading.Thread(target=hold_one, daemon=True) for _ in range(3)]
        for thread in holding:
            thread.start()
        for thread in holding:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in holding) and not all_three.broken

    def test_transport_exhaustion_fails_loudly(self, chat_endpoint, monkeypatch):
        monkeypatch.setattr(agents, "MAX_ATTEMPTS", 3)
        ep = chat_endpoint(lambda prompt, i: (500, {"error": "down"}))
        client = ChatCompletionsClient(ep.url, "test-model", sleep=lambda s: None)
        with pytest.raises(TransportError, match="after 3 attempts"):
            run_agent(spec_for(ep.url), DECODING, disclosure(), client=client)

    def test_client_error_fails_immediately(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (401, {"error": "no auth"}))
        client = ChatCompletionsClient(ep.url, "test-model", sleep=lambda s: None)
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
        parsed = ChatCompletionsClient("http://localhost:1/v1", "m")._parse_response(body.encode())
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
    return ChatCompletionsClient(ep.url, "test-model", sleep=lambda s: None)


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
    @pytest.fixture(autouse=True)
    def _close_clients(self):
        self.clients = []
        yield
        for client in self.clients:
            client.close()

    def _client(self, server, sleeps):
        client = ChatCompletionsClient(server.url, "test-model", sleep=sleeps.append)
        self.clients.append(client)
        return client

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

    def test_https_verifies_the_server_certificate(self):
        client = ChatCompletionsClient("https://judge.example/v1/chat/completions", "m")
        conn = client.connection
        assert isinstance(conn, http.client.HTTPSConnection) and conn.sock is None
        assert (conn.host, conn.port) == ("judge.example", 443)
        assert conn._context.check_hostname is True
        assert conn._context.verify_mode is ssl.CERT_REQUIRED
