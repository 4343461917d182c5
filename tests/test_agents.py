import json
import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    expected_cache_keys,
    extract_json_object,
    label_logprobs_for_span,
    parse_output,
    prompt_hash,
    render_prompt,
    run_agent,
)
from ensemble_judge.domain import ConfidenceSource, DisclosureRecord, Lens, SentimentLabel
from tests.conftest import agent_json, completion_body

DECODING = DecodingConfig(seed=42, max_output_tokens=64)


def raw(text, logprobs=None, status=200):
    return RawGeneration(text=text, token_logprobs=logprobs, http_status=status)


def disclosure(rid="d1", clean="Quarterly results improved."):
    return DisclosureRecord(
        id=rid,
        timestamp=datetime(2020, 5, 1, tzinfo=timezone.utc),
        ticker="ACME",
        raw_text=clean,
        clean_text=clean,
        next_day_return=0.01,
        binary_target=1,
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
        client = ChatCompletionsClient(
            ep.url, "test-model", max_attempts=4, backoff_base=0.25, sleep=sleeps.append
        )
        out = run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=client)
        assert out.label is SentimentLabel.POSITIVE
        assert sleeps == [0.25, 0.5]  # exponential backoff between attempts

    def test_transport_exhaustion_fails_loudly(self, chat_endpoint):
        ep = chat_endpoint(lambda prompt, i: (500, {"error": "down"}))
        client = ChatCompletionsClient(ep.url, "test-model", max_attempts=3, sleep=lambda s: None)
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
        seen = {}

        def script(prompt, i):
            return 200, completion_body(agent_json("neutral"))

        ep = chat_endpoint(script)
        client = _client(ep)
        original = client.session.post

        def capture(url, **kwargs):
            seen.update(kwargs["headers"])
            return original(url, **kwargs)

        client.session.post = capture
        run_agent(spec_for(ep.url, supports_logprobs=False), DECODING, disclosure(), client=client)
        assert seen.get("Authorization") == "Bearer sk-test-123"

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
            binary_target=bare.binary_target,
        )
        with pytest.raises(ValueError, match="clean_text"):
            run_agent(spec_for(ep.url), DECODING, bare, client=_client(ep))

    @pytest.mark.parametrize("bad_logprob", [float("nan"), None])
    def test_degenerate_logprobs_fall_back_to_self_reported(self, chat_endpoint, bad_logprob):
        content = agent_json("positive", confidence=0.8)
        ep = chat_endpoint(
            lambda prompt, i: (200, completion_body(content, [(content, bad_logprob)]))
        )
        out = run_agent(spec_for(ep.url), DECODING, disclosure(), client=_client(ep))
        assert out.confidence_source is ConfidenceSource.SELF_REPORTED
        assert out.confidence == pytest.approx(0.8)

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
    def test_one_key_per_pair(self):
        records = [disclosure("a"), disclosure("b", clean="Different text.")]
        specs = [spec_for("http://x", lens=lens) for lens in Lens]
        keys = expected_cache_keys(records, specs, DECODING)
        assert len(keys) == 6
        assert len({(k.disclosure_id, k.lens) for k in keys}) == 6

    def test_prompt_change_invalidates(self):
        records_a = [disclosure("a", clean="Old text")]
        records_b = [disclosure("a", clean="New text")]
        specs = [spec_for("http://x")]
        (key_a,) = expected_cache_keys(records_a, specs, DECODING)
        (key_b,) = expected_cache_keys(records_b, specs, DECODING)
        assert key_a.prompt_hash != key_b.prompt_hash


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
