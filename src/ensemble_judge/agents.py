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

import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .domain import (
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
)
from .store import CacheKey

if TYPE_CHECKING:
    import requests

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


def render_prompt(lens: Lens, clean_text: str) -> str:
    """The fixed prompt for a lens with the disclosure text substituted in."""
    return PROMPT_TEMPLATES[lens].replace("<DISCLOSURE>", clean_text)


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


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

    def __post_init__(self) -> None:
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


@dataclass(frozen=True)
class RawGeneration:
    """One model response: generated text plus the token logprob stream."""

    text: str
    token_logprobs: tuple[tuple[str, float], ...] | None
    http_status: int

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
    except json.JSONDecodeError as exc:
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
    except ValueError:
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


class ChatCompletionsClient:
    """Minimal OpenAI-compatible chat-completions client.

    Bearer auth comes from the ``ENSEMBLE_JUDGE_API_KEY`` environment
    variable when set. Connection errors, timeouts, 429 and 5xx responses
    are retried with exponential backoff; other HTTP errors fail
    immediately since repeating them cannot help. ``requests`` is imported
    here, not at module load, so stub-agent runs never pay for it.
    """

    def __init__(
        self,
        endpoint_url: str,
        model_name: str,
        *,
        max_attempts: int = 4,
        backoff_base: float = 0.5,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def generate(self, prompt: str, decoding: DecodingConfig, want_logprobs: bool) -> RawGeneration:
        import requests

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

        last_failure = ""
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                response = self.session.post(
                    self.endpoint_url,
                    json=payload,
                    headers=self._headers(),
                    timeout=REQUEST_TIMEOUT_S,
                )
            except requests.RequestException as exc:
                last_failure = f"transport error: {exc}"
                continue
            if response.status_code in _RETRYABLE_STATUSES:
                last_failure = f"HTTP {response.status_code}"
                continue
            if response.status_code >= 400:
                raise TransportError(
                    f"{self.endpoint_url} answered HTTP {response.status_code}: "
                    f"{response.text[:200]}"
                )
            return self._parse_response(response)
        raise TransportError(
            f"{self.endpoint_url} unreachable after {self.max_attempts} attempts "
            f"(last: {last_failure})"
        )

    def _parse_response(self, response: requests.Response) -> RawGeneration:
        try:
            body = response.json()
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat-completions envelope: {exc}") from None
        token_logprobs: tuple[tuple[str, float], ...] | None = None
        logprobs = choice.get("logprobs")
        if isinstance(logprobs, dict) and isinstance(logprobs.get("content"), list):
            # Some backends report logprobs a hair above zero; clamp to keep
            # the <= 0 invariant. A stream with missing or non-finite entries
            # is dropped wholesale so confidence falls back to the
            # self-reported value instead of poisoning the geometric mean.
            try:
                entries = [
                    (entry["token"], min(float(entry["logprob"]), 0.0))
                    for entry in logprobs["content"]
                ]
            except (KeyError, TypeError, ValueError):
                entries = None
            if entries is not None and all(math.isfinite(lp) for _, lp in entries):
                token_logprobs = tuple(entries)
        return RawGeneration(
            text=text if isinstance(text, str) else "",
            token_logprobs=token_logprobs,
            http_status=response.status_code,
        )


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
        rationale=rationale,
        confidence_source=source,
        model_name=spec.model_name,
        prompt_hash=prompt_hash(prompt),
        seed=decoding.seed,
        raw_json=raw.text,
        retry_count=attempt,
    )


def expected_cache_keys(
    records: Iterable[DisclosureRecord],
    specs: Sequence[AgentSpec],
    decoding: DecodingConfig,
) -> list[CacheKey]:
    """Every cache key the pipeline needs: one per (disclosure, agent) pair.

    Keys embed the rendered prompt's hash, so changing a prompt or the
    disclosure text invalidates coverage rather than mixing generations.
    """
    seed = decoding.seed
    return [
        CacheKey(
            record.id, spec.lens, spec.model_name,
            prompt_hash(render_prompt(spec.lens, record.clean_text)), seed,
        )
        for record in records
        for spec in specs
    ]
