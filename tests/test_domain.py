import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_judge.domain import (
    AgentOutput,
    ConfidenceSource,
    FeatureVector,
    Lens,
    SentimentLabel,
    target_from_return,
)
from tests.conftest import make_output
from tests.oracles import binarize_label


class TestSentimentLabel:
    def test_numeric_codes(self):
        assert int(SentimentLabel.NEGATIVE) == -1
        assert int(SentimentLabel.NEUTRAL) == 0
        assert int(SentimentLabel.POSITIVE) == 1

    @pytest.mark.parametrize("label", list(SentimentLabel))
    def test_string_round_trip(self, label):
        assert SentimentLabel.from_string(label.as_string()) is label

    def test_from_string_case_insensitive(self):
        assert SentimentLabel.from_string(" Positive ") is SentimentLabel.POSITIVE

    def test_from_string_rejects_unknown(self):
        with pytest.raises(ValueError, match="bullish"):
            SentimentLabel.from_string("bullish")


class TestBinarize:
    def test_positive_maps_to_one(self):
        assert binarize_label(SentimentLabel.POSITIVE) == 1

    def test_neutral_maps_to_zero(self):
        assert binarize_label(SentimentLabel.NEUTRAL) == 0

    def test_negative_maps_to_zero(self):
        assert binarize_label(SentimentLabel.NEGATIVE) == 0


class TestTargetFromReturn:
    def test_positive_return(self):
        assert target_from_return(0.012) == 1

    def test_zero_return_is_nonpositive(self):
        assert target_from_return(0.0) == 0

    def test_negative_return(self):
        assert target_from_return(-0.004) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            target_from_return(bad)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    def test_monotone_non_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert target_from_return(lo) <= target_from_return(hi)


class TestDisclosureRecordInvariants:
    def test_target_must_match_return(self):
        from datetime import datetime, timezone

        from ensemble_judge.domain import DisclosureRecord

        with pytest.raises(ValueError, match="inconsistent"):
            DisclosureRecord(
                id="x",
                timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc),
                ticker="X",
                raw_text="t",
                clean_text="t",
                next_day_return=-0.1,
                binary_target=1,
            )


class TestAgentOutputInvariants:
    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError):
            make_output(confidence=1.2)

    def test_fallback_must_be_neutral_zero(self):
        with pytest.raises(ValueError, match="fallback"):
            AgentOutput(
                disclosure_id="d1",
                agent=Lens.RISK,
                label=SentimentLabel.POSITIVE,
                confidence=0.0,
                rationale="",
                confidence_source=ConfidenceSource.FALLBACK,
                model_name="m",
                prompt_hash="h",
                seed=1,
                raw_json="",
                retry_count=1,
            )

    def test_retry_count_bounded(self):
        with pytest.raises(ValueError):
            make_output(retry_count=2)

    def test_dict_round_trip(self):
        out = make_output(label=SentimentLabel.NEGATIVE, confidence=0.25)
        assert AgentOutput.from_dict(out.to_dict()) == out


class TestFeatureVectorInvariants:
    def test_dimension_enforced(self):
        with pytest.raises(ValueError, match="15"):
            FeatureVector(values=(0.0,) * 14)

    def test_counts_must_sum_to_three(self):
        values = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 1.0, 2.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="counts"):
            FeatureVector(values=tuple(values))

    def test_exactly_one_indicator(self):
        values = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 1.0, 3.0, 0.0, 0.0, 3.0, 0.0, 1.0, 1.0, 0.0]
        with pytest.raises(ValueError, match="indicator"):
            FeatureVector(values=tuple(values))
