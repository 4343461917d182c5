"""Multi-agent zero-shot disclosure judgment with a trained logistic aggregator.

Three lens-specific agents (realized performance, forward guidance, downside
risk) each judge a disclosure as positive/neutral/negative with a confidence
score; an append-only cache makes every downstream stage replayable; a
15-dimensional joint feature vector feeds an L2 logistic meta-classifier,
which is evaluated against single-agent and voting baselines with an
agreement-regime breakdown.
"""

__version__ = "0.1.0"
