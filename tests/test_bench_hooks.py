"""The names the benchmark wraps or imports must exist in the package.

``perfbench/traced_stage.py`` wraps package functions by name for its
per-layer spans, and the benchmark's mock endpoint imports
``pipeline.load_prepared``; a rename would otherwise only surface when the
benchmark runs.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced_stage

    targets = traced_stage._targets()
    assert targets
    missing = [f"{owner!r}.{attr}" for owner, attr, *_ in targets if not hasattr(owner, attr)]
    assert missing == []


def test_mock_endpoint_imports_exist():
    from ensemble_judge.pipeline import load_prepared
    from ensemble_judge.synth import load_latents, stub_agent

    assert callable(load_prepared) and callable(load_latents) and callable(stub_agent)
