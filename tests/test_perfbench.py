"""The benchmark's contract with the package: every name its tracer wraps
still exists, and its stage-by-stage replay still reproduces pipeline.run."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_staged_replay_matches(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    staged = importlib.import_module("staged")
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert staged.replay_all() == []
