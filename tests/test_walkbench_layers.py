"""The benchmark's traced run wraps lltwalk functions by name.

A wrapped function that is renamed or removed silently drops its per-layer
metrics from the benchmark; this test makes it fail the suite instead.
"""

import pathlib

WALKBENCH = pathlib.Path(__file__).resolve().parent.parent / "walkbench"


def test_tracer_finds_every_wrapped_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(WALKBENCH))
    import tracing

    assert tracing.Tracer().absent == []
