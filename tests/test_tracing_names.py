"""The benchmark's traced run wraps ohmlab functions by name
(perfbench/tracing.py's TRACED). A name that no longer resolves is skipped
without a word and its per-layer metrics leave the traced record, so every
name that yields a metric must stay a callable of its module."""

import importlib
import importlib.util

from conftest import ROOT


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_metric_name_resolves():
    tracing = _tracing()
    measured = [name for name in tracing.TRACED if name not in tracing.ATTRIBUTION_ONLY]
    assert measured
    missing = []
    for name in measured:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"ohmlab.{module}"), func, None)):
            missing.append(name)
    assert missing == []
