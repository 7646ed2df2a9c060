"""Every declab function that the benchmark in ``perfbench/`` traces by name
still exists, so deleting one fails here rather than as absent metrics in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.FUNCTIONS + tracing.INITIALIZERS


TARGETS = traced_targets()


@pytest.mark.parametrize("span, module, attribute", TARGETS, ids=[span for span, _, _ in TARGETS])
def test_every_traced_target_exists(span, module, attribute):
    target = getattr(importlib.import_module(module), attribute, None)
    assert callable(target), (
        f"{module}.{attribute} is gone, so the benchmark's {span}.* metrics would read absent; "
        "keep it until its spans are retired with the counters of ROADMAP item 3")
