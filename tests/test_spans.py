"""The benchmark's traced run wraps named functions of the program
(``benchmarks/spans.py``); each must still exist, or ``--trace 1``
fails when it installs its spans."""

import importlib
import importlib.util
from pathlib import Path


def benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_benchmark_span_targets_resolve():
    spans = benchmark_spans()
    assert spans
    missing = [f"{module}.{name}" for module, name, _ in spans
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
