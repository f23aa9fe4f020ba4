"""What the benchmark's in-process tracer (bench/tracing.py) reads of the package.

The tracer wraps ``series.c_series`` and reads ``c_series.cache_info()``,
``SeriesValue.terms_used``/``tail_bound`` and the ``eps``/``relative``
parameter names; this test fails if the package stops offering them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_value_op_counts_the_series_kernel(monkeypatch):
    pytest.importorskip("mpmath")  # bench/oracle.py, loaded with the tracer
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # undone, with the tracer's src entry
    from tracing import Tracer
    from workloads import Op

    tracer = Tracer(ROOT / "src")
    with tracer.installed():
        outcome = tracer.run(Op(("value", "2", "1", "gamma_tilde")))
    assert outcome.exit_code == 0, outcome.stderr
    metrics = tracer.layer_metrics(outcome.seconds)
    assert metrics["series.c_series.calls"] >= 1
    assert metrics["series.c_series.misses"] >= 1
    assert metrics["series.terms"] >= 1
