"""What the benchmark's in-process tracer (bench/tracing.py) reads of the package.

The tracer wraps ``series.c_series`` and the ``checks.check_*`` suites,
reads ``c_series.cache_info()``, ``SeriesValue.terms_used``/``tail_bound``
and the ``eps``/``relative`` parameter names; these tests fail if the
package stops offering them to a traced ``value``, ``exceptional`` or
``check`` op.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    pytest.importorskip("mpmath")  # bench/oracle.py, loaded with the tracer
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # undone, with the tracer's src entry
    from tracing import Tracer

    return Tracer(ROOT / "src")


def _traced(tracer, *argv) -> dict[str, float]:
    """The layer metrics of one traced op, which must exit 0."""
    from workloads import Op

    with tracer.installed():
        outcome = tracer.run(Op(argv))
    assert outcome.exit_code == 0, outcome.stderr
    return tracer.layer_metrics(outcome.seconds)


def test_traced_value_op_counts_the_series_kernel(tracer):
    metrics = _traced(tracer, "value", "2", "1", "gamma_tilde")
    assert metrics["series.c_series.calls"] >= 1
    assert metrics["series.c_series.misses"] >= 1
    assert metrics["series.terms"] >= 1


def test_traced_exceptional_op_counts_the_series_kernel(tracer):
    metrics = _traced(tracer, "exceptional", "--n-max", "2", "--m-max", "2")
    assert metrics["series.c_series.calls"] >= 1


def test_traced_check_op_times_its_suite(tracer):
    metrics = _traced(tracer, "check", "tables", "--no-timestamp")
    assert metrics["checks.tables.s"] > 0
