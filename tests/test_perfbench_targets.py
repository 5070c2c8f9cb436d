"""The benchmark under ``perfbench/`` finds library functions by name.

Its traced run wraps module attributes listed in ``harness._trace_targets()``
and binds a counter to ``oracles.stochastic_gradient``'s arguments. A rename
in the library would only show when the benchmark runs, so these checks keep
the names and that signature in place.
"""

from __future__ import annotations

import importlib
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("harness")


def test_every_trace_target_resolves(harness):
    targets = harness._trace_targets()
    names = {span for _, _, span in targets}
    for required in ("solver.update_z", "solver.update_extragradient",
                     "solver.run", "bench.objective_value",
                     "oracles.loss_value", "oracles.data_loss",
                     "bench.reference_optimum", "oracles.full_gradient",
                     "oracles.stochastic_gradient", "oracles.margins",
                     "baselines.run_stoch_linadmm", "baselines.run_eg_full"):
        assert required in names
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr)), span


def test_counters_bind_to_the_traced_signatures(harness):
    assert "oracles.stochastic_gradient" in harness.COUNTERS
    for span, counter in harness.COUNTERS.items():
        module, fn = span.split(".")
        target = getattr(importlib.import_module(f"spdpeg.{module}"), fn)
        assert (list(inspect.signature(counter).parameters)
                == list(inspect.signature(target).parameters)), span
