"""Shared fixtures for the benchmark suite.

Every E-numbered benchmark reproduces one table or figure from the paper;
each module's docstring names its experiment id (E1-E12) and the paper's
section or table, and S1 measures the serving layer.  They all share one
:class:`~repro.bench.harness.ExperimentHarness` built at the paper's
experimental scale (SF=100 statistics, 20-entry knowledge base, 200-query
test set, K=2 retrieval).  Measured values are printed as aligned tables,
several with the paper's reported value in a ``paper`` column next to the
``measured`` one.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentHarness


@pytest.fixture(scope="session")
def harness() -> ExperimentHarness:
    return ExperimentHarness()


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are deterministic and some take seconds; a single round
    keeps the suite fast while still recording wall-clock time per experiment.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
