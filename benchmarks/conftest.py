"""Shared helpers for the benchmark harness.

Every ``test_bench_*.py`` file in this directory regenerates one artefact
of the paper's evaluation section (a table or a figure) under
``pytest-benchmark``:

    pytest benchmarks/ --benchmark-only

The ``wallclock_*.py`` files compare wall-clock times (batch vs serial,
warm vs cold store, resume vs cold campaign, sidecar scan vs full
decode), so their verdict depends on the host's speed and load.  Their
names keep them out of default collection; run them by name:

    pytest benchmarks/wallclock_*.py

The properties behind those timings are pinned host-independently, with
exact counters, in ``tests/``.

Heavy experiments are run once per session (``rounds=1``); the regenerated
rows/series are attached to the benchmark's ``extra_info`` so they appear in
the benchmark report, and are also printed so ``pytest -s`` shows the tables
the paper reports.
"""

from __future__ import annotations

import pytest

from repro.ate.probe_station import reference_probe_station
from repro.ate.spec import reference_ate
from repro.soc.pnx8550 import make_pnx8550


@pytest.fixture(scope="session")
def pnx8550():
    """The synthetic PNX8550 used by all figure benchmarks."""
    return make_pnx8550()


@pytest.fixture(scope="session")
def paper_ate():
    """The paper's reference ATE: 512 channels x 7 M vectors at 5 MHz."""
    return reference_ate(channels=512, depth_m=7)


@pytest.fixture(scope="session")
def paper_probe():
    """The paper's reference probe station (0.5 s index, 10 ms contact test)."""
    return reference_probe_station()


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under the benchmark fixture."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
