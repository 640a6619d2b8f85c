"""Shared fixtures for the test suite.

The fixtures deliberately use *small* SOCs and ATEs so the full suite stays
fast; the synthetic PNX8550 (274 modules) is only touched by a handful of
dedicated tests and by the benchmark harness.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.ate.probe_station import ProbeStation
from repro.ate.spec import AteSpec
from repro.core.units import kilo_vectors
from repro.itc02.registry import load_benchmark
from repro.soc.builder import SocBuilder
from repro.soc.soc import Soc
from repro.solvers.problem import TestInfraProblem


@pytest.fixture
def tiny_soc() -> Soc:
    """A three-module SOC small enough for exhaustive checks."""
    return (
        SocBuilder("tiny", functional_pins=64)
        .add_module("alpha", inputs=8, outputs=8, bidirs=0,
                    scan_lengths=[100, 100, 90], patterns=50)
        .add_module("beta", inputs=16, outputs=4, bidirs=2,
                    scan_lengths=[200, 150], patterns=120)
        .add_module("gamma", inputs=5, outputs=7, bidirs=0,
                    scan_lengths=[], patterns=30)
        .build()
    )


@pytest.fixture
def medium_soc() -> Soc:
    """A six-module SOC with a mix of large and small cores."""
    builder = SocBuilder("medium", functional_pins=200)
    builder.add_module("big0", inputs=40, outputs=30, bidirs=4,
                       scan_lengths=[400] * 8, patterns=300)
    builder.add_module("big1", inputs=25, outputs=60, bidirs=0,
                       scan_lengths=[350] * 6, patterns=250)
    builder.add_module("mid0", inputs=20, outputs=20, bidirs=2,
                       scan_lengths=[150, 150, 140], patterns=180)
    builder.add_module("mid1", inputs=12, outputs=16, bidirs=0,
                       scan_lengths=[220, 210], patterns=90)
    builder.add_module("small0", inputs=10, outputs=6, bidirs=0,
                       scan_lengths=[64], patterns=40)
    builder.add_module("mem0", inputs=14, outputs=14, bidirs=0,
                       scan_lengths=[], patterns=500, is_memory=True)
    return builder.build()


@pytest.fixture
def flat_soc() -> Soc:
    """A single-module (flattened) SOC -- the paper's Problem 2."""
    return (
        SocBuilder("flat")
        .add_module("top", inputs=64, outputs=48, bidirs=8,
                    scan_lengths=[512] * 12, patterns=400)
        .build()
    )


@pytest.fixture(scope="session")
def d695() -> Soc:
    """The d695 benchmark (loaded once per session)."""
    return load_benchmark("d695")


@pytest.fixture
def small_ate() -> AteSpec:
    """A small ATE: 64 channels, 32 K vectors, 10 MHz."""
    return AteSpec(channels=64, depth=kilo_vectors(32), frequency_hz=10e6, name="ate-small")


@pytest.fixture
def medium_ate() -> AteSpec:
    """A medium ATE: 256 channels, 128 K vectors, 5 MHz."""
    return AteSpec(channels=256, depth=kilo_vectors(128), frequency_hz=5e6, name="ate-medium")


@pytest.fixture
def tiny_problem(tiny_soc, small_ate) -> TestInfraProblem:
    """A solver problem small enough for the exhaustive oracle."""
    return TestInfraProblem(soc=tiny_soc, ate=small_ate)


@pytest.fixture
def probe() -> ProbeStation:
    """The paper's reference probe station with ideal contact yield."""
    return ProbeStation(index_time_s=0.5, contact_test_time_s=0.010, contact_yield=1.0)


@pytest.fixture
def lossy_probe() -> ProbeStation:
    """A probe station with a non-ideal contact yield."""
    return ProbeStation(index_time_s=0.5, contact_test_time_s=0.010, contact_yield=0.999)


def write_legacy_records(root: Path, records) -> None:
    """Write ``make_record`` dicts in the v1 one-file-per-record layout.

    The layout the packed store replaced: ``<root>/<key>.json`` holding one
    compact JSON record.  The program no longer writes it; migration tests
    use this as their legacy source.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for record in records:
        (root / f"{record['key']}.json").write_text(
            json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8"
        )


@pytest.fixture
def write_legacy():
    """The :func:`write_legacy_records` helper, as a fixture."""
    return write_legacy_records
