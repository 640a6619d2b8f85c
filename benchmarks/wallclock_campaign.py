"""Benchmark: streaming campaign resume (the grid/run_iter/store showcase).

The acceptance benchmark of the campaign layer: a cold multi-SOC sweep
is compared against the same sweep interrupted partway and resumed from
its store.  The resumed run must recompute only the abandoned scenarios,
reproduce the cold run's results **bit-identically** (order-insensitive
digest over the exact values) and come in at least twice as fast -- in
practice far faster, since it swaps most optimisations for JSON decoding.
"""

from __future__ import annotations

from repro.bench.campaign import campaign_grid, run_campaign

from conftest import run_once


def test_resumed_campaign_at_least_2x_faster(benchmark, tmp_path):
    rows, checks = run_once(benchmark, run_campaign, tmp_path)
    cold, interrupted, resume = rows
    assert [row["name"] for row in rows] == [
        "campaign cold", "campaign interrupted", "campaign resume",
    ]
    benchmark.extra_info.update({row["name"]: row["seconds"] for row in rows})

    scenarios = len(campaign_grid())
    assert cold["ops"] == resume["ops"] == scenarios
    # The interruption left exactly the consumed prefix in the store ...
    assert 0 < interrupted["ops"] < scenarios
    assert resume["counters"]["cache"]["store_hits"] == interrupted["ops"]
    # ... so the resume recomputed only the abandoned remainder ...
    assert resume["counters"]["cache"]["misses"] == scenarios - interrupted["ops"]
    # ... reproduced the cold results bit-identically ...
    assert checks == {"campaign digests": True}, (
        f"cold digest {cold['digest']} != resumed {resume['digest']}"
    )
    # ... and at least halved the wall clock.
    speedup = cold["seconds"] / resume["seconds"] if resume["seconds"] > 0 else float("inf")
    assert speedup >= 2.0, (
        f"resume speedup {speedup:.2f}x below the 2x floor "
        f"(cold {cold['seconds']:.3f}s, resume {resume['seconds']:.3f}s)"
    )
    print(
        f"\ncampaign: {scenarios} scenarios, interrupted after "
        f"{interrupted['ops']}; cold {cold['seconds']:.3f}s, "
        f"resume {resume['seconds']:.3f}s ({speedup:.1f}x)"
    )

