"""Tests for the campaign analysis layer (records, summaries, Pareto).

The d695 family at 64 K vectors is the pinned workload: the analysis views
over it (record tables, group summaries, best-per-SOC, the time-vs-cost
Pareto front) must be deterministic down to the row order, whatever order
the results arrived in.
"""

import dataclasses
import itertools
import json
import statistics

import pytest

from repro.analysis import (
    AnalysisRecord,
    best_per_soc,
    best_table,
    get_metric,
    group_summary,
    load_records,
    pareto_front,
    pareto_table,
    records_from_jsonl,
    records_from_results,
    records_from_store,
    records_table,
)
from repro.analysis.analyze import METRICS
from repro.api.engine import Engine
from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.ate.pricing import AtePricing
from repro.core.exceptions import ConfigurationError
from repro.store.packed import PackedResultStore
from repro.store.result_store import make_record


@pytest.fixture(scope="module")
def cell():
    return reference_test_cell(channels=256, depth_m=0.0625)


@pytest.fixture(scope="module")
def results(cell):
    """The pinned d695 workload: 2 channel counts x 2 objectives."""
    scenarios = Scenario.sweep(
        "d695", cell, channels=[128, 256], objectives=["throughput", "test_time"]
    )
    return Engine().run_batch(scenarios)


@pytest.fixture(scope="module")
def records(results):
    return records_from_results(results)


class TestRecords:
    def test_one_record_per_scenario(self, records):
        assert len(records) == 4
        assert all(isinstance(record, AnalysisRecord) for record in records)

    def test_deterministic_order(self, results, records):
        # Reversed input produces the identical tuple: order is canonical.
        assert records_from_results(reversed(results)) == records

    def test_identity_axes(self, records):
        assert [(r.objective, r.channels) for r in records] == [
            ("test_time", 128),
            ("test_time", 256),
            ("throughput", 128),
            ("throughput", 256),
        ]
        assert all(r.soc == "d695" and r.solver == "goel05" for r in records)

    def test_pinned_optima(self, records):
        by_axis = {(r.objective, r.channels): r for r in records}
        assert (by_axis["throughput", 128].optimal_sites,
                by_axis["throughput", 128].channels_per_site) == (5, 24)
        assert (by_axis["throughput", 256].optimal_sites,
                by_axis["throughput", 256].channels_per_site) == (11, 22)
        assert (by_axis["test_time", 128].optimal_sites,
                by_axis["test_time", 128].channels_per_site) == (1, 128)
        assert (by_axis["test_time", 256].optimal_sites,
                by_axis["test_time", 256].channels_per_site) == (1, 256)

    def test_store_roundtrip_matches(self, results, records, tmp_path):
        store = PackedResultStore(tmp_path)
        for outcome in results:
            store.put_records([make_record(outcome.scenario, outcome.result)])
        assert records_from_store(store) == records
        assert records_from_store(tmp_path) == records
        assert records_from_store(store, columns=False) == records

    def test_jsonl_roundtrip_matches(self, results, records, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            "".join(json.dumps(r.to_record(), sort_keys=True) + "\n" for r in results),
            encoding="utf-8",
        )
        assert records_from_jsonl(path) == records

    def test_load_records_merges_and_dedups(self, results, records, tmp_path):
        store = PackedResultStore(tmp_path / "store")
        for outcome in results:
            store.put_records([make_record(outcome.scenario, outcome.result)])
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            "".join(json.dumps(r.to_record()) + "\n" for r in results), encoding="utf-8"
        )
        merged = load_records(store=store, jsonl_paths=[path])
        assert merged == records  # same scenarios from both sources: one row each

    def test_load_records_needs_a_source(self):
        with pytest.raises(ConfigurationError, match="at least one source"):
            load_records()

    def test_malformed_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a sweep record"}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
            records_from_jsonl(path)

    def test_missing_jsonl_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            records_from_jsonl(tmp_path / "nope.jsonl")

    def test_jsonl_error_names_line_number_mid_file(self, results, tmp_path):
        """Streaming kept the ``path:line`` diagnostics intact."""
        good = json.dumps(results[0].to_record(), sort_keys=True)
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{good}\n\nnot json\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.jsonl:3"):
            records_from_jsonl(path)

    def test_jsonl_progress_reports_total(self, results, records, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            "".join(json.dumps(r.to_record()) + "\n" for r in results), encoding="utf-8"
        )
        lines = []
        assert records_from_jsonl(path, progress=lines.append) == records
        assert lines == [f"read {len(results)} sweep row(s) from {path}"]


class TestMetrics:
    def test_unknown_metric_raises(self):
        with pytest.raises(ConfigurationError, match="unknown metric"):
            get_metric("velocity")

    def test_cost_metric_prices_employed_capacity(self, records):
        record = records[0]
        expected = AtePricing().capital_cost_usd(record.employed_channels, record.depth)
        assert METRICS["cost"].extract(record) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"channels_per_site": 23}, "positive even number"),
            ({"channels_per_site": 0}, "positive even number"),
            ({"optimal_sites": 0}, "site count must be positive"),
            ({"depth": -1}, "depth must be non-negative"),
        ],
    )
    def test_cost_metric_rejects_malformed_records(self, records, fields, message):
        record = dataclasses.replace(records[0], **fields)
        with pytest.raises(ConfigurationError, match=message):
            METRICS["cost"].extract(record)

    def test_signed_respects_sense(self, records):
        record = records[0]
        assert METRICS["time"].signed(record) == METRICS["time"].extract(record)
        assert METRICS["throughput"].signed(record) == -record.value


class TestViews:
    def test_records_table_shape(self, records):
        table = records_table(records)
        assert table.num_rows == 4
        assert table.column("objective") == [
            "test_time", "test_time", "throughput", "throughput",
        ]

    def test_group_summary_by_objective(self, records):
        table = group_summary(records, "objective", "sites")
        assert table.column("objective") == ["test_time", "throughput"]
        assert table.column("records") == ["2", "2"]
        assert table.column("max") == ["1", "11"]

    def test_group_summary_rejects_unknown_column(self, records):
        with pytest.raises(ConfigurationError, match="cannot group by"):
            group_summary(records, "colour")

    def test_best_per_soc_max_throughput(self, records):
        (best,) = best_per_soc(records, "throughput")
        assert (best.objective, best.channels) == ("throughput", 256)
        assert best_table(records, "throughput").num_rows == 1

    def test_best_per_soc_min_time(self, records):
        (best,) = best_per_soc(records, "time")
        # The 256-channel test_time run has the shortest optimal test time.
        assert (best.objective, best.channels, best.optimal_sites) == (
            "test_time", 256, 1,
        )


class TestPareto:
    def test_pinned_time_cost_front(self, records):
        front = pareto_front(records, "time", "cost")
        assert [
            (r.objective, r.channels, r.optimal_sites, r.channels_per_site)
            for r in front
        ] == [
            ("test_time", 256, 1, 256),
            ("test_time", 128, 1, 128),
            ("throughput", 128, 5, 24),
        ]
        # Pinned metric values of the front, in front order.
        times = [r.test_time_cycles for r in front]
        assert times == [9634, 11139, 62248]
        costs = [round(METRICS["cost"].extract(r), 2) for r in front]
        assert costs == [128214.29, 64107.14, 60100.45]

    def test_dominated_point_excluded(self, records):
        front = pareto_front(records, "time", "cost")
        # throughput@256 (n=11, k=22) employs 242 channels -- more capital
        # than throughput@128 at the same optimal test time class; it is
        # dominated and must not appear.
        assert ("throughput", 256) not in {(r.objective, r.channels) for r in front}

    def test_front_is_input_order_independent(self, results, records):
        shuffled = records_from_results(list(reversed(results)))
        assert pareto_front(shuffled, "time", "cost") == pareto_front(
            records, "time", "cost"
        )

    def test_identical_metric_pairs_all_kept(self, records):
        # Equal metric pairs: duplicate one record under a different key.
        import dataclasses

        clone = dataclasses.replace(records[0], key="f" * 16)
        front = pareto_front(list(records) + [clone], "time", "cost")
        keys = [r.key for r in front]
        assert records[0].key in keys and clone.key in keys

    def test_same_metric_rejected(self, records):
        with pytest.raises(ConfigurationError, match="two different metrics"):
            pareto_front(records, "time", "time")

    def test_pareto_table_renders_front(self, records):
        table = pareto_table(records, "time", "cost")
        assert table.num_rows == 3
        assert table.column("time") == ["9634", "1.114e+04", "6.225e+04"]


#: Each metric's raw value from its definition.
_REFERENCE_METRICS = {
    "time": lambda record: float(record.test_time_cycles),
    "cost": lambda record: AtePricing().capital_cost_usd(
        record.employed_channels, record.depth
    ),
    "throughput": lambda record: record.value,
    "sites": lambda record: float(record.optimal_sites),
    "channels": lambda record: float(record.channels),
    "depth": lambda record: float(record.depth),
}

#: The three original axis pairs first (their ids are stable), then every
#: other ordered pair of metrics.
_PARETO_AXES = [("time", "cost"), ("cost", "throughput"), ("sites", "time")]
_PARETO_AXES += [
    pair for pair in itertools.permutations(sorted(METRICS), 2) if pair not in _PARETO_AXES
]


def _reference_signed(metric, record):
    value = _REFERENCE_METRICS[metric](record)
    return -value if METRICS[metric].sense == "max" else value


def _reference_pareto(records, x_metric, y_metric):
    """The O(n^2) dominance scan: the definition of the Pareto front."""
    valued = [
        (_reference_signed(x_metric, record), _reference_signed(y_metric, record), record)
        for record in records
    ]
    front = [
        (x, y, record)
        for x, y, record in valued
        if not any((ox <= x and oy < y) or (ox < x and oy <= y) for ox, oy, _ in valued)
    ]
    front.sort(key=lambda item: (item[0], item[1], item[2].sort_key()))
    return tuple(record for _, _, record in front)


class TestVectorisedParity:
    """The aggregations must equal their direct definitions.

    Two deterministic pools: 121 varied records with one exact duplicate,
    and a few records repeated many times under distinct keys -- the shape
    of a replicated store, full of exact metric ties.  Every metric is
    recomputed from its definition (``cost`` via the checked pricing chain)
    and every Pareto front against the O(n^2) dominance scan.
    """

    @pytest.fixture(scope="class")
    def pools(self):
        import random

        rng = random.Random(20050307)
        rows = []
        for index in range(120):
            sites = rng.randint(1, 12)
            per_site = rng.choice([16, 22, 24, 32, 64])
            rows.append(
                AnalysisRecord(
                    key=f"{index:016x}",
                    soc=rng.choice(["d695", "p93791", "t512505"]),
                    solver=rng.choice(["goel05", "restart"]),
                    objective=rng.choice(["throughput", "test_time"]),
                    channels=rng.choice([128, 256, 512]),
                    depth=rng.choice([65536, 1048576]),
                    broadcast=rng.random() < 0.5,
                    optimal_sites=sites,
                    channels_per_site=per_site,
                    test_time_cycles=rng.randint(5000, 90000),
                    value=rng.uniform(100.0, 90000.0),
                    lower_bound=rng.choice([None, rng.uniform(100.0, 90000.0)]),
                )
            )
        # Exact metric ties, so tie-breaking is exercised.
        rows.append(dataclasses.replace(rows[0], key="e" * 16))
        repeated = [
            dataclasses.replace(rows[index % 7], key=f"{index:016x}")
            for index in range(7 * 40)
        ]
        return tuple(rows), tuple(rng.sample(repeated, len(repeated)))

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("by", ["soc", "solver", "objective", "broadcast"])
    def test_group_summary_identical(self, pools, metric, by):
        for pool in pools:
            groups = {}
            for record in pool:
                groups.setdefault(getattr(record, by), []).append(
                    _REFERENCE_METRICS[metric](record)
                )
            expected = [
                [
                    str(group),
                    str(len(values)),
                    f"{min(values):.4g}",
                    f"{statistics.fmean(values):.4g}",
                    f"{max(values):.4g}",
                ]
                for group, values in sorted(groups.items(), key=lambda item: repr(item[0]))
            ]
            assert group_summary(pool, by, metric).rows == expected

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_metric_values_identical(self, pools, metric):
        for pool in pools:
            values = [METRICS[metric].extract(record) for record in pool]
            assert values == [_REFERENCE_METRICS[metric](record) for record in pool]

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_best_per_soc_identical(self, pools, metric):
        for pool in pools:
            socs = sorted({record.soc for record in pool})
            expected = tuple(
                min(
                    (record for record in pool if record.soc == soc),
                    key=lambda record: (_reference_signed(metric, record), record.sort_key()),
                )
                for soc in socs
            )
            assert best_per_soc(pool, metric) == expected

    @pytest.mark.parametrize("axes", _PARETO_AXES)
    def test_pareto_front_identical(self, pools, axes):
        for pool in pools:
            assert pareto_front(pool, *axes) == _reference_pareto(pool, *axes)
