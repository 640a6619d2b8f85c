"""Campaign analysis over persisted results (``repro analyze``).

The campaign layer streams sweeps into :class:`~repro.store.
PackedResultStore` directories and JSONL files; this package turns those
artifacts back into answers.  :mod:`repro.analysis.records` normalises
either source (or in-memory engine results) into flat, deterministic
:class:`AnalysisRecord` rows; :mod:`repro.analysis.analyze` provides the
views -- full columnar tables, group-by summaries, best-per-SOC selection
and 2-D Pareto-front extraction -- all rendered through
:class:`~repro.reporting.tables.Table`.  The CLI surface is ``python -m
repro analyze`` (see docs/cli.md).
"""

from repro.analysis.analyze import (
    GROUP_COLUMNS,
    METRICS,
    Metric,
    best_per_soc,
    best_table,
    get_metric,
    group_summary,
    pareto_front,
    pareto_table,
    records_table,
)
from repro.analysis.records import (
    AnalysisRecord,
    load_records,
    records_from_jsonl,
    records_from_results,
    records_from_store,
)

__all__ = [
    "GROUP_COLUMNS",
    "METRICS",
    "Metric",
    "AnalysisRecord",
    "best_per_soc",
    "best_table",
    "get_metric",
    "group_summary",
    "load_records",
    "pareto_front",
    "pareto_table",
    "records_from_jsonl",
    "records_from_results",
    "records_from_store",
    "records_table",
]
