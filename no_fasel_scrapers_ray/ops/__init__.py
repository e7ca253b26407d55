"""Generic operators over ``corpus/storage.py::BlockRefs`` (a Ray Data
``Dataset`` input works too; the result is block refs).

These are the engine's reusable data-processing primitives — the same
operator families the crawl pipelines use (broadcast joins, semi/anti
joins, keyed merges with precedence, partial-aggregate groupbys, unions,
windowed aggregates, dedup, similarity search, text analysis) — exposed
over the driver's TPC-H-ish test tables so each one has a DuckDB oracle
(see __ray_entry__.py).
"""

from . import relational, textops, dedup, ann, graph, sketch  # noqa: F401
