"""Lance storage path (corpus/storage.py format gate).

BASELINE.json names Lance as the corpus format; the sandbox image has
no ``pylance``, so the storage layer gates on import and these tests
run ONLY where Lance is installed (they skip cleanly otherwise — the
gate itself and the Parquet twin of every call below are exercised by
the whole crawl suite). README documents the gate."""

import numpy as np
import pyarrow as pa
import pytest

from no_fasel_scrapers_ray.corpus import storage

lance_missing = not storage.HAVE_LANCE


def _tiny_corpus() -> pa.Table:
    spans = [[{"kind": "text", "text": f"t::{i}", "media_ref": "",
               "offset": 0}] for i in range(10)]
    return pa.table({
        "doc_id": [f"https://h{i % 2}.test/p{i}" for i in range(10)],
        "host": [f"h{i % 2}.test" for i in range(10)],
        "spans": pa.array(spans, type=storage_spans_type()),
    })


def storage_spans_type():
    from no_fasel_scrapers_ray.corpus.schema import SPAN_TYPE
    return SPAN_TYPE


@pytest.mark.skipif(lance_missing, reason="pylance not installed")
def test_lance_corpus_roundtrip(tmp_path):
    table = _tiny_corpus()
    path = storage.write_corpus(table, str(tmp_path))
    assert path.endswith(".lance")
    back = storage.read_corpus_table(path)
    assert back.num_rows == table.num_rows
    assert sorted(back.column("doc_id").to_pylist()) == \
        sorted(table.column("doc_id").to_pylist())


@pytest.mark.skipif(lance_missing, reason="pylance not installed")
def test_lance_host_partition_filter(tmp_path):
    table = _tiny_corpus()
    path = storage.write_corpus(table, str(tmp_path))
    parts = [storage.host_partition_table(path, "h1.test", s)
             for s in range(storage.CORPUS_SALTS)]
    rows = sum(p.num_rows for p in parts if p is not None)
    hosts = {h for p in parts if p is not None
             for h in p.column("host").to_pylist()}
    assert hosts == {"h1.test"}
    assert rows == 5


def test_format_gate_consistent():
    """The gate and the path suffix must agree so every downstream
    ``path.endswith('.lance')`` branch picks the installed format."""
    p = storage.corpus_path("/tmp/x")
    assert p.endswith(".lance") == storage.HAVE_LANCE
