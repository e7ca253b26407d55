"""``read_parquet_sized``: the crawl-output reader behind
``records_dataset``, ``pages_dataset`` and ``dead_letter_dataset``.

A run dir with more part files than Ray's parallel metadata-fetch
threshold (24), spread over several ``round=R`` hive dirs, must read
back as exactly the per-file rows in sorted path order, with column
pruning, no hive partition column, and the data-sized block count. The
fixture holds a few ``ROWS_PER_BLOCK`` of rows, so it reads as several
blocks.
"""

import math
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from no_fasel_scrapers_ray.corpus.storage import (
    ROWS_PER_BLOCK, _read_plan, _row_groups, read_parquet_sized)

N_ROUNDS = 3
FILES_PER_ROUND = 10


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sized_read") / "records"
    for r in range(N_ROUNDS):
        rdir = root / f"round={r:04d}"
        os.makedirs(rdir)
        # row counts vary; one file is empty
        for k in range(FILES_PER_ROUND):
            n = 0 if (r, k) == (1, 3) else 1000 + 370 * ((r * 7 + k) % 11)
            pq.write_table(pa.table({
                "catalog": pa.array([f"c{r}"] * n, pa.string()),
                "key": pa.array([f"r{r}-p{k}-{i}" for i in range(n)],
                                pa.string()),
                "payload": pa.array(["x" * (i % 13) for i in range(n)],
                                    pa.string()),
            }), rdir / f"part-{k}.parquet")
    return str(root)


def _files(root):
    return sorted(os.path.join(b, n) for b, _, ns in os.walk(root)
                  for n in ns if n.endswith(".parquet"))


def test_rows_in_sorted_file_order(run_dir):
    files = _files(run_dir)
    assert len(files) >= 25
    want = pa.concat_tables([pq.read_table(f) for f in files])
    ds = read_parquet_sized(run_dir)
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.column_names == ["catalog", "key", "payload"]  # no 'round'
    assert got.to_pylist() == want.to_pylist()


def test_columns_prune(run_dir):
    files = _files(run_dir)
    ds = read_parquet_sized(run_dir, columns=["key"])
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.column_names == ["key"]
    assert got["key"].to_pylist() == [
        k for f in files for k in pq.read_table(f)["key"].to_pylist()]


def test_block_count_follows_formula(run_dir):
    files = _files(run_dir)
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    nbytes = sum(os.path.getsize(f) for f in files)
    cpus = int(ray.cluster_resources()["CPU"])
    nb = max(math.ceil(nbytes / (32 << 20)),
             min(2 * cpus, math.ceil(rows / ROWS_PER_BLOCK)), 1)
    assert nb > 1     # the fixture spans several blocks
    refs = read_parquet_sized(run_dir).to_arrow_refs()
    assert len(refs) == nb
    sizes = [t.num_rows for t in ray.get(refs)]
    assert sum(sizes) == rows
    assert max(sizes) - min(sizes) <= 1    # cut by rows, not by files


def test_single_file(run_dir):
    f = _files(run_dir)[0]
    got = pa.concat_tables(ray.get(read_parquet_sized(f).to_arrow_refs()))
    assert got.equals(pq.read_table(f))


def test_derive_and_where_run_in_the_read(run_dir):
    files = _files(run_dir)
    want = pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()
    want = want[want["payload"].str.len() >= 7]
    ds = read_parquet_sized(
        run_dir, ["key", "payload"],
        derive={"key": pc.field("key"),
                "n": pc.utf8_length(pc.field("payload")).cast(pa.int64())},
        where=pc.utf8_length(pc.field("payload")) >= 7)
    blocks = ray.get(ds.to_arrow_refs())
    want_schema = pa.schema([("key", pa.string()), ("n", pa.int64())])
    assert all(b.schema.equals(want_schema) and b.schema.metadata is None
               for b in blocks)
    got = pa.concat_tables(blocks)
    assert got["key"].to_pylist() == want["key"].tolist()   # file order
    assert got["n"].to_pylist() == want["payload"].str.len().tolist()


def test_where_alone_keeps_the_read_columns(run_dir):
    ds = read_parquet_sized(run_dir, ["catalog", "key"],
                            where=pc.field("catalog") == "c1")
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.column_names == ["catalog", "key"]
    assert set(got["catalog"].to_pylist()) == {"c1"}
    assert got.num_rows == sum(
        pq.ParquetFile(f).metadata.num_rows for f in _files(run_dir)
        if "round=0001" in f)


def test_one_row_group_splits_into_blocks_read_once(tmp_path):
    cpus = int(ray.cluster_resources()["CPU"])
    n = min(4, 2 * cpus) * ROWS_PER_BLOCK
    f = str(tmp_path / "one.parquet")
    pq.write_table(pa.table({"i": pa.array(range(n), pa.int64())}), f,
                   row_group_size=n)
    assert pq.ParquetFile(f).metadata.num_row_groups == 1
    runs, blocks = _read_plan(_row_groups([f]), 4)
    assert len(runs) == 1 and len(runs[0][1]) == 5   # one task, 4 pieces
    assert blocks == [[(0, j)] for j in range(4)]
    refs = read_parquet_sized(f).to_arrow_refs()
    tables = ray.get(refs)
    assert len(tables) == min(4, 2 * cpus)
    assert [t.num_rows for t in tables] == [n // len(tables)] * len(tables)
    assert pa.concat_tables(tables)["i"].to_pylist() == list(range(n))


def test_blocks_straddling_files_read_each_row_group_once(run_dir):
    files = _files(run_dir)
    runs, blocks = _read_plan(_row_groups(files), 3)
    units = [(f, g) for rgs, _ in runs for f, gs in rgs for g in gs]
    assert len(units) == len(set(units))      # no row group read twice
    assert sorted(units) == sorted(
        (f, g) for f in files
        for g in range(pq.ParquetFile(f).metadata.num_row_groups))
    assert len(blocks) == 3 and all(blocks)
