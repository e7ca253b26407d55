"""The one key exchange (``ops/util.py::key_shuffle``): its result
against a brute-force pandas groupby in both batch formats at 1, 2 and
64 buckets, a two-side input mixing a Dataset and a ``BlockRefs``, a
bucket that gets no rows, and an all-empty input; and a guard that keeps
Ray Data's group pass, its internal ref bundles and the per-read block
knob out of the package and the driver entry."""

import ast
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

import no_fasel_scrapers_ray
from no_fasel_scrapers_ray.corpus.storage import BlockRefs
from no_fasel_scrapers_ray.ops.util import key_shuffle

PKG = os.path.dirname(no_fasel_scrapers_ray.__file__)
ROOT = os.path.dirname(PKG)


def _handle(t: pa.Table, n_blocks: int) -> BlockRefs:
    step = -(-t.num_rows // n_blocks)
    return BlockRefs([ray.put(t.slice(lo, step))
                      for lo in range(0, t.num_rows, step)])


def _frame(seed: int, n: int = 3000) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({"k": rng.integers(0, 97, n),
                     "s": rng.choice(["a", "b", "c", None], n),
                     "x": rng.integers(-1000, 1000, n)})


def _sum_pandas(g: pd.DataFrame) -> pd.DataFrame:
    return g.groupby(["k", "s"], as_index=False, dropna=False)["x"].sum()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df[["k", "s", "x"]].sort_values(
        ["k", "s"], ignore_index=True, na_position="first")


@pytest.mark.parametrize("n", [1, 2, 64])
@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_matches_brute_force_groupby(set_buckets, n, fmt):
    set_buckets(n)
    t = _frame(n)

    def fn(g):     # a closure: workers cannot import this test module
        if fmt == "pandas":
            return g.groupby(["k", "s"], as_index=False,
                             dropna=False)["x"].sum()
        return g.group_by(["k", "s"], use_threads=False).aggregate(
            [("x", "sum")]).rename_columns(["k", "s", "x"])
    out = key_shuffle(_handle(t, 5), fn, ["k", "s"], batch_format=fmt)
    assert isinstance(out, BlockRefs)
    assert out.num_blocks() <= n
    got = pa.concat_tables(ray.get(out.to_arrow_refs())).to_pandas()
    want = _sum_pandas(t.to_pandas())
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_two_sides_dataset_and_block_refs(set_buckets):
    set_buckets(4)
    left = pa.table({"k": np.arange(40) % 10, "a": np.arange(40)})
    right = pa.table({"k": np.arange(5) * 2, "b": np.arange(5) * 100})

    def join(g: pd.DataFrame) -> pd.DataFrame:
        # every bucket's batch carries both sides' columns
        assert {"a", "b"} <= set(g.columns)
        lrows = g[g["a"].notna()][["k", "a"]]
        rrows = g[g["b"].notna()][["k", "b"]]
        return lrows.merge(rrows, on="k").astype("int64")

    out = key_shuffle([rd.from_arrow(left), _handle(right, 2)], join, ["k"],
                      batch_format="pandas").to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k")
    cols = ["k", "a", "b"]
    pd.testing.assert_frame_equal(
        out[cols].sort_values(cols, ignore_index=True),
        want[cols].sort_values(cols, ignore_index=True))


def test_a_bucket_with_no_rows_makes_no_block(set_buckets):
    set_buckets(64)
    t = pa.table({"k": np.array([0, 1, 2, 3, 4] * 20), "x": np.ones(100)})
    out = key_shuffle(_handle(t, 3), lambda g: g, ["k"],
                      batch_format="pyarrow")
    blocks = ray.get(out.to_arrow_refs())
    # integer keys bucket by x mod 64: five keys, five buckets, five blocks
    assert len(blocks) == 5
    assert all(b.num_rows == 20 and b.schema.equals(t.schema)
               for b in blocks)


def test_all_empty_input_gives_one_typed_block(set_buckets):
    set_buckets(8)
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "x": pa.array([], pa.float64())})

    def count(g: pa.Table) -> pa.Table:
        # runs once, over bucket 0's typed empty input
        assert g.schema.equals(empty.schema)
        return pa.table({"k": g["k"],
                         "n": pa.array(np.ones(g.num_rows, np.int64))})

    out = key_shuffle(BlockRefs([ray.put(empty)] * 3), count, ["k"],
                      batch_format="pyarrow")
    blocks = ray.get(out.to_arrow_refs())
    assert len(blocks) == 1 and blocks[0].num_rows == 0
    assert blocks[0].schema == pa.schema([("k", pa.int64()),
                                          ("n", pa.int64())])
    assert out.to_pandas().columns.tolist() == ["k", "n"]


# Guard: queries run on block refs. ``map_groups`` is Ray Data's sort
# group pass (``key_shuffle`` replaces it), ``iter_internal_ref_bundles``
# reaches into a Dataset's execution (``to_arrow_refs`` is the one way to
# a handle's blocks), and ``rows_per_block`` was the per-read block knob
# (``corpus/storage.py::ROWS_PER_BLOCK`` is the one floor).
BANNED_CALLS = {"map_groups", "iter_internal_ref_bundles"}
BANNED_NAME = "rows_per_block"


def _sources():
    for base, _dirs, names in os.walk(PKG):
        for n in sorted(names):
            if n.endswith(".py"):
                yield os.path.join(base, n)
    yield os.path.join(ROOT, "__ray_entry__.py")


def test_no_ray_data_group_pass_bundles_or_block_knob():
    hits = []
    for path in _sources():
        rel = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as fp:
            tree = ast.parse(fp.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or \
                    getattr(node.func, "id", None)
                if name in BANNED_CALLS:
                    hits.append(f"{rel}:{node.lineno}: {name}(")
            name = (getattr(node, "arg", None) if isinstance(
                node, (ast.arg, ast.keyword)) else
                getattr(node, "id", None) or getattr(node, "attr", None))
            if name == BANNED_NAME:
                hits.append(f"{rel}:{node.lineno}: {BANNED_NAME}")
    assert not hits, "\n".join(hits)
