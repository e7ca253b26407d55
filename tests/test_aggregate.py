"""``ops/relational.py::aggregate``, the one grouped aggregate: its SQL
semantics against DuckDB on random frames (null keys form a group, a
sum over only nulls is null, integer and bool sums and counts are
int64), its independence from the key-shuffle bucket count, the pivot
spelled as flag sums, and a guard that keeps the operators it replaced
from coming back."""

import ast
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

import no_fasel_scrapers_ray
from no_fasel_scrapers_ray.ops.relational import aggregate

AGGS = {"sx": ("sum", "x"), "n": ("count", None), "nf": ("count", "f"),
        "sf": ("sum", "f"), "sb": ("sum", "b"), "mn": ("min", "x"),
        "mx": ("max", "t")}
ORACLE = """SELECT k, s, SUM(x) AS sx, COUNT(*) AS n, COUNT(f) AS nf,
                   SUM(f) AS sf, SUM(b::BIGINT) AS sb, MIN(x) AS mn,
                   MAX(t) AS mx
            FROM frame GROUP BY k, s"""


def _frame(seed: int, n: int = 500) -> pa.Table:
    """int64 and string keys (the string key ~10% null), an int32 value,
    a bool flag, a string value, and a float column that is null for
    every row of key k == 0 (an all-null group). Floats are multiples
    of 1/4, so any summation order gives the same double."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 6, n).astype(np.int64)
    s = [None if rng.random() < 0.1 else f"s{i}"
         for i in rng.integers(0, 4, n)]
    f = rng.integers(-400, 400, n) / 4.0
    return pa.table({
        "k": k, "s": pa.array(s, pa.string()),
        "x": pa.array(rng.integers(-2**30, 2**30, n), pa.int32()),
        "b": pa.array(rng.random(n) < 0.3),
        "t": pa.array([f"t{i}" for i in rng.integers(0, 50, n)]),
        "f": pa.array(f, mask=(k == 0) | (rng.random(n) < 0.2))})


def _blocks(t: pa.Table, n_blocks: int) -> rd.Dataset:
    step = -(-t.num_rows // n_blocks)
    return rd.from_arrow([t.slice(i, step)
                          for i in range(0, t.num_rows, step)])


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, ignore_index=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_duckdb_group_by(seed):
    frame = _frame(seed)
    blocks = ray.get(
        aggregate(_blocks(frame, 7), ["k", "s"], AGGS).to_arrow_refs())
    got = pa.concat_tables(blocks)   # every block typed, none column-less
    assert got.column_names == ["k", "s", *AGGS]
    types = {f.name: f.type for f in got.schema}
    for c in ("sx", "n", "nf", "sb"):
        assert types[c] == pa.int64(), c
    assert types["mn"] == pa.int32() and types["sf"] == pa.float64()
    # a null key is its own group, as SQL GROUP BY has it
    assert got.filter(pc.is_null(got["s"])).num_rows > 0
    # the all-null group sums to null, and counts 0 non-null values
    zero = got.filter(pc.equal(got["k"], 0))
    assert zero.num_rows > 0 and zero["sf"].null_count == zero.num_rows
    assert pc.sum(zero["nf"]).as_py() == 0
    con = duckdb.connect()
    con.register("frame", frame)
    ref = con.sql(ORACLE).df()
    pd.testing.assert_frame_equal(_canon(got.to_pandas()), _canon(ref),
                                  check_dtype=False)


def test_bucket_count_invariance(count_buckets):
    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "k": rng.integers(-20, 40, 400).astype(np.int64),
        "s": [f"key{i}" for i in rng.integers(0, 30, 400)],
        "w": rng.integers(0, 100, 400).astype(np.int64)})
    got = aggregate(rd.from_pandas(df).repartition(5), ["s", "k"],
                    {"sw": ("sum", "w"), "n": ("count", None),
                     "lo": ("min", "w"), "hi": ("max", "w")}).to_pandas()
    ref = df.groupby(["s", "k"], as_index=False).agg(
        sw=("w", "sum"), n=("w", "size"), lo=("w", "min"), hi=("w", "max"))
    pd.testing.assert_frame_equal(_canon(got), _canon(ref))


@pytest.fixture(params=[1, 2, 64])
def count_buckets(request, set_buckets):
    set_buckets(request.param)
    return request.param


def test_flag_sums_pivot_ignores_unlisted_values():
    """COUNT(*) FILTER (WHERE t = v) per listed v, the pivot the queries
    spell as 0/1 flag columns summed by ``aggregate``: an unlisted value
    counts nowhere, and a key without a listed value sums to 0."""
    df = pd.DataFrame({"k": [1, 1, 2, 2, 2, 3],
                       "t": ["a", "b", "a", "zzz", "a", "zzz"]})
    flags = rd.from_pandas(df).repartition(2).map_batches(
        lambda t: pa.table({
            "k": t["k"],
            **{f"n_{v}": pc.cast(pc.equal(t["t"], v), pa.int64())
               for v in ("a", "b")}}),
        batch_format="pyarrow")
    out = (aggregate(flags, ["k"], {"n_a": ("sum", "n_a"),
                                    "n_b": ("sum", "n_b")})
           .to_pandas().sort_values("k", ignore_index=True))
    assert out["n_a"].tolist() == [1, 2, 0]
    assert out["n_b"].tolist() == [1, 0, 0]


def test_no_aggregates_is_distinct_keys():
    df = pd.DataFrame({"a": [1, 1, 2, 2, 1], "b": [3, 3, 4, 5, 3]})
    out = aggregate(rd.from_pandas(df).repartition(3), ["a", "b"],
                    {}).to_pandas()
    assert list(out.columns) == ["a", "b"]
    assert _canon(out).values.tolist() == [[1, 3], [2, 4], [2, 5]]


PKG = os.path.dirname(no_fasel_scrapers_ray.__file__)
REPLACED = {"preagg_sum_count", "grouped_multi_agg", "preagg_reduce",
            "pivot_counts"}


def test_replaced_aggregate_operators_stay_gone():
    """One plain grouped-aggregate operator: no module of ``ops/`` and
    not ``__ray_entry__.py`` defines, imports or calls any of the
    operators ``aggregate`` replaced."""
    ops = os.path.join(PKG, "ops")
    paths = [os.path.join(ops, n) for n in sorted(os.listdir(ops))
             if n.endswith(".py")]
    paths.append(os.path.join(os.path.dirname(PKG), "__ray_entry__.py"))
    hits = []
    for path in paths:
        with open(path, encoding="utf-8") as fp:
            tree = ast.parse(fp.read())
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.FunctionDef, ast.alias)):
                names.add(getattr(node, "name", None))
            hits += [f"{os.path.basename(path)}:"
                     f"{getattr(node, 'lineno', '?')}: {n}"
                     for n in names & REPLACED]
    assert not hits, "replaced aggregate operators:\n" + "\n".join(hits)
