"""Results never depend on the key-shuffle bucket count.

The count is derived from the cluster (``ops/util.py::shuffle_buckets``)
instead of being an operator option; this is the property that makes
that safe. Each test pins the count to 1, 2 and 64 and checks one
operator shape against a reference computed without any shuffle, so
the canonical (sorted) output is the same at every count. Count 1 also
covers the raw-task kernels' ``num_returns=1`` path, where Ray hands
back a bare ref instead of a list.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops import dedup, graph, relational
from no_fasel_scrapers_ray.ops.util import tier_budgets


@pytest.fixture(params=[1, 2, 64])
def count(request, set_buckets):
    set_buckets(request.param)
    return request.param


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, ignore_index=True)


def _facts(n: int = 400) -> pd.DataFrame:
    rng = np.random.default_rng(5)
    return pd.DataFrame({
        "k": rng.integers(-20, 40, n).astype(np.int64),
        "s": [f"key{i}" for i in rng.integers(0, 30, n)],
        "v": rng.permutation(n).astype(np.int64),
        "w": rng.integers(0, 100, n).astype(np.int64)})


@pytest.mark.parametrize("key", ["k", "s"])
def test_bucketed_join(count, key):
    df = _facts()
    dim = df[[key]].drop_duplicates().iloc[::2].copy()
    dim["tag"] = np.arange(len(dim), dtype=np.int64)
    got = relational.bucketed_join(
        rd.from_pandas(df).repartition(4),
        rd.from_pandas(dim).repartition(3), on=key).to_pandas()
    pd.testing.assert_frame_equal(_canon(got),
                                  _canon(df.merge(dim, on=key)))


def test_topk_per_group(count):
    df = _facts()
    got = relational.topk_per_group(
        rd.from_pandas(df).repartition(5), ["s"], "w", 3,
        tie_cols=["v"]).to_pandas()
    ref = (df.sort_values(["w", "v"], ascending=[False, True])
           .groupby("s").head(3))
    pd.testing.assert_frame_equal(_canon(got), _canon(ref))


def test_ordered_prefix_sum(count):
    df = _facts()
    got = relational.ordered_prefix_sum(
        rd.from_pandas(df[["v", "w"]]).repartition(5), "v", "w",
        "off").to_pandas().sort_values("v", ignore_index=True)
    ref = df[["v", "w"]].sort_values("v", ignore_index=True)
    ref["off"] = ref["w"].cumsum() - ref["w"]
    pd.testing.assert_frame_equal(got[["v", "w", "off"]], ref,
                                  check_dtype=False)


def _chain_pairs() -> pd.DataFrame:
    # two paths and a triangle, edges shuffled across blocks so the
    # BSP tier needs several exchanges
    e = [(i, i + 1) for i in range(30)] + \
        [(100 + i, 101 + i) for i in range(12)] + [(200, 201), (201, 202),
                                                  (200, 202)]
    rng = np.random.default_rng(1)
    a = np.array(e, dtype=np.int64)[rng.permutation(len(e))]
    return pd.DataFrame({"a": a[:, 0], "b": a[:, 1]})


def test_connected_components(count):
    df = _chain_pairs()
    ds = rd.from_pandas(df).repartition(6)
    with tier_budgets(driver=0):
        got = graph.connected_components(ds, "a", "b")
    ref = graph.connected_components(ds, "a", "b")   # driver union-find
    pd.testing.assert_frame_equal(_canon(got.to_pandas()),
                                  _canon(ref.to_pandas()))


@pytest.mark.parametrize("tier", ["broadcast", "bsp"])
def test_triangle_count(count, tier):
    df = _chain_pairs()
    canon = pd.DataFrame({"a": np.minimum(df["a"], df["b"]),
                          "b": np.maximum(df["a"], df["b"])})
    ds = rd.from_pandas(canon).repartition(4)
    with tier_budgets(0, 0 if tier == "bsp" else None):
        got = graph.triangle_count(ds)
    assert got == graph.triangle_count(ds) == 1


def test_graph_kernels(count):
    """The other BSP kernels over the same split/exchange helpers:
    BFS, label propagation and tier-3 PageRank, each against its
    driver tier."""
    df = _chain_pairs()
    ds = rd.from_pandas(df).repartition(6)
    seeds = np.array([0, 100])
    for op, kw in ((graph.bfs_hops, {"seeds": seeds, "max_hops": 3}),
                   (graph.label_propagation, {"rounds": 2})):
        with tier_budgets(driver=0):
            got = op(ds, "a", "b", **kw).to_pandas()
        ref = op(ds, "a", "b", **kw).to_pandas()
        pd.testing.assert_frame_equal(_canon(got), _canon(ref))
    edges = rd.from_pandas(pd.DataFrame(
        {"src": df["a"], "dst": df["b"]})).repartition(3)
    with tier_budgets(0, 0):
        got = graph.pagerank(edges).to_pandas()
    ref = graph.pagerank(edges).to_pandas()
    got, ref = (x.sort_values("node", ignore_index=True)
                for x in (got, ref))
    assert got["node"].tolist() == ref["node"].tolist()
    np.testing.assert_allclose(got["rank"], ref["rank"], rtol=0,
                               atol=1e-12)


def test_ngram_jaccard_pairs(count):
    texts = ["the cat sat on the mat today", "the cat sat on the mat",
             "a dog ran in the park", "a dog ran in the park today",
             "nothing in common here at all", "the cat sat on a mat"]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})
    got = dedup.ngram_jaccard_pairs(
        rd.from_pandas(docs).repartition(3), shingle=2,
        jaccard_threshold=0.4).to_pandas()
    sets = [set(h.tolist()) for h in dedup._batch_token_hashes(texts, 2)]
    rows = []
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            jac = round(len(sets[i] & sets[j]) / len(sets[i] | sets[j]), 6)
            if jac >= 0.4:
                rows.append((i, j, jac))
    ref = pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])
    assert len(ref) >= 2
    pd.testing.assert_frame_equal(_canon(got), _canon(ref),
                                  check_dtype=False)
