"""Edge-case units for round-2 additions: connected components, Bloom
semi-join, interpolated quantiles, stratified sampling. The happy paths
are oracle-gated in test_queries_vs_duckdb; these pin the boundaries the
oracle data doesn't reach."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops.graph import connected_components
from no_fasel_scrapers_ray.ops.util import tier_budgets
from no_fasel_scrapers_ray.ops.relational import (
    bloom_semi_join, global_quantile_cont, global_quantile_disc,
    stratified_hash_sample)


def cc_dict(pairs, driver_budget=0):
    # a driver budget of 0 bytes forces the ITERATIVE distributed path
    # — these tests pin cross-block propagation, not the driver fast
    # path
    ds = rd.from_pandas(pd.DataFrame(pairs, columns=["a", "b"]))
    with tier_budgets(driver=driver_budget):
        out = connected_components(ds, "a", "b").to_pandas()
    return dict(zip(out["doc_id"], out["cluster_id"]))


def test_cc_chain_propagates_past_diameter():
    # 0-1-2-3-4-5: min label must travel the whole chain, not one hop.
    got = cc_dict([(i, i + 1) for i in range(5)])
    assert got == {i: 0 for i in range(6)}


def test_cc_cycle_and_disjoint_components():
    got = cc_dict([(10, 11), (11, 12), (12, 10),   # cycle
                   (5, 7),                          # pair
                   (20, 20)])                       # self-loop
    assert got == {10: 10, 11: 10, 12: 10, 5: 5, 7: 5, 20: 20}


def test_cc_chain_across_blocks_needs_global_rounds():
    # one edge per block: local contraction can collapse nothing, so
    # the min label must travel through the ITERATED global rounds
    pairs = [(i, i + 1) for i in range(7)]
    ds = rd.from_pandas(pd.DataFrame(pairs, columns=["a", "b"]))
    ds = ds.repartition(len(pairs))   # ~1 edge per block
    with tier_budgets(driver=0):
        out = connected_components(ds, "a", "b").to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {i: 0 for i in range(8)}


def test_cc_merge_via_bridge():
    # Two clusters joined by a late bridge edge collapse to one label.
    got = cc_dict([(1, 2), (3, 4), (2, 3)])
    assert set(got.values()) == {1}


def test_cc_empty_pairs():
    ds = rd.from_pandas(pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                      "b": pd.Series([], dtype="int64")}))
    cc = connected_components(ds, "a", "b")
    assert cc.count() == 0
    # 0-row Dataset.to_pandas() drops column names (Ray gotcha); the
    # schema itself must still carry the contract columns.
    assert sorted(cc.schema().names) == ["cluster_id", "doc_id"]


def test_curate_documents_survives_pair_free_corpus(tmp_path):
    # every doc unique and quality-passing, zero near-dup pairs: the
    # curation pipeline must return ALL docs, not crash on the 0-row
    # to_pandas of the CC output
    import pyarrow.parquet as pq
    import pyarrow as pa
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod
    words = [f"w{i:03d}" for i in range(25)]
    texts = [" ".join(f"{w}{d}" for w in words) for d in range(6)]
    pq.write_table(pa.table({"doc_id": list(range(6)), "text": texts}),
                   str(tmp_path / "documents.parquet"))
    out = entrymod.q_curate_documents(str(tmp_path)).to_pandas()
    assert sorted(out["doc_id"].tolist()) == list(range(6))


def test_bloom_semi_join_exact_despite_false_positives():
    # Tiny filter (m_bits=64) forces heavy false positives; the verify
    # join must still return EXACTLY the true matches.
    big = rd.from_pandas(pd.DataFrame({"k": np.arange(2000, dtype=np.int64),
                                       "v": np.arange(2000, dtype=np.int64)}))
    keys = rd.from_pandas(pd.DataFrame(
        {"k": np.array([3, 700, 1999], dtype=np.int64)}))
    out = bloom_semi_join(big, keys, "k", m_bits=64, k_hashes=2).to_pandas()
    assert sorted(out["k"].tolist()) == [3, 700, 1999]
    assert out["v"].dtype == np.int64


def test_bloom_semi_join_no_matches():
    big = rd.from_pandas(pd.DataFrame({"k": np.arange(100, dtype=np.int64)}))
    keys = rd.from_pandas(pd.DataFrame(
        {"k": np.array([5000], dtype=np.int64)}))
    out = bloom_semi_join(big, keys, "k").to_pandas()
    assert len(out) == 0


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_quantile_cont_matches_numpy_linear(q):
    vals = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame({"x": vals})).repartition(3)
    got = global_quantile_cont(ds, "x", [q], n_ranges=4)[0]
    assert got == float(np.quantile(vals, q))  # numpy 'linear' = SQL cont


def test_quantile_disc_still_exact_after_refactor():
    vals = np.array([10, 20, 30, 40], dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame({"x": vals})).repartition(2)
    # quantile_disc rule: element at 1-indexed rank ceil(q*n)
    assert global_quantile_disc(ds, "x", 0.5, n_ranges=4) == 20.0
    assert global_quantile_disc(ds, "x", 0.0, n_ranges=4) == 10.0
    assert global_quantile_disc(ds, "x", 1.0, n_ranges=4) == 40.0


def test_stratified_sample_unlisted_stratum_dropped():
    df = pd.DataFrame({"id": np.arange(1000, dtype=np.int64),
                       "grp": ["a", "b"] * 500})
    out = stratified_hash_sample(rd.from_pandas(df), "id", "grp",
                                 {"a": 1.0}).to_pandas()
    # rate 1.0 keeps every 'a'; 'b' has no rate -> dropped entirely
    assert set(out["grp"]) == {"a"}
    assert len(out) == 500


def test_cc_fast_path_equals_distributed_path():
    """The small-graph driver union-find tier must produce exactly
    the labels the iterative shuffle path produces."""
    rng = np.random.RandomState(3)
    pairs = [(int(a), int(b))
             for a, b in rng.randint(0, 60, size=(120, 2)) if a != b]
    fast = cc_dict(pairs, driver_budget=None)
    dist = cc_dict(pairs)
    assert fast == dist


def test_pagerank_paths_agree_and_handle_dangling():
    """Distributed PageRank must match the driver power iteration
    bit-near (same update rule) on a graph with a dangling sink, and
    rank mass must stay exactly 1."""
    from no_fasel_scrapers_ray.ops.graph import _driver_pagerank, pagerank
    # star into node 9 (dangling: no out-edges) + a 2-cycle
    edges = pd.DataFrame({"src": [1, 2, 3, 4, 5, 6, 6, 7],
                          "dst": [9, 9, 9, 9, 9, 7, 1, 6]})
    ref = _driver_pagerank(edges["src"].to_numpy(np.int64),
                          edges["dst"].to_numpy(np.int64),
                          0.85, 5).to_pandas().sort_values(
        "node", ignore_index=True)
    ds = rd.from_pandas(edges).repartition(3)
    # the three size tiers: driver power iteration, broadcast-ranks
    # (edges streamed, one shuffle/iter), fully-joined distributed
    for budgets in ((None, None), (0, None), (0, 0)):
        with tier_budgets(*budgets):
            got = pagerank(ds, 0.85, 5).to_pandas().sort_values(
                "node", ignore_index=True)
        assert got["node"].tolist() == ref["node"].tolist()
        np.testing.assert_allclose(got["rank"], ref["rank"],
                                   rtol=0, atol=1e-12)
        assert abs(got["rank"].sum() - 1.0) < 1e-12
    # the sink must out-rank every spoke; spokes sit at the teleport
    # floor + dangling share (no in-links)
    r = dict(zip(ref["node"], ref["rank"]))
    assert r[9] == max(r.values())
    assert r[2] == r[3] == r[4] == r[5]


def test_triangle_count_tiers_agree():
    """Both closing tiers (broadcast membership / bucketed closing
    join) must count exactly; K4 has 4 triangles, plus a pendant edge
    and an open wedge contribute none."""
    from no_fasel_scrapers_ray.ops.graph import triangle_count
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    extra = [(3, 10), (10, 11), (20, 21), (21, 22)]   # pendant + path
    edges = pd.DataFrame(k4 + extra, columns=["a", "b"])
    ds = rd.from_pandas(edges).repartition(3)
    # tier 1: driver compact-forward (default budgets)
    assert triangle_count(ds) == 4
    # tier 2: distributed, broadcast-membership closing pass
    with tier_budgets(driver=0):
        assert triangle_count(ds) == 4
    # tier 3: distributed, bucketed wedge⋈edge closing join
    with tier_budgets(0, 0):
        assert triangle_count(ds) == 4


def test_pagerank_checkpoint_resume(tmp_path):
    """Killing pagerank mid-run and re-invoking with the same
    checkpoint_dir must resume from the last complete iteration and
    produce EXACTLY the uninterrupted result — tier 2 and tier 3."""
    import os
    import shutil
    from no_fasel_scrapers_ray.ops.graph import pagerank
    rng = np.random.RandomState(7)
    edges = pd.DataFrame({"src": rng.randint(0, 60, 300),
                          "dst": rng.randint(0, 80, 300)}).drop_duplicates()
    ds = rd.from_pandas(edges).repartition(3)
    for budgets, pref in (((0, None), "pagerank"), ((0, 0), "pagerank3")):
        with tier_budgets(*budgets):
            full = pagerank(ds, 0.85, 3).to_pandas() \
                .sort_values("node", ignore_index=True)
        ck = tmp_path / f"ck_{pref}"
        with tier_budgets(*budgets):
            pagerank(ds, 0.85, 3, checkpoint_dir=str(ck)).to_pandas()
        names = sorted(n for n in os.listdir(ck) if "_iter_" in n)
        assert len(names) == 3, names
        # simulate a crash after iteration 2: drop checkpoint 3
        for n in names:
            if "_iter_3" in n:
                p = ck / n
                shutil.rmtree(p) if p.is_dir() else p.unlink()
        with tier_budgets(*budgets):
            resumed = pagerank(ds, 0.85, 3,
                               checkpoint_dir=str(ck)).to_pandas() \
                .sort_values("node", ignore_index=True)
        assert resumed["node"].tolist() == full["node"].tolist()
        np.testing.assert_allclose(resumed["rank"], full["rank"],
                                   rtol=0, atol=1e-15)


def test_cc_checkpoint_resume(tmp_path):
    """CC resume: labels are the only state; dropping the last
    checkpoint and re-running converges to the identical labeling."""
    import os
    import shutil
    from no_fasel_scrapers_ray.ops.graph import connected_components
    pairs = [(i, i + 1) for i in range(4)] + [(20, 21), (21, 22)]
    ds = rd.from_pandas(pd.DataFrame(pairs, columns=["a", "b"])) \
        .repartition(len(pairs))
    with tier_budgets(driver=0):
        full = connected_components(ds, "a", "b").to_pandas()
        ck = tmp_path / "cc_ck"
        connected_components(ds, "a", "b",
                             checkpoint_dir=str(ck)).to_pandas()
    names = sorted(n for n in os.listdir(ck) if "_iter_" in n)
    assert names, "no checkpoints written"
    last = names[-1]
    p = ck / last
    shutil.rmtree(p) if p.is_dir() else p.unlink()
    with tier_budgets(driver=0):
        resumed = connected_components(ds, "a", "b",
                                       checkpoint_dir=str(ck)).to_pandas()
    a = dict(zip(full["doc_id"], full["cluster_id"]))
    b = dict(zip(resumed["doc_id"], resumed["cluster_id"]))
    assert a == b


def test_cc_checkpoint_resumes_at_another_bucket_count(tmp_path,
                                                     set_buckets):
    """The bucket count is derived from the cluster's CPUs, so a resume
    may run at another count than the run that checkpointed. The
    checkpoint is a labels table, re-split on resume, and min-label
    propagation does not depend on the split: a run interrupted after
    one iteration at 4 buckets resumes at 2 to the uninterrupted
    labeling."""
    import os
    from no_fasel_scrapers_ray.ops.graph import connected_components
    # one long path (20k nodes ≥ 4 × 4096, so the BSP tier really runs
    # 4 buckets), its edges scattered across blocks so convergence
    # needs several iterations
    n = 20_000
    rng = np.random.default_rng(2)
    order = rng.permutation(n - 1)
    ds = rd.from_pandas(pd.DataFrame({
        "a": order.astype(np.int64), "b": order.astype(np.int64) + 1})) \
        .repartition(40).materialize()
    ck = str(tmp_path / "cc_ck")
    with tier_budgets(driver=0):
        full = connected_components(ds, "a", "b")
        set_buckets(4)
        with pytest.raises(RuntimeError, match="did not converge"):
            connected_components(ds, "a", "b",
                                 checkpoint_dir=ck, max_iters=1)
        assert [m for m in os.listdir(ck) if "_iter_1" in m]
        set_buckets(2)
        resumed = connected_components(ds, "a", "b",
                                       checkpoint_dir=ck).to_pandas()
    full = full.to_pandas()
    assert len(resumed) == n
    assert dict(zip(full["doc_id"], full["cluster_id"])) == \
        dict(zip(resumed["doc_id"], resumed["cluster_id"]))


def test_triangle_count_large_node_ids():
    """Node ids ≥ 2^32 must count exactly in every tier: the key
    packing compacts ids first (raw (u<<32)|v packing silently
    collided / overflowed for such ids)."""
    from no_fasel_scrapers_ray.ops.graph import triangle_count
    B = 1 << 33
    nodes = [B, B + 7, B + 13, B + 29]
    k4 = [(nodes[a], nodes[b]) for a in range(4) for b in range(a + 1, 4)]
    extra = [(nodes[3], 5), (5, 6)]                   # pendant + wedge
    ds = rd.from_pandas(pd.DataFrame(k4 + extra, columns=["a", "b"]))
    assert triangle_count(ds) == 4
    with tier_budgets(driver=0):
        assert triangle_count(ds) == 4
    with tier_budgets(0, 0):
        assert triangle_count(ds) == 4


def test_ckpt_manifest_rejects_foreign_state(tmp_path):
    """Reusing a checkpoint dir with a DIFFERENT input must fail
    loudly instead of silently resuming from foreign ranks/labels."""
    import pytest
    from no_fasel_scrapers_ray.ops.graph import pagerank
    rng = np.random.RandomState(3)
    mk = lambda n: rd.from_pandas(pd.DataFrame(
        {"src": rng.randint(0, n, 200),
         "dst": rng.randint(0, n, 200)}).drop_duplicates())
    ck = str(tmp_path / "ck")
    with tier_budgets(driver=0):
        pagerank(mk(40), 0.85, 2, checkpoint_dir=ck).to_pandas()
        with pytest.raises(ValueError, match="different input"):
            pagerank(mk(70), 0.85, 2, checkpoint_dir=ck)


def test_cc_stale_checkpoint_beyond_max_iters_ignored(tmp_path):
    """A prior run's checkpoints at iter ≥ this run's max_iters are
    ignored (fresh start), not resumed into a spurious
    'did not converge' error."""
    import os
    from no_fasel_scrapers_ray.ops.graph import connected_components
    pairs = [(i, i + 1) for i in range(4)] + [(20, 21)]
    ds = rd.from_pandas(pd.DataFrame(pairs, columns=["a", "b"])) \
        .repartition(len(pairs))
    ck = str(tmp_path / "ck")
    with tier_budgets(driver=0):
        full = connected_components(ds, "a", "b",
                                    checkpoint_dir=ck).to_pandas()
        n_iters = len([n for n in os.listdir(ck) if "_iter_" in n])
        again = connected_components(
            ds, "a", "b", checkpoint_dir=ck,
            max_iters=n_iters).to_pandas()
    assert dict(zip(full["doc_id"], full["cluster_id"])) == \
        dict(zip(again["doc_id"], again["cluster_id"]))
