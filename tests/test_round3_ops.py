"""Edge-case units for the round-3 additions: distributed ordered
prefix sum, k-core peeling, deterministic graph walks. The happy paths
are oracle-gated in test_queries_vs_duckdb; these pin the boundaries
the oracle data doesn't reach (sparse/skewed id domains, cascades to
empty, walk dropouts)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops.graph import deterministic_walks, kcore_nodes
from no_fasel_scrapers_ray.ops.relational import ordered_prefix_sum

# ---------------------------------------------------------------------------
# ordered_prefix_sum
# ---------------------------------------------------------------------------


def scan_dict(ids, vals, **kw):
    ds = rd.from_pandas(pd.DataFrame({"k": ids, "v": vals}))
    out = ordered_prefix_sum(ds, "k", "v", "off", **kw).to_pandas()
    return dict(zip(out["k"], out["off"]))


def ref_scan(ids, vals):
    order = np.argsort(ids, kind="stable")
    cs = np.cumsum(np.asarray(vals, dtype=np.int64)[order])
    return {int(ids[i]): int(cs[j] - vals[i])
            for j, i in enumerate(order)}


def test_prefix_sum_shuffled_input_matches_sorted_cumsum():
    rng = np.random.default_rng(7)
    ids = rng.permutation(1000).astype(np.int64)
    vals = rng.integers(0, 100, size=1000).astype(np.int64)
    assert scan_dict(ids, vals) == ref_scan(ids, vals)


def test_prefix_sum_sparse_skewed_id_domain(set_buckets):
    # ids cluster at the bottom of a huge domain: most ranges are
    # EMPTY (np.add.at must not assume contiguous bucket ids), and one
    # range holds nearly everything
    ids = np.concatenate([np.arange(50, dtype=np.int64),
                          np.array([10**12, 10**12 + 7], dtype=np.int64)])
    vals = np.arange(52, dtype=np.int64) + 1
    set_buckets(16)
    assert scan_dict(ids, vals) == ref_scan(ids, vals)


def test_prefix_sum_single_row_and_single_bucket(set_buckets):
    assert scan_dict(np.array([5]), np.array([9])) == {5: 0}
    ids = np.arange(10, dtype=np.int64)
    vals = np.full(10, 3, dtype=np.int64)
    set_buckets(1)
    assert scan_dict(ids, vals) == ref_scan(ids, vals)


# ---------------------------------------------------------------------------
# kcore_nodes
# ---------------------------------------------------------------------------


def kcore_dict(edges, k, rounds=4):
    ds = rd.from_pandas(pd.DataFrame(edges, columns=["a", "b"]))
    out = kcore_nodes(ds, k=k, rounds=rounds).to_pandas()
    if "node" not in out.columns:  # Ray drops schema on empty datasets
        assert out.empty
        return {}
    return dict(zip(out["node"], out["deg"]))


def clique(nodes):
    return [(a, b) for a in nodes for b in nodes if a < b]


def test_kcore_peels_pendants_keeps_clique():
    # K5 (degree 4 inside) with a pendant chain hanging off node 0:
    # k=3 must peel the chain in cascading rounds and keep the clique
    edges = clique(range(5)) + [(0, 10), (10, 11), (11, 12)]
    got = kcore_dict(edges, k=3)
    assert got == {0: 4, 1: 4, 2: 4, 3: 4, 4: 4}


def test_kcore_cascade_to_empty():
    # a chain has no 2-core: every round exposes new degree-1 ends
    # until nothing is left
    edges = [(i, i + 1) for i in range(6)]
    assert kcore_dict(edges, k=2, rounds=6) == {}


def test_kcore_early_convergence_stops_peeling():
    # K4 is already a 3-core: round 1 drops nothing and the loop must
    # break (degrees unchanged), not oscillate
    got = kcore_dict(clique(range(4)), k=3, rounds=4)
    assert got == {0: 3, 1: 3, 2: 3, 3: 3}


def test_kcore_bounded_rounds_is_overapproximation():
    # with rounds=1 the pendant chain is only partially peeled: the
    # fixed-round contract (what the unrolled SQL oracle computes)
    edges = clique(range(5)) + [(0, 10), (10, 11)]
    got1 = kcore_dict(edges, k=3, rounds=1)
    # round 1 removes 11 (deg 1) and 10 (deg 2 < 3); survivors exact
    assert set(got1) == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# deterministic_walks
# ---------------------------------------------------------------------------


def walks_df(adjs, starts):
    adj_ds = [rd.from_pandas(pd.DataFrame(a, columns=["src", "dst"]))
              for a in adjs]
    st = rd.from_pandas(pd.DataFrame({"node": starts}))
    return (deterministic_walks(adj_ds, st).to_pandas()
            .sort_values("walk", ignore_index=True))


def _hash(dst, step):
    return ((dst + 1) * 1103515245 + step * 12345) % 2147483647


def test_walks_pick_min_hash_neighbor():
    adj = [(0, 10), (0, 11), (0, 12), (1, 10), (1, 12)]
    got = walks_df([adj], [0, 1])
    for walk, nbrs in ((0, [10, 11, 12]), (1, [10, 12])):
        expect = min(nbrs, key=lambda d: (_hash(d, 1), d))
        assert int(got.loc[got["walk"] == walk, "hop1"].iloc[0]) == expect


def test_walks_drop_out_without_neighbor():
    # walk 1's hop-1 node (20) has no out-edge in the hop-2 adjacency:
    # inner-join semantics drop the walk entirely (mirrors the oracle's
    # chained joins)
    adj1 = [(0, 10), (1, 20)]
    adj2 = [(10, 5)]
    got = walks_df([adj1, adj2], [0, 1])
    assert got["walk"].tolist() == [0]
    assert got["hop2"].tolist() == [5]


def test_walks_reject_ids_beyond_packing_range():
    adj = [(0, 1 << 31)]
    with pytest.raises(Exception):
        walks_df([adj], [0])


def test_order_page_caps_tie_mass():
    from no_fasel_scrapers_ray.ops.relational import global_order_page
    df = pd.DataFrame({"cents": np.zeros(500, dtype=np.int64),
                       "id": np.arange(500, dtype=np.int64)})
    ds = rd.from_pandas(df)
    with pytest.raises(ValueError, match="tie mass"):
        global_order_page(ds, "cents", "id", 0, 3, max_collect=100)
    # under the cap the heavy-tie page still works
    page = global_order_page(ds, "cents", "id", 0, 3, max_collect=1000)
    assert page["id"].tolist() == [0, 1, 2]


def test_grouped_approx_quantiles_survives_empty_blocks():
    """ADVICE r03: empty blocks from upstream filters must not crash
    the partial."""
    from no_fasel_scrapers_ray.ops.sketch import grouped_approx_quantiles
    df = pd.DataFrame({"g": ["x"] * 50 + ["y"] * 50,
                       "v": np.arange(100, dtype=np.float64)})
    ds = (rd.from_pandas(df).repartition(8)
          .filter(expr="v < 10"))  # several blocks end up empty
    out = grouped_approx_quantiles(ds, ["g"], "v", [0.5]).to_pandas()
    assert sorted(out["g"].tolist()) == ["x"]
    assert abs(out["q_50"].iloc[0] - 4.5) < 1.0
