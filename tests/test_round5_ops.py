"""Round-5 operator tests: snapshot diff, profiler, gaps-and-islands,
weighted median, sliding-window distinct, weighted SSSP (both tiers)."""

import numpy as np
import pandas as pd
import ray.data as rd

from no_fasel_scrapers_ray.ops.graph import weighted_sssp
from no_fasel_scrapers_ray.ops.util import tier_budgets
from no_fasel_scrapers_ray.ops.relational import (
    consecutive_islands, grouped_weighted_median, keyed_snapshot_diff,
    profile_numeric_columns, trailing_distinct_count)


def _ds(df, parts=2):
    return rd.from_pandas(df).repartition(parts)


def test_snapshot_diff_planted():
    old = _ds(pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]}))
    new = _ds(pd.DataFrame({"k": [2, 3, 5], "v": [20, 99, 50]}))
    out = keyed_snapshot_diff(old, new, "k", ["v"]).to_pandas()
    out = out.sort_values("k", ignore_index=True)
    got = list(out.itertuples(index=False, name=None))
    # k=2 unchanged → dropped; 1,4 removed; 3 changed; 5 added
    assert got == [(1, "removed", 10, -1), (3, "changed", 30, 99),
                   (4, "removed", 40, -1), (5, "added", -1, 50)]
    assert out["v_old"].dtype == np.int64
    assert out["v_new"].dtype == np.int64


def test_profile_numeric_columns_nulls_and_distinct():
    df = pd.DataFrame({
        "a": [1.0, 2.0, 2.0, np.nan, 5.0],
        "b": [7, 7, 7, 7, 8]})
    out = profile_numeric_columns(_ds(df), ["a", "b"])
    a = out[out["col_name"] == "a"].iloc[0]
    b = out[out["col_name"] == "b"].iloc[0]
    assert (a["n_rows"], a["n_null"], a["n_distinct"]) == (5, 1, 3)
    assert (a["min_val"], a["max_val"]) == (1.0, 5.0)
    assert (b["n_rows"], b["n_null"], b["n_distinct"]) == (5, 0, 2)
    assert (b["min_val"], b["max_val"]) == (7.0, 8.0)


def test_consecutive_islands_planted():
    # user 1: days 1,2,3 + 7,8 → islands 2, longest 3, vals 5
    # user 2: day 4 only; duplicates must not break runs
    df = pd.DataFrame({
        "u": [1, 1, 1, 1, 1, 1, 2],
        "d": [1, 2, 3, 7, 8, 2, 4]})
    out = consecutive_islands(_ds(df), "u", "d").to_pandas()
    out = out.sort_values("u", ignore_index=True)
    assert list(out.itertuples(index=False, name=None)) == [
        (1, 2, 3, 5), (2, 1, 1, 1)]


def test_grouped_weighted_median_planted():
    # group x: values 1 (w=1), 2 (w=1), 10 (w=2) → total 4, cum at
    # value 2 is 2 → 2*2 >= 4 → lower weighted median = 2
    df = pd.DataFrame({"g": ["x", "x", "x", "y"],
                       "v": [1, 2, 10, 5],
                       "w": [1, 1, 2, 3]})
    out = grouped_weighted_median(_ds(df), ["g"], "v", "w").to_pandas()
    got = dict(zip(out["g"], out["v"]))
    assert got == {"x": 2, "y": 5}


def test_trailing_distinct_count_planted():
    # buckets 0,10,20 (step 10, width 2): entity seen at 0 also counts
    # at 10; bucket 30 absent from input → no row
    df = pd.DataFrame({"t": [0, 0, 10, 20], "e": [1, 2, 2, 3]})
    out = trailing_distinct_count(_ds(df), "t", "e", width=2,
                                  step=10).to_pandas()
    got = dict(zip(out["t"], out["n_distinct"]))
    assert got == {0: 2, 10: 2, 20: 2}   # 20 sees {2 (from 10), 3}


def _sssp_edges():
    #     0 →1→ 1 →1→ 2        0 →5→ 2  (direct, worse)
    # undirected weights given explicitly; 3 unreachable from 0
    return _ds(pd.DataFrame({
        "u": [0, 1, 0, 4],
        "v": [1, 2, 2, 3],
        "w": [1, 1, 5, 2]}))


def test_weighted_sssp_driver_tier():
    out = weighted_sssp(_sssp_edges(), source=0).to_pandas()
    got = dict(zip(out["node_id"], out["dist"]))
    assert got == {0: 0, 1: 1, 2: 2}   # 2 via 0→1→2, not direct 5


def test_weighted_sssp_tier_equality():
    a = weighted_sssp(_sssp_edges(), source=0).to_pandas()
    with tier_budgets(driver=0):
        b = weighted_sssp(_sssp_edges(), source=0).to_pandas()
    a = a.sort_values("node_id", ignore_index=True)
    b = b.sort_values("node_id", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_weighted_sssp_isolated_source():
    edges = _ds(pd.DataFrame({"u": [5], "v": [6], "w": [2]}))
    out = weighted_sssp(edges, source=99).to_pandas()
    got = dict(zip(out["node_id"], out["dist"]))
    assert got == {99: 0}


# ---- BPE merge training vs single-process reference -----------------

def _ref_bpe(texts, n_merges, min_count=2):
    """Canonical single-process BPE (Sennrich et al.): word-frequency
    vocab, overlapping adjacent-pair counts, (freq desc, left, right)
    argmax, left-to-right non-overlapping merge apply."""
    from collections import Counter
    wc = Counter(t for s in texts for t in s.split())
    vocab = {w: list(w) for w in wc}
    merges = []
    for rank in range(1, n_merges + 1):
        pairs = Counter()
        for w, syms in vocab.items():
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += wc[w]
        if not pairs:
            break
        (x, y), f = min(pairs.items(),
                        key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        if f < min_count:
            break
        merges.append((rank, x, y, f))
        for w, syms in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == x
                        and syms[i + 1] == y):
                    out.append(x + y)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = out
    return pd.DataFrame({
        "rank": pd.array([m[0] for m in merges], dtype=np.int64),
        "left": pd.array([m[1] for m in merges], dtype=object),
        "right": pd.array([m[2] for m in merges], dtype=object),
        "freq": pd.array([m[3] for m in merges], dtype=np.int64)})


def test_bpe_merges_matches_reference():
    from no_fasel_scrapers_ray.ops.textops import train_bpe_merges
    texts = ["the cat sat on the mat",
             "the bat and the cat chat",
             "that hat is flat flat flat",
             "banana bandana banana"]
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts})).repartition(3)
    got = train_bpe_merges(docs, n_merges=12)
    want = _ref_bpe(texts, 12)
    pd.testing.assert_frame_equal(got, want)


def test_bpe_merges_overlap_and_stop():
    from no_fasel_scrapers_ray.ops.textops import train_bpe_merges
    # "aaaa" x3: pair (a,a) counts 3 overlapping occurrences per word;
    # apply is non-overlapping -> aa aa; next merge (aa,aa)
    texts = ["aaaa aaaa aaaa"]
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.array([0], dtype=np.int64), "text": texts}))
    got = train_bpe_merges(docs, n_merges=10)
    want = _ref_bpe(texts, 10)
    pd.testing.assert_frame_equal(got, want)
    assert list(got["left"])[:2] == ["a", "aa"]


def test_bpe_merges_tier_equality():
    from no_fasel_scrapers_ray.ops.textops import train_bpe_merges
    texts = ["the cat sat on the mat",
             "the bat and the cat chat"]
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts})).repartition(2)
    a = train_bpe_merges(docs, n_merges=8)                      # driver
    with tier_budgets(driver=0):
        b = train_bpe_merges(docs, n_merges=8)                  # dataset
    pd.testing.assert_frame_equal(a, b)


def test_bpe_encode_counts_matches_reference():
    from no_fasel_scrapers_ray.ops.textops import (bpe_encode_counts,
                                                   train_bpe_merges)
    texts = ["the cat sat on the mat",
             "the bat and the cat chat",
             "banana bandana banana"]
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts})).repartition(2)
    merges_df = train_bpe_merges(docs, n_merges=8)
    pairs = list(zip(merges_df["left"], merges_df["right"]))

    def ref_encode_len(word):
        syms = list(word)
        for x, y in pairs:
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == x
                        and syms[i + 1] == y):
                    out.append(x + y)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return len(syms)

    got = bpe_encode_counts(docs, pairs).to_pandas()
    got = got.sort_values("doc_id", ignore_index=True)
    want = [sum(ref_encode_len(w) for w in t.split()) for t in texts]
    assert list(got["n_tokens_bpe"]) == want
    assert got["n_tokens_bpe"].dtype == np.int64


# ---- minimum spanning forest (Boruvka) -------------------------------

def _kruskal_ref(edges):
    """Reference Kruskal with the same (w, u, v) tie order."""
    es = sorted((w, min(u, v), max(u, v)) for u, v, w in edges
                if u != v)
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    out = []
    for w, u, v in es:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            out.append((u, v, w))
    return sorted(out)


def _msf_out(ds):
    df = ds.to_pandas()
    return sorted(zip(df["u"].astype(int), df["v"].astype(int),
                      df["w"].astype(int)))


def test_msf_planted():
    from no_fasel_scrapers_ray.ops.graph import minimum_spanning_forest
    # square 0-1-2-3 with a heavy diagonal and a self-loop; forest
    # drops the heaviest cycle edge (2,3,9) and the loop
    df = pd.DataFrame({"u": [0, 1, 2, 3, 0, 4],
                       "v": [1, 2, 3, 0, 2, 4],
                       "w": [1, 2, 9, 3, 4, 7]})
    got = _msf_out(minimum_spanning_forest(_ds(df)))
    # MSF drops the two heaviest cycle edges (0-2 w4, 2-3 w9) and the
    # self-loop; the isolated 4-4 loop contributes nothing
    assert got == [(0, 1, 1), (0, 3, 3), (1, 2, 2)]
    assert got == _kruskal_ref(list(zip(df["u"], df["v"], df["w"])))


def test_msf_tier_equality_unique_weights():
    from no_fasel_scrapers_ray.ops.graph import minimum_spanning_forest
    # deterministic pseudo-random graph with UNIQUE weights -> the MSF
    # is unique, so Kruskal (tier 1) and Boruvka (tier 2) must agree
    n, m = 40, 160
    u = np.arange(m, dtype=np.int64) * 37 % n
    v = (np.arange(m, dtype=np.int64) * 53 + 11) % n
    keep = u != v
    u, v = u[keep], v[keep]
    w = np.arange(len(u), dtype=np.int64) * 7919 % 10007  # distinct
    # dedupe multi-edges keeping the lightest (undirected canonical)
    seen = {}
    for a, b, ww in zip(u, v, w):
        key = (min(a, b), max(a, b))
        if key not in seen or ww < seen[key]:
            seen[key] = ww
    u = np.array([k[0] for k in seen], dtype=np.int64)
    v = np.array([k[1] for k in seen], dtype=np.int64)
    w = np.array(list(seen.values()), dtype=np.int64)
    df = pd.DataFrame({"u": u, "v": v, "w": w})
    t1 = _msf_out(minimum_spanning_forest(_ds(df, parts=3)))
    with tier_budgets(driver=0):
        t2 = _msf_out(minimum_spanning_forest(_ds(df, parts=3)))
    ref = _kruskal_ref(list(zip(u, v, w)))
    assert t1 == ref
    assert t2 == ref


def test_msf_disconnected_and_empty():
    from no_fasel_scrapers_ray.ops.graph import minimum_spanning_forest
    df = pd.DataFrame({"u": [1, 5, 9], "v": [2, 6, 9], "w": [3, 4, 1]})
    got = _msf_out(minimum_spanning_forest(_ds(df)))
    assert got == [(1, 2, 3), (5, 6, 4)]   # two trees; self-loop dropped
    empty = pd.DataFrame({"u": pd.Series([], dtype=np.int64),
                          "v": pd.Series([], dtype=np.int64),
                          "w": pd.Series([], dtype=np.int64)})
    out = minimum_spanning_forest(_ds(empty, parts=1)).to_pandas()
    assert len(out) == 0


def test_msf_fulfillment_query_tiers_and_reference():
    """The driver query matches the Kruskal reference on its own edge
    set at smoke scale, on BOTH tiers."""
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod
    from tests.conftest import SF_SMOKE
    t1 = _msf_out(entrymod.q_msf_fulfillment(SF_SMOKE))
    with tier_budgets(driver=0):
        t2 = _msf_out(entrymod.q_msf_fulfillment(SF_SMOKE))
    ed = entrymod._fulfillment_edges(SF_SMOKE).to_pandas()
    c = ed["c"].to_numpy(np.int64)
    s = ed["s"].to_numpy(np.int64)
    w = (c * 2654435761 + s * 40503) % 9973 + 1
    ref = _kruskal_ref(list(zip(c + (1 << 40), s, w)))
    assert t1 == ref
    assert t2 == ref
    assert len(t1) > 50


def test_weighted_sssp_long_chain_converges():
    # 80-hop chain: further than any fixed small round cap — both
    # tiers must still report the full distances (review r5 fix)
    n = 80
    df = pd.DataFrame({"u": np.arange(n, dtype=np.int64),
                       "v": np.arange(1, n + 1, dtype=np.int64),
                       "w": np.ones(n, dtype=np.int64)})
    out = weighted_sssp(_ds(df, parts=3), source=0).to_pandas()
    got = dict(zip(out["node_id"], out["dist"]))
    assert got[n] == n and len(got) == n + 1
    with tier_budgets(driver=0):
        out2 = weighted_sssp(_ds(df, parts=3), source=0).to_pandas()
    got2 = dict(zip(out2["node_id"], out2["dist"]))
    assert got2 == got


def test_weighted_sssp_bsp_backstop_raises():
    import pytest
    df = pd.DataFrame({"u": [0, 1, 2], "v": [1, 2, 3],
                       "w": [1, 1, 1]})
    with pytest.raises(RuntimeError, match="max_rounds"), \
            tier_budgets(driver=0):
        weighted_sssp(_ds(df), source=0, max_rounds=2)


def test_clamped_running_balance_matches_recurrence():
    from no_fasel_scrapers_ray.ops.relational import (
        clamped_running_balance)
    rng_deltas = [3, -5, 4, -1, -10, 7]      # forces two clamps
    df = pd.DataFrame({"k": [1] * 6 + [2, 2],
                       "o": list(range(6)) + [0, 1],
                       "d": rng_deltas + [-4, 9]})
    out = clamped_running_balance(_ds(df), "k", ["o"], "d").to_pandas()
    got = {r.k: (r.final_balance, r.peak_balance)
           for r in out.itertuples()}

    def seq(ds_):
        b, peak = 0, 0
        for d in ds_:
            b = max(b + d, 0)
            peak = max(peak, b)
        return b, peak

    assert got == {1: seq(rng_deltas), 2: seq([-4, 9])}
    assert out["final_balance"].dtype == np.int64


def test_local_clustering_planted_and_tiers():
    from no_fasel_scrapers_ray.ops.graph import local_clustering
    # K4 on {1,2,3,4} plus pendant 5–1 and isolated edge 6–7:
    # every K4 node sits in 3 triangles; deg(1)=4 → lcc 3/6=0.5,
    # deg(2,3,4)=3 → lcc 3/3=1.0; 5 (deg 1) and 6,7 excluded... except
    # 6,7 have deg 1 → excluded too
    e = pd.DataFrame({"a": [1, 1, 1, 2, 2, 3, 1, 6],
                      "b": [2, 3, 4, 3, 4, 4, 5, 7]})
    out = local_clustering(_ds(e)).sort_values("node",
                                               ignore_index=True)
    assert list(out["node"]) == [1, 2, 3, 4]
    assert list(out["n_tri"]) == [3, 3, 3, 3]
    assert list(out["deg"]) == [4, 3, 3, 3]
    np.testing.assert_allclose(out["lcc"], [0.5, 1.0, 1.0, 1.0])
    assert out["n_tri"].dtype == np.int64 and out["deg"].dtype == np.int64
    # forced broadcast tier must agree exactly with the driver tier
    with tier_budgets(driver=0):
        forced = local_clustering(_ds(e)) \
            .sort_values("node", ignore_index=True)
    pd.testing.assert_frame_equal(out, forced)


def test_local_clustering_zero_triangle_nodes_kept():
    from no_fasel_scrapers_ray.ops.graph import local_clustering
    # path 1-2-3: node 2 has deg 2 but no triangle → row with lcc 0.0
    e = pd.DataFrame({"a": [1, 2], "b": [2, 3]})
    out = local_clustering(_ds(e))
    assert list(out["node"]) == [2]
    assert list(out["n_tri"]) == [0]
    assert list(out["lcc"]) == [0.0]


def test_spearman_corr_planted():
    from no_fasel_scrapers_ray.ops.relational import spearman_corr
    # perfectly monotone (nonlinear) relation → rho exactly 1.0
    x = np.arange(1, 101, dtype=np.int64)
    ds = _ds(pd.DataFrame({"x": x, "y": x * x}), parts=4)
    out = spearman_corr(ds, "x", "y", "rho")
    np.testing.assert_allclose(out["rho"], [1.0])
    # anti-monotone → -1; ties collapse toward 0 vs scipy reference
    ds2 = _ds(pd.DataFrame({"x": x, "y": -3 * x}), parts=4)
    np.testing.assert_allclose(
        spearman_corr(ds2, "x", "y", "rho")["rho"], [-1.0])


def test_theil_sen_outlier_immunity():
    from no_fasel_scrapers_ray.ops.relational import theil_sen_grouped
    # slope 2 line with one wild outlier: OLS would move, median slope
    # stays 2.0; group "b" too small → dropped
    x = np.arange(10, dtype=np.int64)
    y = 2 * x
    y[9] = 1000
    df = pd.DataFrame({"k": ["a"] * 10 + ["b"] * 2,
                       "x": np.concatenate([x, [0, 1]]),
                       "y": np.concatenate([y, [5, 6]])})
    out = theil_sen_grouped(_ds(df, parts=3), "k", "x", "y", "slope",
                            min_points=3).to_pandas()
    assert list(out["k"]) == ["a"]
    np.testing.assert_allclose(out["slope"], [2.0])


def test_spearman_tiers_agree():
    from no_fasel_scrapers_ray.ops.relational import spearman_corr
    x = np.arange(1, 501, dtype=np.int64)
    y = (x * 7919) % 1009
    ds = _ds(pd.DataFrame({"x": x % 37, "y": y}), parts=4)
    a = spearman_corr(ds, "x", "y", "rho")["rho"][0]
    # forced bucketed-join tier must produce the identical float
    with tier_budgets(broadcast=0):
        b = spearman_corr(ds, "x", "y", "rho")["rho"][0]
    assert a == b


def test_grouped_spearman_tiers_agree_and_planted():
    from no_fasel_scrapers_ray.ops.relational import grouped_spearman
    x = np.arange(1, 301, dtype=np.int64)
    df = pd.DataFrame({"k": np.where(x % 2 == 0, "a", "b"),
                       "x": x, "y": np.where(x % 2 == 0, x * x, -x)})
    ds = _ds(df, parts=4)
    out = grouped_spearman(ds, "k", "x", "y", "rho").to_pandas() \
        .sort_values("k", ignore_index=True)
    # group a: monotone increasing → +1; group b: decreasing → -1
    np.testing.assert_allclose(out["rho"], [1.0, -1.0])
    with tier_budgets(broadcast=0):
        forced = grouped_spearman(ds, "k", "x", "y", "rho").to_pandas() \
            .sort_values("k", ignore_index=True)
    pd.testing.assert_frame_equal(out, forced)


def test_kendall_tau_planted():
    from no_fasel_scrapers_ray.ops.relational import kendall_tau_grouped
    x = np.arange(8, dtype=np.int64)
    df = pd.DataFrame({
        "k": ["up"] * 8 + ["down"] * 8 + ["tiny"] * 2,
        "x": np.concatenate([x, x, [0, 1]]),
        "y": np.concatenate([2 * x, -x, [5, 6]])})
    out = kendall_tau_grouped(_ds(df, parts=3), "k", "x", "y", "tau",
                              min_points=3).to_pandas() \
        .sort_values("k", ignore_index=True)
    # monotone up → +1, monotone down → -1, tiny group dropped
    assert list(out["k"]) == ["down", "up"]
    np.testing.assert_allclose(out["tau"], [-1.0, 1.0])


def test_personalized_pagerank_tiers_and_concentration():
    from no_fasel_scrapers_ray.ops.graph import personalized_pagerank
    # star around seed 1 plus a far chain: mass concentrates near the
    # seed; tier-2 (forced) must match the driver tier exactly
    e = pd.DataFrame({"src": [1, 1, 1, 2, 3, 4, 5, 6],
                      "dst": [2, 3, 4, 5, 6, 7, 8, 9]})
    ds = _ds(e, parts=2)
    a = personalized_pagerank(ds, [1], iters=3).to_pandas() \
        .sort_values("node", ignore_index=True)
    with tier_budgets(driver=0):
        b = personalized_pagerank(ds, [1], iters=3) \
            .to_pandas().sort_values("node", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)
    r = dict(zip(a["node"], a["rank"]))
    # finite-iteration PPR on a DAG is a traveling wave, so no
    # monotone-decay claim; the invariants: the seed keeps at least
    # its teleport floor (1-d)·1, nodes unreachable in ≤3 hops from
    # the seed hold exactly 0, total mass is conserved
    assert r[1] >= 0.15
    assert all(r[n] > 0 for n in [2, 3, 4, 5, 6, 7, 8, 9])
    np.testing.assert_allclose(a["rank"].sum(), 1.0)  # mass conserved
    # seeds must be graph nodes
    import pytest
    with pytest.raises(ValueError):
        personalized_pagerank(ds, [999], iters=1)


def test_local_clustering_tier3_forced():
    from no_fasel_scrapers_ray.ops.graph import local_clustering
    # K4 + pendant + far edge, forced through the BSP closing
    # exchange with per-corner crediting — must equal the driver tier
    e = pd.DataFrame({"a": [1, 1, 1, 2, 2, 3, 1, 6],
                      "b": [2, 3, 4, 3, 4, 4, 5, 7]})
    ds = _ds(e, parts=3)
    drv = local_clustering(ds).sort_values("node", ignore_index=True)
    with tier_budgets(0, 0):
        t3 = local_clustering(ds).sort_values("node", ignore_index=True)
    pd.testing.assert_frame_equal(drv, t3)


def test_km_survival_matches_bruteforce():
    """Engine KM query logic vs a direct product-limit loop on a
    planted censored sample (the convention the SQL oracle mirrors):
    events and censors on shared days, terminal day fully eventful."""
    # t: day, e: event(1)/censored(0)
    t = np.array([1, 1, 1, 2, 2, 3, 3, 3, 5, 5], dtype=np.int64)
    e = np.array([1, 0, 1, 0, 0, 1, 1, 0, 1, 1], dtype=np.int64)
    # brute: iterate days ascending
    n = len(t)
    surv_ref = {}
    s = 1.0
    at_risk = n
    for day in sorted(set(t.tolist())):
        m = t == day
        d = int(e[m].sum())
        if d > 0:
            s *= 1.0 - d / at_risk
            surv_ref[day] = (d, at_risk, s)
        at_risk -= int(m.sum())
    # engine shape (the q_km_return_survival driver pass)
    df = pd.DataFrame({"t": t, "e": e}).groupby("t").agg(
        d=("e", "sum"), n_all=("e", "size")).reset_index()
    total = int(df["n_all"].sum())
    leave = df["n_all"].to_numpy(np.int64)
    n_risk = total - (np.cumsum(leave) - leave)
    d = df["d"].to_numpy(np.int64)
    keep = d > 0
    surv = np.cumprod(1.0 - d[keep].astype(np.float64)
                      / n_risk[keep].astype(np.float64))
    days = df["t"].to_numpy(np.int64)[keep]
    for day, s_got, d_got, nr_got in zip(days, surv, d[keep],
                                         n_risk[keep]):
        d_ref, nr_ref, s_ref = surv_ref[int(day)]
        assert (int(d_got), int(nr_got)) == (d_ref, nr_ref)
        np.testing.assert_allclose(s_got, s_ref)
    assert surv[-1] == 0.0 or surv[-1] > 0   # terminal day handled
