"""Round-4 operator tests: substring-level dup-span dedup."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops.dedup import dup_spans
from no_fasel_scrapers_ray.ops.util import tier_budgets


def _docs(texts):
    return rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts})).repartition(2)


def test_dup_spans_planted_duplicate():
    shared = " ".join(f"s{i}" for i in range(10))  # 10-token run
    texts = [
        "a0 a1 a2 " + shared + " a3 a4",          # span at offsets 3..13
        "b0 " + shared + " b1 b2 b3 b4 b5",       # span at offsets 1..11
        "c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10",      # clean
    ]
    out = (dup_spans(_docs(texts), k=4).to_pandas()
           .sort_values(["doc_id", "span_start"], ignore_index=True))
    got = list(out.itertuples(index=False, name=None))
    # windows of the shared run: all 4-token windows inside it merge
    # into ONE maximal island per doc
    assert got == [(0, 3, 13), (1, 1, 11)]


def test_dup_spans_intra_doc_repeat_not_counted():
    # the same 4-gram repeated INSIDE one doc is not a cross-doc dup
    texts = ["x1 x2 x3 x4 z x1 x2 x3 x4",
             "other words entirely here now"]
    out = dup_spans(_docs(texts), k=4).to_pandas()
    assert len(out) == 0


def test_dup_spans_two_islands_per_doc():
    a = " ".join(f"p{i}" for i in range(6))
    b = " ".join(f"q{i}" for i in range(6))
    texts = [a + " gap1 gap2 gap3 " + b,
             a + " zzz1 zzz2 zzz3 " + b]
    out = (dup_spans(_docs(texts), k=4).to_pandas()
           .sort_values(["doc_id", "span_start"], ignore_index=True))
    # each doc: island p0..p5 (offsets 0..6) and island q (offsets 9..15)
    got = list(out.itertuples(index=False, name=None))
    assert got == [(0, 0, 6), (0, 9, 15), (1, 0, 6), (1, 9, 15)]


def test_dup_spans_candidate_cap_degrades_to_distributed():
    # above the broadcast budget (5 hashes of 8 B) the op no longer
    # refuses to run — it takes the distributed candidate tier and
    # must produce the same spans (full tier-equality suite:
    # tests/test_round6_ops.py)
    shared = " ".join(f"w{i}" for i in range(30))
    with tier_budgets(broadcast=8 * 5):
        capped = (dup_spans(_docs([shared, shared]), k=4)
                  .to_pandas().sort_values(["doc_id", "span_start"],
                                           ignore_index=True))
    broad = (dup_spans(_docs([shared, shared]), k=4)
             .to_pandas().sort_values(["doc_id", "span_start"],
                                      ignore_index=True))
    pd.testing.assert_frame_equal(capped, broad)
    assert list(broad.itertuples(index=False, name=None)) == \
        [(0, 0, 30), (1, 0, 30)]


# ---- skyline_2d -------------------------------------------------------

def _brute_skyline(x, y):
    n = len(x)
    keep = []
    for i in range(n):
        dom = any(x[j] <= x[i] and y[j] >= y[i]
                  and (x[j] < x[i] or y[j] > y[i]) for j in range(n))
        keep.append(not dom)
    return np.array(keep)


def test_skyline_mask_matches_bruteforce():
    from no_fasel_scrapers_ray.ops.relational import _skyline_mask
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        x = rng.integers(0, 10, n).astype(np.float64)
        y = rng.integers(0, 10, n).astype(np.float64)
        got = _skyline_mask(x, y)
        assert (got == _brute_skyline(x, y)).all()


def test_skyline_2d_duplicates_of_frontier_point_all_kept():
    from no_fasel_scrapers_ray.ops.relational import skyline_2d
    df = pd.DataFrame({"k": np.arange(5, dtype=np.int64),
                       "price": np.array([10, 10, 20, 5, 20],
                                         dtype=np.int64),
                       "size": np.array([7, 7, 9, 3, 8],
                                        dtype=np.int64)})
    out = (skyline_2d(rd.from_pandas(df).repartition(3),
                      "price", "size").to_pandas()
           .sort_values("k", ignore_index=True))
    # (10,7) x2 survive (duplicates don't dominate each other),
    # (20,9) survives, (5,3) survives (cheapest), (20,8) dominated
    assert list(out["k"]) == [0, 1, 2, 3]


# ---- blocked_levenshtein_pairs ---------------------------------------

def _ref_lev(a, b):
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(cur[j - 1] + 1, prev[j] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[-1]


def test_vectorized_levenshtein_matches_reference():
    from no_fasel_scrapers_ray.ops.dedup import _levenshtein_pairs
    rng = np.random.default_rng(7)
    alphabet = "abcde "
    by_len = {}
    for _ in range(300):
        a = "".join(rng.choice(list(alphabet),
                               size=int(rng.integers(1, 12))))
        b = "".join(rng.choice(list(alphabet),
                               size=int(rng.integers(1, 12))))
        by_len.setdefault((len(a), len(b)), []).append((a, b))
    for (la, lb), ps in by_len.items():
        A = np.array([[ord(c) for c in a] for a, _ in ps],
                     dtype=np.int32).reshape(len(ps), la)
        B = np.array([[ord(c) for c in b] for _, b in ps],
                     dtype=np.int32).reshape(len(ps), lb)
        d = _levenshtein_pairs(A, B)
        for k, (a, b) in enumerate(ps):
            assert d[k] == _ref_lev(a, b)


def test_blocked_levenshtein_pairs_blocks_and_threshold():
    from no_fasel_scrapers_ray.ops.dedup import blocked_levenshtein_pairs
    df = pd.DataFrame({
        "key": np.arange(6, dtype=np.int64),
        "blk": ["x", "x", "x", "y", "y", "z"],
        "name": ["red bolt", "red bolts", "blue gear",
                 "red bolt", "red colt", "red bolt"]})
    out = (blocked_levenshtein_pairs(
        rd.from_pandas(df).repartition(2), "blk", "name", "key",
        max_dist=2).to_pandas()
        .sort_values(["key_a", "key_b"], ignore_index=True))
    # within x: (0,1) dist 1; cross-block (0,3)/(0,5) never compared
    assert list(out.itertuples(index=False, name=None)) == [
        (0, 1, 1), (3, 4, 1)]


def test_blocked_levenshtein_block_cap_fails_loudly():
    from no_fasel_scrapers_ray.ops.dedup import blocked_levenshtein_pairs
    df = pd.DataFrame({"key": np.arange(5, dtype=np.int64),
                       "blk": ["x"] * 5, "name": ["abc"] * 5})
    with pytest.raises(ValueError, match="max_block_rows"):
        blocked_levenshtein_pairs(rd.from_pandas(df), "blk", "name",
                                  "key", max_block_rows=3).to_pandas()


# ---------------------------------------------------------------------------
# tfidf_cosine_pairs: exact APSS tier equality + brute-force oracle
# ---------------------------------------------------------------------------

def _tfidf_brute(texts, threshold):
    """Driver-side exact tf·idf_milli cosine — the test oracle."""
    import math
    n = len(texts)
    tfs = []
    df = {}
    for t in texts:
        cnt = {}
        for tok in t.split(" "):
            cnt[tok] = cnt.get(tok, 0) + 1
        tfs.append(cnt)
        for tok in cnt:
            df[tok] = df.get(tok, 0) + 1
    idf = {t: int(np.sign(s) * np.floor(abs(s) + 0.5))
           for t, d in df.items()
           for s in [math.log(n / d) * 1000.0]}
    ws = [{t: c * idf[t] for t, c in tf.items() if idf[t] > 0}
          for tf in tfs]
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            dot = sum(w * ws[b][t] for t, w in ws[a].items()
                      if t in ws[b])
            na = math.sqrt(sum(w * w for w in ws[a].values()))
            nb = math.sqrt(sum(w * w for w in ws[b].values()))
            if na > 0 and nb > 0 and dot / (na * nb) >= threshold:
                out.append((a, b, dot / (na * nb)))
    return sorted(out)


def _tfidf_texts():
    # vocab of ~260 distinct tokens, planted near-dup pairs
    rng = np.random.default_rng(7)
    base = [" ".join(f"w{rng.integers(0, 250)}" for _ in range(30))
            for _ in range(40)]
    near = [t.rsplit(" ", 1)[0] + " w999" for t in base[:6]]  # ~0.97 sim
    return base + near + ["odd one out entirely", "zz yy xx"]


@pytest.mark.parametrize("forced_tier", ["dense", "sparse"])
def test_tfidf_cosine_pairs_tiers_match_bruteforce(forced_tier):
    from no_fasel_scrapers_ray.ops.dedup import tfidf_cosine_pairs
    texts = _tfidf_texts()
    cut = 100_000 if forced_tier == "dense" else 0
    got = (tfidf_cosine_pairs(_docs(texts), threshold=0.9,
                              dense_cutover=cut, block_rows=16)
           .to_pandas().sort_values(["doc_a", "doc_b"],
                                    ignore_index=True))
    want = _tfidf_brute(texts, 0.9)
    assert [(a, b) for a, b, _ in want] == \
        list(zip(got["doc_a"], got["doc_b"]))
    # similarities bit-identical to the float-mirrored expression
    assert np.array_equal(got["cos_sim"].to_numpy(),
                          np.array([s for _, _, s in want]))


def test_tfidf_cosine_pairs_dense_overflow_guard():
    from no_fasel_scrapers_ray.ops.dedup import tfidf_cosine_pairs
    # two docs sharing one astronomically repeated token would push
    # norm² past 2^53 — the dense tier must fail loudly, not silently
    # lose integer exactness
    t = " ".join(["tok"] * 200_000) + " " + " ".join(
        f"u{i}" for i in range(5))
    texts = [t, t + " extra", "small doc here", "another small doc"]
    # idf of 'tok' is 0 only if df==n; here df=2 of 4 so it keeps weight
    with pytest.raises(ValueError, match="integer-exactness"):
        tfidf_cosine_pairs(_docs(texts), threshold=0.9,
                           dense_cutover=100_000).to_pandas()


# ---------------------------------------------------------------------------
# bfs_hops: multi-source min-hop distance, both tiers
# ---------------------------------------------------------------------------

def _bfs_edges(pairs):
    return rd.from_pandas(pd.DataFrame(
        {"a": np.array([p[0] for p in pairs], dtype=np.int64),
         "b": np.array([p[1] for p in pairs], dtype=np.int64)}
    )).repartition(2)


# path 0-1-2-3-4-5, branch 2-10, isolated component 20-21
_BFS_PAIRS = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 10), (20, 21)]


@pytest.mark.parametrize("forced_tier", ["driver", "bsp"])
def test_bfs_hops_levels_and_cap(forced_tier):
    from no_fasel_scrapers_ray.ops.graph import bfs_hops
    with tier_budgets(driver=None if forced_tier == "driver" else 0):
        out = bfs_hops(_bfs_edges(_BFS_PAIRS), "a", "b",
                       np.array([0]), max_hops=3).to_pandas()
    got = dict(zip(out["node_id"], out["hops"]))
    # nodes 4,5 are 4 and 5 hops away — beyond the cap; 20/21 unreachable
    assert got == {0: 0, 1: 1, 2: 2, 3: 3, 10: 3}


@pytest.mark.parametrize("forced_tier", ["driver", "bsp"])
def test_bfs_hops_multi_source_and_isolated_seed(forced_tier):
    from no_fasel_scrapers_ray.ops.graph import bfs_hops
    # seed 5 (far end) + seed 99 (not in the graph at all)
    with tier_budgets(driver=None if forced_tier == "driver" else 0):
        out = bfs_hops(_bfs_edges(_BFS_PAIRS), "a", "b",
                       np.array([0, 5, 99]), max_hops=2).to_pandas()
    got = dict(zip(out["node_id"], out["hops"]))
    assert got == {0: 0, 5: 0, 99: 0, 1: 1, 4: 1, 2: 2, 3: 2}


# ---------------------------------------------------------------------------
# ngram_containment_pairs: asymmetric doc-inside-doc near-dup
# ---------------------------------------------------------------------------

def test_containment_planted_doc_inside_doc():
    from no_fasel_scrapers_ray.ops.dedup import ngram_containment_pairs
    inner = " ".join(f"c{i}" for i in range(12))
    texts = [
        inner,                                             # doc 0: contained
        "pre1 pre2 " + inner + " post1 post2 post3",       # doc 1: container
        " ".join(f"z{i}" for i in range(20)),              # doc 2: unrelated
    ]
    out = (ngram_containment_pairs(_docs(texts), shingle=3,
                                   threshold=0.8).to_pandas()
           .sort_values(["doc_a", "doc_b"], ignore_index=True))
    got = list(zip(out["doc_a"], out["doc_b"]))
    # 0→1 qualifies (all of 0's shingles appear in 1); 1→0 does NOT
    # (1 has extra shingles) — direction matters
    assert got == [(0, 1)]
    assert float(out["containment"].iloc[0]) == 1.0


def test_containment_threshold_and_symmetry_of_equals():
    from no_fasel_scrapers_ray.ops.dedup import ngram_containment_pairs
    t = " ".join(f"e{i}" for i in range(10))
    out = (ngram_containment_pairs(_docs([t, t]), shingle=3,
                                   threshold=0.8).to_pandas()
           .sort_values(["doc_a", "doc_b"], ignore_index=True))
    # identical docs contain each other — BOTH directions emitted
    assert list(zip(out["doc_a"], out["doc_b"])) == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# knn_graph_mutual: exact mutual top-k edges, cross-block combine
# ---------------------------------------------------------------------------

def test_knn_mutual_matches_bruteforce():
    from no_fasel_scrapers_ray.ops.ann import knn_graph_mutual
    rng = np.random.default_rng(11)
    n, d, k = 60, 8, 3
    emb = rng.normal(size=(n, d))
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(emb)})).repartition(3)
    got = (knn_graph_mutual(ds, k=k, block_rows=16).to_pandas()
           .sort_values(["vec_a", "vec_b"], ignore_index=True))
    # driver oracle: full matrix, round-4, id tiebreak, mutual filter
    nemb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = np.round(nemb @ nemb.T, 4)
    np.fill_diagonal(sims, -np.inf)
    topk = []
    for i in range(n):
        order = np.lexsort((np.arange(n), -sims[i]))[:k]
        topk.append(set(order))
    want = sorted((i, j, sims[i, j]) for i in range(n)
                  for j in topk[i] if i < j and i in topk[j])
    assert want == [tuple(r) for r in
                    got.itertuples(index=False, name=None)]
    # sanity: the mutual filter actually dropped asymmetric edges
    assert len(want) < sum(len(t) for t in topk) / 2


# ---------------------------------------------------------------------------
# semantic_prune: SemDeDup invariants + planted duplicates
# ---------------------------------------------------------------------------

def _emb_ds(emb):
    return rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(len(emb), dtype=np.int64),
        "embedding": list(emb)})).repartition(3)


def test_semantic_prune_planted_duplicates_and_invariant():
    from no_fasel_scrapers_ray.ops.ann import semantic_prune
    rng = np.random.default_rng(5)
    base = rng.normal(size=(30, 8))
    # plant near-exact duplicates of rows 0..4 as rows 30..34
    dups = base[:5] + rng.normal(scale=1e-4, size=(5, 8))
    emb = np.vstack([base, dups])
    out = semantic_prune(_emb_ds(emb), n_clusters=4,
                         threshold=0.95).to_pandas()
    assert len(out) == 35 and out["vec_id"].is_unique
    kept = out[out["kept"]]
    # each planted dup shares a cluster with its original → exactly
    # one of the two survives, and it's the LOWER id (greedy order)
    cl = dict(zip(out["vec_id"], out["cluster_id"]))
    kv = set(kept["vec_id"])
    for i in range(5):
        if cl[i] == cl[30 + i]:
            assert i in kv and (30 + i) not in kv
    # invariant: no kept pair within a cluster has cosine >= t
    nemb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    for c, g in kept.groupby("cluster_id"):
        ids = g["vec_id"].to_numpy()
        if len(ids) < 2:
            continue
        s = nemb[ids] @ nemb[ids].T
        np.fill_diagonal(s, 0.0)
        assert s.max() < 0.95


def test_semantic_prune_deterministic_across_runs():
    from no_fasel_scrapers_ray.ops.ann import semantic_prune
    rng = np.random.default_rng(9)
    emb = rng.normal(size=(40, 6))
    a = (semantic_prune(_emb_ds(emb), n_clusters=3, threshold=0.9)
         .to_pandas().sort_values("vec_id", ignore_index=True))
    b = (semantic_prune(_emb_ds(emb), n_clusters=3, threshold=0.9)
         .to_pandas().sort_values("vec_id", ignore_index=True))
    pd.testing.assert_frame_equal(a, b)


# ---------------------------------------------------------------------------
# _batch_token_hashes: bit-equality with the per-doc hasher
# ---------------------------------------------------------------------------

def test_batch_token_hashes_bit_identical():
    from no_fasel_scrapers_ray.ops.dedup import (_batch_token_hashes,
                                                 _token_hashes)
    rng = np.random.default_rng(13)
    texts = [" ".join(f"t{rng.integers(0, 40)}"
                      for _ in range(int(rng.integers(1, 25))))
             for _ in range(50)]
    texts += ["", "one", "two tok", "a b", "x x x x x", "a  b"]  # edges
    for k in (1, 3, 5):
        batch = _batch_token_hashes(texts, k)
        for t, got in zip(texts, batch):
            assert np.array_equal(got, _token_hashes(t, k)), (t, k)
    # counts mode matches np.unique(..., return_counts=True)
    for (hs, tf), t in zip(_batch_token_hashes(texts, 1, counts=True),
                           texts):
        import pandas as pd
        want = np.unique(pd.util.hash_array(
            np.asarray(t.split(" "), dtype=object)),
            return_counts=True)
        assert np.array_equal(hs, want[0]) and np.array_equal(tf, want[1])


# ---------------------------------------------------------------------------
# label_propagation: tier equality + pinned two-cluster communities
# ---------------------------------------------------------------------------

def _lpa_ref(pairs, rounds):
    """Single-threaded synchronous LPA reference (mode, min-label tie)."""
    import collections
    adj = collections.defaultdict(list)
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    lab = {n: n for n in adj}
    for _ in range(rounds):
        new = {}
        for n in adj:
            cnt = collections.Counter(lab[m] for m in adj[n])
            top = max(cnt.values())
            new[n] = min(l for l, c in cnt.items() if c == top)
        lab = new
    return lab


@pytest.mark.parametrize("forced_tier", ["driver", "bsp"])
def test_lpa_two_clusters_match_reference(forced_tier):
    from no_fasel_scrapers_ray.ops.graph import label_propagation
    # two dense clusters joined by one bridge edge
    c1 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    c2 = [(a, b) for a in range(10, 15) for b in range(a + 1, 15)]
    pairs = c1 + c2 + [(4, 10)]
    with tier_budgets(driver=None if forced_tier == "driver" else 0):
        out = label_propagation(_bfs_edges(pairs), "a", "b",
                                rounds=4).to_pandas()
    got = dict(zip(out["node_id"], out["community"]))
    assert got == _lpa_ref(pairs, 4)
    # the two planted clusters resolve to different communities
    assert len({got[n] for n in range(5)} | {got[n] for n in range(10, 15)}) >= 2


def test_empty_block_guards_round4_ops():
    """Ray can hand empty blocks to any batch fn downstream of filters
    or repartitions (the r03-ADVICE failure class) — drive each new
    round-4 op over a dataset that contains one."""
    from no_fasel_scrapers_ray.ops.ann import knn_graph_mutual, semantic_prune
    from no_fasel_scrapers_ray.ops.dedup import (ngram_containment_pairs,
                                                 ngram_jaccard_pairs)
    from no_fasel_scrapers_ray.ops.sketch import grouped_heavy_hitters
    texts = ["a b c d e f", "a b c d e g"]
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(2, dtype=np.int64),
        "text": texts})).repartition(5)   # 3 empty blocks
    assert len(ngram_jaccard_pairs(docs, jaccard_threshold=0.4)
               .to_pandas()) == 1
    assert len(ngram_containment_pairs(docs, threshold=0.6)
               .to_pandas()) == 2
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(6, 4))
    eds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(6, dtype=np.int64),
        "embedding": list(emb)})).repartition(10)
    assert len(knn_graph_mutual(eds, k=2, block_rows=2).to_pandas()) > 0
    assert len(semantic_prune(eds, n_clusters=2).to_pandas()) == 6
    g = rd.from_pandas(pd.DataFrame({
        "g": ["x"] * 4, "item": [1, 1, 2, 3]})).repartition(8)
    out = grouped_heavy_hitters(g, "g", "item", topn=1)
    assert list(out.itertuples(index=False, name=None)) == [("x", 1, 2)]


def test_semantic_prune_chunked_equals_unchunked():
    from no_fasel_scrapers_ray.ops.ann import semantic_prune
    rng = np.random.default_rng(17)
    base = rng.normal(size=(40, 6))
    emb = np.vstack([base, base[:8] + rng.normal(scale=1e-4,
                                                 size=(8, 6))])
    a = (semantic_prune(_emb_ds(emb), n_clusters=3, threshold=0.95,
                        prune_chunk=4).to_pandas()
         .sort_values("vec_id", ignore_index=True))
    b = (semantic_prune(_emb_ds(emb), n_clusters=3, threshold=0.95,
                        prune_chunk=10_000).to_pandas()
         .sort_values("vec_id", ignore_index=True))
    pd.testing.assert_frame_equal(a, b)
    assert a["kept"].sum() < len(a)   # the planted dups got pruned
