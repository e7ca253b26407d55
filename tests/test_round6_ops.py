"""Round-6 operator tests: the set-similarity hot-item cutover
(VERDICT r04 #1), the dup_spans distributed candidate tier
(VERDICT r04 #2), and the MSF tier-3 distributed union-find
(VERDICT r04 #5)."""

import numpy as np
import pandas as pd
import ray.data as rd

from no_fasel_scrapers_ray.ops.dedup import set_similarity_top1
from no_fasel_scrapers_ray.ops.util import tier_budgets


def _ds(df, parts=3):
    return rd.from_pandas(df).repartition(parts)


def _brute_top1(ui: pd.DataFrame) -> pd.DataFrame:
    """O(n²) numpy reference: exact jaccard top-1 per user, ties →
    smallest other id."""
    users = np.sort(ui["u"].unique())
    sets = {int(u): set(ui.loc[ui["u"] == u, "item"]) for u in users}
    rows = []
    for a in users:
        best = None
        for b in users:
            if b == a:
                continue
            inter = len(sets[int(a)] & sets[int(b)])
            if inter == 0:
                continue
            jac = inter / (len(sets[int(a)]) + len(sets[int(b)]) - inter)
            if best is None or jac > best[0] or (jac == best[0]
                                                and b < best[1]):
                best = (jac, int(b))
        if best is not None:
            rows.append((int(a), best[1], best[0]))
    return pd.DataFrame(rows, columns=["u", "similar_u", "jaccard"])


def _zipf_ui(seed=7, n_users=220, n_items=90) -> pd.DataFrame:
    """Zipf-skewed (u, item) with one viral item touching most users,
    plus planted identical item sets (signature collapse + jaccard-1
    ties) and hot-only users (their ONLY items are the viral ones)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_items + 1)
    p = 1.0 / ranks ** 1.2
    p /= p.sum()
    rows = []
    for u in range(1, n_users + 1):
        k = int(rng.integers(1, 9))
        items = rng.choice(n_items, size=k, replace=False, p=p)
        rows.extend((u, int(i)) for i in items)
    # viral item 0 for 80% of users (hot at any small threshold)
    for u in range(1, n_users + 1):
        if u % 5 != 0:
            rows.append((u, 0))
    # hot-only users: items ⊆ {0, 1} (1 is also popular)
    for u in range(n_users + 1, n_users + 9):
        rows.append((u, 0))
        if u % 2 == 0:
            rows.append((u, 1))
    # identical twins: same item set → jaccard 1 ties (two separate
    # quadruple-free pairs — distinct item sets per pair)
    for (u, twin), items in (((n_users + 20, n_users + 21), (0, 3, 7)),
                             ((n_users + 22, n_users + 23), (0, 4, 8))):
        for i in items:
            rows.append((u, i))
            rows.append((twin, i))
    df = pd.DataFrame(rows, columns=["u", "item"]).drop_duplicates()
    return df.reset_index(drop=True)


def _run(ui_df: pd.DataFrame, hot_threshold: int) -> pd.DataFrame:
    out = set_similarity_top1(
        _ds(ui_df), hot_threshold=hot_threshold,
        out_names=("u", "similar_u", "jaccard")).to_pandas()
    return out.sort_values("u", ignore_index=True)


def test_set_similarity_cold_tier_matches_brute(force_distributed):
    ui = _zipf_ui()
    # nothing hot and no broadcast budget: the distributed pure-cold path
    got = _run(ui, hot_threshold=1 << 30)
    want = _brute_top1(ui)
    pd.testing.assert_frame_equal(got, want, check_dtype=True)


def test_set_similarity_hot_tier_equality_zipf(force_distributed):
    """The forced hot path (viral item + hot-only users + signature
    ties) must be row-identical to the cold tier AND the brute
    reference — for several thresholds, including one that routes
    EVERY detectable item hot."""
    ui = _zipf_ui()
    want = _brute_top1(ui)
    for t in (1, 2, 10, 60):
        got = _run(ui, hot_threshold=t)
        pd.testing.assert_frame_equal(got, want, check_dtype=True), t


def test_set_similarity_hot_only_users_covered():
    """Users whose every item is hot only ever meet neighbors through
    the signature scan — they must still appear with exact scores."""
    ui = _zipf_ui()
    got = _run(ui, hot_threshold=2)
    hot_only = [221, 222, 223]   # n_users+9 > u > n_users, items ⊆ {0,1}
    assert set(hot_only) <= set(got["u"])
    want = _brute_top1(ui)
    sub_g = got[got["u"].isin(hot_only)].reset_index(drop=True)
    sub_w = want[want["u"].isin(hot_only)].reset_index(drop=True)
    pd.testing.assert_frame_equal(sub_g, sub_w)


def test_set_similarity_twins_tie_break():
    """Identical item sets ⇒ jaccard 1.0; the twin with the smaller id
    must be chosen on ties, on both tiers."""
    ui = _zipf_ui()
    for t in (1 << 30, 2):
        got = _run(ui, hot_threshold=t).set_index("u")
        assert got.loc[241, "jaccard"] == 1.0
        assert got.loc[241, "similar_u"] == 240
        assert got.loc[243, "similar_u"] == 242


# ---- dup_spans distributed candidate tier -----------------------------

from no_fasel_scrapers_ray.ops.dedup import dup_spans


def _docs_ds(texts, parts=3):
    return rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts})).repartition(parts)


def _span_corpus(seed=11, n_docs=40):
    """Synthetic corpus with planted cross-doc runs of varying length,
    intra-doc repeats (must NOT count), and clean docs."""
    rng = np.random.default_rng(seed)
    shared_a = " ".join(f"sa{i}" for i in range(12))
    shared_b = " ".join(f"sb{i}" for i in range(7))
    texts = []
    for d in range(n_docs):
        toks = [f"u{d}x{i}" for i in range(int(rng.integers(5, 15)))]
        t = " ".join(toks)
        if d % 3 == 0:
            t = t + " " + shared_a
        if d % 4 == 0:
            t = shared_b + " " + t
        if d % 7 == 0:
            t = t + " r1 r2 r3 r4 r5 " + t.split(" ", 1)[0]
        texts.append(t)
    return texts


def test_dup_spans_tier_equality_forced_cap():
    texts = _span_corpus()
    broad = (dup_spans(_docs_ds(texts), k=4).to_pandas()
             .sort_values(["doc_id", "span_start"], ignore_index=True))
    for cap in (0, 1, 3):     # candidate hashes, 8 B each
        with tier_budgets(broadcast=8 * cap):
            dist = (dup_spans(_docs_ds(texts), k=4)
                    .to_pandas()
                    .sort_values(["doc_id", "span_start"],
                                 ignore_index=True))
        pd.testing.assert_frame_equal(dist, broad, check_dtype=True)
    assert len(broad) > 10   # the corpus actually plants duplication


def test_dup_spans_distributed_two_islands(force_distributed):
    a = " ".join(f"p{i}" for i in range(6))
    b = " ".join(f"q{i}" for i in range(6))
    texts = [a + " gap1 gap2 gap3 " + b,
             a + " zzz1 zzz2 zzz3 " + b]
    out = (dup_spans(_docs_ds(texts, parts=2), k=4)
           .to_pandas()
           .sort_values(["doc_id", "span_start"], ignore_index=True))
    got = list(out.itertuples(index=False, name=None))
    assert got == [(0, 0, 6), (0, 9, 15), (1, 0, 6), (1, 9, 15)]


def test_dup_spans_distributed_intra_doc_repeat_not_counted(
        force_distributed):
    texts = ["x1 x2 x3 x4 z x1 x2 x3 x4",
             "other words entirely here now"]
    out = dup_spans(_docs_ds(texts, parts=2), k=4).to_pandas()
    assert len(out) == 0


# ---- MSF tier-3 (distributed union-find) ------------------------------

from no_fasel_scrapers_ray.ops.graph import minimum_spanning_forest


def _edge_graph(seed=3, n=70, m=260, wmax=6):
    """Random multigraph with HEAVY weight ties (wmax small), self
    loops, duplicate edges, and several disconnected components."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m).astype(np.int64)
    v = rng.integers(0, n, m).astype(np.int64)
    w = rng.integers(1, wmax, m).astype(np.int64)
    # second component block offset by 1000, plus an isolated self-loop
    u2 = rng.integers(1000, 1000 + 25, 80).astype(np.int64)
    v2 = rng.integers(1000, 1000 + 25, 80).astype(np.int64)
    w2 = rng.integers(1, wmax, 80).astype(np.int64)
    df = pd.DataFrame({"u": np.r_[u, u2, [5000]],
                       "v": np.r_[v, v2, [5000]],
                       "w": np.r_[w, w2, [1]]})
    return rd.from_pandas(df).repartition(3)


def _msf_sorted(ds, driver=None, broadcast=None):
    with tier_budgets(driver, broadcast):
        out = minimum_spanning_forest(ds).to_pandas()
    return out.sort_values(["u", "v", "w"], ignore_index=True)


def test_msf_three_tier_equality_under_ties():
    ds = _edge_graph()
    kruskal = _msf_sorted(ds)                         # driver Kruskal
    mid = _msf_sorted(ds, driver=0)                   # driver-UF Borůvka
    t3 = _msf_sorted(ds, driver=0, broadcast=0)       # no driver state
    pd.testing.assert_frame_equal(mid, kruskal, check_dtype=True)
    pd.testing.assert_frame_equal(t3, kruskal, check_dtype=True)
    # forest spans every non-isolated node: |forest| = n - #components
    nodes = set(pd.concat([kruskal["u"], kruskal["v"]]))
    assert len(kruskal) > 0 and len(nodes) > len(kruskal)


def test_msf_tier3_disconnected_and_self_loops():
    df = pd.DataFrame({"u": [1, 2, 1, 7, 7, 9],
                       "v": [2, 3, 1, 8, 8, 9],
                       "w": [4, 1, 9, 2, 2, 5]})
    ds = rd.from_pandas(df).repartition(2)
    t3 = _msf_sorted(ds, driver=0, broadcast=0)
    got = list(t3.itertuples(index=False, name=None))
    # 1-2(4), 2-3(1), 7-8(2, the (w,u,v)-smallest duplicate);
    # self-loops 1-1 and 9-9 never span
    assert got == [(1, 2, 4), (2, 3, 1), (7, 8, 2)]


# ---- ngram_jaccard exact-set collapse (sf1 smoke finding) -------------

from no_fasel_scrapers_ray.ops.dedup import ngram_jaccard_pairs


def test_ngram_jaccard_collapse_tier_equality():
    """A 12x-replicated corpus (every doc has 11 identical twins plus
    the base near-dup structure) must produce IDENTICAL pairs from the
    collapsed plan (forced via dup_group_cutover=2) and the raw plan
    (cutover=10**9) — and the raw plan at this tiny scale is the
    ground truth the oracle checks at bench scale."""
    base = ["alpha beta gamma delta epsilon zeta",
            "alpha beta gamma delta epsilon eta",     # near-dup of 0
            "totally different words here now ok",
            "short text"]
    texts, ids = [], []
    for copy in range(12):
        for i, t in enumerate(base):
            ids.append(copy * 100 + i)
            texts.append(t)
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.array(ids, dtype=np.int64),
        "text": texts})).repartition(3)

    def run(cutover):
        out = ngram_jaccard_pairs(
            docs, shingle=3, jaccard_threshold=0.5,
            dup_group_cutover=cutover).to_pandas()
        return out.sort_values(["doc_a", "doc_b"], ignore_index=True)

    raw = run(10 ** 9)
    collapsed = run(2)
    pd.testing.assert_frame_equal(collapsed, raw, check_dtype=True)
    # every identical pair present with jaccard 1.0: C(12,2) per base
    # doc = 66 * 4 = 264 identity pairs at minimum
    assert (raw["jaccard"] == 1.0).sum() >= 264
    # near-dup cross-group pairs expand to all 12x12 member pairs
    # (canonical a<b interleaves the two groups' ids — count both
    # orientations)
    got = raw[((raw["doc_a"] % 100 == 0) & (raw["doc_b"] % 100 == 1))
              | ((raw["doc_a"] % 100 == 1) & (raw["doc_b"] % 100 == 0))]
    assert len(got) == 144


def test_containment_collapse_tier_equality():
    """Directed containment on a 10x-replicated corpus: the collapsed
    plan must match the raw plan row-for-row, with intra-group pairs
    at 1.0 in BOTH directions."""
    from no_fasel_scrapers_ray.ops.dedup import ngram_containment_pairs
    base = ["alpha beta gamma delta epsilon zeta eta theta",
            "alpha beta gamma delta",                 # contained in 0
            "totally different words here now ok yes"]
    texts, ids = [], []
    for copy in range(10):
        for i, t in enumerate(base):
            ids.append(copy * 100 + i)
            texts.append(t)
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.array(ids, dtype=np.int64),
        "text": texts})).repartition(3)

    def run(cutover):
        out = ngram_containment_pairs(
            docs, shingle=3, threshold=0.8,
            dup_group_cutover=cutover).to_pandas()
        return out.sort_values(["doc_a", "doc_b"], ignore_index=True)

    raw = run(10 ** 9)
    collapsed = run(2)
    pd.testing.assert_frame_equal(collapsed, raw, check_dtype=True)
    got = raw.set_index(["doc_a", "doc_b"])["containment"]
    # identical twins contain each other in both directions
    assert got.loc[(0, 100)] == 1.0 and got.loc[(100, 0)] == 1.0
    # doc 1 (short) is contained in doc 0 across ALL copies (10x10
    # ordered pairs), but 0 is not contained in 1
    short_in_long = raw[(raw["doc_a"] % 100 == 1)
                        & (raw["doc_b"] % 100 == 0)]
    assert len(short_in_long) == 100
    assert ((raw["doc_a"] % 100 == 0)
            & (raw["doc_b"] % 100 == 1)).sum() == 0


def test_ngram_jaccard_permuted_sets_no_text_dups():
    """Token-permuted twins share the SET but not the TEXT: the
    text-hash detection must NOT fire (uncollapsed exact path), and
    the permuted pair still scores jaccard 1.0 through the normal
    machinery."""
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.array([1, 2, 3], dtype=np.int64),
        "text": ["alpha beta gamma delta epsilon zeta",
                 "zeta epsilon delta gamma beta alpha",  # permuted twin
                 "entirely different words over here"]})).repartition(2)
    out = ngram_jaccard_pairs(docs, shingle=1, jaccard_threshold=0.9,
                              dup_group_cutover=2).to_pandas()
    got = out.sort_values(["doc_a", "doc_b"], ignore_index=True)
    assert list(got.itertuples(index=False, name=None)) == \
        [(1, 2, 1.0)]


def test_ngram_jaccard_forced_collapse_on_dupfree_corpus():
    """dup_group_cutover=1 forces the collapse machinery on a corpus
    with NO duplicates — all groups are singletons and the expansion
    must be the identity."""
    texts = [f"w{i} x{i} y{i} z{i} common tail words" for i in range(8)]
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(8, dtype=np.int64),
        "text": texts})).repartition(3)
    raw = (ngram_jaccard_pairs(docs, shingle=3, jaccard_threshold=0.1,
                               dup_group_cutover=10 ** 9).to_pandas()
           .sort_values(["doc_a", "doc_b"], ignore_index=True))
    forced = (ngram_jaccard_pairs(docs, shingle=3,
                                  jaccard_threshold=0.1,
                                  dup_group_cutover=1).to_pandas()
              .sort_values(["doc_a", "doc_b"], ignore_index=True))
    assert len(raw) == 28          # all C(8,2) pairs share the tail
    pd.testing.assert_frame_equal(forced, raw, check_dtype=True)


def test_cross_decontaminate_collapse_tier_equality():
    """Cross-corpus near-dup with a 10x-duplicated train side: the
    collapsed plan must equal the raw plan; an eval doc identical to
    train docs pairs at jaccard 1.0 with EVERY train copy."""
    from no_fasel_scrapers_ray.ops.dedup import ngram_jaccard_cross
    rows = []
    # eval docs (side 0): ids 0..2
    evals = ["alpha beta gamma delta epsilon zeta",
             "unique eval content right here now",
             "shared train text body words here"]
    for i, t in enumerate(evals):
        rows.append((i, t, 0))
    # train docs (side 1): 10 copies of two texts + unique ones
    did = 100
    for copy in range(10):
        rows.append((did, "alpha beta gamma delta epsilon eta", 1))
        did += 1
        rows.append((did, "shared train text body words here", 1))
        did += 1
    rows.append((did, "totally unrelated training sample", 1))
    df = pd.DataFrame(rows, columns=["doc_id", "text", "side"])
    docs = rd.from_pandas(df).repartition(3)

    def run(cutover):
        out = ngram_jaccard_cross(docs, "side", shingle=3,
                                  jaccard_threshold=0.5,
                                  dup_group_cutover=cutover).to_pandas()
        return out.sort_values(["doc_a", "doc_b"], ignore_index=True)

    raw = run(10 ** 9)
    collapsed = run(2)
    pd.testing.assert_frame_equal(collapsed, raw, check_dtype=True)
    # eval 2 is identical to the 10 "shared train text" copies
    hits = raw[(raw["doc_a"] == 2) & (raw["jaccard"] == 1.0)]
    assert len(hits) == 10
    # near-dup eval 0 matches all 10 near-copies
    near = raw[raw["doc_a"] == 0]
    assert len(near) == 10 and (near["jaccard"] < 1.0).all()
    # train-train pairs never appear
    assert (raw["doc_a"] < 100).all() and (raw["doc_b"] >= 100).all()
