"""Sketch operators: HyperLogLog approximate count-distinct.

The exact count-distinct operators (``grouped_count_distinct``,
``distinct_suppliers``) move one partial row per distinct key through a
shuffle — exact, but the partial volume grows with the key cardinality.
At 10^10 distinct keys the scale path is a SKETCH: constant-size state
per batch (2^p one-byte registers), mergeable by elementwise max, so
the reduce moves kilobytes no matter the cardinality and never
shuffles rows at all.

Implementation is the classic HyperLogLog (Flajolet et al. 2007,
"HyperLogLog: the analysis of a near-optimal cardinality estimation
algorithm") with the standard small-range linear-counting correction.
Hashing is ``pd.util.hash_array`` (vectorized 64-bit SipHash, fixed
key — the same deterministic primitive the shuffle bucketing uses), so
estimates are bit-reproducible across runs and cluster layouts.

Register math is fully vectorized; the leading-zero count uses a
branchless binary search on uint64 (float ``log2`` is NOT exact near
powers of two at >2^53).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .util import key_shuffle


def _clz_rho(w: np.ndarray, width: int) -> np.ndarray:
    """rho(w) = index of the first 1-bit from the MSB of a
    ``width``-bit value, 1-based; width+1 when w == 0. Branchless
    binary search — exact for all uint64 inputs."""
    w = w.astype(np.uint64, copy=True)
    n = np.zeros(w.shape, dtype=np.int64)
    shift = 32
    while shift:
        mask = w >= (np.uint64(1) << np.uint64(shift))
        n = np.where(mask, n + shift, n)
        w = np.where(mask, w >> np.uint64(shift), w)
        shift //= 2
    # n is now floor(log2(w)) for w>0; rho counts from the top of width
    return np.where(w == 0, width + 1, width - n).astype(np.int64)


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def hll_registers(values: np.ndarray, p: int = 14) -> np.ndarray:
    """One pass over a value array → the 2^p uint8 register vector."""
    m = 1 << p
    h = pd.util.hash_array(np.asarray(values, dtype=object)
                           if values.dtype == object
                           else np.ascontiguousarray(values))
    h = h.astype(np.uint64, copy=False)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h & ((np.uint64(1) << np.uint64(64 - p)) - np.uint64(1))
    rho = _clz_rho(w, 64 - p).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Raw HLL estimate + linear-counting small-range correction."""
    m = len(regs)
    est = _alpha(m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def _hll_partial_fn(keys: list[str], col: str, p: int):
    """Per-batch grouped HLL register partial: ONE np.maximum.at over
    a (n_keys × m) register matrix — no per-key Python loop: rows are
    flattened to key_code*m + idx. use_na_sentinel=False keeps NULL
    keys as their own group (SQL GROUP BY semantics); the default -1
    sentinel would wrap the flattened index into the LAST key's
    register block and silently corrupt its count. Registers ride as
    Arrow ``binary``. Shared by grouped_approx_count_distinct and
    rolling_approx_distinct so the register contract can't drift."""
    m = 1 << p

    def partial(batch: pd.DataFrame) -> pa.Table:
        codes, uniques = pd.factorize(
            pd.MultiIndex.from_frame(batch[keys]) if len(keys) > 1
            else batch[keys[0]], sort=False, use_na_sentinel=False)
        v = batch[col].to_numpy()
        h = pd.util.hash_array(np.asarray(v, dtype=object)
                               if v.dtype == object
                               else np.ascontiguousarray(v))
        h = h.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = h & ((np.uint64(1) << np.uint64(64 - p)) - np.uint64(1))
        rho = _clz_rho(w, 64 - p).astype(np.uint8)
        regs = np.zeros((len(uniques), m), dtype=np.uint8)
        np.maximum.at(regs.reshape(-1), codes * m + idx, rho)
        kf = pd.DataFrame(
            list(uniques) if len(keys) > 1 else {keys[0]: uniques},
            columns=keys)
        t = {k: pa.array(kf[k]) for k in keys}
        t["__regs"] = pa.array([r.tobytes() for r in regs], pa.binary())
        return pa.table(t)

    return partial


def rolling_approx_distinct(ds: rd.Dataset, bucket_col: str, col: str,
                            width: int, step: int,
                            out_col: str = "n_approx",
                            p: int = 12) -> pd.DataFrame:
    """APPROXIMATE sliding-window COUNT DISTINCT — the sketch twin of
    `relational.trailing_distinct_count`, and the composition that
    shows WHY mergeable sketches matter for streaming windows: exact
    distinct can't pre-aggregate (the exact twin must re-deduplicate
    width× expanded pairs), but HLL registers max-merge, so each time
    bucket reduces ONCE to a 2^p-byte blob and every trailing window
    is a register max over ``width`` blobs — no expansion, shuffle
    volume = buckets × 2^p bytes regardless of raw rows or entity
    cardinality. Per-bucket merge runs in the bucketed combine; the
    window slide runs on the driver over the (time buckets × m)
    register matrix (time-bucket count is bounded by range/step —
    hours of a year ≈ 8.8k → 36 MB at p=12). Returns a driver frame
    (bucket, estimate), windows restricted to PRESENT buckets like
    the exact twin. ±envelope vs the exact twin pinned in
    tests/test_sketch.py."""
    m = 1 << p
    partial = _hll_partial_fn([bucket_col], col, p)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        rows, blobs = [], []
        for kv, grp in g.groupby(bucket_col, sort=False, dropna=False):
            merged = np.zeros(m, dtype=np.uint8)
            for blob in grp["__regs"]:
                np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                           out=merged)
            rows.append(kv)
            blobs.append(merged.tobytes())
        return pd.DataFrame({bucket_col: rows,
                             "__regs": pd.array(blobs, dtype=object)})

    per_bucket = key_shuffle(ds.map_batches(partial, batch_format="pandas"),
                             combine, [bucket_col],
                             batch_format="pandas").to_pandas()
    per_bucket = per_bucket.sort_values(bucket_col, ignore_index=True)
    tb = per_bucket[bucket_col].to_numpy(np.int64)
    mat = np.stack([np.frombuffer(b, dtype=np.uint8)
                    for b in per_bucket["__regs"]]) \
        if len(per_bucket) else np.zeros((0, m), np.uint8)
    ests = np.empty(len(tb), dtype=np.float64)
    for i, t in enumerate(tb):
        lo = np.searchsorted(tb, t - (width - 1) * step, side="left")
        merged = mat[lo:i + 1][tb[lo:i + 1] >= t - (width - 1) * step]
        ests[i] = hll_estimate(np.max(merged, axis=0))
    return pd.DataFrame({bucket_col: tb,
                         out_col: np.round(ests).astype(np.int64)})


def grouped_approx_count_distinct(ds: rd.Dataset, keys: list[str],
                                  col: str, alias: str,
                                  p: int = 10) -> rd.Dataset:
    """Per-group approximate COUNT(DISTINCT col): one 2^p-byte register
    blob per key per batch moves through the key-bucket shuffle instead
    of one row per DISTINCT VALUE — the trade that keeps shuffle volume
    proportional to |keys| when values-per-key is huge (the exact
    operator's partials grow with distinct values). p=10 → 1 KiB/key,
    sigma ≈ 1.04/sqrt(1024) ≈ 3.3%. Registers ride as Arrow ``binary``
    (ragged numeric sets in object columns trip Ray's TensorArray)."""
    m = 1 << p
    partial = _hll_partial_fn(keys, col, p)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        rows_keys: dict[str, list] = {k: [] for k in keys}
        ests = []
        # dropna=False: NULL keys are their own group (SQL GROUP BY),
        # mirroring use_na_sentinel=False in the partial
        for kv, grp in g.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            merged = np.zeros(m, dtype=np.uint8)
            for blob in grp["__regs"]:
                np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                           out=merged)
            for k, v in zip(keys, kv):
                rows_keys[k].append(v)
            ests.append(hll_estimate(merged))
        out = pd.DataFrame(rows_keys)
        out[alias] = np.asarray(ests, dtype=np.float64)
        return out

    return key_shuffle(ds.map_batches(partial, batch_format="pandas"),
                       combine, keys, batch_format="pandas")


def approx_count_distinct(ds: rd.Dataset, col: str, p: int = 14) -> float:
    """Approximate COUNT(DISTINCT col): per-batch register partials
    (one 2^p-byte binary row per batch — constant in row count AND in
    cardinality), merged by elementwise max. The partial set is tiny
    (one row per block), so the final merge is a driver reduce —
    the same small-result contract as the kNN top-k reduce."""

    def partial(batch: pd.DataFrame) -> pa.Table:
        regs = hll_registers(batch[col].to_numpy(), p=p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pandas").take_all()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in parts:
        np.maximum(merged, np.frombuffer(row["regs"], dtype=np.uint8),
                   out=merged)
    return hll_estimate(merged)

# --------------------------------------------------------------------------
# Misra-Gries heavy hitters (Misra & Gries 1982; mergeable-summary form
# per Agarwal et al. 2012, "Mergeable Summaries"): per-batch summaries of
# at most k counters, merged by count-sum then re-trimmed. Guarantee
# after any merge tree: every term with true frequency > N/(k+1) is
# still present and its count is undercounted by at most N/(k+1).
# --------------------------------------------------------------------------

def _mg_trim(counts: pd.Series, k: int) -> pd.Series:
    """Compress a term->count summary to at most k counters: subtract
    the (k+1)-th largest count from everything, keep positives."""
    if len(counts) <= k:
        return counts
    d = counts.nlargest(k + 1).iloc[k]
    out = counts - d
    return out[out > 0]


def heavy_hitter_terms(docs: rd.Dataset, topn: int = 20,
                       k_counters: int = 4096) -> rd.Dataset:
    """Top-``topn`` corpus terms via a Misra-Gries candidate sketch plus
    one exact recount pass — the heavy-hitter shape for vocabularies too
    large to shuffle (``top_terms`` moves one partial row per DISTINCT
    term per batch; this moves ≤ ``k_counters`` rows per batch no matter
    the vocabulary).

    1. per-batch MG summaries (vectorized value_counts + trim);
    2. summaries merged and re-trimmed to k on the driver (bounded:
       ≤ k counters survive; a tree-reduce at larger fan-in);
    3. EXACT recount of the ≤ k candidate terms (broadcast as a set,
       per-batch filtered value_counts → partial-agg sum) → top-n.

    The result is exactly the true top-n whenever the n-th term's
    frequency exceeds N_tokens/(k_counters+1) — the MG superset
    guarantee (pinned with an adversarial vocabulary in
    tests/test_sketch.py); that is why it can share the exact SQL
    oracle. Ties break (count DESC, term ASC) like top_terms."""
    import ray

    # driver-side import, captured by value in the closures below — a
    # relative import INSIDE a worker closure re-triggers the package
    # import on the worker, which has no /root/repo on sys.path
    from .relational import broadcast_get, preagg_sum_count

    def mg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.split(" ").explode().value_counts()
        vc = _mg_trim(vc, k_counters)
        return pd.DataFrame({"term": vc.index.to_numpy(dtype=object),
                             "n": vc.to_numpy(dtype=np.int64)})

    merged = (docs.map_batches(mg_partial, batch_format="pandas")
              .to_pandas().groupby("term")["n"].sum())
    candidates = _mg_trim(merged, k_counters).index.to_numpy(dtype=object)
    cand_ref = ray.put(set(candidates))

    def recount(batch: pd.DataFrame) -> pd.DataFrame:
        cand = broadcast_get(cand_ref)
        vc = batch["text"].str.split(" ").explode().value_counts()
        vc = vc[vc.index.isin(cand)]
        return pd.DataFrame({"term": vc.index.to_numpy(dtype=object),
                             "n": vc.to_numpy(dtype=np.int64)})

    exact = preagg_sum_count(
        docs.map_batches(recount, batch_format="pandas"),
        ["term"], {"n": "n"})
    return exact.sort(["n", "term"], descending=[True, False]).limit(topn)


# ---------------------------------------------------------------------------
# Mergeable quantile digest (t-digest-style weighted centroids)
# ---------------------------------------------------------------------------
#
# The exact quantile operators (global_quantile_disc/cont) are multi-pass
# distributed selections — exact, but each refinement pass re-scans the
# column. At 10^13 rows the scale path is the sketch twin: ONE streaming
# pass, constant-size mergeable state (<= k weighted centroids per
# partial), a tree reduce that moves kilobytes, and rank error bounded
# by W/k per merge level. Same trade as HLL vs exact count-distinct.

def _compress_centroids(vals: np.ndarray, wts: np.ndarray,
                        k: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted weighted centroids down to <= k by equal
    cumulative-weight slicing (uniform delta; value = weighted mean of
    the slice). Inputs must be sorted by value."""
    if len(vals) <= k:
        return vals, wts
    cum = np.cumsum(wts)
    total = cum[-1]
    # slice boundaries at equal weight; searchsorted keeps slices
    # contiguous in rank space
    edges = np.searchsorted(cum, np.linspace(0, total, k + 1)[1:-1],
                            side="left")
    slices = [s for s in np.split(np.arange(len(vals)), np.unique(edges))
              if len(s)]
    out_v = np.empty(len(slices)); out_w = np.empty(len(slices))
    for i, s in enumerate(slices):
        w = wts[s]
        out_w[i] = w.sum()
        out_v[i] = float(np.dot(vals[s], w) / out_w[i])
    return out_v, out_w


def approx_quantiles(ds: rd.Dataset, col: str, qs: list[float],
                     k: int = 256) -> list[float]:
    """Approximate quantiles of ``ds[col]`` from one streaming pass.

    Shape: per-batch sort+compress to <= k centroids (map side), a
    bucketed merge-compress of the partials (ONE shuffle of digest
    rows, volume = batches x k rows regardless of data size), and a
    driver-side final merge of one digest per bucket. Rank error is
    O(W/k) per merge level — the envelope is pinned against the exact
    selection-based quantiles in tests/test_sketch.py."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(b[col].to_numpy(dtype=np.float64))
        cv, cw = _compress_centroids(v, np.ones(len(v)), k)
        return pd.DataFrame({"v": cv, "w": cw})

    def digest_key(b) -> np.ndarray:
        # deterministic partial->bucket spread (content-hashed, so the
        # tree shape is reproducible across runs and worker layouts)
        h = pd.util.hash_array(np.asarray(b["v"].to_numpy())).sum()
        return np.full(len(b), h, dtype=np.uint64)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["v"].to_numpy(), kind="stable")
        cv, cw = _compress_centroids(g["v"].to_numpy()[order],
                                     g["w"].to_numpy()[order], k)
        return pd.DataFrame({"v": cv, "w": cw})

    parts = key_shuffle(ds.map_batches(partial, batch_format="pandas"),
                        merge, digest_key, batch_format="pandas").to_pandas()
    if parts.empty:
        return [float("nan")] * len(qs)
    order = np.argsort(parts["v"].to_numpy(), kind="stable")
    cv, cw = _compress_centroids(parts["v"].to_numpy()[order],
                                 parts["w"].to_numpy()[order], k)
    # midpoint-rank interpolation (t-digest convention)
    cum = np.cumsum(cw)
    total = cum[-1]
    mids = cum - cw / 2.0
    out = []
    for q in qs:
        target = q * total
        out.append(float(np.interp(target, mids, cv)))
    return out


# ---------------------------------------------------------------------------
# Count-min sketch (Cormode & Muthukrishnan 2005, "An improved data
# stream summary: the count-min sketch and its applications")
# ---------------------------------------------------------------------------
# Misra-Gries (above) answers "what are the heavy keys" with an exact
# recount; count-min answers POINT FREQUENCY queries for ANY key with a
# one-sided error bound — est >= true and est <= true + (e/width)·N
# with probability 1 - exp(-depth) — from depth·width int64 counters
# per batch, mergeable by ADDITION. The reduce moves one fixed-size
# matrix per batch regardless of key cardinality: the frequency twin
# of the HLL register blob.

_CMS_SEEDS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5,
                       0x85EBCA77C2B2AE63], dtype=np.uint64)


def _cms_rows(keys: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) column indices — one pairwise-independent-ish hash
    row per seed (xxhash-style avalanche over uint64)."""
    out = np.empty((depth, len(keys)), dtype=np.int64)
    k = keys.astype(np.uint64)
    for d in range(depth):
        h = (k + _CMS_SEEDS[d]) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
        out[d] = (h % np.uint64(width)).astype(np.int64)
    return out


def cms_sketch(ds: rd.Dataset, col: str, depth: int = 4,
               width: int = 2048) -> np.ndarray:
    """Build the merged (depth, width) count-min matrix for a string or
    integer column: per-batch partial matrices (np.add.at over the hash
    rows), summed on the driver — depth·width·8 bytes of driver state,
    independent of rows and cardinality."""
    assert depth <= len(_CMS_SEEDS)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vals = b[col].to_numpy()
        if vals.dtype.kind not in "iu":
            vals = pd.util.hash_array(vals.astype(object))
        rows = _cms_rows(vals, depth, width)
        m = np.zeros((depth, width), dtype=np.int64)
        for d in range(depth):
            np.add.at(m[d], rows[d], 1)
        return pd.DataFrame({"m": [m.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    total = np.zeros((depth, width), dtype=np.int64)
    for blob in parts["m"]:
        total += np.frombuffer(blob, dtype=np.int64).reshape(depth,
                                                             width)
    return total


def cms_query(matrix: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Point-frequency estimates: min over the depth rows (the
    count-min estimator; always >= the true count)."""
    depth, width = matrix.shape
    k = keys
    if k.dtype.kind not in "iu":
        k = pd.util.hash_array(k.astype(object))
    rows = _cms_rows(k, depth, width)
    return np.min(np.stack([matrix[d, rows[d]] for d in range(depth)]),
                  axis=0)


def grouped_approx_quantiles(ds: rd.Dataset, keys: list[str], col: str,
                             qs: list[float], k: int = 128) -> rd.Dataset:
    """PER-GROUP approximate quantiles from mergeable digests — the
    grouped twin of ``approx_quantiles`` and the scale path next to the
    exact ``grouped_quantile_disc/cont``: per-key state is ≤ k
    centroids no matter how many rows the key has, so a hot key (the
    per-host latency-p95 case in a crawl monitor) costs the shuffle
    k rows per batch instead of its row count.

    Shape: per-batch per-key sort+compress partials (one (key,
    centroid) row set per key per batch) → ONE key-bucket shuffle →
    per-key merge-compress + midpoint-rank interpolation. Rank-error
    envelope pinned per group in tests/test_sketch.py. Output: one row
    per key with a column ``q_<percent>`` per requested quantile."""
    aliases = [f"q_{int(round(q * 100))}" for q in qs]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            # Empty block (filters/repartitions upstream can emit them):
            # np.concatenate([]) below would raise — return a typed
            # empty partial instead.
            empty = {kc: np.array([], dtype=object) for kc in keys}
            empty["v"] = np.array([], dtype=np.float64)
            empty["w"] = np.array([], dtype=np.float64)
            return pd.DataFrame(empty)
        out_k, out_v, out_w = {kc: [] for kc in keys}, [], []
        for kv, g in b.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            v = np.sort(g[col].to_numpy(dtype=np.float64))
            cv, cw = _compress_centroids(v, np.ones(len(v)), k)
            for kc, x in zip(keys, kv):
                out_k[kc].append(np.full(len(cv), x, dtype=object))
            out_v.append(cv)
            out_w.append(cw)
        cols = {kc: np.concatenate(out_k[kc]) for kc in keys}
        cols["v"] = np.concatenate(out_v)
        cols["w"] = np.concatenate(out_w)
        g = pd.DataFrame(cols)
        return g

    def final(g: pd.DataFrame) -> pd.DataFrame:
        rows = {kc: [] for kc in keys}
        q_cols = {a: [] for a in aliases}
        for kv, gg in g.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            order = np.argsort(gg["v"].to_numpy(), kind="stable")
            cv, cw = _compress_centroids(gg["v"].to_numpy()[order],
                                         gg["w"].to_numpy()[order], k)
            cum = np.cumsum(cw)
            mids = cum - cw / 2.0
            for kc, x in zip(keys, kv):
                rows[kc].append(x)
            for q, a in zip(qs, aliases):
                q_cols[a].append(float(np.interp(q * cum[-1], mids,
                                                 cv)))
        out = {kc: rows[kc] for kc in keys}
        out.update(q_cols)
        return pd.DataFrame(out)

    return key_shuffle(ds.map_batches(partial, batch_format="pandas"),
                       final, keys, batch_format="pandas")


def hll_set_ops(ds: rd.Dataset, col: str, label_col: str,
                label_a, label_b, p: int = 14) -> pd.DataFrame:
    """HLL set-operation estimates for the values of ``col`` under two
    label slices: |A|, |B|, |A∪B| (union is EXACT in sketch space —
    elementwise register max is the HLL of the union), and |A∩B| via
    inclusion-exclusion — the standard mergeable-summary composition
    (Agarwal et al. 2012, "Mergeable Summaries"). Intersection error
    grows with |union|/|intersection|, the documented theta-sketch
    trade; the exact twin is the ``intersect_users`` query.

    One streaming pass, one (label, regs) partial row per batch per
    present label; driver merge is register-sized. Returns one row:
    (est_a, est_b, est_union, est_intersection)."""

    def partial(batch: pd.DataFrame) -> pa.Table:
        lab = batch[label_col].to_numpy()
        rows, regs = [], []
        for name, want in (("a", label_a), ("b", label_b)):
            vals = batch[col].to_numpy()[lab == want]
            if len(vals):
                rows.append(name)
                regs.append(hll_registers(vals, p=p).tobytes())
        return pa.table({"side": pa.array(rows, pa.string()),
                         "regs": pa.array(regs, pa.binary())})

    parts = ds.map_batches(partial, batch_format="pandas").take_all()
    m = 1 << p
    acc = {"a": np.zeros(m, dtype=np.uint8),
           "b": np.zeros(m, dtype=np.uint8)}
    for row in parts:
        np.maximum(acc[row["side"]],
                   np.frombuffer(row["regs"], dtype=np.uint8),
                   out=acc[row["side"]])
    est_a = hll_estimate(acc["a"])
    est_b = hll_estimate(acc["b"])
    est_u = hll_estimate(np.maximum(acc["a"], acc["b"]))
    return pd.DataFrame({
        "est_a": [est_a], "est_b": [est_b], "est_union": [est_u],
        "est_intersection": [max(0.0, est_a + est_b - est_u)]})


def grouped_heavy_hitters(ds: rd.Dataset, group_col: str,
                          item_col: str, topn: int = 3,
                          k_counters: int = 1024) -> pd.DataFrame:
    """Per-GROUP top-``topn`` items — heavy_hitter_terms' grouped twin,
    completing the sketch matrix (count-distinct, quantiles and heavy
    hitters each in global + grouped form). Per-batch per-group
    Misra-Gries partials (≤ k_counters rows per group per batch no
    matter the item vocabulary), driver merge+trim (group cardinality
    must be dim-sized — the grouped_approx_count_distinct contract;
    the ITEM vocabulary is unbounded), broadcast candidate table, one
    EXACT recount pass, per-group top-n. Exactly the true top-n per
    group whenever the n-th item's count exceeds N_group/(k+1) — the
    MG superset guarantee (adversarial test in test_sketch.py), which
    is why it shares an exact SQL oracle. The guarantee is VERIFIED at
    runtime from the exact recounts (one extra per-group size pass):
    if any selected count fails to clear N_group/(k_counters+1), or a
    group has fewer than topn candidates while unaccounted mass
    remains, the op raises instead of silently returning a wrong
    top-n (near-uniform data has no heavy hitters to recover — use an
    exact two-stage count there). Ties (count DESC, item ASC)."""
    import ray

    from .relational import broadcast_get, preagg_sum_count

    def mg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for g, sub in batch.groupby(group_col, sort=False):
            vc = sub[item_col].value_counts()
            vc = _mg_trim(vc, k_counters)
            outs.append(pd.DataFrame({
                group_col: g, item_col: vc.index.to_numpy(),
                "n": vc.to_numpy(dtype=np.int64)}))
        if not outs:
            return pd.DataFrame({group_col: [], item_col: [],
                                 "n": np.array([], dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    merged = (ds.map_batches(mg_partial, batch_format="pandas")
              .to_pandas())
    if merged.empty:
        return pd.DataFrame({group_col: [], item_col: [],
                             "n": np.array([], dtype=np.int64)})
    cand_frames = []
    for g, sub in merged.groupby(group_col, sort=False):
        tot = sub.groupby(item_col)["n"].sum()
        cand_frames.append(pd.DataFrame({
            group_col: g,
            item_col: _mg_trim(tot, k_counters).index.to_numpy()}))
    cand = pd.concat(cand_frames, ignore_index=True)
    cand_ref = ray.put(cand)

    def recount(batch: pd.DataFrame) -> pd.DataFrame:
        c = broadcast_get(cand_ref)
        hit = batch[[group_col, item_col]].merge(
            c, on=[group_col, item_col], how="inner")
        vc = hit.groupby([group_col, item_col], sort=False).size()
        out = vc.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    exact = preagg_sum_count(
        ds.map_batches(recount, batch_format="pandas"),
        [group_col, item_col], {"n": "n"}).to_pandas()   # ≤ groups × k rows
    exact = exact.sort_values([group_col, "n", item_col],
                              ascending=[True, False, True],
                              kind="stable")
    sel = (exact.groupby(group_col, sort=False).head(topn)
           .reset_index(drop=True))

    # runtime guarantee verification: exact per-group sizes, then
    # every selected count must clear the merged-MG undercount bound
    # N_g/(k+1) — any item MISSING from the candidate set has true
    # count ≤ that bound, so clearing it proves no missing item could
    # displace the selection
    totals = (ds.map_batches(
        lambda b: b.groupby(group_col, sort=False).size()
        .reset_index(name="n"), batch_format="pandas")
        .to_pandas().groupby(group_col)["n"].sum())
    cand_mass = exact.groupby(group_col)["n"].sum()
    for g, sub in sel.groupby(group_col, sort=False):
        bound = float(totals[g]) / (k_counters + 1)
        uncovered = float(totals[g]) - float(cand_mass[g])
        if (len(sub) < topn and uncovered > 0) or \
                float(sub["n"].min()) <= bound:
            raise ValueError(
                f"grouped_heavy_hitters: group {g!r} has no verifiable "
                f"top-{topn} (min selected count {sub['n'].min()} vs "
                f"MG bound {bound:.1f} at k={k_counters}) — the data "
                "is too uniform for heavy-hitter recovery; raise "
                "k_counters or use an exact two-stage count")
    return sel
