"""Similarity search over the ``embeddings`` table (list<float> column).

- brute-force cosine top-k: numpy matmul per batch against a broadcast,
  pre-normalized query matrix (the baseline; exact);
- IVF variant: k-means-ish coarse centroids (deterministic seed), probe
  the nearest ``nprobe`` cells — the scale path (prunes the matmul to a
  fraction of the corpus);
- embedding-cosine near-dup: random-hyperplane LSH buckets + in-bucket
  cosine verify.

Engine additions per the brief ("Similarity search"); the brute-force
path has a DuckDB oracle (list_cosine_similarity).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

import functools

import pyarrow as pa

from ..corpus.storage import BlockRefs, as_batch, as_block
from .util import (cached_instance, key_shuffle, per_key,
                   submit_windowed)


def _stack(batch_col) -> np.ndarray:
    return np.vstack(batch_col.to_numpy())


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


class BruteForceTopK:
    """Per-batch exact top-k: one f32 matmul per batch against the
    broadcast query matrix; emits (query_id, neighbor candidates) partial
    top-k rows that a tiny driver-side reduce finalizes."""

    def __init__(self, queries_ref, k: int):
        qid, qmat = ray.get(queries_ref)
        self.qid = qid
        self.qmat = _normalize(qmat.astype(np.float64))
        self.k = k

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        emb = _normalize(_stack(batch["embedding"]).astype(np.float64))
        sims = emb @ self.qmat.T  # (n_batch, n_query)
        vec_ids = batch["vec_id"].to_numpy()
        out = []
        k = min(self.k, sims.shape[0])
        for j, q in enumerate(self.qid):
            col = sims[:, j]
            idx = np.argpartition(-col, k - 1)[:k]
            out.append(pd.DataFrame({
                "query_id": q,
                "neighbor_id": vec_ids[idx],
                "cosine": col[idx],
            }))
        return pd.concat(out, ignore_index=True)


def knn_bruteforce(embeddings: rd.Dataset, query_ids: list[int], k: int = 5,
                   exclude_self: bool = True, concurrency: int = 4) -> pd.DataFrame:
    """Exact cosine top-k for query vectors drawn from the table itself.

    Distributed pass emits per-batch partial top-k; the final reduce over
    (n_queries × k × n_batches) rows is tiny and runs on the driver.
    Cosine rounded to 4 decimals for oracle bit-parity; ties broken by
    neighbor_id so results are deterministic.
    """
    qdf = embeddings.map_batches(
        lambda t: t[np.isin(t["vec_id"].to_numpy(), query_ids)],
        batch_format="pandas").to_pandas()
    qdf = qdf.sort_values("vec_id")
    queries_ref = ray.put((qdf["vec_id"].to_numpy(), _stack(qdf["embedding"])))

    # task-based with a per-worker cached instance (state = the
    # broadcast query matrix, fetched once per worker): pools reserving
    # CPUs are only worth it for expensive state — see ops.util
    def bf_batch(batch: pd.DataFrame) -> pd.DataFrame:
        inst = cached_instance(("bf_topk", queries_ref.hex(), k + 1),
                               lambda: BruteForceTopK(queries_ref, k + 1))
        return inst(batch)

    partials = embeddings.map_batches(
        bf_batch, batch_format="pandas").to_pandas()

    if exclude_self:
        partials = partials[partials["query_id"] != partials["neighbor_id"]]
    partials["cosine"] = partials["cosine"].round(4)
    partials = partials.sort_values(
        ["query_id", "cosine", "neighbor_id"], ascending=[True, False, True])
    out = partials.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    return out[["query_id", "neighbor_id", "cosine"]]


def sample_embeddings(embeddings: rd.Dataset, target: int = 8192,
                      seed: int = 42) -> np.ndarray:
    """Deterministic uniform row sample via a multiplicative hash of
    vec_id — unbiased w.r.t. storage order (``limit(n)`` takes the
    FIRST blocks, which are arbitrarily clustered on sorted/partitioned
    data; r01 used it and got biased centroids). Streaming filter; only
    ~``target`` vectors reach the driver."""
    n = embeddings.count()   # parquet metadata, no scan
    frac = min(1.0, target / max(1, n))
    cut = np.uint64(int(frac * (1 << 32)))
    mix = np.uint64(2654435761 + seed)

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        h = (batch["vec_id"].to_numpy().astype(np.uint64) * mix) \
            & np.uint64(0xFFFFFFFF)
        return batch[h < cut]

    df = embeddings.map_batches(pick, batch_format="pandas").to_pandas()
    # sort by id: block-arrival order is nondeterministic under the
    # streaming executor, and k-means init indexes into this array
    df = df.sort_values("vec_id")
    return _stack(df["embedding"]).astype(np.float64)


def ivf_build_centroids(embeddings: rd.Dataset, n_cells: int = 16,
                        iters: int = 5, seed: int = 42) -> np.ndarray:
    """Deterministic mini k-means over a uniform hash-sample (the coarse
    quantizer is small state — built once, broadcast everywhere)."""
    sample = sample_embeddings(embeddings, target=8192, seed=seed)
    rng = np.random.RandomState(seed)
    cent = sample[rng.choice(len(sample), size=min(n_cells, len(sample)),
                             replace=False)]
    for _ in range(iters):
        assign = np.argmax(_normalize(sample) @ _normalize(cent).T, axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
    return cent


class IVFTopK:
    """IVF probe: per batch, keep only vectors ASSIGNED to one of the
    query's ``nprobe`` cells, then exact cosine on survivors.

    Vectors are multi-assigned to their top-``n_assign`` cells (IVF
    replication): a neighbor is missed only if NONE of its cells is
    probed — recall on weakly-clustered data jumps from ~0.7 to ≥0.9
    while the probe cost grows only by the assignment factor."""

    def __init__(self, queries_ref, centroids_ref, k: int, nprobe: int,
                 n_assign: int = 2):
        qid, qmat = ray.get(queries_ref)
        self.qid, self.qmat = qid, _normalize(qmat.astype(np.float64))
        self.cent = _normalize(ray.get(centroids_ref).astype(np.float64))
        self.k, self.nprobe, self.n_assign = k, nprobe, n_assign
        self.qcells = np.argsort(-(self.qmat @ self.cent.T), axis=1)[:, :nprobe]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        emb = _normalize(_stack(batch["embedding"]).astype(np.float64))
        sims_c = emb @ self.cent.T
        na = min(self.n_assign, sims_c.shape[1])
        cells = np.argsort(-sims_c, axis=1)[:, :na]   # (n, n_assign)
        vec_ids = batch["vec_id"].to_numpy()
        out = []
        for j, q in enumerate(self.qid):
            mask = np.isin(cells, self.qcells[j]).any(axis=1)
            if not mask.any():
                continue
            sims = emb[mask] @ self.qmat[j]
            ids = vec_ids[mask]
            k = min(self.k, len(ids))
            idx = np.argpartition(-sims, k - 1)[:k]
            out.append(pd.DataFrame({"query_id": q, "neighbor_id": ids[idx],
                                     "cosine": sims[idx]}))
        if not out:
            return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                                 "neighbor_id": pd.Series([], dtype=np.int64),
                                 "cosine": pd.Series([], dtype=np.float64)})
        return pd.concat(out, ignore_index=True)


def knn_ivf(embeddings: rd.Dataset, query_ids: list[int], k: int = 5,
            n_cells: int = 16, nprobe: int = 6,
            concurrency: int = 4) -> pd.DataFrame:
    qdf = embeddings.map_batches(
        lambda t: t[np.isin(t["vec_id"].to_numpy(), query_ids)],
        batch_format="pandas").to_pandas().sort_values("vec_id")
    queries_ref = ray.put((qdf["vec_id"].to_numpy(), _stack(qdf["embedding"])))
    centroids_ref = ray.put(ivf_build_centroids(embeddings, n_cells))

    def ivf_batch(batch: pd.DataFrame) -> pd.DataFrame:
        inst = cached_instance(
            ("ivf_topk", queries_ref.hex(), centroids_ref.hex(), k + 1, nprobe),
            lambda: IVFTopK(queries_ref, centroids_ref, k + 1, nprobe))
        return inst(batch)

    partials = embeddings.map_batches(
        ivf_batch, batch_format="pandas").to_pandas()
    partials = partials[partials["query_id"] != partials["neighbor_id"]]
    partials["cosine"] = partials["cosine"].round(4)
    partials = partials.sort_values(
        ["query_id", "cosine", "neighbor_id"], ascending=[True, False, True])
    return partials.groupby("query_id", sort=True).head(k).reset_index(drop=True)


_EMPTY_PAIRS = {"vec_a": pd.Series([], dtype=np.int64),
                "vec_b": pd.Series([], dtype=np.int64),
                "cosine": pd.Series([], dtype=np.float64)}


def _pairs_block(ids: np.ndarray, emb: np.ndarray,
                 threshold: float) -> pd.DataFrame:
    sims = emb @ emb.T
    a, b = np.triu_indices(len(ids), k=1)
    keep = sims[a, b] >= threshold
    return pd.DataFrame({"vec_a": ids[a][keep], "vec_b": ids[b][keep],
                         "cosine": np.round(sims[a, b][keep], 4)})


def cosine_near_dup(embeddings: rd.Dataset, threshold: float = 0.95,
                    concurrency: int = 4, n_repeats: int = 3,
                    target_bucket: int = 1024,
                    bucket_cap: int = 8192) -> rd.Dataset:
    """Embedding near-dup pairs: hyperplane-LSH buckets → in-bucket
    exact cosine → pair dedup across probe repeats.

    Scale levers (r01 fixed 16 buckets → O(n²/16) verify; gone):
    - plane count grows with n (``log2(n / target_bucket)``) so the
      EXPECTED bucket size stays ~``target_bucket`` regardless of corpus
      size — the in-bucket O(k²) verify is size-invariant;
    - ``n_repeats`` independent plane sets re-probe the corpus and the
      pair union is deduped by a final (vec_a, vec_b) groupby — recall
      for near-threshold pairs grows as 1-(1-p)^R while each repeat
      stays linear;
    - a hard ``bucket_cap``: an over-full bucket (duplicate-heavy data)
      is recursively halved on extra seeded hyperplanes computed inside
      the group, so no verify block ever exceeds the cap.

    Plane/repeat sizing: with p = 1 - acos(t)/π the per-repeat
    candidate probability of a pair at cosine t is p^planes, so repeats
    are raised until predicted recall at the THRESHOLD reaches ~0.9
    (capped at 10 — beyond that is the honest cost limit of hyperplane
    LSH for low thresholds). A corpus that fits within ``target_bucket``
    uses zero planes — one bucket, exact verification."""
    n = embeddings.count()   # parquet metadata / cached plan count
    n_planes = max(0, int(np.ceil(np.log2(max(1.0, n / target_bucket)))))
    if n_planes == 0:
        n_repeats = 1          # single bucket → exact, no re-probe value
    else:
        p = 1.0 - np.arccos(np.clip(threshold, -1.0, 1.0)) / np.pi
        p_cand = max(1e-9, p ** n_planes)
        need = (1 if p_cand >= 0.9
                else int(np.ceil(np.log(0.1) / np.log(1.0 - min(p_cand, 1 - 1e-9)))))
        n_repeats = int(np.clip(need, n_repeats, 10))

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # group key is (rep, bucket); the split seed follows the rep's
        # plane-set seed so re-splits stay deterministic per repeat
        seed = 42 + int(g["rep"].iloc[0])
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        if len(ids) < 2:
            return pd.DataFrame(_EMPTY_PAIRS)
        emb = _normalize(_stack(
            g["embedding"].iloc[order]).astype(np.float64))

        def split_verify(ids, emb, depth):
            if len(ids) < 2:
                return []
            if len(ids) <= bucket_cap or depth > 32:
                return [_pairs_block(ids, emb, threshold)]
            rng = np.random.RandomState(seed * 1000 + depth)
            side = (emb @ rng.randn(emb.shape[1])) > 0
            return (split_verify(ids[side], emb[side], depth + 1)
                    + split_verify(ids[~side], emb[~side], depth + 1))

        outs = split_verify(ids, emb, 0)
        return (pd.concat(outs, ignore_index=True) if outs
                else pd.DataFrame(_EMPTY_PAIRS))

    # ALL probe repeats ride ONE shuffle keyed (rep, bucket): the r02
    # per-repeat pipelines paid n_repeats sequential all-to-all sorts
    # for the same bytes (each repeat re-shuffled the corpus once);
    # replicating rows rep-tagged moves the identical volume through a
    # single barrier.
    seeds = [42 + r for r in range(n_repeats)]

    def lsh_all(batch: pd.DataFrame) -> pd.DataFrame:
        emb = _stack(batch["embedding"]).astype(np.float64)

        def build():
            return np.concatenate(
                [np.random.RandomState(s).randn(emb.shape[1],
                                                max(n_planes, 1))
                 for s in seeds], axis=1)
        planes = cached_instance(("hyperplanes", n_planes, tuple(seeds),
                                  emb.shape[1]), build)
        bits = (emb @ planes) > 0            # (n, reps * max(planes,1))
        weights = (1 << np.arange(n_planes)) if n_planes else np.zeros(0)
        frames = []
        for r in range(n_repeats):
            cols = bits[:, r * max(n_planes, 1):
                        r * max(n_planes, 1) + n_planes]
            bucket = (cols * weights).sum(axis=1) if n_planes \
                else np.zeros(len(batch))
            frames.append(pd.DataFrame({
                "rep": np.int64(r),
                "bucket": bucket.astype(np.int64),
                "vec_id": batch["vec_id"].to_numpy(),
                "embedding": batch["embedding"].to_numpy(),
            }))
        return pd.concat(frames, ignore_index=True)

    bucketed = embeddings.map_batches(lsh_all, batch_format="pandas")
    allp = key_shuffle(bucketed, per_key(verify, ["rep", "bucket"]),
                       ["rep", "bucket"], batch_format="pandas")
    # dedup the pair union across repeats (cosine identical per pair) —
    # bucketed partial-agg, not the sort-based Aggregate (see
    # relational.aggregate)
    from .relational import aggregate
    return aggregate(allp, ["vec_a", "vec_b"], {"cosine": ("max", "cosine")})


@ray.remote
def _block_pairs(blk_a: pa.Table, blk_b: pa.Table, same: bool,
                 threshold: float) -> pd.DataFrame:
    """All qualifying pairs between two pre-normalized Arrow blocks (one
    matmul). Blocks arrive as object-store refs resolved by Ray —
    peer-to-peer on a real cluster, never through the driver."""
    blk_a, blk_b = as_batch(blk_a, "pandas"), as_batch(blk_b, "pandas")
    ids_a, emb_a = blk_a["vec_id"].to_numpy(), _stack(blk_a["nemb"])
    if same:
        ids_b, emb_b = ids_a, emb_a
    else:
        ids_b, emb_b = blk_b["vec_id"].to_numpy(), _stack(blk_b["nemb"])
    sims = emb_a @ emb_b.T
    # boolean mask + nonzero, NOT triu_indices over all O(rows²) pairs:
    # the dense index arrays are 4× the sims matrix and freshly faulted
    # pages are the dominant task cost on cold workers
    mask = sims >= threshold
    if same:
        mask = np.triu(mask, k=1)
    a, b = np.nonzero(mask)
    ia, ib = ids_a[a], ids_b[b]
    return pd.DataFrame({"vec_a": np.minimum(ia, ib),
                         "vec_b": np.maximum(ia, ib),
                         "cosine": np.round(sims[a, b], 4)})


def cosine_near_dup_exact(embeddings: rd.Dataset,
                          threshold: float = 0.35,
                          block_rows: int = 8192) -> pd.DataFrame:
    """EXACT cosine near-dup pairs: blocked all-pairs matmul.

    The verification baseline for ``cosine_near_dup`` (and the only
    member of the cosine family with a full DuckDB value oracle —
    ``list_cosine_similarity`` over a self cross-join). Deliberately
    O(n²/K²) tasks over K block pairs: each task fetches two normalized
    blocks from the OBJECT STORE (no driver materialization of the
    matrix; blocks ship peer-to-peer on a real cluster) and emits only
    qualifying pairs. Inherently quadratic — the honest cost of
    exactness; ``cosine_near_dup`` is the sub-quadratic scale path.

    Both sides compute in float64 (the oracle casts to DOUBLE[]) so the
    only cross-engine difference is summation order, ~1e-15 — far
    below the data's observed min |cosine - threshold| margin of ~1e-6.
    """
    def norm_pack(b: pd.DataFrame) -> pd.DataFrame:
        nemb = _normalize(_stack(b["embedding"]).astype(np.float64))
        return pd.DataFrame({"vec_id": b["vec_id"].to_numpy(),
                             "nemb": list(nemb)})

    packed = embeddings.map_batches(
        norm_pack, batch_format="pandas", batch_size=block_rows)
    blocks = packed.to_arrow_refs()   # refs only; no driver fetch
    futs = []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            futs.append(_block_pairs.remote(
                blocks[i], blocks[j], i == j, threshold))
    parts = [p for p in ray.get(futs) if len(p)]
    if not parts:
        return pd.DataFrame(_EMPTY_PAIRS)
    out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)

# --------------------------------------------------------------------------
# Distributed spherical k-means (Lloyd's) — corpus clustering for
# curation (cluster-balanced sampling, per-cluster dedup, topic pruning).
# --------------------------------------------------------------------------

def kmeans_embeddings(embeddings: rd.Dataset, k: int = 8, iters: int = 5,
                      seed: int = 42, init_centroids: np.ndarray | None = None):
    """Spherical k-means over the embedding column, Ray-Data-native:
    centroids are the only driver state (k × d floats, broadcast per
    round); every round is ONE streaming pass emitting per-batch
    PARTIAL sums — k rows per batch of (cluster, count, vector-sum) —
    combined on the driver (a tree-reduce at larger k×d). Vectors are
    never materialized; the table streams ``iters``+1 times (lineage
    re-runs the read — the classic iterative-algorithm trade; at scale
    the input would be a cached/materialized Dataset).

    Deterministic: init picks k rows from the same hash-sample the IVF
    quantizer uses; assignment = argmax cosine (ties → lowest cluster
    id via argmax's first-hit rule). Returns a pandas DataFrame
    (cluster_id, n_vecs, inertia_milli) where inertia is the summed
    cosine distance ×1000, floored to int64 — stable across batch
    orders at the reported precision."""
    if init_centroids is not None:
        cent = np.array(init_centroids, dtype=np.float64, copy=True)
    else:
        sample = sample_embeddings(embeddings, target=4096, seed=seed)
        rng = np.random.RandomState(seed)
        cent = sample[rng.choice(len(sample), size=min(k, len(sample)),
                                 replace=False)].astype(np.float64)

    def partials_for(cent_ref):
        def assign_partial(batch: pd.DataFrame) -> pd.DataFrame:
            c = _normalize(ray.get(cent_ref))
            emb = _normalize(_stack(batch["embedding"]).astype(np.float64))
            a = np.argmax(emb @ c.T, axis=1)
            rows = []
            for cid in np.unique(a):
                m = emb[a == cid]
                rows.append({"cluster": int(cid), "cnt": int(m.shape[0]),
                             "vsum": m.sum(axis=0).tolist()})
            return pd.DataFrame(rows)
        return assign_partial

    for _ in range(iters):
        cent_ref = ray.put(cent)
        p = embeddings.map_batches(partials_for(cent_ref),
                                   batch_format="pandas").to_pandas()
        for cid, g in p.groupby("cluster"):
            vec = np.sum(np.vstack(g["vsum"].to_numpy()), axis=0)
            cnt = int(g["cnt"].sum())
            if cnt:
                cent[cid] = vec / cnt

    cent_ref = ray.put(cent)

    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        c = _normalize(ray.get(cent_ref))
        emb = _normalize(_stack(batch["embedding"]).astype(np.float64))
        sims = emb @ c.T
        a = np.argmax(sims, axis=1)
        best = sims[np.arange(len(a)), a]
        out = pd.DataFrame({"cluster": a, "one": np.ones(len(a), np.int64),
                            "dist": 1.0 - best})
        return out.groupby("cluster", as_index=False).agg(
            n_vecs=("one", "sum"), inertia=("dist", "sum"))

    agg = (embeddings.map_batches(stats, batch_format="pandas")
           .to_pandas().groupby("cluster", as_index=False)
           .agg(n_vecs=("n_vecs", "sum"), inertia=("inertia", "sum")))
    return pd.DataFrame({
        "cluster_id": agg["cluster"].astype(np.int64),
        "n_vecs": agg["n_vecs"].astype(np.int64),
        "inertia_milli": np.floor(agg["inertia"] * 1000).astype(np.int64),
    }).sort_values("cluster_id", ignore_index=True)


def pca_embeddings(embeddings: rd.Dataset, k: int = 2,
                   batch_size: int = 4096) -> rd.Dataset:
    """Distributed exact PCA over the embedding column, two streaming
    passes and O(d²) driver state (d = embedding dim, tiny):

    1. Moment pass — each batch emits ONE partial row (n, Σx, Σxxᵀ),
       d + d² floats regardless of batch rows; the driver sums the
       partials, forms the covariance ``Σxxᵀ/n − μμᵀ`` and
       eigendecomposes the d×d matrix (numpy ``eigh``, symmetric).
    2. Projection pass — the top-k eigenvectors (sign-canonicalized:
       the largest-|coordinate| entry of each component is made
       positive, so the output is reproducible across runs) are
       broadcast once via ``ray.put`` and every batch projects
       ``(x − μ) @ Vᵀ`` vectorized.

    Vectors are never materialized on the driver and no shuffle runs —
    the only all-reduce is the d²-sized moment combine. Returns a
    Dataset (vec_id, pc_1..pc_k, float64)."""

    def moments(batch: pd.DataFrame) -> pd.DataFrame:
        x = _stack(batch["embedding"]).astype(np.float64)
        return pd.DataFrame({
            "n": [np.int64(x.shape[0])],
            "s": [x.sum(axis=0).tolist()],
            "ss": [(x.T @ x).ravel().tolist()],
        })

    p = embeddings.map_batches(moments, batch_format="pandas",
                               batch_size=batch_size).to_pandas()
    n = int(p["n"].sum())
    s = np.sum(np.vstack(p["s"].to_numpy()), axis=0)
    d = s.shape[0]
    ss = np.sum(np.vstack(p["ss"].to_numpy()), axis=0).reshape(d, d)
    mu = s / n
    cov = ss / n - np.outer(mu, mu)
    evals, evecs = np.linalg.eigh(cov)          # ascending eigenvalues
    comps = evecs[:, ::-1][:, :k].T.copy()      # (k, d), descending
    for i in range(comps.shape[0]):             # deterministic sign
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    state = ray.put((mu, comps))

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        m, c = ray.get(state)
        x = _stack(batch["embedding"]).astype(np.float64)
        proj = (x - m) @ c.T
        out = {"vec_id": batch["vec_id"].to_numpy()}
        for i in range(c.shape[0]):
            out[f"pc_{i + 1}"] = proj[:, i]
        return pd.DataFrame(out)

    return embeddings.map_batches(project, batch_format="pandas",
                                  batch_size=batch_size)


# --------------------------------------------------------------------------
# Product quantization (PQ) — the compressed-index ANN scale path:
# vectors become m uint8 codes (32×+ compression for f32), probes scan
# CODES with per-query lookup tables (ADC), and only a small shortlist
# is re-ranked against the raw vectors. Jégou et al., "Product
# Quantization for Nearest Neighbor Search", TPAMI 2011.
# --------------------------------------------------------------------------

def pq_train_codebooks(embeddings: rd.Dataset, m: int = 16, ks: int = 64,
                       iters: int = 10, seed: int = 42) -> np.ndarray:
    """Per-subspace k-means codebooks (m, ks, d/m) trained on a
    deterministic hash-sample of NORMALIZED vectors — small state built
    once on the driver and broadcast (the ivf_build_centroids
    posture). ks ≤ 256 so codes fit uint8."""
    if ks > 256:
        raise ValueError(f"ks must fit uint8, got {ks}")
    sample = _normalize(sample_embeddings(embeddings, target=8192,
                                          seed=seed))
    d = sample.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    rng = np.random.RandomState(seed)
    books = np.zeros((m, ks, dsub))
    for s in range(m):
        sub = sample[:, s * dsub:(s + 1) * dsub]
        kk = min(ks, len(sub))
        cent = sub[rng.choice(len(sub), size=kk, replace=False)].copy()
        for _ in range(iters):
            # argmin ||x-c||² == argmin (||c||² - 2 x·c): one matmul
            scores = cent @ sub.T  # (kk, n)
            a = np.argmin((cent * cent).sum(1)[:, None] - 2 * scores,
                          axis=0)
            for c in range(kk):
                mem = sub[a == c]
                if len(mem):
                    cent[c] = mem.mean(axis=0)
        books[s, :kk] = cent
    return books


def pq_encode(embeddings: rd.Dataset, codebooks_ref) -> rd.Dataset:
    """Encode every vector to m uint8 codes — ONE streaming pass, one
    matmul per subspace per batch; output (vec_id, code:
    fixed_size_list<uint8>[m]) is the persisted compressed index that
    100-TB probes scan INSTEAD of the raw vectors."""
    import pyarrow as pa

    def encode(batch: pd.DataFrame) -> "pa.Table":
        books = ray.get(codebooks_ref)
        m, ks, dsub = books.shape
        emb = _normalize(_stack(batch["embedding"]).astype(np.float64))
        codes = np.empty((len(emb), m), dtype=np.uint8)
        for s in range(m):
            sub = emb[:, s * dsub:(s + 1) * dsub]
            cent = books[s]
            codes[:, s] = np.argmin(
                (cent * cent).sum(1)[None, :] - 2 * (sub @ cent.T),
                axis=1).astype(np.uint8)
        flat = pa.array(codes.reshape(-1), type=pa.uint8())
        return pa.table({
            "vec_id": pa.array(batch["vec_id"].to_numpy(np.int64)),
            "code": pa.FixedSizeListArray.from_arrays(flat, m)})

    return embeddings.map_batches(encode, batch_format="pandas")


def knn_pq(embeddings: rd.Dataset, query_ids: list[int], k: int = 5,
           m: int = 16, ks: int = 64, shortlist: int = 50,
           seed: int = 42) -> pd.DataFrame:
    """ANN top-k via PQ ADC + exact re-rank: (1) train codebooks on a
    sample, (2) encode the corpus to uint8 codes (the ONLY full-width
    pass; the compressed index is what gets materialized — 32×+
    smaller than f32 vectors, spillable), (3) ADC-scan the codes with
    per-query distance LUTs, keeping a per-batch partial shortlist,
    (4) exact-cosine re-rank the ≤ ``shortlist`` global survivors per
    query against the raw table (a key-set filtered pass — only
    shortlist rows are scored). Output contract matches knn_ivf:
    (query_id, neighbor_id, cosine round-4, ties by neighbor_id). A
    neighbor is missed only if ADC ranks it below the shortlist cut;
    recall vs knn_bruteforce is pinned in tests/test_neardup_quality.py."""
    qdf = embeddings.map_batches(
        lambda t: t[np.isin(t["vec_id"].to_numpy(), query_ids)],
        batch_format="pandas").to_pandas().sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = _normalize(_stack(qdf["embedding"]).astype(np.float64))

    books = pq_train_codebooks(embeddings, m=m, ks=ks, seed=seed)
    books_ref = ray.put(books)
    codes = pq_encode(embeddings, books_ref).materialize()

    dsub = books.shape[2]
    # per-query ADC lookup tables (n_q, m, ks): ||q_s − c||² per codeword
    luts = np.stack([
        np.stack([((books[s] - q[s * dsub:(s + 1) * dsub]) ** 2).sum(-1)
                  for s in range(m)]) for q in qmat])
    probe_ref = ray.put((qids, luts))

    def adc(batch: pd.DataFrame) -> pd.DataFrame:
        qi, lt = ray.get(probe_ref)
        cm = np.vstack(batch["code"].to_numpy()).astype(np.int64)
        vid = batch["vec_id"].to_numpy(np.int64)
        out = []
        sl = min(shortlist, len(vid))
        for j, qid in enumerate(qi):
            dist = lt[j][np.arange(m)[None, :], cm].sum(axis=1)
            idx = np.argpartition(dist, sl - 1)[:sl]
            out.append(pd.DataFrame({"query_id": np.int64(qid),
                                     "neighbor_id": vid[idx],
                                     "adc": dist[idx]}))
        return pd.concat(out, ignore_index=True)

    partials = codes.map_batches(adc, batch_format="pandas").to_pandas()
    partials = partials[partials["query_id"] != partials["neighbor_id"]]
    partials = partials.sort_values(["query_id", "adc", "neighbor_id"])
    short = partials.groupby("query_id", sort=True).head(shortlist)

    # exact re-rank: key-set filtered pass over the raw vectors
    cand_ids = np.unique(short["neighbor_id"].to_numpy(np.int64))
    per_q = {int(q): np.sort(g["neighbor_id"].to_numpy(np.int64))
             for q, g in short.groupby("query_id")}
    rer_ref = ray.put((qids, qmat, cand_ids, per_q))

    def rerank(batch: pd.DataFrame) -> pd.DataFrame:
        qi, qm, cids, pq_sets = ray.get(rer_ref)
        vid = batch["vec_id"].to_numpy(np.int64)
        keep = np.isin(vid, cids)
        if not keep.any():
            return pd.DataFrame({
                "query_id": pd.Series([], dtype=np.int64),
                "neighbor_id": pd.Series([], dtype=np.int64),
                "cosine": pd.Series([], dtype=np.float64)})
        emb = _normalize(_stack(batch["embedding"][keep]).astype(np.float64))
        vid = vid[keep]
        sims = emb @ qm.T
        out = []
        for j, qid in enumerate(qi):
            mask = np.isin(vid, pq_sets.get(int(qid),
                                            np.array([], dtype=np.int64)))
            out.append(pd.DataFrame({"query_id": np.int64(qid),
                                     "neighbor_id": vid[mask],
                                     "cosine": sims[mask, j]}))
        return pd.concat(out, ignore_index=True)

    exact = embeddings.map_batches(rerank, batch_format="pandas").to_pandas()
    exact["cosine"] = exact["cosine"].round(4)
    exact = exact.sort_values(["query_id", "cosine", "neighbor_id"],
                              ascending=[True, False, True])
    return (exact.groupby("query_id", sort=True).head(k)
            .reset_index(drop=True)[["query_id", "neighbor_id", "cosine"]])


# --------------------------------------------------------------------------
# Exact mutual-kNN graph — the curation primitive behind SemDeDup-style
# semantic pruning and retrieval-QA link checks: an edge (a, b) exists
# iff b is in a's exact top-k by cosine AND a is in b's. Engine
# addition (the reference has no similarity ops; nearest analogue is
# the trending first-match title join, TrendingScraper.py:92-110).
# --------------------------------------------------------------------------

def _arrow_block_topk(a: pa.Table, b: pa.Table, same: bool,
                      k: int) -> pa.Table:
    """``_block_topk`` over two Arrow blocks, as an Arrow block."""
    return as_block(_block_topk(as_batch(a, "pandas"), as_batch(b, "pandas"),
                                same, k))


def _block_topk(blk_a: pd.DataFrame, blk_b: pd.DataFrame, same: bool,
                k: int) -> pd.DataFrame:
    """Per-row partial top-k between two normalized blocks (one
    matmul), BOTH directions when the blocks differ. Cosines are
    rounded to 4 dp BEFORE ranking (the knn_bruteforce oracle
    contract) with neighbor-id tiebreak, so partial selection is
    distributive: combining per-block top-ks under the same key
    reproduces the global top-k exactly."""
    if not len(blk_a) or (not same and not len(blk_b)):
        return pd.DataFrame({"vec_id": pd.Series([], dtype=np.int64),
                             "nbr_id": pd.Series([], dtype=np.int64),
                             "cosine": pd.Series([], dtype=np.float64)})
    ids_a, A = blk_a["vec_id"].to_numpy(), np.stack(list(blk_a["nemb"]))
    if same:
        ids_b, B = ids_a, A
    else:
        ids_b, B = blk_b["vec_id"].to_numpy(), np.stack(list(blk_b["nemb"]))
    sims = np.round(A @ B.T, 4)
    outs = []

    def one_side(s, rows, cols):
        kk = min(k, s.shape[1])
        # lexsort key: (-cosine, neighbor id) — top-k with id tiebreak
        order = np.lexsort((np.broadcast_to(cols, s.shape), -s), axis=1)
        take = order[:, :kk]
        return pd.DataFrame({
            "vec_id": np.repeat(rows, kk),
            "nbr_id": cols[take].ravel(),
            "cosine": np.take_along_axis(s, take, axis=1).ravel()})

    if same:
        np.fill_diagonal(sims, -np.inf)
        outs.append(one_side(sims, ids_a, ids_b))
    else:
        outs.append(one_side(sims, ids_a, ids_b))
        outs.append(one_side(sims.T.copy(), ids_b, ids_a))
    out = pd.concat(outs, ignore_index=True)
    return out[np.isfinite(out["cosine"].to_numpy())]


def knn_graph_mutual(embeddings: rd.Dataset, k: int = 5,
                     block_rows: int = 4096) -> rd.Dataset:
    """Canonical (vec_a < vec_b) mutual-kNN edges with their cosine.

    Topology: normalized blocks live in the OBJECT STORE (refs only);
    one task per block pair emits per-row PARTIAL top-k rows (≤ k per
    (row, block) — never the full similarity matrix), a vec_id-keyed
    groupby combines partials to the exact global top-k (selection
    under one total order is distributive), and the mutual filter is
    a canonical-pair count-2 preagg — no self-join. Deliberately
    O(n²/K²) block-pair tasks: this is the EXACT baseline twin (the
    cosine_near_dup_exact contract); the scale path generates
    candidates with IVF/PQ (knn_ivf / knn_pq) and feeds the same
    mutual filter."""
    import ray

    from .relational import aggregate

    def norm_pack(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):   # empty block guard (see commit 9be3d72)
            return pd.DataFrame({"vec_id": pd.Series([], dtype=np.int64),
                                 "nemb": pd.Series([], dtype=object)})
        nemb = _normalize(_stack(b["embedding"]).astype(np.float64))
        return pd.DataFrame({"vec_id": b["vec_id"].to_numpy(),
                             "nemb": list(nemb)})

    packed = embeddings.map_batches(
        norm_pack, batch_format="pandas", batch_size=block_rows)
    blocks = packed.to_arrow_refs()   # refs only; no driver fetch
    topk_r = ray.remote(_arrow_block_topk)
    partials = BlockRefs(submit_windowed(
        functools.partial(topk_r.remote, blocks[i], blocks[j], i == j, k)
        for i in range(len(blocks)) for j in range(i, len(blocks))))

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "nbr_id"],
                          ascending=[False, True], kind="stable")
        return g.groupby("vec_id", sort=False).head(k)

    topk = key_shuffle(partials, combine, ["vec_id"], batch_format="pandas")

    def canonical(b: pd.DataFrame) -> pd.DataFrame:
        a = b["vec_id"].to_numpy(np.int64)
        c = b["nbr_id"].to_numpy(np.int64)
        return pd.DataFrame({"vec_a": np.minimum(a, c),
                             "vec_b": np.maximum(a, c),
                             "cosine": b["cosine"].to_numpy()})

    # mutual ⇔ the canonical pair appears from BOTH endpoints' top-k
    # (cosine is symmetric, so both rows carry the same value and
    # min/count reduce under one preagg pass)
    pairs = topk.map_batches(canonical, batch_format="pandas")
    counted = aggregate(pairs, ["vec_a", "vec_b", "cosine"],
                        {"n_dir": ("count", None)})
    return counted.map_batches(
        lambda b: b[b["n_dir"] == 2][["vec_a", "vec_b", "cosine"]],
        batch_format="pandas")


def semantic_prune(embeddings: rd.Dataset, n_clusters: int = 8,
                   threshold: float = 0.9, iters: int = 5,
                   seed: int = 42,
                   prune_chunk: int = 2048) -> rd.Dataset:
    """SemDeDup-style semantic pruning (Abbas et al. 2023, "SemDeDup:
    Data-efficient learning at web-scale through semantic
    deduplication"): cluster the corpus with the deterministic coarse
    quantizer, then WITHIN each cluster greedily drop any vector whose
    cosine to an already-KEPT lower-id vector is ≥ threshold. Keeps
    one representative per semantic duplicate group without any
    cross-cluster pair work — the standing SemDeDup trade: duplicates
    split across cluster boundaries are missed by design (the paper's
    recall/cost knob is n_clusters).

    Determinism: greedy order is ascending vec_id, so output is
    independent of block arrival; kept⇔kept pairs all have cosine <
    threshold BY CONSTRUCTION (pinned in tests). Topology: sample-kmeans
    centroids broadcast once; ONE assignment pass; ONE cluster-keyed
    shuffle of (id, vector); per-cluster vectorized greedy (one local
    matmul + a kept-mask scan). Returns (vec_id, cluster_id, kept).
    No SQL oracle (k-means); tests pin the invariants and a planted
    near-dup set against a numpy reference."""
    cent = _normalize(ivf_build_centroids(
        embeddings, n_cells=n_clusters, iters=iters,
        seed=seed).astype(np.float64))
    cent_ref = ray.put(cent)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):   # empty block
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype=np.int64),
                "cluster_id": pd.Series([], dtype=np.int64),
                "nemb": pd.Series([], dtype=object)})
        c = ray.get(cent_ref)
        emb = _normalize(_stack(b["embedding"]).astype(np.float64))
        return pd.DataFrame({
            "vec_id": b["vec_id"].to_numpy(np.int64),
            "cluster_id": np.argmax(emb @ c.T, axis=1).astype(np.int64),
            "nemb": [v.tobytes() for v in emb]})

    def prune(g: pd.DataFrame, chunk: int | None = None) -> pd.DataFrame:
        chunk = chunk or prune_chunk
        # BLOCKED greedy: never materialize the n×n similarity matrix
        # (a 12.5k-vector cluster would allocate ~1.25 GB in one task).
        # Per chunk: ONE matmul against the previously-kept rows
        # (O(chunk × kept) transient) + a chunk-local c×c matmul for
        # the sequential within-chunk scan — identical output to the
        # full-matrix form (pinned by the determinism test).
        g = g.sort_values("vec_id")
        N = np.stack([np.frombuffer(v, dtype=np.float64)
                      for v in g["nemb"]])
        n = len(g)
        kept = np.zeros(n, dtype=bool)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            C = N[lo:hi]
            prev_idx = np.flatnonzero(kept[:lo])
            blocked = ((C @ N[prev_idx].T >= threshold).any(axis=1)
                       if len(prev_idx) else
                       np.zeros(hi - lo, dtype=bool))
            intra = C @ C.T
            for i in range(hi - lo):
                if blocked[i]:
                    continue
                kc = kept[lo:lo + i]
                kept[lo + i] = not (intra[i, :i][kc] >= threshold).any()
        return pd.DataFrame({
            "vec_id": g["vec_id"].to_numpy(),
            "cluster_id": g["cluster_id"].to_numpy(),
            "kept": kept})

    return key_shuffle(embeddings.map_batches(assign, batch_format="pandas"),
                       per_key(prune, ["cluster_id"]), ["cluster_id"],
                       batch_format="pandas")
