"""Distributed graph operators over Ray Data.

Connected components is the standard follow-on to every candidate-pair
near-dup stage (MinHash/SimHash/n-gram Jaccard emit PAIRS; dedup needs
CLUSTERS): transitively-linked documents form one duplicate group and a
single canonical representative survives. The reference's analogue is
its content-id seen-set (D1) — a degenerate one-hop version; the engine
generalizes it to true transitive closure.

Scale posture: label propagation ("min over the closed neighborhood")
expressed entirely as bucketed Ray Data passes — per iteration ONE
message shuffle (labels joined to edges) and ONE min-reduce, both moving
(node, label) pairs only, never documents. Per-block union-find
contraction collapses in-block paths before any shuffle, and pointer
doubling (label-pointer edges joined into the same offer pass) makes
the residual cross-block convergence O(log diameter); near-dup
components are shallow, so 2-3 iterations settle real corpora. Labels
are materialized once per iteration — each is a 2-int64-column dataset,
the one state that MUST persist across iterations (lineage re-execution
would otherwise re-run every prior iteration per pass).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .util import (check_broadcast, fanout, key_shuffle, plan_tier,
                   shuffle_buckets)


# ---------------------------------------------------------------------------
# Iteration checkpoints (crash-resume for the iterative operators)
# ---------------------------------------------------------------------------
# At 100-TB graph scale an iteration is minutes of all-to-all work; a
# crash at iteration 40 of 50 must not redo 1-39. State per iteration is
# node-sized (the same bound the tiers rely on), so a checkpoint is one
# parquet write of the label/rank dataset. Writes are atomic
# (tmp + rename), resume picks the highest complete iteration.

def _ckpt_latest(d: str | None, pref: str) -> tuple[int, str | None]:
    if not d or not os.path.isdir(d):
        return 0, None
    best, path = 0, None
    for name in os.listdir(d):
        if not name.startswith(pref + "_iter_") or name.endswith(".tmp"):
            continue
        tail = name[len(pref + "_iter_"):]
        tail = tail[:-len(".parquet")] if tail.endswith(".parquet") else tail
        try:
            i = int(tail)
        except ValueError:
            continue
        if i > best:
            best, path = i, os.path.join(d, name)
    return best, path


def _ckpt_resume(d: str | None, pref: str, fingerprint: dict,
                 max_iters: int | None = None) -> tuple[int, str | None]:
    """Validated resume: checkpoints in ``d`` are only trusted when the
    run fingerprint (input sizes + result-shaping params) matches the
    ``{pref}_meta.json`` manifest written by the run that created them —
    reusing a dir across different inputs/params must NOT silently
    resume from foreign state (labels from another graph misalign the
    tier-2 searchsorted scatter; a stale iter ≥ max_iters would make
    connected_components raise a spurious non-convergence error).
    Mismatch raises; a missing manifest (pre-manifest dirs) writes one
    and starts fresh; a matching checkpoint at iter ≥ max_iters is
    ignored (fresh start) rather than clamped past the loop."""
    if not d:
        return 0, None
    os.makedirs(d, exist_ok=True)
    meta_path = os.path.join(d, f"{pref}_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fp:
            old = json.load(fp)
        if old != fingerprint:
            raise ValueError(
                f"checkpoint_dir {d!r} holds {pref} state for a "
                f"different input/params (manifest {old} != "
                f"{fingerprint}); point the run at a fresh dir")
    else:
        with open(meta_path, "w") as fp:
            json.dump(fingerprint, fp)
        return 0, None
    best, path = _ckpt_latest(d, pref)
    if max_iters is not None and best >= max_iters:
        return 0, None
    return best, path


def _ckpt_write_table(d: str, pref: str, i: int, table: pa.Table) -> None:
    """Driver-side single-file checkpoint (tier-2 node arrays)."""
    import pyarrow.parquet as pq
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f"{pref}_iter_{i}.parquet.tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(d, f"{pref}_iter_{i}.parquet"))


def _ckpt_write_ds(d: str, pref: str, i: int, ds: rd.Dataset) -> None:
    """Distributed multi-fragment checkpoint (tier-3 datasets) —
    workers write fragments to a tmp dir, one atomic rename commits."""
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f"{pref}_iter_{i}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    final = os.path.join(d, f"{pref}_iter_{i}")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)


def _driver_union_find(a: np.ndarray, c: np.ndarray) -> pa.Table:
    """Union-find over an edge list small enough to hold on the
    driver; returns the (node, label) table with label = component
    min. Shared by the small-graph fast path and (conceptually) the
    per-block contraction."""
    ids, inv = np.unique(np.concatenate([a, c]), return_inverse=True)
    parent = np.arange(len(ids))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(inv[:len(a)], inv[len(a):]):
        ru, rv = find(u), find(v)
        if ru < rv:
            parent[rv] = ru
        elif rv < ru:
            parent[ru] = rv
    roots = ids[np.fromiter((find(i) for i in range(len(ids))),
                            dtype=np.int64, count=len(ids))]
    return pa.table({"node": ids, "label": roots})


def _pull(ds: rd.Dataset, *cols: str) -> list[np.ndarray]:
    """A driver tier's pull: the int64 columns ``cols`` of ``ds`` (empty
    for an empty Dataset, whose ``to_pandas()`` has no columns)."""
    df = ds.to_pandas()
    return [df[c].to_numpy(np.int64) if len(df) else np.zeros(0, np.int64)
            for c in cols]


def _mirror(col_a: str, col_b: str):
    """Batch fn: each undirected pair as two (node, nbr) rows."""
    def mirror(b: pa.Table) -> pa.Table:
        a = b[col_a].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b[col_b].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": np.concatenate([a, c]),
                         "nbr": np.concatenate([c, a])})
    return mirror


def connected_components(pairs: rd.Dataset, col_a: str, col_b: str,
                         max_iters: int = 50,
                         checkpoint_dir: str | None = None) -> rd.Dataset:
    """Label every node of the undirected pair graph with the MINIMUM
    node id reachable from it: ``(doc_id, cluster_id)`` — one row per
    node that appears in ``pairs``; ``cluster_id`` is the component's
    canonical representative (its smallest member).

    Per iteration: every node offers its current label to each
    neighbor (a bucketed join of labels to the edge list), then each
    node takes the min over its own label and all offers (a bucketed
    min-reduce). Labels only ever DECREASE, so the global label sum is
    strictly monotone and stalls exactly at the fixed point — the
    convergence check is one cheap streaming sum, no row-level diff.
    While the contracted star edges (16 B each) fit the driver budget
    (``util.plan_tier``), one driver union-find replaces the loop.
    """

    def contract(b: pa.Table) -> pa.Table:
        """LOCAL CONTRACTION (the standard CC accelerator): union-find
        over this block's edges alone, replacing them with star edges
        node→local-root (root = the local component's min id). Pure
        per-block compute, no coordination; every path that co-resides
        in one block collapses to depth 1 BEFORE any shuffle, so the
        global iteration count drops from the raw graph's diameter to
        the cross-block diameter (a one-block graph converges in one
        verification round). Also compresses: ≤ one star edge per
        distinct node instead of one per input pair."""
        a = b[col_a].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b[col_b].to_numpy(zero_copy_only=False).astype(np.int64)
        t = _driver_union_find(a, c)   # union by MIN id → root = min
        ids = t["node"].to_numpy()
        roots = t["label"].to_numpy()
        return pa.table({
            "node": np.concatenate([ids, roots]),
            "nbr": np.concatenate([roots, ids]),
        })

    # Per-block-contracted star edges, both directions; materialized
    # once — every iteration streams the same blocks instead of
    # re-reading pairs.
    edges = pairs.map_batches(contract, batch_format="pyarrow").materialize()
    # Size blocks to the DATA: the pair pipeline hands over dozens of
    # near-empty blocks, and every iteration re-launches one task per
    # block per stage (measured ~4.5 s/iteration of pure scheduling for
    # a 300-edge graph at 32 CPUs). One 64Ki-row block per ~64Ki edges.
    n_edge_rows = edges.count()

    # SMALL-GRAPH FAST PATH: per-block contraction already shrank the
    # graph to ≤ 2 star edges per distinct node; while they fit the
    # driver budget, one local union-find replaces 2+ all-to-all
    # shuffles per iteration whose cost is pure task-launch overhead
    # at this size. Larger graphs take the iterative distributed path
    # below, which never materializes more than (node, label) pairs
    # per bucket.
    if plan_tier("connected_components",
                 driver_bytes=16 * n_edge_rows) == "driver":
        t = _driver_union_find(*_pull(edges, "node", "nbr"))
        return rd.from_arrow(pa.table({"doc_id": t["node"],
                                       "cluster_id": t["label"]}))

    target_blocks = int(max(1, min(64, n_edge_rows // 65536 + 1)))
    if edges.num_blocks() > 2 * target_blocks:
        edges = edges.repartition(target_blocks).materialize()

    def init_labels(b: pd.DataFrame) -> pd.DataFrame:
        d = b[["node"]].drop_duplicates().copy()
        d["label"] = d["node"]
        return d

    labels = edges.map_batches(init_labels,
                               batch_format="pandas").materialize()
    n_nodes = labels.count()
    if n_nodes == 0:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                       "cluster_id": pa.array([], pa.int64())}))
    n = _graph_buckets(n_nodes)

    # ---- BSP label propagation (same kernel shape as tier-3
    # pagerank, see the block above): star edges hash-split by node
    # ONCE into per-bucket plasma arrays; per iteration only
    # node-sized (neighbor, min-label-offer) arrays move between
    # buckets — pointer doubling rides the same exchange as dynamic
    # (label_u → u) rows keyed by the label's bucket, so convergence
    # stays O(log cross-block diameter) and the static edges never
    # cross the wire again.
    prep_e = ray.remote(_prep_edges)
    prep_l = ray.remote(_cc_prep_labels)
    red_r = ray.remote(_cc_reduce)
    lbl_tbl_r = ray.remote(_cc_label_table)
    out_tbl_r = ray.remote(_cc_out_table)

    edges_k = [prep_e.remote(*f)
               for f in _split_blocks(edges, ["node", "nbr"], n)]

    prev_sum = None
    converged = False
    # no bucket count in the fingerprint: the checkpoint is a labels
    # TABLE re-split on resume, and min-label propagation does not
    # depend on the partitioning, so a resume on a cluster with another
    # CPU count (another derived count) is sound
    start_iter, ck_path = _ckpt_resume(
        checkpoint_dir, "cc",
        {"op": "cc", "n_edge_rows": n_edge_rows, "n_nodes": n_nodes},
        max_iters=max_iters)
    if ck_path and start_iter > 0:
        # resume: labels are the ONLY loop state; the monotone label
        # sum doubles as the convergence cursor, so it restores from
        # the checkpoint itself
        state = rd.read_parquet(ck_path).materialize()
        lab_k = [prep_l.remote(*f)
                 for f in _split_blocks(state, ["node", "label"], n)]
        prev_sum = int(state.sum("label"))
    else:
        lab_k = [prep_l.remote(*f)
                 for f in _split_blocks(labels, ["node", "label"], n)]

    for _it in range(start_iter, max_iters):
        dparts = [fanout(_cc_pointer_edges, n, lab_k[j], n)
                  for j in range(n)]
        oparts = [fanout(_cc_offers, n, edges_k[k], lab_k[k], n,
                          *[dparts[j][k] for j in range(n)])
                  for k in range(n)]
        outs = [red_r.options(num_returns=2).remote(
            lab_k[j], *[oparts[k][j] for k in range(n)])
            for j in range(n)]
        lab_k = [o[0] for o in outs]
        cur_sum = int(sum(ray.get([o[1] for o in outs])))
        if checkpoint_dir:
            _ckpt_write_ds(checkpoint_dir, "cc", _it + 1,
                           rd.from_arrow_refs(
                               [lbl_tbl_r.remote(l) for l in lab_k]))
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # returning part-propagated labels would silently split
        # components (duplicates survive dedup) — fail loudly instead
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} "
            "iterations (cross-block diameter exceeds max_iters); "
            "raise max_iters")

    return rd.from_arrow_refs([out_tbl_r.remote(l) for l in lab_k])


# ---------------------------------------------------------------------------
# The wedge kernel shared by every triangle tier
# ---------------------------------------------------------------------------
# Compact-forward: orient every edge low → high in (degree, id) order,
# so out-degree is bounded by ~sqrt(2m) and the wedges (out-neighbor
# pairs) number at most m·sqrt(2m); a wedge (c; x, y) closes iff
# (x, y) is an edge, and each triangle closes exactly once, at its
# orientation-minimal corner. The driver tier, the broadcast tier's
# per-bucket pass and the tier-3 wedge split all draw their wedges
# from ``_wedge_slices``, so each holds O(edges + WEDGE_SLICE) at once.

WEDGE_SLICE = 1 << 16
"""Wedges per slice of ``_wedge_slices``. A slice's working set is
about eight int64 arrays of this length (edge index, partner offset,
center, x, y, packed key, search position, closed mask), ~4 MiB at
1 << 16; smaller slices only add per-slice numpy calls (~15 each).
On the perfbench sf0.01 part co-occurrence graph (116,338 edges,
3.89 M wedges, one core) the driver tier's tracemalloc peak reads
10.9 MiB at every slice from 1 << 12 to 1 << 16, where the O(edges)
arrays dominate, then 22.6 MiB at 1 << 18, 74.2 MiB at 1 << 20 and
247 MiB with every wedge in one slice; its time reads 0.31-0.32 s up
to 1 << 16 and 0.36-0.40 s above. 1 << 16 is the largest slice that
the edge arrays still dominate."""


def _wedge_slices(u: np.ndarray, v: np.ndarray):
    """Yield the out-neighbor pairs of an oriented edge list as
    ``(center, x, y)`` int64 slices of ``WEDGE_SLICE`` wedges (the
    last one shorter). ``(u, v)`` must be lexsorted and distinct, so
    each u-run lists its out-neighbors ascending and every wedge has
    x < y. Edge i pairs with the edges after it in its u-run; the
    wedges are numbered edge by edge, and a slice maps its wedge
    numbers back to (edge, partner) by offset arithmetic — no Python
    loop over nodes, and no array longer than the edges or a slice."""
    m = len(u)
    if m < 2:
        return
    starts = np.flatnonzero(np.concatenate(([True], u[1:] != u[:-1])))
    ends = np.append(starts[1:], m)
    partners = np.repeat(ends, ends - starts) - np.arange(m) - 1
    last = np.cumsum(partners)        # one past each edge's last wedge
    first = last - partners
    for s in range(0, int(last[-1]), WEDGE_SLICE):
        e = min(s + WEDGE_SLICE, int(last[-1]))
        lo = int(np.searchsorted(last, s, side="right"))
        hi = int(np.searchsorted(last, e - 1, side="right")) + 1
        cnt = np.minimum(last[lo:hi], e) - np.maximum(first[lo:hi], s)
        edge = np.repeat(np.arange(lo, hi), cnt)
        other = np.arange(s, e) + np.repeat(
            np.arange(lo + 1, hi + 1) - first[lo:hi], cnt)
        yield u[edge], v[edge], v[other]


def _is_edge(keys: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """Membership of packed keys ``wk`` in the SORTED packed edge keys."""
    if not len(keys):
        return np.zeros(len(wk), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, wk), len(keys) - 1)
    return keys[pos] == wk


def _closed_wedges(u: np.ndarray, v: np.ndarray, keys: np.ndarray,
                   n_nodes: int):
    """The triangles of an oriented edge list, slice by slice, as
    ``(center, x, y)``: ``_wedge_slices`` filtered by ``_is_edge``
    against ``keys``, the sorted packed edge keys x·n + y (x < y)."""
    for c, x, y in _wedge_slices(u, v):
        hit = _is_edge(keys, x * n_nodes + y)
        yield c[hit], x[hit], y[hit]


def _count_closed(u, v, keys, n_nodes: int) -> int:
    return sum(len(x) for _c, x, _y in _closed_wedges(u, v, keys, n_nodes))


def _tri_participation(u, v, keys, n_nodes: int) -> np.ndarray:
    """Per-node triangle participation: every closed wedge credits all
    THREE corners, and each triangle closes once, so the totals are
    exact. A dense int64 array of length ``n_nodes`` (node-sized, the
    same budget as the degree array the tiers already hold)."""
    counts = np.zeros(n_nodes, dtype=np.int64)
    for c, x, y in _closed_wedges(u, v, keys, n_nodes):
        # per-slice work stays slice-sized: no n_nodes-wide bincount
        nodes, k = np.unique(np.concatenate([c, x, y]), return_counts=True)
        counts[nodes] += k
    return counts


def _driver_orient(a: np.ndarray, b: np.ndarray):
    """Orient an edge list on the driver: compact ids, degrees, each
    edge directed low → high (degree, id), lexsorted. Returns ``(ids,
    deg, u, v, keys)`` with ``u``/``v`` compact indices and ``keys``
    the sorted packed edge keys min·n + max."""
    ids, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = len(ids)
    ia, ib = inv[:len(a)], inv[len(a):]
    deg = np.bincount(inv, minlength=n).astype(np.int64)
    rank = deg * (n + 1) + np.arange(n)
    a_first = rank[ia] < rank[ib]
    u = np.where(a_first, ia, ib)
    v = np.where(a_first, ib, ia)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    keys = np.sort(np.where(u < v, u * n + v, v * n + u))
    return ids, deg, u, v, keys


def _driver_triangle_count(a: np.ndarray, b: np.ndarray) -> int:
    """Triangle count of a small edge list on the driver."""
    ids, _deg, u, v, keys = _driver_orient(a, b)
    return _count_closed(u, v, keys, len(ids))


def triangle_count(edges: rd.Dataset) -> int:
    """Global triangle count of the undirected graph given as a
    DISTINCT canonical edge list (columns ``a`` < ``b``).
    Degree-oriented compact-forward: every edge is directed low→high
    (degree, id) order, wedges are out-neighbor pairs — out-degree is
    bounded by ~sqrt(2m) under this orientation, so hub fan-out is
    capped and no wedge explosion happens on skewed degree
    distributions — and a wedge closes iff its unordered endpoint
    pair is an edge. Each triangle is counted exactly once, at its
    minimum-degree vertex.

    Three tiers (``util.plan_tier``): while the edge list (16 B/edge)
    fits the driver budget, one driver pass. Else, while the sorted
    canonical key set (8 B/edge) fits the broadcast budget, it is
    broadcast and wedge-generation + membership-count fuse into ONE
    per-u-bucket pass (wedges never materialize or shuffle; 43 s →
    8 s at 1.2M edges / 19M wedges). Beyond, materialized wedge keys
    go through a
    bucketed closing join — the all-distributed path. Every tier draws
    its wedges from ``_wedge_slices`` in fixed-size slices."""
    from .relational import broadcast_get

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return 0
    tier = plan_tier("triangle_count", driver_bytes=16 * n_edges,
                     broadcast_bytes=8 * n_edges)
    if tier == "driver":
        return _driver_triangle_count(*_pull(edges, "a", "b"))

    ids, _deg, directed = _orient_edges(edges, "triangle_count")
    n_nodes = len(ids)
    if tier == "broadcast":
        keys_ref = _broadcast_keys(directed, n_nodes)

        def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
            # the driver tier's kernel over one u-bucket's out-edges
            # (a u-run never spans buckets), closed against the
            # broadcast keys — wedges never materialize or shuffle
            u, v = _lexsorted(g)
            n = _count_closed(u, v, broadcast_get(keys_ref), n_nodes)
            return pd.DataFrame({"n": np.array([n], dtype=np.int64)})

        # u is a COMPACTED dense index (searchsorted into the
        # distinct-node array), so its low bits partition uniformly
        return int(key_shuffle(directed, count_bucket, ["u"],
                               batch_format="pandas").sum("n"))

    return _tri_close(directed, n_nodes, per_node=False)


def _orient_edges(edges: rd.Dataset, op: str):
    """The broadcast and tier-3 orientation: degrees by one
    node-sized reduce, broadcast to a map that directs each edge
    low → high (degree, id) as COMPACT indices ``u``/``v``. Compact
    ids (searchsorted into the sorted distinct nodes) make the packed
    keys x·n + y exact for any id domain up to ~3e9 DISTINCT nodes;
    raw ids ≥ 2^32 would collide. Returns ``(ids, deg, directed)``."""
    from .relational import broadcast_get, preagg_reduce

    # degree lookup is node-sized (one int64 per distinct node) — the
    # broadcast-small-side pattern; swap for two bucketed deg joins
    # (the pagerank tier-3 shape) when nodes outgrow a broadcast
    deg_df = preagg_reduce(
        edges.map_batches(lambda b: pd.DataFrame(
            {"node": np.concatenate([b["a"].to_numpy(),
                                     b["b"].to_numpy()])}),
            batch_format="pandas"),
        ["node"], "deg", "count").to_pandas() \
        .sort_values("node", ignore_index=True)
    ids = deg_df["node"].to_numpy(np.int64)
    deg = deg_df["deg"].to_numpy(np.int64)
    if len(ids) * len(ids) >= 1 << 63:
        raise ValueError(
            f"{op} key packing supports < 2^31.5 distinct nodes "
            f"(got {len(ids)}); shard the graph first")
    deg_ref = ray.put((ids, deg))

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        ids, dg = broadcast_get(deg_ref)
        a, bb = b["a"].to_numpy(), b["b"].to_numpy()
        ia = np.searchsorted(ids, a)
        ib = np.searchsorted(ids, bb)
        da, db = dg[ia], dg[ib]
        # raw-id tiebreak == compact-index tiebreak (searchsorted into
        # a sorted array is monotone)
        a_first = (da < db) | ((da == db) & (a < bb))
        return pd.DataFrame({"u": np.where(a_first, ia, ib),
                             "v": np.where(a_first, ib, ia)})

    return ids, deg, edges.map_batches(
        orient, batch_format="pandas").materialize()


def _broadcast_keys(directed: rd.Dataset, n_nodes: int):
    """The broadcast tier's closing set: the sorted packed keys of the
    oriented edges (8 B/edge), ``ray.put`` once."""
    ek = directed.to_pandas()
    u, v = ek["u"].to_numpy(), ek["v"].to_numpy()
    return ray.put(np.sort(np.where(u < v, u * n_nodes + v,
                                    v * n_nodes + u)))


def _lexsorted(g):
    """``(u, v)`` of a pandas or Arrow edge table, lexsorted."""
    u = np.asarray(g["u"], dtype=np.int64)
    v = np.asarray(g["v"], dtype=np.int64)
    order = np.lexsort((v, u))
    return u[order], v[order]


def _restart_vector(ids: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Teleport vector for personalized PageRank: 1/|seeds| on the
    seed nodes, 0 elsewhere. Seeds absent from the node set raise —
    a silent drop would desync any mirrored oracle."""
    n = len(ids)
    pos = np.searchsorted(ids, seeds)
    ok = (pos < n) & (ids[np.minimum(pos, n - 1)] == seeds)
    if not ok.all():
        raise ValueError("personalized_pagerank: seeds "
                         f"{seeds[~ok].tolist()} are not graph nodes")
    p = np.zeros(n)
    p[pos] = 1.0 / len(seeds)
    return p


def _driver_pagerank(src: np.ndarray, dst: np.ndarray, damping: float,
                     iters: int,
                     seeds: np.ndarray | None = None) -> pa.Table:
    """Power iteration over an edge list small enough for the driver
    (the driver tier of ``pagerank``). Vectorized:
    per-iteration contribution scatter via ``np.add.at``. With
    ``seeds`` the walk teleports to the seed set (personalized
    PageRank: init = p, update (1−d)·p + d·(contrib + dang·p));
    without, the uniform expressions are kept verbatim so global
    pagerank stays bitwise-stable against its recorded oracles."""
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(nodes)
    s, d = inv[:len(src)], inv[len(src):]
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, s, 1)
    p = _restart_vector(nodes, seeds) if seeds is not None else None
    rank = p.copy() if p is not None else np.full(n, 1.0 / n)
    for _ in range(iters):
        dang = rank[deg == 0].sum()
        contrib = np.zeros(n)
        np.add.at(contrib, d, rank[s] / deg[s])
        if p is not None:   # mirrored in the PPR SQL oracle
            rank = (1.0 - damping) * p + damping * (contrib + dang * p)
        else:
            rank = (1.0 - damping) / n + damping * (contrib + dang / n)
    return pa.table({"node": nodes, "rank": rank})


def _node_universe(edges: rd.Dataset) -> rd.Dataset:
    """The distinct nodes of a (src, dst) edge list, one ``node`` row
    each (plus a constant ``one``): one bucketed reduce, node-sized,
    materialized."""
    from .relational import preagg_reduce

    def nodes_of(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": pd.unique(np.concatenate(
            [b["src"].to_numpy(dtype=np.int64),
             b["dst"].to_numpy(dtype=np.int64)])),
            "one": np.int64(1)})

    return preagg_reduce(
        edges.map_batches(nodes_of, batch_format="pandas"),
        ["node"], "one", "min").materialize()


def _broadcast_pagerank(edges: rd.Dataset, node_ds: rd.Dataset,
                        damping: float, iters: int,
                        checkpoint_dir: str | None = None,
                        seeds: np.ndarray | None = None) -> rd.Dataset:
    """Tier-2 PageRank: node state (ids / deg / rank, ~24 B per node)
    lives as driver arrays broadcast via ``ray.put``; edges stay
    distributed and are streamed ONCE per iteration. Per iteration:
    one map over edge blocks (searchsorted src → share, per-batch
    partial dst-sums so the shuffle moves ≤ distinct-dst-per-batch
    rows) + one node-sized bucketed sum-reduce + a driver scatter for
    the update rule. No joins, no edge movement. With ``seeds`` the
    update teleports to the seed set (personalized PageRank; the
    restart vector is node-sized state exactly like rank, so the
    topology is unchanged); without, the uniform expressions are kept
    verbatim for bitwise stability of global pagerank."""
    from .relational import broadcast_get, preagg_reduce

    ids = np.sort(node_ds.to_pandas()["node"].to_numpy(dtype=np.int64))
    n = len(ids)
    p = _restart_vector(ids, seeds) if seeds is not None else None

    # out-degree per src, aligned to ids — built distributed, pulled
    # once (node-sized by definition of this tier)
    deg_df = preagg_reduce(
        edges.map_batches(lambda b: pd.DataFrame({"node": b["src"]}),
                          batch_format="pandas"),
        ["node"], "deg", "count").to_pandas()
    deg = np.zeros(n, dtype=np.int64)
    deg[np.searchsorted(ids, deg_df["node"].to_numpy(dtype=np.int64))] = \
        deg_df["deg"].to_numpy(dtype=np.int64)

    ids_ref = ray.put(ids)
    deg_ref = ray.put(deg)
    rank = p.copy() if p is not None else np.full(n, 1.0 / n)

    # 'seeds' is OMITTED for the unseeded run (ADVICE r04): manifests
    # written before personalization existed stay resumable; seeded
    # runs add the key and correctly invalidate unseeded checkpoints
    fp = {"op": "pagerank2", "n_nodes": n, "damping": damping,
          "iters": iters}
    if seeds is not None:
        fp["seeds"] = np.sort(seeds).tolist()
    start_iter, ck_path = _ckpt_resume(
        checkpoint_dir, "pagerank", fp, max_iters=iters)
    if ck_path and start_iter > 0:
        import pyarrow.parquet as pq
        t = pq.read_table(ck_path)
        rank[np.searchsorted(ids, t["node"].to_numpy())] = \
            t["rank"].to_numpy()

    for _it in range(start_iter, iters):
        rank_ref = ray.put(rank)

        def contrib_batch(b: pd.DataFrame) -> pd.DataFrame:
            _ids = broadcast_get(ids_ref)
            _deg = broadcast_get(deg_ref)
            _rank = broadcast_get(rank_ref)
            si = np.searchsorted(_ids, b["src"].to_numpy(dtype=np.int64))
            share = _rank[si] / _deg[si]
            g = pd.DataFrame({"node": b["dst"].to_numpy(dtype=np.int64),
                              "contrib": share}) \
                .groupby("node", as_index=False)["contrib"].sum()
            return g

        agg = preagg_reduce(
            edges.map_batches(contrib_batch, batch_format="pandas"),
            ["node"], "contrib", "sum").to_pandas()
        contrib = np.zeros(n)
        contrib[np.searchsorted(
            ids, agg["node"].to_numpy(dtype=np.int64))] = \
            agg["contrib"].to_numpy()
        dang = rank[deg == 0].sum()
        if p is not None:   # mirrored in the PPR SQL oracle
            rank = (1.0 - damping) * p + damping * (contrib + dang * p)
        else:
            rank = (1.0 - damping) / n + damping * (contrib + dang / n)
        if checkpoint_dir:
            _ckpt_write_table(checkpoint_dir, "pagerank", _it + 1,
                              pa.table({"node": ids, "rank": rank}))

    return rd.from_arrow(pa.table({"node": ids, "rank": rank}))


# ---------------------------------------------------------------------------
# Tier-3 pagerank BSP kernel: edges partitioned ONCE, only node-sized
# rank state moves per iteration.
# ---------------------------------------------------------------------------
# The Dataset API cannot express "iterative join against a static,
# already-partitioned side" — bucketed_join re-shuffles BOTH inputs on
# every call, so a Dataset-expressed power iteration ships the whole
# edge table through an all-to-all once per iteration (the measured
# r04 cost: 27.7 s for 5 iterations over ~600k edges, almost all of it
# re-sorting static edges). This kernel is the documented raw-task
# exception (brief: "drop to raw Ray tasks only where the Dataset API
# genuinely can't express the semantics"): edge blocks are hash-split
# by src into per-bucket Arrow tables held in plasma ONCE; afterwards
# each iteration exchanges only (dst, partial-contribution) arrays —
# node-sized by construction — between src-buckets and dst-buckets.
# Everything is order-deterministic (nodes sorted within buckets,
# partials combined in bucket-index order), so checkpoint-resume
# reproduces the uninterrupted run bit-for-bit.


def _graph_buckets(n_nodes: int) -> int:
    """Bucket count of the node-bucket BSP kernels: the shared shuffle
    count, capped at one bucket per ~4096 nodes — every iteration pays
    two exchanges, and a wide exchange of a 100-node label set is pure
    task-launch overhead (measured ~5 s/iteration at sf0.01)."""
    return int(min(shuffle_buckets(), max(2, n_nodes // 4096)))


def _split_blocks(ds: rd.Dataset, cols: list[str], n: int) -> list:
    """Hash-split every block of ``ds`` by ``cols[0]``: per bucket, the
    refs of its fragments (one per block)."""
    per_block = [fanout(_pr_split_block, n, ref, cols, n)
                 for ref in ds.to_arrow_refs()]
    return [[blk[k] for blk in per_block] for k in range(n)]


def _pr_bucket_of(v: np.ndarray, n_buckets: int) -> np.ndarray:
    """splitmix64 finalizer → skew-free deterministic bucket ids."""
    x = v.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(n_buckets)).astype(np.int64)


def _pr_split_arrays(arrs: list[np.ndarray], key: np.ndarray,
                     n_buckets: int) -> list[tuple[np.ndarray, ...]]:
    b = _pr_bucket_of(key, n_buckets)
    order = np.argsort(b, kind="stable")
    cuts = np.searchsorted(b[order], np.arange(n_buckets + 1))
    return [tuple(a[order[cuts[k]:cuts[k + 1]]] for a in arrs)
            for k in range(n_buckets)]


def _pr_split_block(tbl, cols: list[str], n_buckets: int):
    # to_arrow_refs hands back a block AS STORED — datasets built from
    # pandas-format map_batches ship pandas blocks (hit at sf1, where
    # block sizes differ from the bench scale); normalize first
    # (empty pandas blocks can lack columns entirely — route them to
    # the typed-empty branch below instead of a KeyError)
    if isinstance(tbl, pd.DataFrame):
        tbl = (pa.Table.from_pandas(tbl[list(cols)],
                                    preserve_index=False)
               if len(tbl) else pa.table({}))
    if tbl.num_rows == 0:
        # empty blocks (e.g. out of a join) can arrive with NO schema
        # (the documented empty-pandas→Arrow pitfall) — emit typed
        # empties: every column here is int64 except the rank state
        empty = pa.table({c: pa.array(
            [], pa.float64() if c == "rank" else pa.int64())
            for c in cols})
        return (empty,) * n_buckets
    arrs = [tbl.column(c).to_numpy(zero_copy_only=False)
            for c in cols]
    parts = _pr_split_arrays(arrs, arrs[0].astype(np.int64), n_buckets)
    return tuple(pa.table(dict(zip(cols, p))) for p in parts)


def _prep_edges(*parts):
    """Concat a bucket's edge fragments (``_split_blocks`` parts) into
    int64 column arrays, stably sorted by the split column — built
    once, read every iteration from plasma."""
    t = pa.concat_tables(parts)
    arrs = [c.to_numpy(zero_copy_only=False).astype(np.int64)
            for c in t.columns]
    order = np.argsort(arrs[0], kind="stable")
    return tuple(a[order] for a in arrs)


def _pr_prep_base(*parts):
    """Concat a bucket's (node, deg[, rank]) fragments, sorted by node
    — the canonical per-bucket node order every iteration reuses."""
    t = pa.concat_tables(parts)
    node = t.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(node, kind="stable")
    node = node[order]
    deg = t.column("deg").to_numpy(zero_copy_only=False) \
        .astype(np.int64)[order]
    if "rank" in t.column_names:
        rank = t.column("rank").to_numpy(zero_copy_only=False) \
            .astype(np.float64)[order]
        return (node, deg), rank
    return (node, deg)


def _pr_dang(base, rank) -> float:
    _node, deg = base
    return float(rank[deg == 0].sum())


def _pr_contrib(eb, base, rank, n_buckets: int):
    """One src-bucket's contribution pass: share = rank/deg looked up
    by searchsorted against the bucket's sorted node array (every src
    is in the node universe and buckets use the same hash), partials
    pre-summed per dst, then split by hash(dst) for the reducers."""
    src, dst = eb
    node, deg = base
    if len(src) == 0:
        z = np.array([], dtype=np.int64), np.array([], dtype=np.float64)
        return (z,) * n_buckets
    idx = np.searchsorted(node, src)
    share = rank[idx] / deg[idx]
    ud, inv = np.unique(dst, return_inverse=True)
    c = np.zeros(len(ud), dtype=np.float64)
    np.add.at(c, inv, share)
    return tuple(_pr_split_arrays([ud, c], ud, n_buckets))


def _pr_renew(base, dang: float, n_nodes: int, damping: float, *cparts):
    node, _deg = base
    c = np.zeros(len(node), dtype=np.float64)
    for ud, cc in cparts:   # fixed bucket-index order → deterministic
        if len(ud):
            c[np.searchsorted(node, ud)] += cc
    # expression mirrored from the tier-1/2 update rule — keep in sync
    return (1.0 - damping) / n_nodes + damping * (c + dang / n_nodes)


def _pr_state_table(base, rank) -> pa.Table:
    node, deg = base
    return pa.table({"node": node, "deg": deg, "rank": rank})


def _pr_out_table(base, rank) -> pa.Table:
    node, _deg = base
    return pa.table({"node": node, "rank": rank})


# ---- the same kernel shape for connected components: star edges are
# split by node ONCE; per iteration only (node, label) offers move.

def _cc_prep_labels(*parts):
    """Distinct sorted node universe with the min label per node
    (init fragments may repeat a node across blocks)."""
    t = pa.concat_tables(parts)
    node = t.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
    lab = t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
    u, inv = np.unique(node, return_inverse=True)
    m = np.full(len(u), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(m, inv, lab)
    return (u, m)


def _cc_pointer_edges(lab, n_buckets: int):
    """Pointer-doubling edges (label_u → u), keyed by the label's
    bucket so the offer pass can look the label's label up locally."""
    node, label = lab
    m = label != node
    return tuple(_pr_split_arrays([label[m], node[m]], label[m],
                                  n_buckets))


def _cc_offers(eb, lab, n_buckets: int, *dyn_parts):
    """One node-bucket's offer pass: labels looked up by searchsorted
    (static star edges AND incoming pointer edges), pre-combined to
    the min per neighbor, split by the neighbor's bucket."""
    node_e, nbr_e = eb
    nodes, labels = lab
    srcs = [node_e]
    dsts = [nbr_e]
    for dn, du in dyn_parts:   # fixed bucket-index order
        srcs.append(dn)
        dsts.append(du)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    if len(src) == 0:
        z = np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        return (z,) * n_buckets
    off = labels[np.searchsorted(nodes, src)]
    u, inv = np.unique(dst, return_inverse=True)
    m = np.full(len(u), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(m, inv, off)
    return tuple(_pr_split_arrays([u, m], u, n_buckets))


def _cc_reduce(lab, *offer_parts):
    """min(label, offers) per node; returns the new state and its
    int64 label sum (the monotone convergence cursor — wraparound is
    deterministic and preserves the equal-iff-unchanged test)."""
    nodes, labels = lab
    new = labels.copy()
    for u, m in offer_parts:   # fixed bucket-index order
        if len(u):
            idx = np.searchsorted(nodes, u)
            # every neighbor IS a node of this bucket's universe (star
            # edges carry both directions; dyn targets are nodes) —
            # a miss here is a bucketing bug, fail loudly
            assert idx.max() < len(nodes) and (nodes[idx] == u).all()
            np.minimum.at(new, idx, m)
    return (nodes, new), int(new.sum())


def _cc_label_table(lab) -> pa.Table:
    nodes, labels = lab
    return pa.table({"node": nodes, "label": labels})


def _cc_out_table(lab) -> pa.Table:
    nodes, labels = lab
    return pa.table({"doc_id": nodes, "cluster_id": labels})


# ---- one-shot BSP exchange for the tier-3 triangle closing pass:
# oriented edges split by u ONCE, wedges generated slice by slice per
# u-bucket and exchanged as raw-task returns keyed by the canonical
# edge-key bucket — no Dataset all-to-all ever carries the wedge set.

def _tri_prep_edges(*parts):
    return _lexsorted(pa.concat_tables(parts))


def _tri_split_edge_keys(tbl: pa.Table, n_nodes: int, n_buckets: int):
    """Returns a tuple of ObjectRefs (ray.put per part), NOT raw
    arrays: a task return under ~100 KB is stored in the OWNER's
    in-process memory, and an n_blocks × buckets exchange of small
    parts routes the whole key set through the DRIVER (measured
    +1.1 GB driver RSS at sf0.1 forced-tier-3). Explicit ray.put keeps
    part payloads in the worker-side object store; only refs flow
    through the driver.

    Fault-tolerance trade (documented, accepted): ray.put objects are
    owned by the producing worker and are NOT lineage-reconstructable
    — a worker death between the split and count phases turns into a
    terminal OwnerDiedError for this one-shot exchange instead of a
    transparent retry. The exchange spans seconds and the caller
    (triangle_count) is a pure function of its input Dataset, so the
    recovery story is rerun-the-op, same as the round-level
    crash-resume posture."""
    if tbl.num_rows == 0:
        return (ray.put(np.array([], dtype=np.int64)),) * n_buckets
    u = tbl.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
    v = tbl.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    key = np.where(u < v, u * n_nodes + v, v * n_nodes + u)
    parts = _pr_split_arrays([key], key, n_buckets)
    return tuple(ray.put(p[0]) for p in parts)


def _tri_prep_keys(*parts):
    parts = [ray.get(p) for p in parts]
    return np.sort(np.concatenate(parts)) if parts else \
        np.array([], dtype=np.int64)


def _wedge_parts(eb, n_nodes: int, n_buckets: int,
                 with_center: bool):
    """One u-bucket's wedges for the tier-3 closing exchange, split by
    packed-key bucket slice by slice: keys only for the global count,
    or (keys, centers) for the per-node count, which needs the center
    and cannot recover it from the key. Returns refs (see
    ``_tri_split_edge_keys`` for why refs, not raw returns)."""
    u, v = eb
    out = [[] for _ in range(n_buckets)]
    for c, x, y in _wedge_slices(u, v):
        wk = x * n_nodes + y
        cols = [wk, c] if with_center else [wk]
        for k, part in enumerate(_pr_split_arrays(cols, wk, n_buckets)):
            out[k].append(part)

    def cat(parts, i):
        return (np.concatenate([p[i] for p in parts]) if parts
                else np.array([], dtype=np.int64))
    if with_center:
        return tuple(ray.put((cat(p, 0), cat(p, 1))) for p in out)
    return tuple(ray.put(cat(p, 0)) for p in out)


def _tri_count(keys_sorted: np.ndarray, _n_nodes: int,
               *wedge_parts) -> int:
    return sum(int(_is_edge(keys_sorted, ray.get(ref)).sum())
               for ref in wedge_parts)


def _lcc_count(keys_sorted: np.ndarray, n_nodes: int, *wedge_parts):
    """Closing check for one key-bucket, crediting all THREE corners
    of each closed wedge. Returns a ray.put ref of sparse
    (node, count) arrays — per-task compression to ≤ n_nodes entries
    so the exchange back to the driver is node-bounded, not
    triangle-bounded."""
    z = np.array([], dtype=np.int64)
    nodes, cnts = [z], [z]
    for ref in wedge_parts:
        wk, ctr = ray.get(ref)
        hit = _is_edge(keys_sorted, wk)
        wk = wk[hit]
        u, c = np.unique(np.concatenate([ctr[hit], wk // n_nodes,
                                         wk % n_nodes]), return_counts=True)
        nodes.append(u)
        cnts.append(c)
    uniq, inv = np.unique(np.concatenate(nodes), return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, np.concatenate(cnts))
    return ray.put((uniq, sums))


def _tri_close(directed: rd.Dataset, n_nodes: int, per_node: bool):
    """The tier-3 closing pass of ``triangle_count`` and
    ``local_clustering``, one BSP exchange: the oriented edges split
    ONCE by u (wedge side) and by packed key (membership side); each
    u-bucket's wedge keys, with their centers when ``per_node``, move
    exactly once as raw-task returns to their key bucket, which
    closes them against its sorted edge keys (14.5 s → ~4 s at sf0.1
    forced-tier-3 against the old wedge self-join). Returns the
    triangle count, or with ``per_node`` the dense per-node
    participation, scattered from one node-BOUNDED sparse partial per
    key bucket — edge keys never collect on the driver."""
    n = shuffle_buckets()
    prep_e_r = ray.remote(_tri_prep_edges)
    prep_k_r = ray.remote(_tri_prep_keys)
    close_r = ray.remote(_lcc_count if per_node else _tri_count)
    refs = directed.to_arrow_refs()
    eparts = [fanout(_pr_split_block, n, r, ["u", "v"], n) for r in refs]
    kparts = [fanout(_tri_split_edge_keys, n, r, n_nodes, n)
              for r in refs]
    wparts = [fanout(_wedge_parts, n,
                     prep_e_r.remote(*[e[k] for e in eparts]),
                     n_nodes, n, per_node) for k in range(n)]
    out = ray.get([close_r.remote(prep_k_r.remote(*[p[j] for p in kparts]),
                                  n_nodes, *[w[j] for w in wparts])
                   for j in range(n)])
    if not per_node:
        return int(sum(out))
    tri = np.zeros(n_nodes, dtype=np.int64)
    for nodes, cnts in ray.get(out):
        np.add.at(tri, nodes, cnts)
    return tri


def pagerank(edges: rd.Dataset, damping: float = 0.85, iters: int = 5,
             checkpoint_dir: str | None = None) -> rd.Dataset:
    """Fixed-iteration PageRank over a directed edge list
    ``(src, dst)`` — the crawl-native ranking (which pages matter in a
    link graph). Dangling mass (nodes with no out-edges) is
    redistributed uniformly each iteration, so total rank mass stays
    exactly 1; rank of a node with no in-links converges to the
    teleport floor plus its dangling share.

    THREE size tiers (``util.plan_tier``), each bounded by what must
    fit where:
    1. the edge list (16 B/edge) fits the driver budget: driver power
       iteration — shuffling it is pure task-launch overhead.
    2. the node/deg/rank arrays (24 B/node) fit the broadcast budget:
       EDGES stay distributed and are streamed
       once per iteration, ranks are broadcast via ``ray.put`` —
       per iteration ONE edge pass (searchsorted src → rank/deg,
       per-batch partial dst sums) + ONE node-sized bucketed
       sum-reduce; the new rank vector is scattered on the driver.
       This is the "broadcast the small side" join: rank state is
       node-sized, edge payloads never move.
    3. beyond: fully distributed BSP — degrees and the node universe
       from bucketed partial aggregates, then edges are hash-split by
       src into per-bucket plasma tables ONCE (see the tier-3 kernel
       block above); each iteration moves only node-sized
       (dst, partial-contribution) arrays between src-buckets and
       dst-buckets. Edges never cross the wire again after the initial
       split — the posture a 100-TB graph requires (a Dataset-expressed
       power iteration would re-shuffle the static edge table through
       an all-to-all every iteration, measured 27.7 s vs ~6 s for 5
       iterations over ~600k edges at sf0.1)."""
    from .relational import bucketed_join, preagg_reduce

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "rank": pa.array([], pa.float64())}))
    if plan_tier("pagerank", driver_bytes=16 * n_edges) == "driver":
        return rd.from_arrow(_driver_pagerank(
            *_pull(edges, "src", "dst"), damping, iters))

    # the node universe decides tier 2 vs 3
    node_ds = _node_universe(edges)
    if plan_tier("pagerank", broadcast_bytes=24 * node_ds.count()
                 ) == "broadcast":
        return _broadcast_pagerank(edges, node_ds, damping, iters,
                                   checkpoint_dir=checkpoint_dir)

    # static: out-degree per src, and the distinct node universe.
    # Materialized: every bucketed_join SCHEMA-PROBES its inputs, and
    # a lazy input then re-executes its whole lineage once for the
    # probe and again for the join (measured 138 s -> 8 s for 5
    # iterations over ~600k edges at sf0.1). Both are node-sized.
    deg = preagg_reduce(
        edges.map_batches(lambda b: pd.DataFrame({"node": b["src"]}),
                          batch_format="pandas"),
        ["node"], "deg", "count").materialize()

    base = bucketed_join(node_ds.drop_columns(["one"]).materialize(),
                         deg, on="node", how="left")

    def init(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": b["node"].to_numpy(dtype=np.int64),
            "deg": b["deg"].fillna(0).to_numpy(dtype=np.int64)})

    base = base.map_batches(init, batch_format="pandas").materialize()
    n_nodes = base.count()

    start_iter, ck_path = _ckpt_resume(
        checkpoint_dir, "pagerank3",
        {"op": "pagerank3", "n_nodes": n_nodes, "damping": damping,
         "iters": iters}, max_iters=iters)

    # ---- BSP state build (see the tier-3 kernel block above):
    # edges hash-split by src ONCE into per-bucket plasma tables;
    # per-bucket (node, deg) arrays sorted by node are the canonical
    # order every iteration (and every checkpoint/resume) reuses.
    prep_edges_r = ray.remote(_prep_edges)
    prep_base_r = ray.remote(_pr_prep_base)
    dang_r = ray.remote(_pr_dang)
    renew_r = ray.remote(_pr_renew)
    state_tbl_r = ray.remote(_pr_state_table)
    out_tbl_r = ray.remote(_pr_out_table)
    n = shuffle_buckets()

    edges_k = [prep_edges_r.remote(*frags)
               for frags in _split_blocks(edges, ["src", "dst"], n)]

    if ck_path and start_iter > 0:
        state = rd.read_parquet(ck_path).materialize()
        pairs = [prep_base_r.options(num_returns=2).remote(*frags)
                 for frags in _split_blocks(
                     state, ["node", "deg", "rank"], n)]
        base_k = [p[0] for p in pairs]
        rank_k = [p[1] for p in pairs]
    else:
        base_k = [prep_base_r.remote(*frags)
                  for frags in _split_blocks(base, ["node", "deg"], n)]
        init_r = ray.remote(
            lambda b, inv: np.full(len(b[0]), inv, dtype=np.float64))
        rank_k = [init_r.remote(b, 1.0 / n_nodes) for b in base_k]

    for _it in range(start_iter, iters):
        dang = float(sum(ray.get(
            [dang_r.remote(base_k[j], rank_k[j]) for j in range(n)])))
        cparts = [fanout(_pr_contrib, n, edges_k[k], base_k[k],
                          rank_k[k], n)
                  for k in range(n)]
        rank_k = [renew_r.remote(base_k[j], dang, n_nodes, damping,
                                 *[cparts[k][j] for k in range(n)])
                  for j in range(n)]
        if checkpoint_dir:
            state_ds = rd.from_arrow_refs(
                [state_tbl_r.remote(base_k[j], rank_k[j])
                 for j in range(n)])
            _ckpt_write_ds(checkpoint_dir, "pagerank3", _it + 1,
                           state_ds)

    return rd.from_arrow_refs([out_tbl_r.remote(base_k[j], rank_k[j])
                               for j in range(n)])


def kcore_nodes(edges: rd.Dataset, k: int, rounds: int) -> rd.Dataset:
    """Iterative k-core peeling over a canonical undirected edge list
    (columns ``a`` < ``b``): each round computes node degrees over the
    SURVIVING edges and deletes every node with degree < k together
    with its incident edges. With ``rounds`` fixed, the result is a
    deterministic overapproximation of the k-core that an unrolled SQL
    CTE chain reproduces exactly (the same contract as the fixed-
    iteration pagerank); peeling converges when a round deletes
    nothing, and real graphs settle in a few rounds.

    Scale posture: per round ONE bucketed degree reduce over (node)
    pairs and one anti-join of the edge stream against the DROPPED
    node set. The dropped set shrinks round over round (round 1 is the
    big cut), so it is broadcast as a sorted key array here; swap the
    filter for `bloom_semi_join`/a bucketed anti-join when a round's
    cut outgrows a broadcast — the edge pass itself never changes.
    Returns (node, deg) of survivors with degrees over the final
    surviving edge set."""
    # broadcast_get imported HERE (not inside the closure): an import
    # statement inside the worker-executed function would re-import the
    # package in the worker process, which fails under portable
    # pickling when the driver's cwd is not on the worker's path
    from .relational import broadcast_get, preagg_reduce

    def degrees(es: rd.Dataset) -> rd.Dataset:
        both = es.map_batches(
            lambda b: pd.DataFrame({
                "node": np.concatenate([b["a"].to_numpy(np.int64),
                                        b["b"].to_numpy(np.int64)])}),
            batch_format="pandas")
        return preagg_reduce(both, ["node"], "deg", "count")

    cur = edges.materialize()
    deg = degrees(cur).materialize()
    for _ in range(rounds):
        dd = deg.map_batches(
            lambda b: b[b["deg"].to_numpy() < k][["node"]],
            batch_format="pandas").to_pandas()
        # an all-empty filter result loses its schema in to_pandas()
        dropped = (dd["node"].to_numpy(np.int64) if "node" in dd.columns
                   else np.array([], dtype=np.int64))
        if len(dropped) == 0:
            break
        drop_sorted = np.sort(dropped)
        drop_ref = ray.put(drop_sorted)

        def keep_edges(b: pd.DataFrame) -> pd.DataFrame:
            d = broadcast_get(drop_ref)
            a = b["a"].to_numpy(np.int64)
            bb = b["b"].to_numpy(np.int64)
            ina = np.searchsorted(d, a)
            inb = np.searchsorted(d, bb)
            hit_a = (ina < len(d)) & (d[np.minimum(ina, len(d) - 1)] == a)
            hit_b = (inb < len(d)) & (d[np.minimum(inb, len(d) - 1)] == bb)
            return b[~(hit_a | hit_b)]

        cur = cur.map_batches(keep_edges,
                              batch_format="pandas").materialize()
        if cur.count() == 0:
            import pyarrow as _pa
            return rd.from_arrow(_pa.table({
                "node": _pa.array([], type=_pa.int64()),
                "deg": _pa.array([], type=_pa.int64())}))
        deg = degrees(cur).materialize()
    return deg.map_batches(lambda b: b[b["deg"].to_numpy() >= k],
                           batch_format="pandas")


_WALK_A = 1103515245
_WALK_B = 12345
_WALK_P = 2147483647          # 2^31 - 1: hash modulus
_WALK_BASE = 2147483648       # 2^31: packing base (hash << 31 | node)


def deterministic_walks(adjs: list[rd.Dataset],
                        starts: rd.Dataset | None) -> rd.Dataset:
    """Deterministic pseudo-random walks: one walk per start node,
    hop ``h`` moving from the current node to the out-neighbor
    minimizing ``hash(neighbor, h)`` — graph sampling (node2vec-style
    corpus walks) made reproducible and therefore SQL-oracle-checkable.
    ``adjs[h]`` is the (src, dst) adjacency used by hop ``h`` (a list
    so bipartite graphs can alternate direction without remapping node
    ids into one packed space).

    The hash is ``((dst+1)·A + (h+1)·B) mod (2^31-1)`` (the +1 keeps
    node 0 off the degenerate tiny hash) and the argmin is carried as
    ONE packed int64 ``hash·2^31 + dst`` min-reduced per src node —
    hash < 2^31 and dst < 2^31 asserted, so every product stays under
    2^62, exact in int64 and in the mirrored SQL.

    The argmin depends only on (node, step) — NOT on which walks sit
    there — so each distinct adjacency dataset is reduced ONCE, in one
    fused multi-min bucket pass producing that direction's best-next
    table for EVERY step that uses it (`grouped_multi_agg`). The walk
    chain is then per hop one node-keyed bucketed join of walk state
    against a node-sized best table: the adjacency is never
    re-shuffled per hop (the v1 shape re-shuffled it every hop —
    20 s → 4 s at sf0.1). Walks that hit a node with no out-edge in
    some hop drop out (inner-join semantics), mirrored by the
    oracle's chained joins. ``starts=None`` walks from EVERY source
    node of ``adjs[0]`` — hop 1 then needs no join at all: the fused
    best-next table IS the initial walk state."""
    from .relational import bucketed_join, grouped_multi_agg

    # one fused reduce per DISTINCT adjacency: (src, pk_h…) minima
    steps_of = {}
    for h, adj in enumerate(adjs):
        steps_of.setdefault(id(adj), (adj, []))[1].append(h + 1)

    best: dict[int, rd.Dataset] = {}   # step -> (src, hop{step})
    for adj, steps in steps_of.values():

        def pack(b: pd.DataFrame, steps=tuple(steps)) -> pd.DataFrame:
            dst = b["dst"].to_numpy(np.int64)
            if len(dst) and int(dst.max()) >= _WALK_BASE:
                raise ValueError("walk packing needs node ids < 2^31; "
                                 "compact ids first")
            cols = {"src": b["src"].to_numpy(np.int64)}
            for st in steps:
                hsh = ((dst + 1) * _WALK_A + st * _WALK_B) % _WALK_P
                cols[f"pk{st}"] = hsh * _WALK_BASE + dst
            return pd.DataFrame(cols)

        reduced = grouped_multi_agg(
            adj.map_batches(pack, batch_format="pandas"), ["src"],
            {f"pk{st}": (f"pk{st}", "min") for st in steps}).materialize()
        for st in steps:
            best[st] = reduced.map_batches(
                lambda b, st=st: pd.DataFrame({
                    "src": b["src"].to_numpy(np.int64),
                    f"hop{st}": b[f"pk{st}"].to_numpy(np.int64)
                    % _WALK_BASE}),
                batch_format="pandas")

    n_hops = len(adjs)
    if starts is None:
        first = 2
        state = best[1].map_batches(
            lambda b: pd.DataFrame({
                "walk": b["src"].to_numpy(np.int64),
                "hop1": b["hop1"].to_numpy(np.int64),
                "src": b["hop1"].to_numpy(np.int64)}),
            batch_format="pandas")
        if n_hops == 1:
            return state.map_batches(lambda b: b[["walk", "hop1"]],
                                     batch_format="pandas")
    else:
        first = 1
        state = starts.map_batches(
            lambda b: pd.DataFrame({"walk": b["node"].to_numpy(np.int64),
                                    "src": b["node"].to_numpy(np.int64)}),
            batch_format="pandas")
    for st in range(first, n_hops + 1):
        state = bucketed_join(state, best[st], on="src", how="inner")
        keep = ["walk"] + [f"hop{i}" for i in range(1, st + 1)]
        if st < n_hops:
            state = state.map_batches(
                lambda b, keep=tuple(keep), nxt=f"hop{st}":
                b[list(keep)].assign(src=b[nxt].to_numpy(np.int64)),
                batch_format="pandas")
        else:
            state = state.map_batches(
                lambda b, keep=tuple(keep): b[list(keep)],
                batch_format="pandas")
    return state


# ---------------------------------------------------------------------------
# Multi-source BFS hop distance — minimum number of edges from a seed
# set to every reachable node, capped at max_hops. The graph analogue
# of the reference's frontier expansion (the crawl BFS over listing →
# title → episode links, FaselMoviesScraper.py's page walk), expressed
# as min-propagation over the SAME BSP kernel as connected_components:
# dist(v) = min(dist(v), min_{u∈N(v)} dist(u) + 1) is Bellman-Ford
# with unit weights, and level-synchronous rounds finalize every
# distance ≤ k after k rounds — so capping the loop at max_hops is
# exact for the reported window, not an approximation.
# ---------------------------------------------------------------------------

_BFS_INF = np.int64(1) << 60   # +1 per round stays far from int64 max


def _bfs_offers(eb, lab, n_buckets: int):
    """One node-bucket's offer pass: each node offers dist+1 to its
    neighbors (static edges only — pointer doubling would jump labels
    across multi-hop paths and is WRONG for hop counts), pre-combined
    to the min per neighbor, split by the neighbor's bucket."""
    node_e, nbr_e = eb
    nodes, labels = lab
    if len(node_e) == 0:
        z = np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        return (z,) * n_buckets
    off = labels[np.searchsorted(nodes, node_e)] + 1
    u, inv = np.unique(nbr_e, return_inverse=True)
    m = np.full(len(u), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(m, inv, off)
    return tuple(_pr_split_arrays([u, m], u, n_buckets))


def _bfs_out_table(lab, max_hops: int) -> pa.Table:
    nodes, labels = lab
    m = labels <= max_hops
    return pa.table({"node_id": nodes[m], "hops": labels[m]})


def _driver_bfs(a: np.ndarray, b: np.ndarray, seeds: np.ndarray,
                max_hops: int):
    """Vectorized level-synchronous BFS on the driver (small tier):
    CSR adjacency via one sort, per-level neighbor gather with
    repeat/cumsum range expansion — no Python per-node loop."""
    ids = np.unique(np.concatenate([a, b, seeds]))
    src = np.searchsorted(ids, np.concatenate([a, b]))
    dst = np.searchsorted(ids, np.concatenate([b, a]))
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.searchsorted(src, np.arange(len(ids) + 1))
    dist = np.full(len(ids), -1, dtype=np.int64)
    frontier = np.unique(np.searchsorted(ids, seeds))
    dist[frontier] = 0
    for d in range(max_hops):
        if not len(frontier):
            break
        cnt = indptr[frontier + 1] - indptr[frontier]
        tot = int(cnt.sum())
        if not tot:
            break
        # flat indices of every frontier node's adjacency slice
        idx = np.repeat(indptr[frontier], cnt) + (
            np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt))
        nbrs = np.unique(dst[idx])
        new = nbrs[dist[nbrs] < 0]
        dist[new] = d + 1
        frontier = new
    m = dist >= 0
    return ids[m], dist[m]


def bfs_hops(pairs: rd.Dataset, col_a: str, col_b: str,
             seeds: np.ndarray, max_hops: int = 4) -> rd.Dataset:
    """(node_id, hops) for every node within ``max_hops`` edges of the
    seed set over the undirected pair graph; seeds themselves report
    hops 0 even when isolated. Two tiers (``util.plan_tier``): edge
    rows (16 B each) that fit the driver budget pull to one driver
    CSR BFS; beyond, the connected_components BSP kernel with dist+1
    offers —
    edges hash-split by node ONCE into per-bucket plasma arrays, only
    node-sized (neighbor, offer) arrays move per round, and the loop
    runs ≤ max_hops rounds with the monotone dist-sum stall as the
    early exit."""
    from .relational import broadcast_get

    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    seed_ref = ray.put(seeds)

    edges = pairs.map_batches(_mirror(col_a, col_b),
                              batch_format="pyarrow").materialize()
    n_edge_rows = edges.count()

    if plan_tier("bfs_hops", driver_bytes=16 * n_edge_rows) == "driver":
        ids, dist = _driver_bfs(*_pull(edges, "node", "nbr"), seeds,
                                max_hops)
        return rd.from_arrow(pa.table({"node_id": ids, "hops": dist}))

    target_blocks = int(max(1, min(64, n_edge_rows // 65536 + 1)))
    if edges.num_blocks() > 2 * target_blocks:
        edges = edges.repartition(target_blocks).materialize()

    def init_labels(b: pa.Table) -> pa.Table:
        # broadcast_get captured from driver scope — a relative import
        # INSIDE the UDF dies with ModuleNotFoundError on workers that
        # never imported the package (the worker-import trap)
        sd = broadcast_get(seed_ref)
        n = np.unique(b["node"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        pos = np.minimum(np.searchsorted(sd, n), len(sd) - 1) \
            if len(sd) else np.zeros(len(n), np.int64)
        is_seed = (sd[pos] == n) if len(sd) else np.zeros(len(n), bool)
        return pa.table({
            "node": n,
            "label": np.where(is_seed, np.int64(0), _BFS_INF)})

    # all-Arrow blocks: _pr_split_block takes pa.Table refs verbatim
    labels = edges.map_batches(init_labels,
                               batch_format="pyarrow").union(
        rd.from_arrow(pa.table({
            "node": seeds,
            "label": np.zeros(len(seeds), np.int64)})))
    labels = labels.materialize()
    n_nodes = edges.map_batches(
        lambda b: pd.DataFrame({"node": b["node"].unique()}),
        batch_format="pandas").count()
    n = _graph_buckets(n_nodes)

    prep_e = ray.remote(_prep_edges)
    prep_l = ray.remote(_cc_prep_labels)
    red_r = ray.remote(_cc_reduce)
    out_tbl_r = ray.remote(_bfs_out_table)

    edges_k = [prep_e.remote(*f)
               for f in _split_blocks(edges, ["node", "nbr"], n)]
    lab_k = [prep_l.remote(*f)
             for f in _split_blocks(labels, ["node", "label"], n)]

    # Seeds that are NOT graph nodes never enter edges_k's universes —
    # they ride through in lab_k (the union above) and surface at 0.
    prev_sum = None
    for _ in range(max_hops):
        oparts = [fanout(_bfs_offers, n, edges_k[k], lab_k[k], n)
                  for k in range(n)]
        outs = [red_r.options(num_returns=2).remote(
            lab_k[j], *[oparts[k][j] for k in range(n)])
            for j in range(n)]
        lab_k = [o[0] for o in outs]
        cur_sum = int(sum(ray.get([o[1] for o in outs])))
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return rd.from_arrow_refs(
        [out_tbl_r.remote(l, max_hops) for l in lab_k])


# ---------------------------------------------------------------------------
# Synchronous label propagation (community detection, Raghavan et al.
# 2007) — fixed-round, deterministic variant: every node simultaneously
# adopts the most frequent label among its neighbors (ties → smallest
# label; isolated nodes keep their own). Fixed rounds because
# synchronous LPA can 2-cycle on bipartite structure — the fixed-round
# definition is the deterministic one both tiers and the test
# reference implement. Unlike CC/BFS the offer reduce is a MODE, which
# does not pre-combine to one row per neighbor — partial (node, label)
# COUNTS are the mergeable form, bounded by the edge count per round.
# ---------------------------------------------------------------------------

def _driver_lpa(a: np.ndarray, b: np.ndarray, rounds: int):
    ids = np.unique(np.concatenate([a, b]))
    src = np.searchsorted(ids, np.concatenate([a, b]))
    dst = np.searchsorted(ids, np.concatenate([b, a]))
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    lab = np.arange(len(ids), dtype=np.int64)
    for _ in range(rounds):
        # incoming labels per node: count (dst, lab[src]) pairs; mode
        # with min-label tie-break = lexsort by (count desc, label)
        key = dst.astype(np.int64) * len(ids) + lab[src]
        uk, cnt = np.unique(key, return_counts=True)
        node = uk // len(ids)
        lb = uk % len(ids)
        o = np.lexsort((lb, -cnt, node))
        first = np.concatenate([[True], node[o][1:] != node[o][:-1]])
        new = lab.copy()
        new[node[o][first]] = lb[o][first]
        lab = new
    return ids, ids[lab]


def _lpa_count_partial(eb, lab, n_buckets: int):
    """One source-bucket's label emission, pre-counted: (neighbor,
    label, count) rows split by the neighbor's bucket."""
    node_e, nbr_e = eb
    nodes, labels = lab
    if len(node_e) == 0:
        z = (np.array([], dtype=np.int64),) * 3
        return (z,) * n_buckets
    lb = labels[np.searchsorted(nodes, node_e)]
    u, inv = np.unique(
        np.stack([nbr_e, lb], axis=1), axis=0, return_inverse=True)
    cnt = np.bincount(inv).astype(np.int64)
    return tuple(_pr_split_arrays([u[:, 0], u[:, 1], cnt],
                                  u[:, 0], n_buckets))


def _lpa_reduce(lab, *count_parts):
    """Sum partial counts per (node, label), then mode with the
    (count desc, label asc) tie-break; nodes with no incoming offers
    keep their label."""
    nodes, labels = lab
    ns, ls, cs = [], [], []
    for n, l, c in count_parts:
        ns.append(n); ls.append(l); cs.append(c)
    n = np.concatenate(ns); l = np.concatenate(ls)
    c = np.concatenate(cs)
    new = labels.copy()
    if len(n):
        u, inv = np.unique(np.stack([n, l], axis=1), axis=0,
                           return_inverse=True)
        tot = np.zeros(len(u), dtype=np.int64)
        np.add.at(tot, inv, c)
        o = np.lexsort((u[:, 1], -tot, u[:, 0]))
        first = np.concatenate(
            [[True], u[o][1:, 0] != u[o][:-1, 0]])
        win_n = u[o][first, 0]
        win_l = u[o][first, 1]
        idx = np.searchsorted(nodes, win_n)
        assert (nodes[idx] == win_n).all()
        new[idx] = win_l
    return (nodes, new), 0


def label_propagation(pairs: rd.Dataset, col_a: str, col_b: str,
                      rounds: int = 5) -> rd.Dataset:
    """(node_id, community) after ``rounds`` synchronous LPA rounds.
    Two tiers (``util.plan_tier``): driver CSR while the edge rows
    (16 B each) fit the driver budget; beyond, the BSP kernel with
    pre-counted (node, label, count) exchanges — per round the wire
    carries at most one row per distinct (neighbor, incoming-label)
    pair per source bucket.

    Input contract: ``pairs`` should be DISTINCT edges — a duplicated
    pair acts as a double-weight vote in the mode (both tiers agree on
    that semantics, but it is usually not what callers mean; the
    fulfillment builders dedup upstream)."""
    edges = pairs.map_batches(_mirror(col_a, col_b),
                              batch_format="pyarrow").materialize()
    n_edge_rows = edges.count()
    if plan_tier("label_propagation",
                 driver_bytes=16 * n_edge_rows) == "driver":
        a, c = _pull(edges, "node", "nbr")
        ids, com = _driver_lpa(a, c, rounds) if len(a) else (a, a)
        return rd.from_arrow(pa.table({"node_id": ids,
                                       "community": com}))

    target_blocks = int(max(1, min(64, n_edge_rows // 65536 + 1)))
    if edges.num_blocks() > 2 * target_blocks:
        edges = edges.repartition(target_blocks).materialize()

    def init_labels(b: pa.Table) -> pa.Table:
        n = np.unique(b["node"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"node": n, "label": n})

    labels = edges.map_batches(init_labels,
                               batch_format="pyarrow").materialize()
    n = _graph_buckets(labels.count())

    prep_e = ray.remote(_prep_edges)
    prep_l = ray.remote(_cc_prep_labels)
    red_r = ray.remote(_lpa_reduce)

    edges_k = [prep_e.remote(*f)
               for f in _split_blocks(edges, ["node", "nbr"], n)]
    lab_k = [prep_l.remote(*f)
             for f in _split_blocks(labels, ["node", "label"], n)]

    for _ in range(rounds):
        cparts = [fanout(_lpa_count_partial, n, edges_k[k], lab_k[k], n)
                  for k in range(n)]
        outs = [red_r.options(num_returns=2).remote(
            lab_k[j], *[cparts[k][j] for k in range(n)])
            for j in range(n)]
        lab_k = [o[0] for o in outs]
        ray.get([o[1] for o in outs])   # round barrier (BSP)

    out_r = ray.remote(lambda lab: pa.table(
        {"node_id": lab[0], "community": lab[1]}))
    return rd.from_arrow_refs([out_r.remote(l) for l in lab_k])


# ---------------------------------------------------------------------------
# Weighted single-source shortest paths (Bellman-Ford BSP) — the
# weighted twin of bfs_hops. Same two-tier contract: a small edge set
# pulls to one vectorized driver relaxation loop; past the driver
# budget the node-bucket BSP kernel runs with dist+w offers (edges
# hash-split by SOURCE node once, only node-sized (neighbor, offer)
# minima move per round, monotone dist-sum stall as the early exit).
# ---------------------------------------------------------------------------

def _driver_sssp(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                 source: int):
    """Vectorized driver Bellman-Ford: one np.minimum.at relaxation of
    EVERY edge per round (no per-node loop). Runs to the fixpoint —
    with non-negative weights Bellman-Ford converges within n−1
    rounds, so the cap is a guarantee, not a truncation (SSSP's
    contract is the unconditional shortest distance; review-caught:
    an arbitrary round cap silently reported far nodes unreachable)."""
    ids = np.unique(np.concatenate([u, v, np.array([source], np.int64)]))
    su = np.searchsorted(ids, u)
    sv = np.searchsorted(ids, v)
    dist = np.full(len(ids), _BFS_INF, dtype=np.int64)
    dist[np.searchsorted(ids, source)] = 0
    for _ in range(max(len(ids) - 1, 1)):
        cand = dist[su] + w          # INF + w << int64 max (INF = 2^60)
        new = dist.copy()
        np.minimum.at(new, sv, cand)
        if np.array_equal(new, dist):
            break
        dist = new
    m = dist < _BFS_INF
    return ids[m], dist[m]


def _sssp_offers(eb, lab, n_buckets: int):
    """One source-bucket's relaxation pass: each settled node offers
    dist+w along its out-edges, pre-combined to the min per target,
    split by the target's bucket."""
    node_e, nbr_e, w_e = eb
    nodes, labels = lab
    z = np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    if len(node_e) == 0:
        return (z,) * n_buckets
    d = labels[np.searchsorted(nodes, node_e)]
    live = d < _BFS_INF
    if not live.any():
        return (z,) * n_buckets
    off = d[live] + w_e[live]
    tgt = nbr_e[live]
    uq, inv = np.unique(tgt, return_inverse=True)
    m = np.full(len(uq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(m, inv, off)
    return tuple(_pr_split_arrays([uq, m], uq, n_buckets))


def _sssp_out_table(lab) -> pa.Table:
    nodes, labels = lab
    m = labels < _BFS_INF
    return pa.table({"node_id": nodes[m], "dist": labels[m]})


def weighted_sssp(edges: rd.Dataset, source: int,
                  max_rounds: int = 4096) -> rd.Dataset:
    """(node_id, dist) shortest weighted distance from ``source`` over
    the DIRECTED edge dataset (columns u, v, w; integer non-negative
    weights — int64-exact, mirrored by the bounded recursive-CTE
    oracle). Unreachable nodes emit no row; the source reports 0 even
    when isolated. Bellman-Ford rather than Dijkstra because BSP
    rounds relax ALL frontier edges in parallel — a priority queue is
    inherently sequential, while round count is bounded by the
    shortest-path hop diameter (small for the clustered graphs this
    engine sees), each round one bucket-local exchange; the (u, v, w)
    rows (24 B each) pull to one driver loop while they fit the driver
    budget (``util.plan_tier``). SSSP's contract is the UNCONDITIONAL
    shortest distance — both tiers run to the monotone fixpoint; the
    BSP tier RAISES if ``max_rounds``
    (a runaway backstop, not a result parameter) is exhausted before
    the stall, instead of silently reporting under-relaxed distances
    (review-caught)."""
    def mirror(b: pa.Table) -> pa.Table:
        w = b["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(w) and int(w.min()) < 0:
            raise ValueError("weighted_sssp requires non-negative weights")
        return pa.table({
            "node": b["u"].to_numpy(zero_copy_only=False).astype(np.int64),
            "nbr": b["v"].to_numpy(zero_copy_only=False).astype(np.int64),
            "w": w})

    e = edges.map_batches(mirror, batch_format="pyarrow").materialize()
    n_edge_rows = e.count()

    if plan_tier("weighted_sssp", driver_bytes=24 * n_edge_rows) == "driver":
        ids, dist = _driver_sssp(*_pull(e, "node", "nbr", "w"), int(source))
        return rd.from_arrow(pa.table({"node_id": ids, "dist": dist}))

    def init_labels(b: pa.Table) -> pa.Table:
        n = np.unique(np.concatenate([
            b["node"].to_numpy(zero_copy_only=False).astype(np.int64),
            b["nbr"].to_numpy(zero_copy_only=False).astype(np.int64)]))
        return pa.table({
            "node": n,
            "label": np.where(n == source, np.int64(0), _BFS_INF)})

    labels = e.map_batches(init_labels, batch_format="pyarrow").union(
        rd.from_arrow(pa.table({
            "node": np.array([source], np.int64),
            "label": np.zeros(1, np.int64)}))).materialize()

    # the bfs_hops sizing contract: buckets by node count
    # (_graph_buckets) and coarse edge blocks, so a just-over-budget
    # graph doesn't pay a wide tiny-task exchange per round
    n_nodes = labels.map_batches(
        lambda b: pd.DataFrame({"node": b["node"].unique()}),
        batch_format="pandas").count()
    n = _graph_buckets(n_nodes)
    target_blocks = int(max(1, min(64, n_edge_rows // 65536 + 1)))
    if e.num_blocks() > 2 * target_blocks:
        e = e.repartition(target_blocks).materialize()

    prep_e = ray.remote(_prep_edges)
    prep_l = ray.remote(_cc_prep_labels)
    red_r = ray.remote(_cc_reduce)
    out_tbl_r = ray.remote(_sssp_out_table)

    edges_k = [prep_e.remote(*f)
               for f in _split_blocks(e, ["node", "nbr", "w"], n)]
    lab_k = [prep_l.remote(*f)
             for f in _split_blocks(labels, ["node", "label"], n)]

    prev_sum = None
    for _ in range(max_rounds):
        oparts = [fanout(_sssp_offers, n, edges_k[k], lab_k[k], n)
                  for k in range(n)]
        outs = [red_r.options(num_returns=2).remote(
            lab_k[j], *[oparts[k][j] for k in range(n)])
            for j in range(n)]
        lab_k = [o[0] for o in outs]
        cur_sum = int(sum(ray.get([o[1] for o in outs])))
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"weighted_sssp: no fixpoint within max_rounds="
            f"{max_rounds}; the hop diameter exceeds the backstop — "
            "raise max_rounds (distances would be silently wrong)")

    return rd.from_arrow_refs([out_tbl_r.remote(l) for l in lab_k])


# ---------------------------------------------------------------------------
# Minimum spanning forest (Borůvka) — completes the graph family next
# to CC/BFS/SSSP: the clustering backbone (single-linkage clustering IS
# the MSF), cheapest-network design, and the contraction pattern every
# distributed-graph text teaches.
# ---------------------------------------------------------------------------

class _UnionFind:
    """Driver union-find over arbitrary int node ids (path halving +
    union by root id — smaller root wins, keeping labels canonical)."""

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        while p.get(x, x) != x:
            p[x] = p.get(p[x], p[x])
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _driver_kruskal(u: np.ndarray, v: np.ndarray, w: np.ndarray):
    order = np.lexsort((v, u, w))
    uf = _UnionFind()
    keep = []
    for i in order:
        if uf.union(int(u[i]), int(v[i])):
            keep.append(i)
    keep = np.asarray(keep, dtype=np.int64)
    return u[keep], v[keep], w[keep]


def _msf_edge_table(b: pd.DataFrame) -> pa.Table:
    """Uniform int64 Arrow edge block (u, v, w, cu, cv) — the per-round
    block-hygiene rebuild of the annotated live set."""
    return pa.table({c: b[c].to_numpy(np.int64)
                     for c in ("u", "v", "w", "cu", "cv")})


def _msf_tier3(live: rd.Dataset, max_rounds: int) -> rd.Dataset:
    """Fully distributed Borůvka (VERDICT r04 #5: the union-find is
    off the driver). Loop state is a bucketed ``(node, comp)`` label
    dataset; per round the chosen per-component minimum edges form a
    component graph whose connected components — computed by
    ``connected_components``, whose tier the same two budgets decide —
    become the label update, applied through one bucketed left join
    (identity for untouched components). The driver holds no
    node-sized arrays, and component-sized ones only while a round's
    component graph fits the driver budget (never under
    ``tier_budgets(0, 0)``, where every round runs the BSP kernel).

    Correctness under weight ties: edges compare by the strict total
    order (w, u, v) everywhere (``topk_per_group`` tie_cols), i.e.
    perturbed-unique weights — the perturbed MSF is unique and both
    Borůvka and Kruskal produce exactly it, so tier equality holds.
    With a strict total order a component-min edge set can contain no
    cycle except two components choosing the SAME edge, which the
    distinct-row reduce collapses."""
    from .relational import bucketed_join, preagg_reduce, topk_per_group

    def init_labels(b: pd.DataFrame) -> pd.DataFrame:
        n = np.unique(np.concatenate([b["u"].to_numpy(np.int64),
                                      b["v"].to_numpy(np.int64)]))
        return pd.DataFrame({"node": n, "comp": n})

    labels = preagg_reduce(
        live.map_batches(init_labels, batch_format="pandas"),
        ["node"], "comp", "min")
    labels = labels.map_batches(
        lambda b: pa.table({"node": b["node"].to_numpy(np.int64),
                            "comp": b["comp"].to_numpy(np.int64)}),
        batch_format="pandas").materialize()
    labels = labels.repartition(
        max(2, labels.count() // 262144)).materialize()

    forest_parts: list[rd.Dataset] = []
    converged = False
    for _ in range(max_rounds):
        lu = labels.map_batches(
            lambda b: pd.DataFrame({"u": b["node"].to_numpy(np.int64),
                                    "cu": b["comp"].to_numpy(np.int64)}),
            batch_format="pandas")
        lv = labels.map_batches(
            lambda b: pd.DataFrame({"v": b["node"].to_numpy(np.int64),
                                    "cv": b["comp"].to_numpy(np.int64)}),
            batch_format="pandas")
        e = bucketed_join(live, lu, on="u")
        e = bucketed_join(e, lv, on="v")
        # intra-component edges leave the live set PERMANENTLY.
        # BLOCK HYGIENE (the dedup-collapse lesson, found by the sf1
        # smoke): join outputs carry Ray's schema-less empty-partition
        # blocks, and the NEXT round's sorts crawl on them — rebuild
        # as uniform Arrow blocks each round
        e = e.map_batches(
            lambda b: _msf_edge_table(
                b[b["cu"].to_numpy(np.int64)
                  != b["cv"].to_numpy(np.int64)]),
            batch_format="pandas").materialize()
        n_live = e.count()
        if n_live == 0:
            converged = True
            break
        e = e.repartition(max(2, n_live // 262144)).materialize()

        def emit(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "comp": np.concatenate([b["cu"].to_numpy(np.int64),
                                        b["cv"].to_numpy(np.int64)]),
                "u": np.tile(b["u"].to_numpy(np.int64), 2),
                "v": np.tile(b["v"].to_numpy(np.int64), 2),
                "w": np.tile(b["w"].to_numpy(np.int64), 2),
                "cu": np.tile(b["cu"].to_numpy(np.int64), 2),
                "cv": np.tile(b["cv"].to_numpy(np.int64), 2)})

        chosen = topk_per_group(e.map_batches(emit,
                                              batch_format="pandas"),
                                ["comp"], "w", k=1, ascending=True,
                                tie_cols=["u", "v"])
        # distinct edge rows (a 2-cycle is both components choosing
        # the same edge → identical (u,v,w,cu,cv) rows collapse)
        chd = preagg_reduce(chosen, ["u", "v", "w", "cu", "cv"],
                            "__c", "count").materialize()
        forest_parts.append(chd.map_batches(
            lambda b: b[["u", "v", "w"]], batch_format="pandas"))

        ccm = connected_components(chd, "cu", "cv").map_batches(
            lambda b: pd.DataFrame({
                "comp": b["doc_id"].to_numpy(np.int64),
                "newc": b["cluster_id"].to_numpy(np.int64)}),
            batch_format="pandas")
        joined = bucketed_join(labels, ccm, on="comp", how="left")

        def update(b: pd.DataFrame) -> pd.DataFrame:
            comp = b["comp"].to_numpy(np.int64)
            newc = b["newc"].to_numpy(np.float64)   # left-join contract
            if len(newc) and np.nanmax(newc, initial=0.0) >= 2.0 ** 53:
                raise ValueError("_msf_tier3: component ids must stay "
                                 "< 2^53 (left-join float transit)")
            upd = np.where(np.isnan(newc), comp,
                           newc).astype(np.int64)
            return pa.table({"node": b["node"].to_numpy(np.int64),
                             "comp": upd})

        labels = joined.map_batches(
            update, batch_format="pandas").materialize()
        labels = labels.repartition(
            max(2, labels.count() // 262144)).materialize()
        live = e.map_batches(
            lambda b: pa.table({c: np.asarray(b[c]).astype(np.int64)
                                for c in ("u", "v", "w")}),
            batch_format="pyarrow")
    if not converged:
        raise RuntimeError(
            f"_msf_tier3 did not converge in {max_rounds} Borůvka "
            "rounds; raise max_rounds")
    if not forest_parts:
        return rd.from_arrow(pa.table({
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "w": pa.array([], pa.int64())}))
    f = forest_parts[0]
    if len(forest_parts) > 1:
        f = f.union(*forest_parts[1:])
    return f.sort(["u", "v", "w"])


def minimum_spanning_forest(edges: rd.Dataset,
                            max_rounds: int = 40) -> rd.Dataset:
    """(u, v, w) forest edges of the minimum spanning forest over the
    UNDIRECTED weighted edge dataset (integer non-negative weights).
    Deterministic under weight ties via the lexicographic (w, u, v)
    order on both tiers; with unique weights the MSF is unique and
    both tiers provably agree (tier-equality + Kruskal-reference
    tests in tests/test_round5_ops.py).

    THREE tiers (``util.plan_tier``): (u, v, w) rows (24 B each) that
    fit the driver budget pull to one driver Kruskal; beyond, Borůvka
    rounds — each component picks its lightest outgoing edge, chosen
    edges union, repeat (≤ log₂ n rounds). The EDGE SET stays distributed
    throughout: per round each edge batch annotates its endpoints'
    components from the broadcast compacted union-find map,
    intra-component edges are filtered out PERMANENTLY (the edge set
    only shrinks), and the per-component lightest edge reduces through
    `topk_per_group` (≤ 1 row per component per batch moves). On the
    middle tier driver state is the union-find over FOREST edges,
    broadcast each round as a (node, root) map of at most one 16 B
    pair per edge. Past the broadcast budget for that bound
    (``_msf_tier3``, tier-equality-tested at forced budgets) the
    union-find leaves the driver entirely: labels live in a bucketed
    (node, comp) dataset, per-round components come from the CC
    kernel over the chosen component graph, and the driver holds
    nothing node-sized."""
    from .relational import topk_per_group

    def canon(b: pa.Table) -> pa.Table:
        uu = b["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        vv = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        ww = b["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ww) and int(ww.min()) < 0:
            raise ValueError("minimum_spanning_forest requires "
                             "non-negative weights")
        lo = np.minimum(uu, vv)
        hi = np.maximum(uu, vv)
        m = lo != hi                      # self-loops never span
        return pa.table({"u": lo[m], "v": hi[m], "w": ww[m]})

    live = edges.map_batches(canon, batch_format="pyarrow").materialize()
    n_edges = live.count()

    tier = plan_tier("minimum_spanning_forest", driver_bytes=24 * n_edges,
                     broadcast_bytes=16 * n_edges)
    if tier == "driver":
        fu, fv, fw = _driver_kruskal(*_pull(live, "u", "v", "w"))
        return rd.from_arrow(pa.table({"u": fu, "v": fv, "w": fw}))

    if tier == "distributed":
        return _msf_tier3(live, max_rounds)

    uf = _UnionFind()
    forest: list[tuple[int, int, int]] = []
    for _ in range(max_rounds):
        # compacted label map: only nodes whose root differs from
        # themselves ride the broadcast (identity is the default)
        items = sorted((n, uf.find(n)) for n in uf.parent)
        keys = np.array([k for k, _ in items], dtype=np.int64)
        roots = np.array([r for _, r in items], dtype=np.int64)
        kref, rref = ray.put(keys), ray.put(roots)

        def lookup(arr, k, r):
            if not len(k):
                return arr
            pos = np.minimum(np.searchsorted(k, arr), len(k) - 1)
            hit = k[pos] == arr
            out = arr.copy()
            out[hit] = r[pos[hit]]
            return out

        def annotate(b: pd.DataFrame) -> pd.DataFrame:
            # plain ray.get, NOT relational.broadcast_get: that cache
            # never evicts, and this op puts a FRESH node-bounded
            # snapshot per round — caching every round's map would pin
            # O(rounds × n_nodes) dead arrays in every worker
            # (review-caught). Plasma still serves local zero-copy
            # reads; only the per-task deserialization is repaid.
            k = ray.get(kref)
            r = ray.get(rref)
            uu = b["u"].to_numpy(np.int64)
            vv = b["v"].to_numpy(np.int64)
            ww = b["w"].to_numpy(np.int64)
            cu = lookup(uu, k, r)
            cv = lookup(vv, k, r)
            m = cu != cv
            return pd.DataFrame({
                "u": uu[m], "v": vv[m], "w": ww[m],
                "cu": cu[m], "cv": cv[m]})

        live = live.map_batches(annotate,
                                batch_format="pandas").materialize()
        if live.count() == 0:
            break

        both = live.map_batches(
            lambda b: pd.DataFrame({
                "comp": np.concatenate([b["cu"].to_numpy(np.int64),
                                        b["cv"].to_numpy(np.int64)]),
                "u": np.tile(b["u"].to_numpy(np.int64), 2),
                "v": np.tile(b["v"].to_numpy(np.int64), 2),
                "w": np.tile(b["w"].to_numpy(np.int64), 2)}),
            batch_format="pandas")
        chosen = topk_per_group(both, ["comp"], "w", k=1,
                                ascending=True,
                                tie_cols=["u", "v"]).to_pandas()
        # deterministic union ORDER: under weight ties the set of safe
        # edges admitted in a round depends on processing order —
        # (w, u, v) makes it run-independent (block arrival order from
        # to_pandas is not)
        chosen = chosen.sort_values(["w", "u", "v"], ignore_index=True)
        added = 0
        for uu, vv, ww in zip(chosen["u"].to_numpy(np.int64),
                              chosen["v"].to_numpy(np.int64),
                              chosen["w"].to_numpy(np.int64)):
            if uf.union(int(uu), int(vv)):
                forest.append((int(uu), int(vv), int(ww)))
                added += 1
        if not added:
            break
        live = live.map_batches(
            lambda b: b[["u", "v", "w"]], batch_format="pandas")

    forest.sort()
    return rd.from_arrow(pa.table({
        "u": np.array([f[0] for f in forest], dtype=np.int64),
        "v": np.array([f[1] for f in forest], dtype=np.int64),
        "w": np.array([f[2] for f in forest], dtype=np.int64)}))


def local_clustering(edges: rd.Dataset) -> pd.DataFrame:
    """Per-node triangle count and local clustering coefficient
    ``lcc(v) = 2·T(v) / (deg(v)·(deg(v)−1))`` over a DISTINCT
    canonical edge list (columns ``a`` < ``b``), for every node with
    deg ≥ 2 (the coefficient is undefined below that — mirrored as a
    WHERE in the oracle). Engine addition (§ graph operators); no
    reference analogue.

    THREE tiers mirroring ``triangle_count`` and sized like it: a
    driver pass while the edge list fits the driver budget; a
    broadcast tier (sliced wedge generation fused with the broadcast
    sorted-edge-key membership test — wedges never materialize or
    shuffle, node-sized dense participation partials per bucket)
    while the packed key set fits the broadcast budget; beyond that,
    the fully distributed BSP closing exchange with per-corner
    crediting (``_tri_close`` — edge keys never collect on the
    driver, only node-BOUNDED sparse partials do). Node-sized driver state is
    INHERENT to this output (one row per node). Output: driver
    DataFrame (node, deg, n_tri int64, lcc float64)."""
    from .relational import broadcast_get

    edges = edges.materialize()
    n_edges = edges.count()
    empty = pd.DataFrame({"node": np.array([], dtype=np.int64),
                          "deg": np.array([], dtype=np.int64),
                          "n_tri": np.array([], dtype=np.int64),
                          "lcc": np.array([], dtype=np.float64)})
    if n_edges == 0:
        return empty

    def _finish(ids: np.ndarray, deg: np.ndarray,
                tri: np.ndarray) -> pd.DataFrame:
        keep = deg >= 2
        d = deg[keep].astype(np.float64)
        # mirrored in the SQL oracle — keep in sync
        lcc = 2.0 * tri[keep].astype(np.float64) / (d * (d - 1.0))
        return pd.DataFrame({"node": ids[keep],
                             "deg": deg[keep],
                             "n_tri": tri[keep],
                             "lcc": lcc})

    tier = plan_tier("local_clustering", driver_bytes=16 * n_edges,
                     broadcast_bytes=8 * n_edges)
    if tier == "driver":
        ids, deg, u, v, keys = _driver_orient(*_pull(edges, "a", "b"))
        return _finish(ids, deg, _tri_participation(u, v, keys, len(ids)))

    # broadcast tier — the orientation and key packing of
    # triangle_count's middle tier (see there for the wedge bound)
    ids, deg, directed = _orient_edges(edges, "local_clustering")
    n_nodes = len(ids)
    # beyond the broadcast budget for the closing keys the closing
    # check runs as the fully distributed BSP exchange with per-corner
    # crediting — edge keys never collect on the driver, only the
    # node-sized sparse partials do (node-sized final state is
    # inherent to this per-node output)
    if tier == "distributed":
        return _finish(ids, deg, _tri_close(directed, n_nodes, per_node=True))
    keys_ref = _broadcast_keys(directed, n_nodes)

    def bucket_partial(g: pd.DataFrame) -> pd.DataFrame:
        u, v = _lexsorted(g)
        tri = _tri_participation(u, v, broadcast_get(keys_ref), n_nodes)
        nz = np.nonzero(tri)[0]
        return pd.DataFrame({"idx": nz, "t": tri[nz]})

    parts = key_shuffle(directed, bucket_partial, ["u"],
                        batch_format="pandas").to_pandas()
    tri = np.zeros(n_nodes, dtype=np.int64)
    if len(parts):
        np.add.at(tri, parts["idx"].to_numpy(np.int64),
                  parts["t"].to_numpy(np.int64))
    return _finish(ids, deg, tri)


def personalized_pagerank(edges: rd.Dataset, seeds: "list[int]",
                          damping: float = 0.85, iters: int = 3,
                          checkpoint_dir: str | None = None
                          ) -> rd.Dataset:
    """Personalized PageRank: the random walk teleports to the SEED
    set instead of the whole node universe — rank mass concentrates
    around the seeds, the classic graph-proximity primitive
    (seed-based corpus expansion, trust propagation, related-item
    retrieval). Update rule r ← (1−d)·p + d·(contrib + dang·p) with
    p = 1/|seeds| on seeds and 0 elsewhere (dangling mass returns to
    the seeds, so total mass stays exactly 1). Engine addition (§
    graph operators); no reference analogue.

    Thin dispatcher over the SAME kernels as ``pagerank`` — the
    restart vector is node-sized state exactly like rank, so
    ``_driver_pagerank`` / ``_broadcast_pagerank`` carry it with a
    branch in the update rule (checkpoint manifests fingerprint the
    seed set); the driver tier is decided by the same rule
    (``util.plan_tier``). The tier-3 posture is identical to
    pagerank's BSP kernel for the same reason; this op keeps the two
    tiers its bench sizes exercise, so node arrays (24 B per node)
    past the broadcast budget still broadcast, with the package's one
    over-budget warning (``util.check_broadcast``). Seeds must be
    graph nodes (raises otherwise — a silent drop would desync the
    mirrored oracle).
    Returns (node, rank) unrounded."""
    seeds_arr = np.unique(np.asarray(seeds, dtype=np.int64))
    if not len(seeds_arr):
        raise ValueError("personalized_pagerank: empty seed set")

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        raise ValueError("personalized_pagerank: empty edge list")

    if plan_tier("personalized_pagerank",
                 driver_bytes=16 * n_edges) == "driver":
        return rd.from_arrow(_driver_pagerank(
            *_pull(edges, "src", "dst"), damping, iters, seeds=seeds_arr))

    node_ds = _node_universe(edges)
    check_broadcast(24 * node_ds.count(),
                    "personalized_pagerank node arrays")
    return _broadcast_pagerank(edges, node_ds, damping, iters,
                               checkpoint_dir=checkpoint_dir,
                               seeds=seeds_arr)
