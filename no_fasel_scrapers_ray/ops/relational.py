"""Relational operators: broadcast joins, semi/anti joins, keyed merges
with precedence, the one grouped aggregate (``aggregate``), unions,
two-level nesting aggregates, windowed/sessionized event aggregates.

Design rules (100 TB posture):
- the BIG side always streams through ``map_batches``; only genuinely
  small sides (dimension tables, key sets) are broadcast via ``ray.put``
  and fetched once per actor in ``__init__`` (never re-shipped per batch);
- groupbys are pre-aggregated per batch (one partial row per key per
  batch) so the all-to-all shuffle moves partials, not rows;
- float aggregates are rounded at the end so results are
  bit-comparable with the DuckDB oracle regardless of summation order.

Reference parity notes cite /root/reference file:line for the operator
semantics being generalized (SURVEY.md §2.6-§2.7).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..corpus.storage import BlockRefs, one_block
from .util import (check_broadcast, key_shuffle, plan_tier, rebalance,
                   shuffle_buckets, sort_rows)


# --------------------------------------------------------------------------
# Broadcast joins (J1/J2/J4/J5/J6 family: Common.py:223-224, TrendingScraper.py:28-47)
# --------------------------------------------------------------------------

# Per-worker-process cache: a broadcast object (ray.put once on the
# driver) is fetched from the local object store at most once per worker
# and reused across every batch that worker processes. Task-based stages
# get actor-like amortization without paying actor-pool startup.
_BROADCAST_CACHE: dict = {}


def broadcast_get(ref):
    key = ref.hex()
    if key not in _BROADCAST_CACHE:
        _BROADCAST_CACHE[key] = ray.get(ref)
    return _BROADCAST_CACHE[key]


def broadcast_join(ds: rd.Dataset, small_df: pd.DataFrame, on, how="inner",
                   **_ignored) -> rd.Dataset:
    """Map-side hash join: small side put in the object store ONCE
    (``ray.put``), fetched once per worker (never per batch).

    Size contract: the small side must be dimension-scale (it is copied
    into every worker's heap once) — ``check_broadcast`` warns past
    ``util.BROADCAST_LIMIT_BYTES``; beyond that use ``bucketed_join``.

    Generalizes the reference's image-cache lookup (Common.py:223-224) and
    trending id lookups (TrendingScraper.py:28-47).
    """
    check_broadcast(small_df, "broadcast_join")
    ref = ray.put(small_df)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(broadcast_get(ref), on=on, how=how)

    return ds.map_batches(merge, batch_format="pandas")


def _key_set_filter(ds: rd.Dataset, keys: np.ndarray, column: str,
                    keep_in: bool) -> rd.Dataset:
    """Semi/anti join against a broadcast key set (vectorized np.isin).

    Generalizes the seen-set probe ``movie_id in old_movies_dict``
    (FaselMoviesScraper.py:28, D1/J6) — the pre-fetch anti-join.
    Size contract: the key set is broadcast (one copy per worker) —
    key-set-sized inputs only; a big-big semi/anti join belongs in
    ``bucketed_join`` with a post-filter.
    """
    keys = np.asarray(keys)
    check_broadcast(keys, "semi/anti join key set")
    ref = ray.put(keys)

    def filt(batch: pa.Table) -> pa.Table:
        mask = np.isin(batch[column].to_numpy(zero_copy_only=False),
                       broadcast_get(ref))
        return batch.filter(pa.array(mask if keep_in else ~mask))

    return ds.map_batches(filt, batch_format="pyarrow")


def semi_join(ds: rd.Dataset, keys: np.ndarray, column: str, **_ignored) -> rd.Dataset:
    return _key_set_filter(ds, keys, column, True)


def anti_join(ds: rd.Dataset, keys: np.ndarray, column: str, **_ignored) -> rd.Dataset:
    return _key_set_filter(ds, keys, column, False)


def _bloom_hashes(keys: np.ndarray, m_bits: int, k_hashes: int):
    """Kirsch-Mitzenmacher double hashing: k bit indices per key from
    two splitmix64-style mixes, all vectorized uint64 arithmetic."""
    x = keys.astype(np.uint64)
    h1 = (x + np.uint64(0x9E3779B97F4A7C15))
    h1 = (h1 ^ (h1 >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h1 = (h1 ^ (h1 >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h1 = h1 ^ (h1 >> np.uint64(31))
    h2 = (x * np.uint64(0xFF51AFD7ED558CCD)) | np.uint64(1)  # odd → full cycle
    for i in range(k_hashes):
        yield ((h1 + np.uint64(i) * h2) % np.uint64(m_bits))


def bloom_semi_join(big: rd.Dataset, keys_ds: rd.Dataset, column: str,
                    m_bits: int = 1 << 20, k_hashes: int = 4) -> rd.Dataset:
    """EXACT semi-join of ``big`` against the (distinct) key set in
    ``keys_ds[column]``, Bloom-prefiltered:

    1. build: one streaming pass over ``keys_ds`` emitting per-batch
       partial Bloom bit arrays (fixed ``m_bits/8`` bytes each,
       independent of key count), OR-combined on the driver;
    2. prefilter: the combined filter is ``ray.put`` ONCE and probed
       vectorized per batch of ``big`` — only rows whose key passes
       every hash survive (false-positive rate (1-e^{-kn/m})^k, ~1e-4
       at the defaults for ~50k keys);
    3. verify: the survivors — already pruned to ~|matches| rows — go
       through the bucketed hash join against the key set, so false
       positives are eliminated and the result is EXACT.

    The scale contract vs ``semi_join``: that broadcast key-set probe
    copies every key into every worker (dim-sized sets only); here the
    broadcast is a FIXED-size bit array no matter how many keys, and
    the exact verification shuffles only the Bloom survivors, not the
    big table. ``keys_ds[column]`` must be distinct (a key appearing
    twice would duplicate matched rows in the verify join)."""
    words = m_bits // 64

    def partial_bloom(batch: pa.Table) -> pd.DataFrame:
        arr = np.zeros(words, dtype=np.uint64)
        keys = batch[column].to_numpy(zero_copy_only=False)
        for idx in _bloom_hashes(keys, m_bits, k_hashes):
            np.bitwise_or.at(arr, (idx >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (idx & np.uint64(63)))
        return pd.DataFrame({"bloom": [arr.tobytes()]})

    bloom = np.zeros(words, dtype=np.uint64)
    parts = keys_ds.map_batches(partial_bloom, batch_format="pyarrow")
    for part in parts.to_pandas().get("bloom", []):
        bloom |= np.frombuffer(part, dtype=np.uint64)
    ref = ray.put(bloom)

    def probe(t: pa.Table) -> pa.Table:
        blm = broadcast_get(ref)
        keys = t[column].to_numpy(zero_copy_only=False)
        mask = np.ones(len(keys), dtype=bool)
        for idx in _bloom_hashes(keys, m_bits, k_hashes):
            bits = (blm[(idx >> np.uint64(6)).astype(np.int64)]
                    >> (idx & np.uint64(63))) & np.uint64(1)
            mask &= bits.astype(bool)
        return t.filter(pa.array(mask))

    survivors = big.map_batches(probe, batch_format="pyarrow")
    keys_only = keys_ds.map_batches(
        lambda t: t.select([column]), batch_format="pyarrow")
    return bucketed_join(survivors, keys_only, on=column, how="inner")


# --------------------------------------------------------------------------
# Partitioned (bucketed) hash join — both sides large: hash-partition on
# the key into B buckets, join matching buckets in one combine task each.
# The explicit big-big join pattern; salt hot keys by raising B.
# --------------------------------------------------------------------------

def _resolve_fields(ds: rd.Dataset) -> dict:
    """Arrow field types of a Dataset's columns. A side built from
    pandas blocks reports numpy dtypes (PandasBlockSchema); normalize
    so null padding and int-restore checks always see Arrow types.
    numpy object columns are ambiguous (text? list? bytes?) — infer
    from one actual row (a limit-1 probe) instead of guessing string."""
    schema = ds.schema()
    fields, unresolved = {}, []
    for name, typ in zip(schema.names, schema.types):
        if isinstance(typ, pa.DataType):
            fields[name] = typ
            continue
        try:
            fields[name] = pa.from_numpy_dtype(typ)
        except (pa.ArrowNotImplementedError, TypeError):
            unresolved.append(name)
    if unresolved:
        rows = ds.limit(1).take(1)
        for name in unresolved:
            try:
                fields[name] = pa.array([rows[0][name]]).type
            except (IndexError, pa.ArrowInvalid):
                fields[name] = pa.string()
    return fields


def bucketed_join(left: rd.Dataset, right: rd.Dataset, on: str,
                  how: str = "inner") -> rd.Dataset:
    """Hash-partitioned join: ONE shuffle per side (the groupby), then a
    per-bucket pandas merge. Rows from the two sides are tagged and
    unioned so a single groupby co-locates matching buckets. Both sides
    are padded to a COMMON schema before the union — unioning datasets
    with different schemas sends the shuffle down a pathological slow
    path (measured 550 s for a 150k⋈150k join at sf0.1)."""
    left_fields = _resolve_fields(left)
    right_fields = _resolve_fields(right)
    left_cols = list(left_fields)
    right_cols = list(right_fields)
    all_fields = dict(left_fields)
    for name, typ in right_fields.items():
        all_fields.setdefault(name, typ)

    def _pad(n: int, typ: pa.DataType) -> pa.Array:
        # Structural padding for the side that lacks a column — never
        # read (join_bucket selects each side's OWN columns), so use
        # typed ZEROS, not nulls: a null int64 column that transits a
        # pandas block representation (Ray's sort can re-block the
        # tagged union as pandas) becomes float64 NaN and poisons the
        # column's dtype for BOTH sides' rows (graph_walks hop dtype
        # drift at sf0.001, where the whole union fits in one block).
        if pa.types.is_integer(typ) or pa.types.is_floating(typ):
            return pa.array(np.zeros(n, dtype=typ.to_pandas_dtype()),
                            type=typ)
        if pa.types.is_timestamp(typ):
            return pa.array(np.zeros(n, dtype=np.int64), type=typ)
        return pa.nulls(n, typ)   # strings/lists: object dtype, no upcast

    def tag(side: str):
        def _tag(batch: pa.Table) -> pa.Table:
            cols = {}
            for name, typ in all_fields.items():
                cols[name] = (batch[name] if name in batch.column_names
                              else _pad(len(batch), typ))
            # both sides' keys in ONE type, so equal keys hash alike
            cols[on] = cols[on].cast(all_fields[on])
            cols["__side"] = pa.array([side] * len(batch))
            return pa.table(cols)
        return _tag

    sides = [left.map_batches(tag("l"), batch_format="pyarrow"),
             right.map_batches(tag("r"), batch_format="pyarrow")]

    # Columns that are integer in the INPUT schemas: the null padding in
    # ``tag`` makes pandas upcast them to float64 inside the bucket merge
    # (CORRECTNESS r01 `nested_rollup` hash fail) — restore the input
    # dtype wherever the join produced no actual nulls.
    int_cols = [name for name, typ in all_fields.items()
                if pa.types.is_integer(typ)]

    def join_bucket(g: pa.Table) -> pd.DataFrame:
        # Split sides in ARROW before any pandas conversion: a
        # whole-group pandas conversion sees the OTHER side's null
        # padding and upcasts every int column to float64 — for both
        # sides' rows — silently rounding integers past 2^53 (caught
        # by the r4 hash-keyed perplexity join; invisible before
        # because every prior int column was small). Each side's own
        # columns are null-free, so per-side conversion keeps exact
        # int64.
        mask = pc.equal(g["__side"], "l")
        lrows = g.filter(mask).select(left_cols).to_pandas()
        rrows = g.filter(pc.invert(mask)).select(right_cols).to_pandas()
        if how == "left":
            # UNIFORM output dtypes across buckets: a per-bucket
            # int-when-no-nulls / float-when-missed decision emitted
            # blocks with MIXED schemas for the same column (Arrow
            # unification then re-rounds big ints or fails). Left-side
            # columns and the key can never be null under a left join
            # — they keep exact int64; right-side value columns are
            # ALWAYS float64 (they must stay < 2^53; carry big ints on
            # the left or use an inner join — the join KEY is exact
            # either way).
            for c in int_cols:
                if (c != on and c in rrows.columns
                        and c not in lrows.columns
                        and rrows[c].dtype.kind == "i"):
                    rrows[c] = rrows[c].astype("float64")
        out = lrows.merge(rrows, on=on, how=how)
        if how == "inner":
            # an inner merge introduces no nulls; any float here came
            # in as float
            return out
        for c in int_cols:
            if (c in out.columns and out[c].dtype.kind == "f"
                    and c in lrows.columns):
                # left-side column upcast can only happen under
                # how='right'/'outer' (none in use) — restore when
                # clean
                if not out[c].isna().any():
                    out[c] = out[c].astype("int64")
        return out

    return key_shuffle(sides, join_bucket, [on], batch_format="pyarrow")


def asof_join(left: rd.Dataset, right: rd.Dataset, by: str, on: str,
              left_fields: dict | None = None,
              right_fields: dict | None = None) -> rd.Dataset:
    """As-of join: each left row matched to the LAST right row of the
    same ``by`` key with ``right.on <= left.on`` (backward, inclusive);
    inner semantics — unmatched left rows are dropped.

    Ray Data has no asof join; this is the partition + ordered-merge
    composition the brief calls for: both sides are tagged, padded to a
    common schema and bucketed on ``hash(by)`` so ONE shuffle co-locates
    each key's rows from both sides, then the per-bucket merge is
    pandas ``merge_asof`` (vectorized C, handles many keys per bucket).
    Skew note: a hot ``by`` key concentrates in one bucket; asof
    semantics require a key's rows to meet in one group.

    Right payload columns must not collide with left's (rename before
    the call); ``by``/``on`` are shared. Right payload must be non-null
    (the match-found indicator after the outer merge_asof).

    ``left_fields``/``right_fields`` ({name: pyarrow.DataType}, ordered)
    skip the two ``Dataset.schema()`` probes — each probe executes one
    block of a lazy lineage, a fixed ~1 s tax per side on a cold run.
    """
    if left_fields is not None and right_fields is not None:
        left_cols = list(left_fields)
        right_cols = list(right_fields)
        all_fields = dict(left_fields)
        for name, typ in right_fields.items():
            all_fields.setdefault(name, typ)
    else:
        # _resolve_fields (not raw schema()): pandas-block lineages
        # report numpy dtypes, breaking pa.types.is_integer / pa.nulls
        lf, rf = _resolve_fields(left), _resolve_fields(right)
        left_cols = list(lf)
        right_cols = list(rf)
        all_fields = dict(lf)
        for name, typ in rf.items():
            all_fields.setdefault(name, typ)
    payload = [c for c in right_cols if c not in (by, on)]
    if not payload:
        raise ValueError("asof_join: right side needs a payload column")
    clash = set(payload) & set(left_cols)
    if clash:
        raise ValueError(f"asof_join: rename right columns {clash}")

    def tag(side: str):
        def _tag(batch: pa.Table) -> pa.Table:
            cols = {name: (batch[name] if name in batch.column_names
                           else pa.nulls(len(batch), typ))
                    for name, typ in all_fields.items()}
            cols["__side"] = pa.array([side] * len(batch))
            return pa.table(cols)
        return _tag

    sides = [left.map_batches(tag("l"), batch_format="pyarrow"),
             right.map_batches(tag("r"), batch_format="pyarrow")]
    out_cols = left_cols + payload
    int_cols = [c for c in out_cols
                if pa.types.is_integer(all_fields[c])]

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series(
            [], dtype=all_fields[c].to_pandas_dtype())
            for c in out_cols})

    def merge_bucket(g: pa.Table) -> pd.DataFrame:
        # Arrow-side split BEFORE pandas conversion — a whole-group
        # conversion sees the other side's null padding and upcasts
        # every int column to float64 for both sides' rows, rounding
        # ints past 2^53 (same hazard fixed in bucketed_join; today's
        # µs epochs are ~1.8e15 < 2^53, so this is hygiene, not a
        # current-data bug).
        mask = pc.equal(g["__side"], "l")
        lrows = g.filter(mask).select(left_cols) \
                 .to_pandas().sort_values(on, kind="stable")
        # deterministic tie handling: merge_asof picks the LAST right
        # row among equal `on` values, so sort equal-timestamp rows by
        # the full column tuple (stable) — reruns and block orders
        # agree; which duplicate an ASOF oracle picks remains engine-
        # defined, so callers needing oracle parity must have unique
        # (by, on) pairs on the right (asserted true for the events
        # data at every sf)
        rrows = g.filter(pc.invert(mask)).select(right_cols) \
                 .to_pandas().sort_values(right_cols, kind="stable") \
                 .sort_values(on, kind="stable")
        if not len(lrows) or not len(rrows):
            return _empty()
        out = pd.merge_asof(lrows, rrows, on=on, by=by,
                            direction="backward",
                            allow_exact_matches=True)
        out = out.dropna(subset=[payload[0]])   # inner semantics
        for c in int_cols:   # unmatched-row NaN upcast restore
            if out[c].dtype.kind == "f" and not out[c].isna().any():
                out[c] = out[c].astype("int64")
        return out[out_cols]

    return key_shuffle(sides, merge_bucket, [by], batch_format="pyarrow")


def range_count_join(left: rd.Dataset, right: rd.Dataset, by: str,
                     on: str, window: int, out_col: str = "n_in_window",
                     left_fields: dict | None = None) -> rd.Dataset:
    """Range join as a windowed count: for every left row, the number of
    right rows of the same ``by`` key with ``on`` in
    ``(left.on, left.on + window]`` (strict lower, inclusive upper).
    All left rows survive (count 0 when nothing matches) — LEFT range
    join + GROUP BY in one pass.

    Same single-shuffle partitioning as ``asof_join``; the per-bucket
    count is two vectorized rank lookups instead of an O(rows²)
    inequality join: right rows get a per-key running rank, then
    rank(last right ≤ l.on + window) − rank(last right ≤ l.on), each via
    ``pd.merge_asof``. ``on`` must be an integer column (e.g. epoch
    microseconds) so window arithmetic is exact. ``left_fields``
    ({name: pyarrow.DataType}, ordered) skips the ``schema()`` probe
    (a ~1 s lazy-lineage execution on a cold run).
    """
    if left_fields is None:
        # _resolve_fields, not raw schema(): pandas-block lineages
        # report numpy dtypes that break pa.types/pa.nulls downstream
        left_fields = _resolve_fields(left)
    left_cols = list(left_fields)

    def tag(side: str, keep: list[str]):
        def _tag(batch: pa.Table) -> pa.Table:
            cols = {c: batch[c] for c in keep}
            cols["__side"] = pa.array([side] * len(batch))
            return pa.table(cols)
        return _tag

    # pad: left carries its payload, right only (by, on) — union needs a
    # common schema, so right's missing columns ride as nulls
    def tag_right(batch: pa.Table) -> pa.Table:
        cols = {}
        for c, t in left_fields.items():
            cols[c] = (batch[c] if c in (by, on)
                       else pa.nulls(len(batch), t))
        cols["__side"] = pa.array(["r"] * len(batch))
        return pa.table(cols)

    sides = [left.map_batches(tag("l", left_cols), batch_format="pyarrow"),
             right.select_columns([by, on]).map_batches(
                 tag_right, batch_format="pyarrow")]

    def count_bucket(g: pa.Table) -> pd.DataFrame:
        # Arrow-side split before pandas conversion (the bucketed_join
        # 2^53 hazard): each side's own columns are null-free
        mask = pc.equal(g["__side"], "l")
        lrows = g.filter(mask).select(left_cols) \
                 .to_pandas().sort_values(on)
        if not len(lrows):
            out = pd.DataFrame({c: pd.Series([], dtype=d)
                                for c, d in lrows.dtypes.items()})
            out[out_col] = pd.Series([], dtype="int64")
            return out
        rrows = (g.filter(pc.invert(mask)).select([by, on]).to_pandas()
                 .astype({by: "int64", on: "int64"})
                 .sort_values([by, on]))
        if not len(rrows):
            lrows[out_col] = np.int64(0)
            return lrows
        rrows["__rank"] = rrows.groupby(by).cumcount() + 1
        # merge_asof needs the right frame sorted by ``on`` ALONE
        # (per-key ranks stay attached to their rows)
        ranks = rrows[[by, on, "__rank"]].sort_values(on, kind="stable")

        by_np = lrows[by].to_numpy()

        def rank_at(ts_np: np.ndarray) -> np.ndarray:
            order = np.argsort(ts_np, kind="stable")
            probe = pd.DataFrame({by: by_np[order], on: ts_np[order]})
            m = pd.merge_asof(probe, ranks, on=on, by=by,
                              direction="backward",
                              allow_exact_matches=True)
            r = m["__rank"].fillna(0).to_numpy().astype(np.int64)
            out = np.empty(len(r), dtype=np.int64)
            out[order] = r          # back to lrows row order
            return out

        hi = rank_at(lrows[on].to_numpy() + window)
        lo = rank_at(lrows[on].to_numpy())
        lrows[out_col] = (hi - lo).astype(np.int64)
        return lrows

    return key_shuffle(sides, count_bucket, [by], batch_format="pyarrow")


# --------------------------------------------------------------------------
# Keyed merge with precedence (A5: FaselSeriesScraper.py:217 old-wins vs
# FaselMoviesScraper.py:100-101 / WeCimaScraper.py:71-72 new-wins)
# --------------------------------------------------------------------------

def merge_with_precedence(new: rd.Dataset, old: rd.Dataset, key: str,
                          old_wins: bool) -> rd.Dataset:
    """Union of two keyed datasets where one side wins on key collision.

    Implemented without materializing the big side: the winner streams
    through untouched; the loser is anti-joined against the winner's key
    set. The reference does this with dict ``update``/``|`` where
    argument order decides precedence; each catalog file has a fixed
    precedence (SURVEY.md §2.7 A5).

    Size contract: only the winner's KEY COLUMN is pulled to the driver
    (catalog keys are dimension-scale). For a merge where even the key
    column is too big, use the bucketed shape directly — catalog
    assembly does (pipelines/assemble.py applies this precedence inside
    its bucket pass without any driver key set).
    """
    winner, loser = (old, new) if old_wins else (new, old)
    winner_keys = winner.select_columns([key]).to_pandas()[key].to_numpy()
    return winner.union(anti_join(loser, winner_keys, key))


# --------------------------------------------------------------------------
# The one grouped aggregate: Arrow partials per batch, one key shuffle,
# one Arrow combine per bucket (the scale-safe shape of A1/A2/A7, and
# LMFAO's batch of aggregates over one scan)
# --------------------------------------------------------------------------

# Rows per partial: Ray bundles smaller blocks up to it, so a shuffle
# output split into many small blocks still gets one partial task, as
# the pandas partials it replaced did (their batch_size). Without it a
# 2-block join output fed two partial tasks and woke a second, cold
# worker at Ray num_cpus=2 (query_mix's nested_rollup 1.6 -> 2.0 s on
# one pinned core, tools/query_rss_probe.py).
_PARTIAL_ROWS = 65536


def _group_agg(t: pa.Table, keys: list[str], aggs: dict) -> pa.Table:
    """One Arrow ``group_by`` of ``t``: columns ``keys + list(aggs)``.
    An integer or bool sum comes out int64 (Arrow sums bool and
    unsigned to uint64)."""
    specs = [(([], "count_all") if fn == "count" and col is None
              else (col, fn)) for fn, col in aggs.values()]
    r = t.group_by(keys, use_threads=False).aggregate(specs)
    r = r.rename_columns(list(keys) + list(aggs))
    for i, (alias, (fn, _)) in enumerate(aggs.items(), start=len(keys)):
        typ = r.schema.field(i).type
        if fn == "sum" and (pa.types.is_integer(typ)
                            or pa.types.is_boolean(typ)):
            r = r.set_column(i, alias, r.column(i).cast(pa.int64()))
    return r


def aggregate(ds: rd.Dataset, keys: list[str],
              aggs: dict[str, tuple[str, str | None]]) -> rd.Dataset:
    """``SELECT keys, fn(col) AS alias, ... GROUP BY keys`` as a
    two-stage hash aggregate. ``aggs`` maps each output alias to
    ``(fn, col)`` with fn ∈ sum|count|min|max; ``("count", None)``
    counts rows, ``("count", col)`` counts col's non-null values; an
    empty ``aggs`` gives the distinct keys.

    Each batch of up to ``_PARTIAL_ROWS`` rows gets one Arrow
    ``group_by`` partial (one row per key per batch), ``key_shuffle``
    co-locates a key's partials, and one Arrow ``group_by`` per bucket
    combines them (counts by sum, every other fn by itself), so the
    shuffle moves partials, never rows, and every aggregate shares one
    scan. Ray's sort-based ``groupby().aggregate``
    is not used: at O(rows) key cardinality downstream of a map it
    measured 221 s for a 147k-key SUM at sf0.1 that this shape does in
    ~2 s.

    SQL semantics throughout: a null key is its own group; a sum over
    only nulls is null; integer and bool sums and counts are int64; a
    float sum is Arrow's uncompensated sum, so a sum that must be
    exact is summed over integers (``cents`` in the query read)."""
    combine = {a: ("sum" if fn == "count" else fn, a)
               for a, (fn, _) in aggs.items()}
    partials = ds.map_batches(lambda t: _group_agg(t, keys, aggs),
                              batch_format="pyarrow",
                              batch_size=_PARTIAL_ROWS)
    return key_shuffle(partials, lambda g: _group_agg(g, keys, combine),
                       keys, batch_format="pyarrow")


def topk_per_group(ds: rd.Dataset, keys: list[str], order_col: str, k: int,
                   ascending: bool = False,
                   tie_cols: list[str] | None = None) -> rd.Dataset:
    """Per-key top-k rows (keep the k best docs per domain, the k
    largest orders per customer, ...). Scale shape: a batch's per-key
    top-k is a SUPERSET filter for the global per-key top-k, so the
    per-batch partial prunes the shuffle to ≤ k rows per key per batch;
    the bucket shuffle then moves partials, not the table, and the
    per-bucket final repeats the same selection. Ties broken by
    ``tie_cols`` (always sorted ascending) so results are deterministic
    and oracle-comparable (ROW_NUMBER semantics)."""
    tie = tie_cols or []

    def select(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([order_col] + tie, kind="stable",
                            ascending=[ascending] + [True] * len(tie))
        return df.groupby(keys, sort=False).head(k)

    def partial(batch: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(select(batch), preserve_index=False)

    def final(g: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(select(g), preserve_index=False)

    return key_shuffle(ds.map_batches(partial, batch_format="pandas"),
                       final, keys, batch_format="pandas")


def running_total(ds: rd.Dataset, keys: list[str], order_col: str,
                  val_col: str, alias: str,
                  tie_cols: list[str] | None = None) -> rd.Dataset:
    """Windowed cumulative aggregate:
    ``SUM(val) OVER (PARTITION BY keys ORDER BY order_col, tie_cols)``.

    ONE bucket shuffle on ``hash(keys)`` co-locates each key's whole
    history, then the per-bucket pass is a vectorized sort + pandas
    ``groupby().cumsum()``. Cumulative semantics need a key's rows in
    one group, so keys cannot be salted — a hot key bounds the group
    (same contract as ``asof_join``). Use an INTEGER ``val_col`` when
    the result must be bit-exact across engines: float cumulative sums
    depend on the engine's summation tree."""
    tie = tie_cols or []

    def cumulate(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [order_col] + tie, kind="stable")
        g[alias] = g.groupby(keys, sort=False)[val_col].cumsum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, cumulate, keys, batch_format="pandas")


def rolling_sum(ds: rd.Dataset, keys: list[str], order_col: str,
                val_col: str, alias: str, preceding: int,
                tie_cols: list[str] | None = None) -> rd.Dataset:
    """Window-frame aggregate: ``SUM(val) OVER (PARTITION BY keys ORDER
    BY order_col, tie_cols ROWS BETWEEN preceding PRECEDING AND CURRENT
    ROW)``. Same single key-bucket shuffle as ``running_total``; the
    per-bucket pass computes the sliding sum as cumsum minus the
    (preceding+1)-shifted cumsum — all int64, no rolling-float mean, so
    an integer ``val_col`` is bit-exact against a SQL oracle that also
    SUMs (never AVG, whose internal accumulation order differs)."""
    tie = tie_cols or []
    win = preceding + 1

    def slide(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [order_col] + tie, kind="stable")
        grp = g.groupby(keys, sort=False)
        cs = grp[val_col].cumsum()
        lag = cs.groupby([g[k] for k in keys], sort=False).shift(win)
        g[alias] = cs - lag.fillna(0).astype(cs.dtype)
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, slide, keys, batch_format="pandas")


def rolling_time_sum(ds: rd.Dataset, keys: list[str], order_col: str,
                     val_col: str, window: int, alias: str) -> rd.Dataset:
    """Time-based sliding-window aggregate — SQL RANGE BETWEEN
    ``window`` PRECEDING AND CURRENT ROW (the trailing-1-hour-spend
    shape): for each row, the sum of ``val_col`` over the group's rows
    whose ``order_col`` lies in ``[t - window, t]``, INCLUDING later
    peers at exactly ``t`` (RANGE-mode current-row semantics, so the
    result is tie-order-independent).

    Same topology as ``rolling_sum`` (one key-bucket shuffle, each
    group's rows meet in one bucket); the per-bucket pass is a cumsum
    plus two vectorized ``searchsorted`` bounds per group. Use integer
    values (cents) for bit-exact sums."""

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [order_col], kind="stable")
        t = g[order_col].to_numpy()
        v = g[val_col].to_numpy()
        out = np.empty(len(g), dtype=v.dtype)  # never truncate floats
        starts = np.flatnonzero(
            ~(g[keys].eq(g[keys].shift()).all(axis=1)).to_numpy())
        bounds = np.append(starts, len(g))
        for s, e in zip(bounds[:-1], bounds[1:]):     # one slice per group
            ts = t[s:e]
            cs = np.cumsum(v[s:e])
            lo = np.searchsorted(ts, ts - window, side="left")
            hi = np.searchsorted(ts, ts, side="right") - 1
            out[s:e] = cs[hi] - np.where(lo > 0, cs[lo - 1], 0)
        g[alias] = out
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, per_bucket, keys, batch_format="pandas")


def windowed_lag(ds: rd.Dataset, keys: list[str], order_col: str,
                 val_col: str, alias: str,
                 tie_cols: list[str] | None = None,
                 default=None, periods: int = 1) -> rd.Dataset:
    """``LAG(val, periods) OVER (PARTITION BY keys ORDER BY order_col,
    tie_cols)``. Same single key-bucket shuffle + vectorized per-bucket
    pass as ``running_total``: each key's full history meets in one
    group, then pandas ``groupby().shift(periods)``. ``default`` fills
    the window's leading NULLs — pass an in-domain sentinel (e.g. -1)
    to keep integer columns integer; ``None`` leaves NaN/float
    (matching a SQL LAG without COALESCE)."""
    tie = tie_cols or []

    def lag(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [order_col] + tie, kind="stable")
        shifted = g.groupby(keys, sort=False)[val_col].shift(periods)
        if default is not None:
            shifted = shifted.fillna(default).astype(g[val_col].dtype)
        g[alias] = shifted
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, lag, keys, batch_format="pandas")


def rollup_counts(ds: rd.Dataset, coarse: str, fine: str,
                  alias: str) -> rd.Dataset:
    """``COUNT(*) GROUP BY ROLLUP (coarse, fine)``: counts at
    (coarse, fine), (coarse, NULL) and the (NULL, NULL) grand total.

    One bucket shuffle on ``hash(coarse)`` ONLY, so every bucket holds
    complete ``coarse`` groups and can emit both the fine-level and the
    coarse-subtotal rows in a single pass; the shuffle input is
    per-batch partials (one row per (coarse, fine) per batch). The
    grand total is ``ds.count()`` — for parquet input a metadata-only
    read, never a second scan of row data."""

    def partial(batch: pd.DataFrame) -> pa.Table:
        g = (batch.groupby([coarse, fine], as_index=False, sort=False)
             .size().rename(columns={"size": alias}))
        return pa.Table.from_pandas(g, preserve_index=False)

    def levels(g: pd.DataFrame) -> pa.Table:
        fine_lvl = (g.groupby([coarse, fine], as_index=False, sort=False)
                    [alias].sum())
        sub = fine_lvl.groupby(coarse, as_index=False, sort=False)[alias].sum()
        sub[fine] = None
        out = pd.concat([fine_lvl, sub[[coarse, fine, alias]]],
                        ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    total = ds.count()
    # totals typed from the INPUT columns (a hardcoded string type
    # broke union schema unification for non-string grouping columns)
    ftypes = _resolve_fields(ds)
    grand = one_block(pa.table({
        coarse: pa.array([None], type=ftypes.get(coarse, pa.string())),
        fine: pa.array([None], type=ftypes.get(fine, pa.string())),
        alias: pa.array([total], type=pa.int64())}))
    leveled = key_shuffle(ds.map_batches(partial, batch_format="pandas"),
                          levels, [coarse], batch_format="pandas")
    return leveled.union(grand)


def windowed_rank(ds: rd.Dataset, keys: list[str], order_col: str,
                  alias: str, method: str = "dense",
                  ascending: bool = True,
                  tie_cols: list[str] | None = None) -> rd.Dataset:
    """``DENSE_RANK() / RANK() / ROW_NUMBER() OVER (PARTITION BY keys
    ORDER BY order_col [, tie_cols])`` — the same single key-bucket
    shuffle as ``running_total``, then pandas ``groupby().rank`` /
    ``cumcount`` per bucket. ``method``: 'dense' | 'min' (SQL RANK) |
    'row_number' (needs ``tie_cols`` for determinism when order_col
    has duplicates). Ranks are int64 on both engines."""
    tie = tie_cols or []

    def rank(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [order_col] + tie,
                          ascending=[True] * len(keys)
                          + [ascending] + [True] * len(tie),
                          kind="stable")
        grp = g.groupby(keys, sort=False)
        if method == "row_number":
            g[alias] = grp.cumcount().to_numpy() + 1
        else:
            g[alias] = (grp[order_col]
                        .rank(method=method, ascending=ascending)
                        .astype(np.int64).to_numpy())
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, rank, keys, batch_format="pandas")


def grouped_ntile(ds: rd.Dataset, keys: list[str], order_col: str,
                  n_tiles: int, alias: str,
                  tie_cols: list[str] | None = None) -> rd.Dataset:
    """``NTILE(n) OVER (PARTITION BY keys ORDER BY order_col,
    tie_cols)`` with the exact SQL sizing rule: with group size n and
    k tiles, the first ``n % k`` tiles get ``n // k + 1`` rows. One
    key-bucket shuffle, vectorized position arithmetic per bucket.
    Pass ``tie_cols`` covering any order_col duplicates — NTILE's
    assignment at a tie boundary is otherwise engine-dependent."""
    tie = tie_cols or []

    def tile(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [order_col] + tie, kind="stable")
        grp = g.groupby(keys, sort=False)
        n = grp[order_col].transform("size").to_numpy(dtype=np.int64)
        p = grp.cumcount().to_numpy(dtype=np.int64)
        size, rem = n // n_tiles, n % n_tiles
        big_span = rem * (size + 1)
        in_big = p < big_span
        t = np.where(in_big, p // np.maximum(size + 1, 1),
                     rem + (p - big_span) // np.maximum(size, 1))
        g[alias] = t.astype(np.int64) + 1
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, tile, keys, batch_format="pandas")


def windowed_lead(ds: rd.Dataset, keys: list[str], order_col: str,
                  val_col: str, alias: str,
                  tie_cols: list[str] | None = None,
                  default=None, periods: int = 1) -> rd.Dataset:
    """``LEAD(val, periods) OVER (PARTITION BY keys ORDER BY order_col,
    tie_cols)`` — the forward twin of ``windowed_lag``: the same single
    key-bucket shuffle, with the per-bucket shift negated. ``default``
    fills the window's TRAILING NULLs (the last ``periods`` rows of
    each partition)."""
    return windowed_lag(ds, keys, order_col, val_col, alias,
                        tie_cols=tie_cols, default=default,
                        periods=-periods)


def windowed_rank_stats(ds: rd.Dataset, keys: list[str], order_col: str,
                        pct_alias: str, cume_alias: str) -> rd.Dataset:
    """``PERCENT_RANK()`` and ``CUME_DIST()`` over the same window in
    ONE pass: one key-bucket shuffle (same topology as
    ``windowed_rank``), then both statistics from a single per-bucket
    sort — percent_rank = (rank_min − 1) / (n − 1) (0 when n == 1, the
    SQL rule) and cume_dist = rank_max / n. Both are ratios of small
    int64s evaluated in IEEE double, where division is correctly
    rounded — bit-identical to a SQL engine evaluating the same
    definition, so these floats survive an exact value-hash check.
    Ties share rank by value of ``order_col`` alone (SQL peer rows):
    no tie_cols by design."""

    def stats(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [order_col], kind="stable")
        grp = g.groupby(keys, sort=False)
        n = grp[order_col].transform("size").to_numpy(dtype=np.float64)
        rmin = grp[order_col].rank(method="min").to_numpy(dtype=np.float64)
        rmax = grp[order_col].rank(method="max").to_numpy(dtype=np.float64)
        g[pct_alias] = np.where(n > 1.0, (rmin - 1.0) / np.maximum(n - 1.0, 1.0), 0.0)
        g[cume_alias] = rmax / n
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, stats, keys, batch_format="pandas")


def grouped_first_last(ds: rd.Dataset, keys: list[str], order_col: str,
                       val_col: str, first_alias: str, last_alias: str,
                       tie_cols: list[str] | None = None,
                       batch_size: int = 65536) -> rd.Dataset:
    """FIRST_VALUE / LAST_VALUE of ``val_col`` over each key's WHOLE
    partition ordered by ``(order_col, tie_cols)``, as a fully
    DECOMPOSABLE aggregate: each batch contributes one partial row per
    key (its local first and last, with their order keys), the bucket
    shuffle moves only those partials, and the final per-bucket pass
    re-runs the same argmin/argmax combine over partials. Unlike the
    windowed form (which must co-locate every row of a key), the
    shuffle volume here is keys × batches, independent of rows per
    key — the scale shape for hot keys. ``tie_cols`` must make the
    order total or first/last is engine-dependent."""
    tie = tie_cols or []
    order_cols = [order_col] + tie
    fcols = [f"__f{i}" for i in range(len(order_cols))]
    lcols = [f"__l{i}" for i in range(len(order_cols))]

    def partial(batch: pd.DataFrame) -> pa.Table:
        b = batch.sort_values(keys + order_cols, kind="stable")
        grp = b.groupby(keys, sort=False)
        f = grp.head(1).reset_index(drop=True)
        l = grp.tail(1).reset_index(drop=True)
        out = f[keys].copy()
        for fc, lc, c in zip(fcols, lcols, order_cols):
            out[fc] = f[c].to_numpy()
            out[lc] = l[c].to_numpy()
        out["__fv"] = f[val_col].to_numpy()
        out["__lv"] = l[val_col].to_numpy()
        return pa.Table.from_pandas(out, preserve_index=False)

    def final(g: pd.DataFrame) -> pa.Table:
        f = (g.sort_values(keys + fcols, kind="stable")
             .groupby(keys, sort=False, as_index=False).head(1))
        l = (g.sort_values(keys + lcols, kind="stable")
             .groupby(keys, sort=False, as_index=False).tail(1))
        out = f[keys].copy()
        out[first_alias] = f["__fv"].to_numpy()
        out = out.merge(
            l[keys + ["__lv"]].rename(columns={"__lv": last_alias}),
            on=keys)
        return pa.Table.from_pandas(out, preserve_index=False)

    return key_shuffle(ds.map_batches(partial, batch_format="pandas",
                                      batch_size=batch_size),
                       final, keys, batch_format="pandas")


# --------------------------------------------------------------------------
# Exact integer sums: the one overflow discipline of the statistics
# family. A term is a product of int64 columns; its per-group Σ is exact
# at any magnitude (DuckDB's BIGINT SUM widens to HUGEINT the same way).
# --------------------------------------------------------------------------

_LIMB = 31
_LIMB_MASK = (1 << _LIMB) - 1
_WRAP_BOUND = 2.0 ** 62   # a row product whose float bound is below fits


def _sum_partial(keys: list[str], terms: dict[str, tuple]):
    """The map side of the exact sums: per block and group of ``keys``,
    Σ of each term's product of int64 columns (``()`` counts rows).

    A row product whose float bound stays below 2⁶² is formed in int64
    and split into a 31-bit low limb and a signed high limb, and each
    limb sums in int64 (exact for any block under 2³¹ rows). Rows whose
    bound says the product may wrap are multiplied in Python ints; their
    per-group sum is written as base-2³¹ digits. An output row is
    (keys, ``__shift``, one int64 cell per term) and stands for
    cell·2^(31·__shift), so the schema is fixed per term and every cell
    is Arrow int64."""
    names = list(terms)
    by = keys or ["__all"]

    def partial(b: pd.DataFrame) -> pa.Table:
        cols = {c: b[c].to_numpy(np.int64)
                for fs in terms.values() for c in fs}
        t = pd.DataFrame({k: b[k].to_numpy() for k in keys} if keys
                         else {"__all": np.zeros(len(b), np.int64)})
        wide = {}
        for name, fs in terms.items():
            p = np.ones(len(b), dtype=np.int64)
            bound = np.ones(len(b))
            for c in fs:
                p = p * cols[c]
                bound = bound * np.abs(cols[c].astype(np.float64))
            w = bound >= _WRAP_BOUND
            if w.any():
                prod = np.ones(int(w.sum()), dtype=object)
                for c in fs:
                    prod = prod * cols[c][w].astype(object)
                wide[name] = (w, prod)
                p[w] = 0
            t[name], t[name + "__hi"] = p & _LIMB_MASK, p >> _LIMB
        g = t.groupby(by, as_index=False, sort=False).sum()
        parts = [g[by + names].assign(__shift=0),
                 g[by].assign(__shift=1,
                              **{m: g[m + "__hi"] for m in names})]
        for name, (w, prod) in wide.items():
            s = (t.loc[w, by].assign(__v=prod)
                 .groupby(by, as_index=False, sort=False)["__v"].sum())
            v, j = s["__v"].to_numpy(dtype=object), 0
            while True:
                top = all(-_LIMB_MASK <= x <= _LIMB_MASK for x in v)
                d = (v if top else v & _LIMB_MASK).astype(np.int64)
                parts.append(s[by].assign(
                    __shift=j, **{m: d if m == name else 0
                                  for m in names}))
                if top:
                    break
                v, j = v >> _LIMB, j + 1
        out = pd.concat(parts, ignore_index=True)
        return pa.Table.from_pandas(out[keys + ["__shift"] + names],
                                    preserve_index=False)

    return partial


def _sum_combine(p: pd.DataFrame, keys: list[str],
                 names: list[str]) -> pd.DataFrame:
    """Reassemble ``_sum_partial`` rows into exact Python-int sums: one
    row per group of ``keys`` (sorted), or one row when ``keys`` is
    empty. Term columns are object dtype."""
    if len(p) == 0:      # an empty Dataset's to_pandas() has no columns
        p = pd.DataFrame({c: np.zeros(0, np.int64)
                          for c in keys + ["__shift"] + names})
    shift = p["__shift"].to_numpy(np.int64)
    scale = np.array([1 << (_LIMB * j)
                      for j in range(int(shift.max(initial=0)) + 1)],
                     dtype=object)[shift]
    v = pd.DataFrame({m: p[m].to_numpy().astype(object) * scale
                      for m in names})
    if not keys:
        return pd.DataFrame({m: [int(v[m].sum())] for m in names},
                            dtype=object)
    for k in keys:
        v[k] = p[k].to_numpy()
    return v.groupby(keys, as_index=False)[names].sum()


def exact_sums(ds: rd.Dataset, keys: list[str],
               terms: dict[str, tuple]) -> pd.DataFrame:
    """Exact per-group sums of products of int64 columns, on the driver:
    ``terms`` maps a name to its factor columns, e.g. ``{"n": (),
    "sx": ("x",), "sxy": ("x", "y")}``. One partial per block (see
    ``_sum_partial``), combined in Python-int space; returns the key
    columns (sorted) plus one Python-int column per term — one row
    when ``keys`` is empty. For global or few-key sums; many keys go
    through ``grouped_exact_sums``."""
    p = ds.map_batches(_sum_partial(keys, terms),
                       batch_format="pandas").to_pandas()
    return _sum_combine(p, keys, list(terms))


def grouped_exact_sums(ds: rd.Dataset, keys: list[str],
                       terms: dict[str, tuple], finish) -> rd.Dataset:
    """``exact_sums`` through the key shuffle: the same partial per
    block, the same combine per bucket, then ``finish`` maps the
    bucket's exact sums (keys plus one Python-int column per term) to
    its output rows."""
    names = list(terms)
    return key_shuffle(
        ds.map_batches(_sum_partial(keys, terms), batch_format="pandas"),
        lambda g: finish(_sum_combine(g, keys, names)), keys,
        batch_format="pandas")


def grouped_corr(ds: rd.Dataset, keys: list[str], xcol: str, ycol: str,
                 alias: str) -> rd.Dataset:
    """Per-group Pearson correlation of two INTEGER columns, exact to
    the bit against a SQL oracle that evaluates the same closed form.

    Decomposes into the six moment sums (n, Σx, Σy, Σxy, Σx², Σy²),
    exact at any magnitude (``grouped_exact_sums``). Only the final
    float64 formula leaves integer space; an oracle that casts its
    exact sums to DOUBLE and applies the identical expression gets
    identical bits (IEEE ops are deterministic given the operands).
    Caller must pass integer x/y (e.g. prices as whole cents)."""
    moment_cols = ["__n", "__sx", "__sy", "__sxy", "__sxx", "__syy"]
    terms = dict(zip(moment_cols, [(), (xcol,), (ycol,), (xcol, ycol),
                                   (xcol, xcol), (ycol, ycol)]))

    def final(r: pd.DataFrame) -> pd.DataFrame:
        nf, sx, sy, sxy, sxx, syy = (
            r[c].astype(np.float64).to_numpy() for c in moment_cols)
        num = nf * sxy - sx * sy
        den = np.sqrt((nf * sxx - sx * sx) * (nf * syy - sy * sy))
        out = r[keys].copy()
        out[alias] = num / den
        return out

    return grouped_exact_sums(ds, keys, terms, final)


def grouped_moments(ds: rd.Dataset, keys: list[str], xcol: str,
                    skew_alias: str, kurt_alias: str) -> rd.Dataset:
    """Per-group skewness and excess kurtosis of an INTEGER column from
    exact raw-moment sums (n, Σx, Σx², Σx³, Σx⁴) — the same
    decomposable-moments shape as ``grouped_corr``, exact at any
    magnitude (``grouped_exact_sums``), then ONE float64 closed-form
    evaluation whose expression order is mirrored verbatim in the SQL
    oracle (IEEE ops are deterministic given the operands, so the bits
    match).

    skew = √n · M3 / M2^1.5 ; kurt = n · M4 / M2² − 3  (population
    central moments M_k from the raw sums)."""
    moment_cols = ["__n", "__s1", "__s2", "__s3", "__s4"]
    terms = {m: (xcol,) * i for i, m in enumerate(moment_cols)}

    def final(r: pd.DataFrame) -> pd.DataFrame:
        nf, s1, s2, s3, s4 = (
            r[c].astype(np.float64).to_numpy() for c in moment_cols)
        # expression order mirrored in the oracle SQL — keep in sync
        m2 = s2 - s1 * s1 / nf
        m3 = s3 - 3.0 * s2 * s1 / nf + 2.0 * s1 * s1 * s1 / (nf * nf)
        m4 = (s4 - 4.0 * s3 * s1 / nf + 6.0 * s2 * s1 * s1 / (nf * nf)
              - 3.0 * s1 * s1 * s1 * s1 / (nf * nf * nf))
        out = r[keys].copy()
        out[skew_alias] = np.sqrt(nf) * m3 / np.power(m2, 1.5)
        out[kurt_alias] = nf * m4 / (m2 * m2) - 3.0
        return out

    return grouped_exact_sums(ds, keys, terms, final)


def cube_counts(ds: rd.Dataset, coarse: str, fine: str,
                alias: str) -> rd.Dataset:
    """``COUNT(*) GROUP BY CUBE (coarse, fine)`` = the ROLLUP levels
    plus the (NULL, fine) marginal. The marginal reuses the same
    partial-counts shape bucketed on ``fine``; the rollup side comes
    from ``rollup_counts`` (its lineage re-reads the input — two scans
    total, the price of two independent grouping orientations)."""

    def partial(batch: pd.DataFrame) -> pa.Table:
        g = (batch.groupby(fine, as_index=False, sort=False)
             .size().rename(columns={"size": alias}))
        return pa.Table.from_pandas(g, preserve_index=False)

    ctype = _resolve_fields(ds).get(coarse, pa.string())

    def marginal(g: pd.DataFrame) -> pa.Table:
        r = g.groupby(fine, as_index=False, sort=False)[alias].sum()
        # explicit INPUT-typed NULLs: from_pandas infers Arrow `null`
        # for an all-None column, which breaks schema unification
        # against the rollup blocks in the union; a hardcoded string
        # type broke it for non-string coarse columns
        return pa.table({
            coarse: pa.array([None] * len(r), type=ctype),
            fine: pa.array(r[fine]),
            alias: pa.array(r[alias], type=pa.int64()),
        })

    fine_marginal = key_shuffle(
        ds.map_batches(partial, batch_format="pandas"), marginal, [fine],
        batch_format="pandas")
    return rollup_counts(ds, coarse, fine, alias).union(fine_marginal)


def grouped_quantile_disc(ds: rd.Dataset, keys: list[str], col: str,
                          q: float, alias: str) -> rd.Dataset:
    """Discrete per-group quantile: the element at 1-indexed position
    ``ceil(q*n)`` of each key's sorted values — DuckDB's
    ``quantile_disc`` rule, implemented directly so results are
    bit-identical (an ACTUAL element is returned, never an
    interpolation; pandas' 'lower' interpolation picks a DIFFERENT
    element for e.g. q=0.9, n=3). Quantiles don't decompose into
    per-batch partials, so each key's values meet in one bucket group
    (same no-salting contract as ``running_total``); the per-bucket
    pass is one sort + vectorized cumcount select."""

    def pick(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [col], kind="stable")
        grp = g.groupby(keys, sort=False)
        sizes = grp[col].transform("size").to_numpy()
        pos = grp.cumcount().to_numpy()
        # rank ceil(q*n) clamped to >= 1 so q=0 returns the MIN
        # (DuckDB quantile_disc(col, 0) semantics), never no-row
        target = np.maximum(np.ceil(q * sizes), 1).astype(np.int64) - 1
        out = g[pos == target].rename(columns={col: alias})
        return pa.Table.from_pandas(out, preserve_index=False)

    return key_shuffle(ds.select_columns(keys + [col]), pick, keys,
                       batch_format="pandas")


def grouped_quantile_cont(ds: rd.Dataset, keys: list[str], col: str,
                          q: float, alias: str) -> rd.Dataset:
    """INTERPOLATED per-group quantile — SQL ``quantile_cont``:
    0-indexed position ``q*(n-1)``, result ``lo + (hi-lo)*frac`` —
    bit-identical to DuckDB over integer inputs (same two order
    statistics, same interpolation expression). Same topology as
    ``grouped_quantile_disc``: each key's values meet in one bucket
    group; the per-bucket pass is one sort + two vectorized rank
    selects, so only the group sizes (not the quantile math) bound the
    per-bucket memory."""

    def pick(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + [col], kind="stable")
        grp = g.groupby(keys, sort=False)
        sizes = grp[col].transform("size").to_numpy()
        pos = grp.cumcount().to_numpy()
        v = g[col].to_numpy().astype(np.float64)
        target = q * (sizes - 1)
        lo = np.floor(target)
        frac = target - lo
        is_lo = pos == lo
        lo_rows = g[is_lo].copy()
        v_lo = v[is_lo]
        # the hi bracket is the lo row's immediate successor inside the
        # sorted group (frac > 0 implies lo <= n-2, so the successor is
        # still the same group); frac == 0 reuses lo
        hi_vals = v_lo.copy()
        needs_hi = frac[is_lo] > 0
        if needs_hi.any():
            hi_vals[needs_hi] = v[np.flatnonzero(is_lo)[needs_hi] + 1]
        res = v_lo + (hi_vals - v_lo) * frac[is_lo]
        lo_rows[alias] = res
        lo_rows = lo_rows.drop(columns=[col])
        return pa.Table.from_pandas(lo_rows, preserve_index=False)

    return key_shuffle(ds.select_columns(keys + [col]), pick, keys,
                       batch_format="pandas")


KNUTH_HASH = 2654435761  # floor(2^32 / golden ratio), Knuth 6.4


def grouped_string_agg(ds: rd.Dataset, keys: list[str], col: str,
                       alias: str, sep: str = ",",
                       order_cols: list[str] | None = None) -> rd.Dataset:
    """``string_agg(col, sep ORDER BY order_cols)`` per group. One
    key-bucket shuffle; the per-bucket pass sorts once then joins each
    group's values (the join is the actual output payload, not
    avoidable work). ``order_cols`` must make the concatenation order
    deterministic — pass the value column itself or a unique tie."""
    order = order_cols or [col]

    def agg(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(keys + order, kind="stable")
        g = g[g[col].notna()]   # SQL string_agg skips NULLs
        r = (g.groupby(keys, sort=False)[col]
             .agg(sep.join).reset_index().rename(columns={col: alias}))
        return pa.Table.from_pandas(r, preserve_index=False)

    cols = keys + list(dict.fromkeys(order + [col]))
    return key_shuffle(ds.select_columns(cols), agg, keys,
                       batch_format="pandas")


def _select_order_stats(ds: rd.Dataset, col: str, ranks_fn,
                        n_ranges: int = 256,
                        sample_target: int = 65536) -> tuple[int, dict]:
    """EXACT global order statistics by distributed SELECTION — never a
    full sort. ``ranks_fn(n) -> list of 1-indexed ranks`` is called once
    the global row count is known; returns ``(n, {rank: value})``.

    1. deterministic hash-sample of the column → ``n_ranges`` splitter
       values on the driver (a biased sample only skews range SIZES,
       never correctness);
    2. one streaming pass counting rows per range (vectorized
       ``searchsorted`` partials, one tiny count row per batch) →
       locate the range holding each target rank;
    3. one filtered pass collecting ONLY those ranges' values
       (~n/n_ranges rows per range) → exact elements via
       ``np.partition``.

    Full sort moves every row through an all-to-all; this moves two
    count vectors and the hit ranges — for ANY number of requested
    ranks (all quantiles share the same three passes). The input is
    executed twice (lineage re-runs the read) — selection's classic
    trade."""

    # Splitter sample: hash-filter per batch, then CAP each batch's
    # contribution with an even stride so the driver never holds more
    # than ~cap×blocks values and no block dominates. A prefix
    # truncation here would be block-ORDERED — on input sorted by the
    # column the splitters would all come from the low end and pass 3
    # would collect nearly the whole table.
    per_batch_cap = 256

    def sample_batch(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[col]
        keep = (pd.util.hash_array(v.to_numpy()) & np.uint64(1023)) < 16
        picked = v[keep].to_numpy()
        if len(picked) > per_batch_cap:
            picked = picked[np.linspace(0, len(picked) - 1,
                                        per_batch_cap).astype(np.int64)]
        return pd.DataFrame({col: picked})

    samp = ds.map_batches(sample_batch, batch_format="pandas").to_pandas()
    samp = samp[col].to_numpy() if col in samp else np.array([])
    if len(samp) > sample_target:   # even stride, never a prefix
        samp = samp[np.linspace(0, len(samp) - 1,
                                sample_target).astype(np.int64)]
    if len(samp) == 0:
        samp = np.array([0.0])
    bounds = np.unique(np.quantile(
        samp, np.linspace(0, 1, n_ranges + 1)[1:-1]))

    def count_ranges(batch: pd.DataFrame) -> pd.DataFrame:
        r = np.searchsorted(bounds, batch[col].to_numpy(), side="right")
        c = np.bincount(r, minlength=len(bounds) + 1).astype(np.int64)
        return pd.DataFrame({"range_id": np.arange(len(c), dtype=np.int64),
                             "cnt": c})

    counts = (ds.map_batches(count_ranges, batch_format="pandas")
              .to_pandas().groupby("range_id")["cnt"].sum()
              .reindex(range(len(bounds) + 1), fill_value=0))
    n = int(counts.sum())
    ranks = sorted(set(ranks_fn(n)))
    cum = counts.cumsum()
    # rank -> (range id, rank local to that range)
    plan = {}
    for target in ranks:
        rid = int(cum.searchsorted(target))  # first range with cum >= target
        plan[target] = (rid, target - (int(cum.iloc[rid - 1]) if rid else 0))
    hit_rids = np.array(sorted({rid for rid, _ in plan.values()}),
                        dtype=np.int64)

    def in_ranges(batch: pd.DataFrame) -> pd.DataFrame:
        r = np.searchsorted(bounds, batch[col].to_numpy(), side="right")
        keep = np.isin(r, hit_rids)
        return pd.DataFrame({col: batch[col][keep], "__rid": r[keep]})

    allv = ds.map_batches(in_ranges, batch_format="pandas").to_pandas()
    if col not in allv:
        allv = pd.DataFrame({col: [], "__rid": []})
    out = {}
    for target, (rid, local_rank) in plan.items():
        vals = allv[col][allv["__rid"] == rid].to_numpy()
        if not len(vals) or local_rank < 1:
            # empty input (n==0 resolves every rank to 0) or a fully
            # filtered range — return no stats; callers map {} to
            # their own empty semantics instead of IndexError
            continue
        out[target] = float(np.partition(vals, local_rank - 1)[local_rank - 1])
    return n, out


def global_quantile_disc(ds: rd.Dataset, col: str, q: float,
                         n_ranges: int = 256,
                         sample_target: int = 65536) -> float:
    """EXACT global discrete quantile (the ``quantile_disc`` element at
    1-indexed position ``ceil(q*n)``; q=0 -> MIN) via
    ``_select_order_stats``."""
    _, vals = _select_order_stats(
        ds, col, lambda n: [max(1, int(np.ceil(q * n)))],
        n_ranges=n_ranges, sample_target=sample_target)
    return next(iter(vals.values()))


def global_quantile_cont(ds: rd.Dataset, col: str, qs: list[float],
                         n_ranges: int = 256,
                         sample_target: int = 65536) -> list[float]:
    """EXACT global INTERPOLATED quantiles (SQL ``quantile_cont`` /
    ``percentile_cont``): position ``q*(n-1)`` (0-indexed), linear
    interpolation ``lo + (hi - lo) * frac`` — verified bit-identical to
    DuckDB's rule over integer inputs. ALL requested quantiles share
    ONE selection (one count pass + one collect pass) — the bracketing
    order statistics for every q are fetched together."""

    def ranks_fn(n: int) -> list[int]:
        ranks = []
        for q in qs:
            pos = q * (n - 1)
            lo = int(np.floor(pos))
            ranks.append(lo + 1)           # 1-indexed lower bracket
            if pos - lo > 0:
                ranks.append(min(lo + 2, n))
        return ranks

    n, vals = _select_order_stats(ds, col, ranks_fn,
                                  n_ranges=n_ranges,
                                  sample_target=sample_target)
    out = []
    for q in qs:
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        frac = pos - lo
        v_lo = vals[lo + 1]
        out.append(v_lo if frac == 0
                   else v_lo + (vals[min(lo + 2, n)] - v_lo) * frac)
    return out


def hash_sample(ds: rd.Dataset, column: str, rate: float) -> rd.Dataset:
    """Deterministic uniform sample: keep rows where
    ``(column * 2654435761) & 0xFFFFFFFF < rate * 2^32``.

    Embarrassingly parallel (a pure per-batch filter, no shuffle, no
    RNG state), reproducible across engines (the same integer
    arithmetic runs in SQL), and stable under repartitioning — the
    properties a 100-TB pipeline needs from a sample (re-runs and
    resumed runs pick the SAME rows). ``column`` must be integral and
    < 2^63 / 2654435761 ≈ 3.47e9 — beyond that the int64 multiply
    WRAPS here while a SQL BIGINT oracle errors or widens, silently
    diverging; asserted loudly per batch (compact ids first, the
    graph-op contract)."""
    threshold = int(rate * (1 << 32))
    _ID_MAX = (1 << 63) // KNUTH_HASH

    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows and pc.max(t[column]).as_py() >= _ID_MAX:
            raise ValueError(
                f"hash_sample: {column} >= 2^63/{KNUTH_HASH} would "
                "wrap int64 and diverge from the SQL mirror; "
                "compact ids first")
        h = pc.bit_wise_and(
            pc.multiply(pc.cast(t[column], pa.int64()),
                        pa.scalar(KNUTH_HASH, pa.int64())),
            pa.scalar((1 << 32) - 1, pa.int64()))
        return t.filter(pc.less(h, pa.scalar(threshold, pa.int64())))

    return ds.map_batches(pick, batch_format="pyarrow")


def stratified_hash_sample(ds: rd.Dataset, id_column: str,
                           strata_column: str,
                           rates: dict[str, float]) -> rd.Dataset:
    """Deterministic STRATIFIED sample: each stratum gets its own rate,
    rows picked by the same multiplicative-hash filter as
    ``hash_sample`` (strata absent from ``rates`` are dropped).

    Same scale properties as ``hash_sample`` — a pure per-batch filter,
    no shuffle, no RNG state, reproducible across engines and re-runs —
    with the per-stratum thresholds applied by a vectorized lookup.
    The typical curation use: downsample the over-represented class
    (boilerplate web text) while keeping all of the rare one."""
    thresholds = {k: int(v * (1 << 32)) for k, v in rates.items()}

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_column].to_numpy(dtype=np.int64)
        if len(ids) and int(ids.max()) >= (1 << 63) // KNUTH_HASH:
            raise ValueError(
                f"stratified_hash_sample: {id_column} would wrap "
                "int64 (see hash_sample); compact ids first")
        h = (ids * KNUTH_HASH) & 0xFFFFFFFF
        thr = (batch[strata_column].map(thresholds)
               .fillna(0).to_numpy(dtype=np.int64))
        return batch[h < thr]

    return ds.map_batches(pick, batch_format="pandas")


def _side_keys(ds: rd.Dataset, column: str, side: str) -> rd.Dataset:
    def partial(batch: pd.DataFrame) -> pa.Table:
        u = batch[[column]].drop_duplicates()
        u["__side"] = side
        return pa.Table.from_pandas(u, preserve_index=False)
    return ds.map_batches(partial, batch_format="pandas")


def _set_op(a: rd.Dataset, b: rd.Dataset, column: str,
            keep_both: bool) -> rd.Dataset:
    """Shared body of intersect/except over DISTINCT keys: per-batch
    distinct partials (tiny vs the table), ONE bucket shuffle
    co-locating each key's sightings from both sides, then a vectorized
    per-bucket min/max-side test. Scale shape: the shuffle moves
    distinct keys only, never payload rows."""
    sides = [_side_keys(a, column, "a"), _side_keys(b, column, "b")]

    def final(g: pd.DataFrame) -> pa.Table:
        s = (g.drop_duplicates([column, "__side"])
             .groupby(column)["__side"].agg(["min", "max"]))
        if keep_both:          # intersect: seen from both sides
            keys = s.index[(s["min"] == "a") & (s["max"] == "b")]
        else:                  # except: seen from 'a' only
            keys = s.index[(s["min"] == "a") & (s["max"] == "a")]
        return pa.table({column: pa.array(keys.to_numpy())})

    return key_shuffle(sides, final, [column], batch_format="pandas")


def intersect_keys(a: rd.Dataset, b: rd.Dataset, column: str) -> rd.Dataset:
    """SQL INTERSECT over one key column (distinct keys in BOTH)."""
    return _set_op(a, b, column, keep_both=True)


def except_keys(a: rd.Dataset, b: rd.Dataset, column: str) -> rd.Dataset:
    """SQL EXCEPT over one key column (distinct keys of ``a`` not in
    ``b``)."""
    return _set_op(a, b, column, keep_both=False)


def grouped_count_distinct(ds: rd.Dataset, keys: list[str], col: str,
                           alias: str) -> rd.Dataset:
    """COUNT(DISTINCT col) GROUP BY keys as a two-stage bucketed
    aggregate: per-batch (keys, col) dedup shrinks the shuffle to
    distinct pairs, the bucket shuffle co-locates each key group, and
    the per-bucket final dedups across batches then counts. Same
    rationale as ``aggregate`` — never feed O(rows)-cardinality keys to
    Ray's sort-based Aggregate."""

    def partial(batch: pd.DataFrame) -> pa.Table:
        # SQL semantics: COUNT(DISTINCT col) excludes NULL — pandas
        # drop_duplicates would keep one NaN row and count it
        u = batch[keys + [col]].dropna(subset=[col]).drop_duplicates()
        return pa.Table.from_pandas(u, preserve_index=False)

    def final(g: pd.DataFrame) -> pa.Table:
        r = (g.drop_duplicates(keys + [col])
             .groupby(keys, as_index=False).size()
             .rename(columns={"size": alias}))
        return pa.Table.from_pandas(r, preserve_index=False)

    return key_shuffle(ds.map_batches(partial, batch_format="pandas"),
                       final, keys, batch_format="pandas")


def round_columns(ds: rd.Dataset, decimals: dict[str, int]) -> rd.Dataset:
    def _round(batch: pd.DataFrame) -> pd.DataFrame:
        for col, nd in decimals.items():
            batch[col] = batch[col].round(nd)
        return batch
    return ds.map_batches(_round, batch_format="pandas")


# --------------------------------------------------------------------------
# Sessionization (streaming-window analogue; SURVEY.md §2.9 — engine
# addition: the reference has no windows, D2's watermark is the closest)
# --------------------------------------------------------------------------

def sessionize_events(events: rd.Dataset, gap_minutes: int = 30) -> rd.Dataset:
    """Per-user session count with a fixed inactivity gap: one
    ``key_shuffle`` on the user, then one vectorized pass per bucket
    (rows sorted by (user, ts); a session starts at a user's first row
    and after every gap > ``gap_minutes``)."""
    gap_us = gap_minutes * 60 * 1_000_000

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy()
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        first = np.r_[True, uid[1:] != uid[:-1]] if len(uid) else \
            np.zeros(0, bool)
        new_session = first | np.r_[False, np.diff(ts) > gap_us][:len(uid)]
        starts = np.flatnonzero(first)
        return pd.DataFrame({
            "user_id": uid[starts],
            "n_events": np.diff(np.r_[starts, len(uid)]).astype(np.int64),
            "n_sessions": np.add.reduceat(new_session.astype(np.int64),
                                          starts) if len(starts)
            else np.zeros(0, np.int64),
        })

    return key_shuffle(events, per_bucket, ["user_id"], batch_format="pandas")


def detect_hot_keys(ds: rd.Dataset, on: str, hot_threshold: int,
                    hot_k: int = 64) -> np.ndarray:
    """Keys of ``ds[on]`` whose row count is >= ``hot_threshold``,
    found from per-batch top-``hot_k`` partial counts (Misra-Gries-
    style: a key above the threshold globally is near the top of most
    batches, so the partial sum is a tight lower bound; cold keys may
    be undercounted — irrelevant, they stay cold). Driver state is
    batches x hot_k rows, independent of key cardinality."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[on].value_counts().head(hot_k)
        return pd.DataFrame({on: vc.index.to_numpy(),
                             "n": vc.to_numpy()})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return np.array([], dtype=np.int64)
    counts = parts.groupby(on)["n"].sum()
    return counts[counts >= hot_threshold].index.to_numpy()


def skew_aware_join(left: rd.Dataset, right: rd.Dataset, on: str,
                    how: str = "inner",
                    hot_k: int = 64,
                    skew_factor: int = 4) -> rd.Dataset:
    """``bucketed_join`` with hot-key isolation — the standard skew
    recipe. A key carrying more than ``skew_factor``× a bucket's fair
    share of the LEFT side would serialize that bucket's merge (hash
    partitioning cannot split one key); such keys are detected with
    per-batch partial counts, their RIGHT-side rows (contract: the
    right side is dim-like, bounded rows per key) are broadcast and
    joined map-side with no shuffle at all, and only the cold
    remainder goes through the hash-partitioned path. Output is the
    exact same multiset as a plain join; ``how`` supports 'inner' and
    'left' (both split cleanly across the hot/cold partition of left
    rows)."""
    n_left = left.count()
    hot = detect_hot_keys(
        left, on, max(1, (n_left * skew_factor) // shuffle_buckets()),
        hot_k=hot_k)
    if len(hot) == 0:
        return bucketed_join(left, right, on=on, how=how)
    right_fields = _resolve_fields(right)
    right_hot = semi_join(right, hot, on).to_pandas()
    if right_hot.empty:
        # an empty pandas pull loses the right side's dtypes (object
        # columns) — under how='left' the broadcast merge would then
        # emit right columns with a schema the cold bucketed branch
        # doesn't produce, and the union fails; conjure the empty
        # frame from the right side's true Arrow schema instead
        right_hot = pa.schema(
            list(right_fields.items())).empty_table().to_pandas()
    check_broadcast(right_hot, "skew_aware_join hot side")
    ref = ray.put(right_hot)
    # SAME dtype policy as bucketed_join's per-bucket merge, so the
    # two branches emit union-compatible blocks: inner joins keep
    # exact ints (no nulls introduced); left joins emit right-side
    # value columns as float64 UNIFORMLY (a per-batch int/float
    # decision produced mixed block schemas)
    int_cols = [n for n, t in right_fields.items()
                if pa.types.is_integer(t) and n != on]

    def merge_hot(batch: pd.DataFrame) -> pd.DataFrame:
        r = broadcast_get(ref)
        if how == "left" and int_cols:
            r = r.astype({c: "float64" for c in int_cols
                          if c in r.columns})
        return batch.merge(r, on=on, how=how)

    hot_part = semi_join(left, hot, on).map_batches(
        merge_hot, batch_format="pandas")
    cold = bucketed_join(anti_join(left, hot, on),
                         anti_join(right, hot, on), on=on, how=how)
    return cold.union(hot_part)


def interval_join(left: rd.Dataset, right: rd.Dataset, by: str,
                  l_id: str, l_start: str, l_end: str,
                  r_id: str, r_start: str, r_end: str,
                  bin_width: int, l_alias: str, r_alias: str) -> rd.Dataset:
    """Interval-OVERLAP join (the theta-join family ``asof_join`` and
    ``range_count_join`` don't cover): emit one ``(l_id, r_id)`` pair
    for every left/right row sharing ``by`` whose CLOSED intervals
    intersect — ``r_start ≤ l_end AND l_start ≤ r_end``.

    Binned-replication shape (the classic distributed interval join):
    each row is replicated into every ``bin_width``-wide time bin its
    interval spans (``span // bin_width + 1`` copies — pick bin_width
    near the typical interval length to keep that factor ~2), any
    overlapping pair shares at least one bin, and the pair is emitted
    ONLY in bin ``max(l_start, r_start) // bin_width`` — the first bin
    where both are present — so output is exactly-once with no distinct
    pass. ONE composite-key bucket shuffle on ``hash(by, bin)``; the
    per-bucket pass is a vectorized pandas merge + predicate filter.
    Fan-out is bounded by rows-per-(key, bin), so a hot key is spread
    across its time bins rather than colliding in one group."""

    def replicate(id_col, s_col, e_col, side):
        def rep(b: pd.DataFrame) -> pd.DataFrame:
            s = b[s_col].to_numpy(dtype=np.int64)
            e = b[e_col].to_numpy(dtype=np.int64)
            b0, b1 = s // bin_width, e // bin_width
            counts = (b1 - b0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(b)), counts)
            offs = (np.arange(int(counts.sum()))
                    - np.repeat(np.cumsum(counts) - counts, counts))
            out = pd.DataFrame({
                by: b[by].to_numpy()[idx],
                "__bin": b0[idx] + offs,
                "__id": b[id_col].to_numpy()[idx],
                "__s": s[idx], "__e": e[idx],
                "__side": side,
            })
            return out
        return rep

    sides = [left.map_batches(replicate(l_id, l_start, l_end, "l"),
                              batch_format="pandas"),
             right.map_batches(replicate(r_id, r_start, r_end, "r"),
                               batch_format="pandas")]

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == "l"]
        r = g[g["__side"] == "r"]
        if l.empty or r.empty:
            return pd.DataFrame({l_alias: pd.Series([], dtype="int64"),
                                 r_alias: pd.Series([], dtype="int64")})
        m = l.merge(r, on=[by, "__bin"], suffixes=("_l", "_r"))
        keep = ((m["__s_r"] <= m["__e_l"]) & (m["__s_l"] <= m["__e_r"])
                & (m["__bin"] == np.maximum(m["__s_l"], m["__s_r"])
                   // bin_width))
        out = m.loc[keep]
        return pd.DataFrame({l_alias: out["__id_l"].to_numpy(),
                             r_alias: out["__id_r"].to_numpy()})

    return key_shuffle(sides, join_bucket, [by, "__bin"],
                       batch_format="pandas")


def ordered_prefix_sum(ds: rd.Dataset, order_col: str, val_col: str,
                       alias: str) -> rd.Dataset:
    """GLOBAL exclusive prefix sum: ``SUM(val) OVER (ORDER BY order_col
    ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)`` with COALESCE(..., 0) —
    the distributed SCAN primitive (token-offset assignment in a
    pretraining packer, byte offsets in a file assembler).

    A global ordered cumsum cannot hash-bucket (order crosses every
    bucket), so it range-partitions instead — the classic two-phase
    scan:

    1. a stride sample of ``order_col`` fixes ``shuffle_buckets()``
       CONTIGUOUS key ranges (range id is monotone in the key, so the
       ranges ARE the global order);
    2. per-range sums (one row per range — independent of row count)
       come to the driver, which exclusive-cumsums them into per-range
       base offsets and broadcasts the tiny array back;
    3. ONE range shuffle; each range sorts locally and emits
       ``base[range] + local exclusive cumsum``.

    ``order_col`` must be int64 and unique (ids); ``val_col`` int64 for
    bit-exactness. Ranges come from SAMPLED QUANTILES of the key (a
    deterministic per-batch stride sample), so a skewed or sparse id
    domain still spreads across buckets — the boundaries affect only
    parallelism, never the result, because any monotone partition of
    the key space yields the same global order."""
    ds = ds.materialize()
    range_of = _range_partition(ds, order_col)

    def range_sums(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"r": range_of(b),
                             "s": b[val_col].to_numpy(np.int64)}) \
            .groupby("r", as_index=False)["s"].sum()

    base = _range_bases(ds.map_batches(range_sums, batch_format="pandas")
                        .to_pandas())
    base_ref = ray.put(base)

    def scan(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(order_col, kind="stable")
        v = g[val_col].to_numpy(np.int64)
        b = int(range_of(g[:1])[0])
        g[alias] = broadcast_get(base_ref)[b] + np.cumsum(v) - v
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, scan, range_of, batch_format="pandas")


def _range_partition(ds: rd.Dataset, order_col: str):
    """A batch → range-id function over ``shuffle_buckets()`` contiguous
    value ranges of the int64 ``order_col``, cut at quantiles of a
    deterministic per-batch stride sample. Range ids are monotone in
    the key and below the bucket count, so as a derived ``key_shuffle``
    key each range is exactly one bucket."""
    samp = ds.map_batches(
        lambda b: pd.DataFrame({"k": np.sort(
            b[order_col].to_numpy(np.int64))[::max(1, len(b) // 64)]}),
        batch_format="pandas").to_pandas()["k"].to_numpy(np.int64)
    n = shuffle_buckets()
    qs = np.linspace(0.0, 1.0, n + 1)[1:-1]
    bounds = np.unique(np.quantile(samp, qs).astype(np.int64)) \
        if len(samp) else np.array([], dtype=np.int64)
    bounds_ref = ray.put(bounds)

    def range_of(b) -> np.ndarray:
        k = np.asarray(b[order_col].to_numpy()).astype(np.int64)
        return np.searchsorted(broadcast_get(bounds_ref), k, side="right")
    return range_of


def _range_bases(partials: pd.DataFrame) -> np.ndarray:
    """Exclusive prefix sums of per-range partial totals (columns
    ``r``, ``s``): ``base[r]`` is the total of every range before r."""
    base = np.zeros(shuffle_buckets() + 1, dtype=np.int64)
    if len(partials):
        np.add.at(base, partials["r"].to_numpy(np.int64) + 1,
                  partials["s"].to_numpy(np.int64))
    return np.cumsum(base)


def global_ntile(ds: rd.Dataset, order_col: str, tie_cols: list[str],
                 n_tiles: int, alias: str) -> rd.Dataset:
    """``NTILE(n) OVER (ORDER BY order_col, tie_cols)`` — the GLOBAL
    (un-partitioned) twin of ``grouped_ntile``, for scoring shapes like
    RFM quintiles where every row competes in one ranking. A global
    ntile needs each row's global rank, so it range-partitions on the
    order column (the ``ordered_prefix_sum`` scan topology — a hash
    bucket cannot carry order):

    1. a stride sample of ``order_col`` fixes contiguous value ranges
       (all ties of one value land in ONE range, so the per-range
       tie-break sort is globally correct);
    2. per-range row counts come to the driver, which exclusive-cumsums
       them into per-range base ranks;
    3. ONE range shuffle; each range sorts by (order_col, tie_cols)
       locally and emits SQL's exact uneven-tile assignment from
       ``base[range] + local position`` — with N rows and k tiles the
       first ``N % k`` tiles get ``N // k + 1`` rows.

    ``order_col`` must be int64; ``tie_cols`` must make the total order
    unique or the boundary assignment is engine-dependent. Range
    boundaries affect parallelism only, never the result."""
    ds = ds.materialize()
    range_of = _range_partition(ds, order_col)

    def range_counts(b: pd.DataFrame) -> pd.DataFrame:
        r, n = np.unique(range_of(b), return_counts=True)
        return pd.DataFrame({"r": r.astype(np.int64),
                             "s": n.astype(np.int64)})

    base = _range_bases(ds.map_batches(range_counts, batch_format="pandas")
                        .to_pandas())
    base_ref = ray.put(base)
    total = int(base[-1])
    size, rem = total // n_tiles, total % n_tiles
    big_span = rem * (size + 1)

    def assign(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([order_col] + tie_cols, kind="stable")
        b = int(range_of(g[:1])[0])
        p = broadcast_get(base_ref)[b] + np.arange(len(g),
                                                   dtype=np.int64)
        t = np.where(p < big_span, p // max(size + 1, 1),
                     rem + (p - big_span) // max(size, 1))
        g[alias] = t.astype(np.int64) + 1
        return pa.Table.from_pandas(g, preserve_index=False)

    return key_shuffle(ds, assign, range_of, batch_format="pandas")


def global_order_page(ds: rd.Dataset, col: str, tie_col: str,
                      offset: int, limit: int,
                      max_collect: int = 1_000_000) -> pd.DataFrame:
    """``ORDER BY col, tie_col LIMIT limit OFFSET offset`` WITHOUT a
    global sort — the pagination shape. Two exact rank values on
    ``col`` come from the distributed selection operator
    (`_select_order_stats`: splitter sample → range counts → bracket
    collect); rows outside ``[v_lo, v_hi]`` can't be on the page, so
    only that value bracket (≈ limit + tie mass) is collected and
    ordered locally, with one extra streaming COUNT of rows strictly
    below ``v_lo`` fixing the page's first position across ties.
    ``col`` must be integer-valued for exact bracketing (use cents);
    ``tie_col`` makes the page deterministic. Returns the page as a
    driver DataFrame with a 1-indexed global ``pos`` column — pages
    are driver-sized by definition."""
    n, vals = _select_order_stats(
        ds, col,
        lambda n: [min(offset + 1, n), min(offset + limit, n)])
    if n == 0 or offset >= n:
        return pd.DataFrame({col: [], tie_col: [], "pos": []})
    v_lo = vals[min(offset + 1, n)]
    v_hi = vals[min(offset + limit, n)]

    def bracket(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy()
        return b[(v >= v_lo) & (v <= v_hi)]

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy()
        return pd.DataFrame(
            {"below": [int((v < v_lo).sum())],
             "inb": [int(((v >= v_lo) & (v <= v_hi)).sum())]})

    cnt = ds.map_batches(counts, batch_format="pandas").to_pandas()
    n_below = int(cnt["below"].sum())
    n_bracket = int(cnt["inb"].sum())
    # With heavy ties on `col` the value bracket can carry far more
    # than `limit` rows; fail loudly before collecting it to the
    # driver rather than OOMing.
    if n_bracket > max(max_collect, limit):
        raise ValueError(
            f"global_order_page: value bracket [{v_lo}, {v_hi}] holds "
            f"{n_bracket} rows (> max_collect={max_collect}); the tie "
            f"mass on {col!r} is too heavy to page on — add a finer "
            f"sort key or raise max_collect")
    page = (ds.map_batches(bracket, batch_format="pandas").to_pandas()
            .sort_values([col, tie_col], kind="stable",
                         ignore_index=True))
    skip = offset - n_below
    page = page.iloc[skip:skip + limit].reset_index(drop=True)
    page["pos"] = np.arange(offset + 1, offset + 1 + len(page),
                            dtype=np.int64)
    return page


def grouped_regression(ds: rd.Dataset, keys: list[str], xcol: str,
                       ycol: str, slope_alias: str,
                       icept_alias: str) -> rd.Dataset:
    """Per-group ordinary-least-squares line y = slope·x + intercept of
    two INTEGER columns — the same decomposable-moments shape as
    ``grouped_corr`` (which see for the exactness argument): exact
    sums of (n, Σx, Σy, Σxy, Σx²) through ``grouped_exact_sums``, then
    ONE float64 closed form mirrored verbatim in the SQL oracle so the
    bits match. The shuffle carries ≤ n_keys×n_blocks tiny partial
    rows, never the fact table. Caller passes integer x/y (cents,
    counts)."""
    moment_cols = ["__n", "__sx", "__sy", "__sxy", "__sxx"]
    terms = dict(zip(moment_cols, [(), (xcol,), (ycol,), (xcol, ycol),
                                   (xcol, xcol)]))

    def final(r: pd.DataFrame) -> pd.DataFrame:
        nf, sx, sy, sxy, sxx = (
            r[c].astype(np.float64).to_numpy() for c in moment_cols)
        # expression order mirrored in the oracle SQL — keep in sync
        slope = (nf * sxy - sx * sy) / (nf * sxx - sx * sx)
        icept = (sy - slope * sx) / nf
        out = r[keys].copy()
        out[slope_alias] = slope
        out[icept_alias] = icept
        return out

    return grouped_exact_sums(ds, keys, terms, final)


def _skyline_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean survivor mask for the 2-D skyline (minimize x, maximize
    y). A point is dominated iff some other point has x'≤x and y'≥y
    with at least one strict; duplicates of a frontier point all
    survive. Vectorized: per distinct x take max-y, prefix-max those
    over ascending x, then a point survives iff its y strictly beats
    the best y of any smaller x AND equals the max y of its own x."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # max y per distinct x (groups are contiguous after the sort)
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    grp_of = np.cumsum(np.r_[True, xs[1:] != xs[:-1]]) - 1
    gmax = np.full(len(starts), -np.inf)
    np.maximum.at(gmax, grp_of, y[order])
    # best y among STRICTLY smaller x, per group
    prev_best = np.r_[-np.inf, np.maximum.accumulate(gmax)[:-1]]
    keep_sorted = (y[order] == gmax[grp_of]) & (y[order] > prev_best[grp_of])
    keep = np.empty(len(x), dtype=bool)
    keep[order] = keep_sorted
    return keep


def skyline_2d(ds: rd.Dataset, min_col: str, max_col: str) -> rd.Dataset:
    """Pareto frontier / skyline over two criteria (minimize
    ``min_col``, maximize ``max_col``). Distributed as a CONTRACTION:
    the skyline of a union is the skyline of the per-part skylines, so
    each batch reduces to its local frontier first (bounded by the
    number of distinct min_col values in the batch — tiny for 2-D),
    and only those survivors move to a single final pass. The fact
    table never shuffles; the all-to-all is over frontier candidates
    only. Ties: duplicates of a frontier point are all kept (matching
    the NOT EXISTS dominance oracle)."""

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return batch
        keep = _skyline_mask(batch[min_col].to_numpy(np.float64),
                             batch[max_col].to_numpy(np.float64))
        return batch[keep]

    def final(batch: pd.DataFrame) -> pd.DataFrame:
        return local(batch)

    cand = ds.map_batches(local, batch_format="pandas")
    # candidates are frontier-bounded → a single block is safe
    return rebalance(cand, 1).map_batches(final, batch_format="pandas")


def keyed_snapshot_diff(old: rd.Dataset, new: rd.Dataset, key: str,
                        val_cols: list[str], missing: int = -1) -> rd.Dataset:
    """CDC-style keyed snapshot diff: rows present only in ``old`` →
    'removed', only in ``new`` → 'added', in both with any ``val_cols``
    value differing → 'changed'; identical rows are dropped. The change
    feed an incremental pipeline consumes (the reference's old/new
    catalog merge, `Common.py` merge-with-old, answers "which record
    wins" — this answers "what changed", the audit/day-over-day twin).

    Scale shape: ONE key-hash bucket shuffle per side (tag + union +
    groupby), per-bucket outer pandas merge with indicator — the two
    snapshots never materialize on the driver and a key's rows from
    both sides co-locate by construction. Value columns must be
    integer-exact (ids / cents); the outer merge's NaN-for-missing
    transits float64, so values must stay < 2^53 (asserted) — the same
    integer-cents discipline the revenue queries use. Missing side
    values surface as ``missing`` (default -1), mirroring the oracle's
    COALESCE."""
    cols = [key] + list(val_cols)

    def tag(side: str):
        def _t(b: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({c: b[c].to_numpy(np.int64) for c in cols})
            for c in val_cols:
                a = out[c].to_numpy(np.int64)
                if len(a) and int(np.abs(a).max()) >= (1 << 53):
                    raise ValueError(
                        f"keyed_snapshot_diff: |{c}| >= 2^53 would lose "
                        "precision through the outer-merge float path")
            out["__side"] = side
            return out
        return _t

    sides = [old.map_batches(tag("o"), batch_format="pandas"),
             new.map_batches(tag("n"), batch_format="pandas")]

    def diff_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lm = g["__side"].to_numpy() == "o"
        l = g.loc[lm, cols]
        r = g.loc[~lm, cols]
        m = l.merge(r, on=key, how="outer", suffixes=("_old", "_new"),
                    indicator=True)
        mg = m["_merge"].to_numpy()
        changed = np.zeros(len(m), dtype=bool)
        for c in val_cols:
            vo = m[f"{c}_old"].to_numpy(np.float64)
            vn = m[f"{c}_new"].to_numpy(np.float64)
            changed |= vo != vn
        out = {key: m[key].to_numpy(np.int64),
               "change": np.where(mg == "left_only", "removed",
                                  np.where(mg == "right_only", "added",
                                           "changed"))}
        for c in val_cols:
            out[f"{c}_old"] = np.nan_to_num(
                m[f"{c}_old"].to_numpy(np.float64),
                nan=float(missing)).astype(np.int64)
            out[f"{c}_new"] = np.nan_to_num(
                m[f"{c}_new"].to_numpy(np.float64),
                nan=float(missing)).astype(np.int64)
        keep = (mg != "both") | changed
        return pd.DataFrame(out)[keep]

    return key_shuffle(sides, diff_bucket, [key], batch_format="pandas")


def profile_numeric_columns(ds: rd.Dataset, cols: list[str]) -> pd.DataFrame:
    """One-scan data profiler over numeric columns: per column row
    count, null count, EXACT distinct count, min and max — the
    ingest-audit pass a pipeline runs before trusting a new drop of
    data. The scan melts each batch to (column, value) partials:
    min/max/counts reduce through one column-keyed multi-agg (state =
    n_cols rows), the distinct count through a (column, value) preagg
    whose state is bounded by VALUE cardinality, not row count, then a
    second per-column count. Returns a driver pandas frame (n_cols
    rows). At 100 TB swap the exact-distinct leg for the HLL sketch
    (`ops/sketch.py::hll_count`) per column — same scan, constant
    state; the exact leg here is the oracle-checkable twin."""
    def melt(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            v = b[c].to_numpy(np.float64, na_value=np.nan) \
                if b[c].dtype.kind in "if" else \
                b[c].astype("float64").to_numpy()
            frames.append(pd.DataFrame({
                "col_name": c, "v": v,
                "isnull": np.isnan(v).astype(np.int64)}))
        return pd.concat(frames, ignore_index=True)

    melted = ds.map_batches(melt, batch_format="pandas").materialize()
    stats = aggregate(
        melted, ["col_name"],
        {"n_rows": ("count", None), "n_null": ("sum", "isnull"),
         "min_val": ("min", "v"), "max_val": ("max", "v")}).to_pandas()
    nn = melted.map_batches(
        lambda b: b[b["isnull"].to_numpy() == 0][["col_name", "v"]],
        batch_format="pandas")
    dpairs = aggregate(nn, ["col_name", "v"], {})
    ndist = aggregate(dpairs, ["col_name"],
                      {"n_distinct": ("count", None)}).to_pandas()
    out = stats.merge(ndist, on="col_name", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype(np.int64)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["n_null"] = out["n_null"].astype(np.int64)
    return out[["col_name", "n_rows", "n_null", "n_distinct",
                "min_val", "max_val"]].sort_values(
        "col_name", ignore_index=True)


def consecutive_islands(ds: rd.Dataset, key: str, seq_col: str) -> rd.Dataset:
    """Gaps-and-islands: per key, maximal runs of CONSECUTIVE integer
    ``seq_col`` values (daily-activity streaks, contiguous id ranges).
    Returns one row per key: ``n_islands``, ``longest`` run length,
    ``n_vals`` distinct values. Input pairs are deduplicated first
    ((key, seq) preagg — shuffle state is bounded by distinct pairs),
    then ONE key-hash bucket shuffle co-locates each key's whole
    sequence; runs are found with shifted-array compares (no Python
    per-key loop) — the same shifted-column trick as doc_repetition's
    gram build."""
    distinct = aggregate(ds, [key, seq_col], {})
    def runs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, seq_col], ignore_index=True)
        k = g[key].to_numpy(np.int64)
        s = g[seq_col].to_numpy(np.int64)
        if not len(k):
            return pd.DataFrame({key: np.array([], np.int64),
                                 "n_islands": np.array([], np.int64),
                                 "longest": np.array([], np.int64),
                                 "n_vals": np.array([], np.int64)})
        start = np.ones(len(k), dtype=bool)
        start[1:] = (k[1:] != k[:-1]) | (s[1:] != s[:-1] + 1)
        starts_idx = np.flatnonzero(start)
        lens = np.diff(np.append(starts_idx, len(k)))
        isl = pd.DataFrame({key: k[starts_idx], "len": lens})
        r = isl.groupby(key, as_index=False).agg(
            n_islands=("len", "size"), longest=("len", "max"),
            n_vals=("len", "sum"))
        return r.astype({c: np.int64 for c in
                         ("n_islands", "longest", "n_vals")})

    return key_shuffle(distinct, runs, [key], batch_format="pandas")


def grouped_weighted_median(ds: rd.Dataset, keys: list[str], val_col: str,
                            weight_col: str) -> rd.Dataset:
    """Exact per-group WEIGHTED (lower) median: smallest value whose
    cumulative weight reaches half the group's total. Weighted
    quantiles are the data-mixture tool (median doc length weighted by
    sampling weight; median price weighted by quantity). Exact at
    scale via the value-domain histogram: the only shuffle moves
    (keys, value)->sum(weight) partials — state bounded by value
    quantization (the robust_zscore / median_cents discipline), never
    by row count; the cumulative scan runs per key inside its bucket.
    Values and weights must be integer (cents / rounded units)."""
    hist = aggregate(ds, keys + [val_col], {weight_col: ("sum", weight_col)})
    def med(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + [val_col], ignore_index=True)
        grp = g.groupby(keys, sort=False)
        cum = grp[weight_col].cumsum().to_numpy(np.int64)
        tot = grp[weight_col].transform("sum").to_numpy(np.int64)
        ok = 2 * cum >= tot
        sel = g[ok].groupby(keys, as_index=False, sort=False).first()
        return sel[keys + [val_col]]

    return key_shuffle(hist, med, keys, batch_format="pandas")


def trailing_distinct_count(ds: rd.Dataset, bucket_col: str,
                            entity_col: str, width: int, step: int,
                            out_col: str = "n_distinct") -> rd.Dataset:
    """EXACT distinct entities per time bucket over a trailing window
    of ``width`` buckets (step = bucket size in the column's units) —
    'distinct users in the last 3 hours, per hour'. Sliding-window
    COUNT DISTINCT can't pre-aggregate as counts (distinct isn't
    summable), so the scale shape is window EXPANSION over the
    DEDUPLICATED pair set: raw rows reduce to distinct (bucket,
    entity) pairs first (the only row-count-bound shuffle), each pair
    then fans out to the ≤ ``width`` future buckets it covers —
    output volume is width × distinct-pairs, independent of raw row
    count — and a second pair-dedup + per-bucket count finishes.
    Buckets absent from the input emit no row (present-bucket filter
    broadcast as a sorted array; bucket cardinality = time range /
    step, small by nature)."""
    pairs = aggregate(ds, [bucket_col, entity_col], {}).materialize()
    present = aggregate(pairs, [bucket_col], {}).to_pandas()
    pset = np.sort(present[bucket_col].to_numpy(np.int64))
    pref = ray.put(pset)

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        tb = b[bucket_col].to_numpy(np.int64)
        en = b[entity_col].to_numpy(np.int64)
        t = (tb[:, None]
             + np.arange(width, dtype=np.int64) * step).ravel()
        e = np.repeat(en, width)
        ps = broadcast_get(pref)
        if len(ps):
            idx = np.minimum(np.searchsorted(ps, t), len(ps) - 1)
            m = ps[idx] == t
            t, e = t[m], e[m]
        return pd.DataFrame({bucket_col: t, entity_col: e})

    expanded = pairs.map_batches(expand, batch_format="pandas")
    dpairs = aggregate(expanded, [bucket_col, entity_col], {})
    return aggregate(dpairs, [bucket_col], {out_col: ("count", None)})


def clamped_running_balance(ds: rd.Dataset, key: str,
                            order_cols: list[str],
                            delta_col: str) -> rd.Dataset:
    """Per-key FINAL and PEAK of the zero-clamped running balance
    (stock levels, account balances with no overdraft): the recurrence
    B_i = max(B_{i−1} + d_i, 0) looks inherently sequential, but the
    lower-clamp-at-zero scan has a closed form over plain prefix sums
    — B_i = C_i − min(0, min_{j≤i} C_j) with C the running sum — so
    one key-bucket shuffle + vectorized cumsum/cummin per key computes
    it with no Python recurrence loop (the identity the SQL oracle
    mirrors as window SUM + window MIN). Deltas must be integer.
    Output: (key, final_balance, peak_balance), int64."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols, kind="stable",
                          ignore_index=True)
        grp = g.groupby(key, sort=False)
        cum = grp[delta_col].cumsum().to_numpy(np.int64)
        g = g.assign(__cum=cum)
        runmin = g.groupby(key, sort=False)["__cum"].cummin() \
            .to_numpy(np.int64)
        bal = cum - np.minimum(runmin, 0)
        g = g.assign(__bal=bal)
        agg = g.groupby(key, sort=False).agg(
            final_balance=("__bal", "last"),
            peak_balance=("__bal", "max")).reset_index()
        return agg.astype({"final_balance": np.int64,
                           "peak_balance": np.int64})

    return key_shuffle(ds, per_bucket, [key], batch_format="pandas")


# --------------------------------------------------------------------------
# Rank-based and robust statistics (engine additions, round 4 cont.:
# Spearman via distributed tied-rank assignment, grouped PERCENT_RANK,
# Theil–Sen robust trend, functional-dependency profiling, Benford
# leading-digit audit). No reference analogue (the reference computes no
# statistics; SURVEY §2.8 engine-addition track).
# --------------------------------------------------------------------------

def _rank2_map(counts: rd.Dataset, col: str, cnt_col: str,
               rank_alias: str) -> rd.Dataset:
    """Tied-average-rank assignment over a DISTINCT-VALUE count table:
    for each distinct value v with count c and ``cum`` rows strictly
    below it, the average 1-indexed rank of v's rows is
    ``cum + (c+1)/2`` — kept as the INTEGER doubled rank
    ``rank2 = 2*cum + c + 1`` so every downstream moment sum stays in
    exact integer space (Pearson is scale-invariant, so correlating
    doubled ranks equals correlating ranks). ``cum`` comes from the
    range-partitioned scan primitive (``ordered_prefix_sum``), so the
    distinct table never needs to fit anywhere whole: this is the
    100-TB path for rank statistics over near-distinct columns, where
    a broadcast value→rank array would not fit. ``col`` must be
    int64-valued (use cents)."""
    ranked = ordered_prefix_sum(counts, col, cnt_col, "__cum")

    def to_rank2(b: pd.DataFrame) -> pd.DataFrame:
        r2 = (2 * b["__cum"].to_numpy(np.int64)
              + b[cnt_col].to_numpy(np.int64) + 1)
        return pd.DataFrame({col: b[col].to_numpy(np.int64),
                             rank_alias: r2})

    return ranked.map_batches(to_rank2, batch_format="pandas")


# The Spearman twins' six moment sums over the distinct-pair table:
# doubled ranks (rx2, ry2) weighted by the pair count.
_RANK_MOMENTS = {"n": ("__cnt",), "sx": ("__cnt", "__rx2"),
                 "sy": ("__cnt", "__ry2"),
                 "sxy": ("__cnt", "__rx2", "__ry2"),
                 "sxx": ("__cnt", "__rx2", "__rx2"),
                 "syy": ("__cnt", "__ry2", "__ry2")}


def spearman_corr(ds: rd.Dataset, xcol: str, ycol: str,
                  alias: str) -> pd.DataFrame:
    """GLOBAL Spearman rank correlation of two INTEGER columns, exact
    against a SQL oracle that evaluates the same closed form on the
    same integers.

    Spearman = Pearson on tied-average ranks. The scale shape:

    1. reduce the fact table to the DISTINCT (x, y) pair-count table
       (one bucketed count — pairs ≤ rows, often ≪);
    2. per column, reduce further to distinct-VALUE counts and assign
       ``rank2 = 2*cum_below + cnt + 1`` via the range-partitioned
       scan (``_rank2_map`` — no broadcast of the value domain);
    3. two bucketed joins stitch rank2_x / rank2_y back onto the pair
       table (3-int rows, never the fact rows);
    4. the six moment sums weighted by the pair count, exact at any
       magnitude (``exact_sums`` — a hot pair's cnt·rx2·ry2 ≈ 4N³
       passes 2⁶³ from N ≈ 1.3·10⁶), then ONE float64 closed form
       mirrored verbatim in the oracle.

    Returns a 1-row driver DataFrame {alias: float64}.

    Tiered like ``tfidf_top_terms``: a column whose value→rank2 map
    (16 B per distinct value) fits the broadcast budget
    (``util.plan_tier``) gets it broadcast (sorted arrays + map-side
    searchsorted — no pair-table shuffle at all); beyond, the rank
    map stays a Dataset and stitches via the bucketed join. The bench
    path (cents columns, ≤ millions distinct) rides the broadcast tier — 6.9 s → ~1 s at
    sf0.1 — while the near-distinct 100-TB case keeps the honest
    all-distributed path."""
    pairs = aggregate(ds, [xcol, ycol],
                      {"__cnt": ("count", None)}).materialize()

    rank_refs: dict[str, object] = {}
    for col, ralias in ((xcol, "__rx2"), (ycol, "__ry2")):
        counts = aggregate(pairs, [col],
                           {"__c": ("sum", "__cnt")}).materialize()
        if plan_tier("spearman_corr", broadcast_bytes=16 * counts.count()
                     ) == "broadcast":
            cdf = counts.to_pandas().sort_values(col,
                                                 ignore_index=True)
            vals = cdf[col].to_numpy(np.int64)
            cnt = cdf["__c"].to_numpy(np.int64)
            cum = np.cumsum(cnt) - cnt
            rank_refs[col] = ray.put((vals, 2 * cum + cnt + 1))
        else:
            ranks = _rank2_map(counts, col, "__c", ralias)
            pairs = bucketed_join(pairs, ranks, on=col).materialize()

    if rank_refs:
        refs = {c: r for c, r in rank_refs.items()}

        def attach(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            for c, ralias in ((xcol, "__rx2"), (ycol, "__ry2")):
                if c in refs:
                    vals, r2 = broadcast_get(refs[c])
                    keys = b[c].to_numpy(np.int64)
                    pos = np.searchsorted(vals, keys)
                    # domain check (ADVICE r04): counts-derived maps
                    # always cover, but a future pre-built rank map
                    # must fail loudly, not borrow a neighbor's rank
                    if np.any(pos >= len(vals)) or \
                            not np.array_equal(vals[pos], keys):
                        raise ValueError(
                            f"spearman rank map does not cover "
                            f"column {c!r}")
                    b[ralias] = r2[pos]
            return b

        pairs = pairs.map_batches(attach, batch_format="pandas")

    s = exact_sums(pairs, [], _RANK_MOMENTS)
    n, sx, sy, sxy, sxx, syy = (float(v) for v in s.iloc[0])
    # expression order mirrored in the SQL oracle — keep in sync
    rho = (n * sxy - sx * sy) / np.sqrt(
        (n * sxx - sx * sx) * (n * syy - sy * sy))
    return pd.DataFrame({alias: np.array([rho], dtype=np.float64)})


def percent_rank_in_group(ds: rd.Dataset, key: str, val_col: str,
                          alias: str) -> rd.Dataset:
    """``PERCENT_RANK() OVER (PARTITION BY key ORDER BY val_col)`` —
    the per-row grouped rank score, without ever holding a whole
    group's ROWS in one worker: the rank of a row depends only on its
    (key, value) pair, so the op ranks the DISTINCT (key, value) count
    table (per-key exclusive cumsum over sorted distinct values —
    distinct values per key ≪ rows per key for score-like columns)
    and stitches the scores back with one key-bucketed merge. A hot
    key costs its distinct-value count, not its row count.
    ``val_col`` must be integer-valued (cents). pr of a 1-row group is
    0.0, matching SQL. Output: input columns + ``alias`` float64."""
    # the input feeds BOTH the counts branch and the stitch union —
    # pin it so the caller's upstream lineage runs once, not twice
    ds = ds.materialize()
    counts = aggregate(ds, [key, val_col], {"__cnt": ("count", None)})

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, val_col], kind="stable",
                          ignore_index=True)
        grp = g.groupby(key, sort=False)
        c = g["__cnt"].to_numpy(np.int64)
        cum = grp["__cnt"].cumsum().to_numpy(np.int64) - c
        n_g = grp["__cnt"].transform("sum").to_numpy(np.int64)
        # mirrored in the oracle: (rank-1)/(n-1), 0.0 for n==1
        pr = np.where(n_g > 1, cum / np.maximum(n_g - 1, 1), 0.0)
        return pd.DataFrame({key: g[key], val_col: g[val_col],
                             "__pr": pr})

    pr_tbl = key_shuffle(counts, per_key, [key], batch_format="pandas")

    # stitch back: tag both sides with the SAME key bucket, merge per
    # bucket on (key, value) — supports the composite key without
    # packing, one shuffle per side. The pr side pads the fact columns
    # it lacks with TYPED ZEROS (never read — merge_bucket splits the
    # sides before touching them): null padding would make the
    # per-bucket pandas conversion upcast the FACT rows' int columns
    # to float64 (the bucketed_join dtype trap).
    fact_fields = _resolve_fields(ds)
    fact_cols = list(fact_fields)

    def _pad(n: int, typ: pa.DataType):
        if pa.types.is_integer(typ) or pa.types.is_floating(typ):
            return np.zeros(n, dtype=typ.to_pandas_dtype())
        return pd.Series([""] * n)

    def tag_fact(b: pd.DataFrame) -> pa.Table:
        b = b.assign(__pr=np.nan)
        return pa.Table.from_pandas(b, preserve_index=False)

    def tag_pr(b: pd.DataFrame) -> pa.Table:
        out = {c: (b[c] if c in b.columns else
                   _pad(len(b), fact_fields[c])) for c in fact_cols}
        out["__pr"] = b["__pr"]
        return pa.Table.from_pandas(pd.DataFrame(out),
                                    preserve_index=False)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_pr = g["__pr"].notna()
        facts = g[~is_pr][fact_cols]
        prs = g[is_pr][[key, val_col, "__pr"]]
        out = facts.merge(prs, on=[key, val_col], how="left")
        return out.rename(columns={"__pr": alias})

    sides = [ds.map_batches(tag_fact, batch_format="pandas"),
             pr_tbl.map_batches(tag_pr, batch_format="pandas")]
    return key_shuffle(sides, merge_bucket, [key], batch_format="pandas")


def fd_violations(ds: rd.Dataset, lhs: str, rhs: str,
                  alias: str) -> rd.Dataset:
    """Functional-dependency profiling (the data-quality audit shape):
    every ``lhs`` value that maps to MORE than one distinct ``rhs``
    value, with its distinct-rhs count — ``lhs → rhs`` holds iff the
    result is empty. Two bucketed pre-aggregated reduces (distinct
    pairs, then pair counts per lhs); the fact table streams once and
    only distinct pairs shuffle. Output: (lhs, alias int64)."""
    pairs = aggregate(ds, [lhs, rhs], {})
    per_lhs = aggregate(pairs, [lhs], {alias: ("count", None)})
    return per_lhs.map_batches(
        lambda b: b[b[alias].to_numpy() > 1],
        batch_format="pandas")


def theil_sen_grouped(ds: rd.Dataset, key: str, xcol: str, ycol: str,
                      alias: str, min_points: int = 3,
                      max_points: int = 10_000) -> rd.Dataset:
    """Per-group Theil–Sen robust slope: the MEDIAN of all pairwise
    slopes (y_j − y_i)/(x_j − x_i), x_i ≠ x_j — the outlier-immune
    trend estimator (breakdown point 29%). Inherently O(k²) per group,
    so this op is for MANY SMALL groups (per-customer order trends,
    per-host latency drift): one key-bucket shuffle, then per-group
    vectorized triu pair generation. Groups larger than ``max_points``
    fail loudly rather than silently exploding (the sampled-pair
    estimator would be the scale path for big groups). Groups with
    fewer than ``min_points`` points or no x-distinct pair are
    dropped. x/y int64 (days, cents); slopes float64; median = mean of
    the two middle order statistics, matching SQL MEDIAN."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys_out, slopes_out = [], []
        for kv, gg in g.groupby(key, sort=False):
            k = len(gg)
            if k < min_points:
                continue
            if k > max_points:
                raise ValueError(
                    f"theil_sen_grouped: group {kv!r} has {k} points "
                    f"(> max_points={max_points}); use a sampled-pair "
                    "estimator for big groups")
            x = gg[xcol].to_numpy(np.int64)
            y = gg[ycol].to_numpy(np.int64)
            iu, iv = np.triu_indices(k, k=1)
            dx = x[iv] - x[iu]
            keep = dx != 0
            if not keep.any():
                continue
            sl = (y[iv] - y[iu])[keep] / dx[keep]
            keys_out.append(kv)
            slopes_out.append(float(np.median(sl)))
        return pd.DataFrame({key: keys_out,
                             alias: np.array(slopes_out,
                                             dtype=np.float64)})

    return key_shuffle(ds.select_columns([key, xcol, ycol]), per_bucket,
                       [key], batch_format="pandas")


def benford_digits(ds: rd.Dataset, col: str) -> pd.DataFrame:
    """Benford leading-digit audit of a positive INTEGER column: the
    observed count per leading digit 1-9 next to the Benford-law
    expectation and the per-digit χ² contribution — the fraud/sensor
    data-quality screen. Per-batch vectorized digit extraction
    (repeated integer division — ≤ 19 passes over the batch, no
    string round-trip), 9-int partials, driver combine; expected_n
    and chi2 evaluate ONE mirrored float expression. Returns the
    9-row driver DataFrame (digit int64, n int64, expected_n, chi2
    float64)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(np.int64).copy()
        if (v <= 0).any():
            raise ValueError("benford_digits: column must be positive")
        while True:
            big = v >= 10
            if not big.any():
                break
            v[big] //= 10
        cnt = np.bincount(v, minlength=10)[1:10]
        return pd.DataFrame({"digit": np.arange(1, 10, dtype=np.int64),
                             "n": cnt.astype(np.int64)})

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = p.groupby("digit", as_index=False)["n"].sum() \
        .sort_values("digit", ignore_index=True)
    # observed-support convention (mirrors the oracle's GROUP BY over
    # observed values): digits that never lead are absent, not 0-rows
    agg = agg[agg["n"] > 0].reset_index(drop=True)
    total = float(agg["n"].sum())
    d = agg["digit"].to_numpy(np.float64)
    # mirrored in the SQL oracle: ln(1+1/d)/ln(10)
    share = np.log(1.0 + 1.0 / d) / np.log(10.0)
    expected = total * share
    obs = agg["n"].to_numpy(np.int64).astype(np.float64)
    agg["expected_n"] = expected
    agg["chi2"] = (obs - expected) * (obs - expected) / expected
    return agg


def grouped_spearman(ds: rd.Dataset, key: str, xcol: str, ycol: str,
                     alias: str) -> rd.Dataset:
    """PER-GROUP Spearman rank correlation — the partitioned twin of
    ``spearman_corr`` (which see for the doubled-tied-rank integer
    argument). Everything stays distinct-value sized: per-group
    distinct (x, y) PAIR counts, per-(group, value) doubled ranks from
    a per-key exclusive cumsum over the sorted distinct-value table
    (a hot group costs its distinct values, never its rows), two
    key-bucketed stitch merges, then per-group exact integer moment
    sums (``grouped_exact_sums``) and ONE mirrored float closed
    form. Output: (key, alias float64), one row per group with ≥ 2
    distinct ranks on each side.

    Tiered like ``spearman_corr``: while the per-group value→rank2
    map (16 B per distinct (group, value)) fits the broadcast budget,
    it is broadcast as a per-key arrays dict and attached map-side (no
    pair shuffle); beyond, the rank table stays a Dataset and stitches
    via the key-bucketed union merge."""
    pairs = aggregate(ds, [key, xcol, ycol],
                      {"__cnt": ("count", None)}).materialize()

    def _attach_rank(pairs: rd.Dataset, col: str,
                     ralias: str) -> rd.Dataset:
        counts = aggregate(pairs, [key, col],
                           {"__c": ("sum", "__cnt")}).materialize()

        if plan_tier("grouped_spearman",
                     broadcast_bytes=16 * counts.count()) == "broadcast":
            cdf = counts.to_pandas().sort_values(
                [key, col], ignore_index=True)
            c = cdf["__c"].to_numpy(np.int64)
            cum = cdf.groupby(key, sort=False)["__c"].cumsum() \
                .to_numpy(np.int64) - c
            r2 = 2 * cum + c + 1
            rmap = {k: (g[col].to_numpy(np.int64),
                        r2[g.index.to_numpy()])
                    for k, g in cdf.groupby(key, sort=False)}
            ref = ray.put(rmap)

            def attach(b: pd.DataFrame) -> pd.DataFrame:
                m = broadcast_get(ref)
                out = np.empty(len(b), dtype=np.int64)
                vals = b[col].to_numpy(np.int64)
                for k, idx in b.groupby(key, sort=False).indices.items():
                    kv, kr = m[k]
                    out[idx] = kr[np.searchsorted(kv, vals[idx])]
                b = b.copy()
                b[ralias] = out
                return b

            return pairs.map_batches(attach,
                                     batch_format="pandas")

        def per_key(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values([key, col], kind="stable",
                              ignore_index=True)
            grp = g.groupby(key, sort=False)
            c = g["__c"].to_numpy(np.int64)
            cum = grp["__c"].cumsum().to_numpy(np.int64) - c
            return pd.DataFrame({key: g[key],
                                 col: g[col].to_numpy(np.int64),
                                 ralias: 2 * cum + c + 1})

        ranks = key_shuffle(counts, per_key, [key], batch_format="pandas")

        # stitch: both sides tagged with the SAME key bucket; typed
        # zero pads (never read — the merge splits sides first)
        pair_fields = _resolve_fields(pairs)
        pair_cols = list(pair_fields)

        def tag_pairs(b: pd.DataFrame) -> pa.Table:
            b = b.assign(**{ralias: np.int64(-1)})
            return pa.Table.from_pandas(b, preserve_index=False)

        def tag_ranks(b: pd.DataFrame) -> pa.Table:
            out = {c: (b[c] if c in b.columns else
                       np.zeros(len(b), dtype=np.int64))
                   for c in pair_cols}
            out[ralias] = b[ralias]
            return pa.Table.from_pandas(pd.DataFrame(out),
                                        preserve_index=False)

        def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
            is_rank = g[ralias].to_numpy() >= 0
            facts = g[~is_rank][pair_cols]
            ranks_ = g[is_rank][[key, col, ralias]]
            return facts.merge(ranks_, on=[key, col], how="left")

        sides = [pairs.map_batches(tag_pairs, batch_format="pandas"),
                 ranks.map_batches(tag_ranks, batch_format="pandas")]
        return key_shuffle(sides, merge_bucket, [key],
                           batch_format="pandas").materialize()

    pairs = _attach_rank(pairs, xcol, "__rx2")
    pairs = _attach_rank(pairs, ycol, "__ry2")

    def final(r: pd.DataFrame) -> pd.DataFrame:
        nf, sx, sy, sxy, sxx, syy = (
            r[c].astype(np.float64).to_numpy() for c in _RANK_MOMENTS)
        # constant side → zero rank variance → undefined: drop BEFORE
        # the division (the oracle mirrors the drop with a WHERE on
        # the same variance terms, so row counts agree on any input)
        vx = nf * sxx - sx * sx
        vy = nf * syy - sy * sy
        keep = (vx > 0) & (vy > 0)
        # expression order mirrored in the SQL oracle — keep in sync
        num = (nf * sxy - sx * sy)[keep]
        den = np.sqrt(vx[keep] * vy[keep])
        out = r.loc[keep, [key]].copy()
        out[alias] = num / den
        return out

    return grouped_exact_sums(pairs, [key], _RANK_MOMENTS, final)


def kendall_tau_grouped(ds: rd.Dataset, key: str, xcol: str, ycol: str,
                        alias: str, min_points: int = 3,
                        max_points: int = 10_000) -> rd.Dataset:
    """Per-group Kendall τ-b rank correlation — the concordance twin
    of ``theil_sen_grouped`` (same many-small-groups O(k²) shape, same
    loud group-size bound): over all unordered row pairs, concordant
    C (Δx·Δy > 0), discordant D (< 0), x-ties tx (Δx = 0), y-ties ty;
    τ-b = (C − D)/√((n₀ − tx)(n₀ − ty)) with n₀ = k(k−1)/2. All
    counts exact int64; ONE mirrored float expression. Groups smaller
    than ``min_points`` or with a constant side are dropped."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys_out, taus = [], []
        for kv, gg in g.groupby(key, sort=False):
            k = len(gg)
            if k < min_points:
                continue
            if k > max_points:
                raise ValueError(
                    f"kendall_tau_grouped: group {kv!r} has {k} points "
                    f"(> max_points={max_points}); use an O(k log k) "
                    "merge-sort inversion counter for big groups")
            x = gg[xcol].to_numpy(np.int64)
            y = gg[ycol].to_numpy(np.int64)
            iu, iv = np.triu_indices(k, k=1)
            dx = x[iv] - x[iu]
            dy = y[iv] - y[iu]
            s = np.sign(dx) * np.sign(dy)
            c = int((s > 0).sum())
            d = int((s < 0).sum())
            tx = int((dx == 0).sum())
            ty = int((dy == 0).sum())
            n0 = k * (k - 1) // 2
            if n0 == tx or n0 == ty:
                continue    # constant side → undefined
            # expression order mirrored in the SQL oracle
            tau = (float(c) - float(d)) / np.sqrt(
                float(n0 - tx) * float(n0 - ty))
            keys_out.append(kv)
            taus.append(tau)
        return pd.DataFrame({key: keys_out,
                             alias: np.array(taus, dtype=np.float64)})

    return key_shuffle(ds.select_columns([key, xcol, ycol]), per_bucket,
                       [key], batch_format="pandas")
