"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline on sf0.001; ``queries()`` exposes
one callable per implemented operator/pipeline (SURVEY.md §2 + the
training-data additions); ``oracle_sql()`` gives the DuckDB-equivalent
SQL for every SQL-expressible query (same column names, aggregates
rounded identically on both sides).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import nullcontext
from typing import Any

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import no_fasel_scrapers_ray
from no_fasel_scrapers_ray.ops.util import key_shuffle, tier_budgets

# Workers must run this package's closures even though the driver
# ray.init()s before /root/repo is on any worker's import path.
no_fasel_scrapers_ray.enable_portable_pickling()


def _read(sf_dir: str, table: str, columns=None, rows_per_block: int = 512,
          *, derive: dict | None = None, where=None):
    """read_parquet with data-proportional block sizing, and the query's
    column derivations evaluated inside the read task.

    ``where`` is one boolean ``pyarrow.compute`` Expression over the
    read columns; rows where it is false or null are dropped. ``derive``
    maps each output name to an Expression over the read columns (built
    from the vocabulary below: ``col``, ``int64``, ``rint``, ``cents``,
    ``epoch_us``, ``floor_div``, ``mod``, ``flag``); when it is given
    the output holds exactly its columns, in its order. Both run in one
    ``pyarrow`` ``map_batches`` that Ray fuses into the read, so a
    derivation costs no pandas round trip and no extra stage. A block
    whose rows are all dropped keeps the typed schema. The source
    file's pandas schema metadata, which names the read's columns, is
    dropped from a projected block.

    Ray's default parallelism floor (2×CPUs) splits a 0.6 MB documents
    table into 64 ~9 KB blocks; every downstream all-to-all then pays a
    64×64 shuffle fan-out for kilobytes of data (measured: the same
    tiny-table groupby costs 2.4 s at 64 blocks vs 0.7 s at 8). Blocks
    follow ``corpus/storage.py::block_count``: ~32 MB of file bytes per
    block once the table is big (the 100 TB regime — identical to Ray's
    own target), with a small-table floor of one block per
    ``rows_per_block`` rows capped at 2×CPUs. The default floor (512)
    suits CPU-heavy per-row stages (regex/hashing per doc);
    shuffle-bound relational queries pass a coarser floor (8192-65536)
    — their per-row work is vectorized C, so tiny blocks only multiply
    all-to-all fan-out (measured: 64 blocks of 2.3k orders cost 5.7 s
    of task scheduling for 0.5 s of compute in nested_rollup's tag
    stage)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from no_fasel_scrapers_ray.corpus.storage import block_count
    path = f"{sf_dir}/{table}.parquet"
    nb = block_count(pq.ParquetFile(path).metadata.num_rows,
                     os.path.getsize(path), rows_per_block)
    ds = rd.read_parquet(path, columns=columns, override_num_blocks=nb)
    return _derive(ds, derive, where)


def _derive(ds, derive: dict | None = None, where=None):
    """``ds`` with ``where`` and ``derive`` (see ``_read``) applied in
    one ``pyarrow`` ``map_batches``; for the few reads that push a
    row-group predicate into ``rd.read_parquet`` and so cannot go
    through ``_read``."""
    if derive is None and where is None:
        return ds
    import pyarrow.dataset as pads

    def spec(t: pa.Table) -> pa.Table:
        out = pads.dataset(t).to_table(columns=derive, filter=where,
                                       use_threads=False)
        return out if derive is None else out.replace_schema_metadata(None)
    return ds.map_batches(spec, batch_format="pyarrow")


# Column-derivation vocabulary for ``_read(derive=..., where=...)``: each
# name returns a ``pyarrow.compute`` Expression that Arrow evaluates in
# the read task. A column argument is a name or an Expression. Money is
# int64 cents and time int64 µs since the epoch, rounded half to even
# like ``np.round``; a NaN raises ``ArrowInvalid`` at the int64 cast.
col = pc.field


def _e(x):
    """A column name as its field; an Expression as is."""
    return pc.field(x) if isinstance(x, str) else x


def int64(x):
    """``x`` as int64 (a float must already be integral)."""
    return _e(x).cast(pa.int64())


def rint(x):
    """``x`` rounded half to even, as int64."""
    return int64(pc.round(_e(x)))


def cents(x):
    """A money amount as int64 cents: ``rint(x * 100)``."""
    return rint(pc.multiply(_e(x), 100))


def epoch_us(x):
    """A timestamp or date as int64 µs since the epoch."""
    return int64(_e(x).cast(pa.timestamp("us")))


def floor_div(x, unit: int):
    """``x // unit`` of an int64 ``x`` and a positive ``unit``, floored
    (Arrow's integer divide truncates toward zero)."""
    x = _e(x)
    q = pc.divide(x, unit)
    return q - int64((x < 0) & (q * unit != x))


def mod(x, m: int):
    """``x % m`` of an int64 ``x`` and a positive ``m``, floored like
    Python's (Arrow has no modulo kernel)."""
    return _e(x) - floor_div(x, m) * m


def flag(pred):
    """A boolean Expression as a 0/1 int64."""
    return int64(pred)


# Derivations shared by several queries.
# lineitem: (o_orderkey, ship_us), ship year, the per-flag statistics
# input, the discount flag (≥ 5%), and a line's undiscounted share in
# percent and exact discounted revenue ×10^4: cents × (100 − discount %)
_SHIP_US = {"o_orderkey": col("l_orderkey"), "ship_us": epoch_us("l_shipdate")}
_SHIP_YEAR = int64(pc.year(col("l_shipdate")))
_FLAG_QTY_CENTS = {"l_returnflag": col("l_returnflag"),
                   "qty": rint("l_quantity"),
                   "cents": cents("l_extendedprice")}
_DISCOUNTED = flag(col("l_discount") >= 0.05)
_KEEP_PCT = pc.subtract(pc.scalar(100), cents("l_discount"))
_REV_E4 = cents("l_extendedprice") * _KEEP_PCT
# lineitem as supplier edges (o_orderkey, dst); the supplier node-space
# offset 2^40 keeps the spaces disjoint for any realistic custkey domain
# (a 10M offset would merge customers and suppliers past sf~67 — and the
# mirrored oracle would silently agree)
_SUPP_DST = {"o_orderkey": col("l_orderkey"),
             "dst": col("l_suppkey") + (1 << 40)}
# orders: (o_orderkey, order_us), (o_custkey, cents), the per-customer
# trend input, the URGENT flag and the priority's leading digit
_ORDER_US = {"o_orderkey": col("o_orderkey"),
             "order_us": epoch_us("o_orderdate")}
_CUST_CENTS = {"o_custkey": col("o_custkey"), "cents": cents("o_totalprice")}
_CUST_DAY_CENTS = {"o_custkey": col("o_custkey"),
                   "day": floor_div(epoch_us("o_orderdate"), 86_400_000_000),
                   "cents": cents("o_totalprice")}
_URGENT = flag(col("o_orderpriority") == "1-URGENT")
_PRIORITY_NO = int64(pc.utf8_slice_codeunits(col("o_orderpriority"), 0, 1))
# [1996-01-01, 1996-04-01): the quarter of the Q10 and Q15 shapes
_Q1_1996 = (pd.Timestamp("1996-01-01").to_pydatetime(),
            pd.Timestamp("1996-04-01").to_pydatetime())
# events as (event_id, user_id, event_type, ts_us)
_EVENT_US = {"event_id": col("event_id"), "user_id": col("user_id"),
             "event_type": col("event_type"), "ts_us": epoch_us("ts")}
# documents as (doc_id, n_tokens): single-space split, as SQL string_split
_DOC_TOKENS = {"doc_id": col("doc_id"), "n_tokens":
               int64(pc.count_substring(col("text"), " ")) + 1}


def _budgets(tier3: bool):
    """``*_tier3`` twins: 0-byte budgets put the operator called in the
    block on its distributed tier (``ops/util.py::plan_tier``)."""
    return tier_budgets(0, 0) if tier3 else nullcontext()


# --------------------------------------------------------------------------
# Relational operator queries (SURVEY.md §2.6-§2.9 families)
# --------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    """A1/A7-family partial-aggregate groupby over the big table."""
    from no_fasel_scrapers_ray.ops.relational import preagg_sum_count, round_columns
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
               rows_per_block=65536)
    out = preagg_sum_count(
        li, ["l_returnflag", "l_linestatus"],
        {"l_quantity": "sum_qty", "l_extendedprice": "sum_base_price"},
        count_alias="count_order")
    return round_columns(out, {"sum_qty": 2, "sum_base_price": 2})


def q_region_rollup(sf_dir: str):
    """J1-family broadcast (map-side) join chain: orders ⋈ customer ⋈
    nation ⋈ region, then a pre-aggregated rollup."""
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_join, preagg_sum_count, round_columns)
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    dim = (cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
               .merge(region, left_on="n_regionkey", right_on="r_regionkey"))
    dim = dim[["c_custkey", "n_name", "r_name"]].rename(columns={"c_custkey": "o_custkey"})
    joined = broadcast_join(orders, dim, on="o_custkey")
    out = preagg_sum_count(joined, ["r_name", "n_name"],
                           {"o_totalprice": "total_price"}, count_alias="order_count")
    return round_columns(out, {"total_price": 2})


def q_semi_join_customers(sf_dir: str):
    """J4/J6-family semi-join: customers having at least one order."""
    from no_fasel_scrapers_ray.ops.relational import semi_join
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"],
                 rows_per_block=65536)
    okeys = _read(sf_dir, "orders", ["o_custkey"],
                  rows_per_block=65536).unique("o_custkey")
    return semi_join(cust, np.asarray(okeys), "c_custkey")


def q_anti_join_customers(sf_dir: str):
    """D1-family anti-join (the pre-fetch seen-set probe shape):
    customers with no URGENT order."""
    from no_fasel_scrapers_ray.ops.relational import anti_join
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"],
                 rows_per_block=65536)
    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536,
                   where=col("o_orderpriority") == "1-URGENT")
    okeys = urgent.unique("o_custkey")
    return anti_join(cust, np.asarray(okeys), "c_custkey")


def q_merge_old_wins(sf_dir: str):
    """A5 keyed merge, old-wins precedence (FaselSeriesScraper.py:217)."""
    return _merge_query(sf_dir, old_wins=True)


def q_merge_new_wins(sf_dir: str):
    """A5 keyed merge, new-wins precedence (FaselMoviesScraper.py:100-101)."""
    return _merge_query(sf_dir, old_wins=False)


def _merge_query(sf_dir: str, old_wins: bool):
    from no_fasel_scrapers_ray.ops.relational import merge_with_precedence

    def tagged(label, mask):
        return _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"],
                     rows_per_block=65536,
                     derive={"o_orderkey": col("o_orderkey"),
                             "o_totalprice": col("o_totalprice"),
                             "src": pc.scalar(label)},
                     where=pc.bit_wise_and(col("o_orderkey"), mask) == 0)

    old = tagged("old", 1)  # even keys
    new = tagged("new", 3)  # keys % 4 == 0
    return merge_with_precedence(new, old, "o_orderkey", old_wins=old_wins)


def q_nested_rollup(sf_dir: str):
    """A1/A2-family two-level nesting aggregate via a bucketed big-big
    join: lineitem→order item counts, then order→customer rollup."""
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_sum_count, round_columns)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"],
               rows_per_block=65536)
    per_order = preagg_sum_count(li, ["l_orderkey"], {"l_quantity": "order_qty"},
                                 count_alias="n_items")
    per_order = per_order.map_batches(
        lambda df: df.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=65536)
    joined = bucketed_join(orders, per_order, on="o_orderkey")
    out = preagg_sum_count(joined, ["o_custkey"],
                           {"n_items": "n_items", "order_qty": "total_qty"},
                           count_alias="n_orders")
    return round_columns(out, {"total_qty": 2})


def q_union_index(sf_dir: str):
    """A6-family union-all indexer with field defaulting."""
    def indexed(table, kind, key_col, name_col):
        return _read(sf_dir, table, [key_col, name_col],
                     derive={"key": col(key_col), "name": col(name_col),
                             "kind": pc.scalar(kind)})

    return indexed("customer", "customer", "c_custkey", "c_name").union(
        indexed("supplier", "supplier", "s_suppkey", "s_name"))


def q_top10_customers(sf_dir: str):
    """§2.9 top-k: revenue per customer, sort desc, limit 10. A
    per-block partial top-10 under the SAME total order prunes the
    global sort's input to 10×blocks survivor rows — any global
    top-10 row is necessarily in its block's top-10, so the result is
    identical while the all-to-all never sees the full key set."""
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_join, preagg_sum_count, round_columns)
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536)
    per_cust = preagg_sum_count(orders, ["o_custkey"], {"o_totalprice": "spend"},
                                count_alias="n_orders")
    per_cust = round_columns(per_cust, {"spend": 2})

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["spend", "o_custkey"],
                             ascending=[False, True]).head(10)

    survivors = per_cust.map_batches(block_topk, batch_format="pandas")
    top = survivors.sort(["spend", "o_custkey"],
                         descending=[True, False]).limit(10)
    names = _read(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    names = names.rename(columns={"c_custkey": "o_custkey"})
    return broadcast_join(top, names, on="o_custkey", concurrency=2)


def q_events_hourly(sf_dir: str):
    """Tumbling-window aggregate over the events stream table."""
    from no_fasel_scrapers_ray.ops.relational import preagg_sum_count, round_columns
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"],
               rows_per_block=65536,
               derive={"event_type": col("event_type"), "value": col("value"),
                       "hour": pc.floor_temporal(col("ts"), unit="hour")})
    out = preagg_sum_count(ev, ["event_type", "hour"], {"value": "total_value"},
                           count_alias="n_events")
    return round_columns(out, {"total_value": 2})


def q_events_hourly_dense(sf_dir: str):
    """Gap-filled time series (§ windows): hourly event counts
    INCLUDING zero rows for empty hours — the generate-series +
    left-join resample pattern. Counts are a distributed bucketed
    reduce; the hour axis is time-bounded (span/3600s rows, ~3.4k
    here, <100k even for years of data), so the dense reindex runs on
    the driver over the AGGREGATE, never the events."""
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    ev = _read(sf_dir, "events", ["ts"], rows_per_block=65536,
               derive={"hour_id": floor_div(epoch_us("ts"), 3_600_000_000)})
    counts = preagg_reduce(ev, ["hour_id"], "n_events", "count").to_pandas()
    full = pd.DataFrame({"hour_id": np.arange(counts["hour_id"].min(),
                                              counts["hour_id"].max() + 1,
                                              dtype=np.int64)})
    out = full.merge(counts, on="hour_id", how="left")
    out["n_events"] = out["n_events"].fillna(0).astype(np.int64)
    return out


def q_sessionize(sf_dir: str):
    """Session windows (30-min gap) per user — groupby.map_groups."""
    from no_fasel_scrapers_ray.ops.relational import sessionize_events
    ev = _read(sf_dir, "events", ["user_id", "ts"],
               rows_per_block=65536)
    return sessionize_events(ev, gap_minutes=30)


def q_distinct_suppliers(sf_dir: str):
    """A3-family count-distinct per key: per-batch distinct pairs →
    bucket shuffle on the key → per-bucket distinct + count (the
    high-cardinality-safe groupby shape, see ops.relational)."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"],
               rows_per_block=65536)

    def partial(batch: pd.DataFrame) -> pa.Table:
        d = batch.drop_duplicates(["l_partkey", "l_suppkey"])
        return pa.Table.from_pandas(d, preserve_index=False)

    def final(g: pd.DataFrame) -> pa.Table:
        d = g.drop_duplicates(["l_partkey", "l_suppkey"])
        r = d.groupby("l_partkey", as_index=False).size().rename(
            columns={"size": "n_suppliers"})
        return pa.Table.from_pandas(r, preserve_index=False)

    return key_shuffle(li.map_batches(partial, batch_format="pandas"),
                       final, ["l_partkey"], batch_format="pandas")


# --------------------------------------------------------------------------
# Text-analysis / dedup / similarity queries (training-data additions)
# --------------------------------------------------------------------------

def q_doc_stats(sf_dir: str):
    from no_fasel_scrapers_ray.ops.textops import doc_stats
    return doc_stats(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_lang_signal(sf_dir: str):
    from no_fasel_scrapers_ray.ops.textops import lang_score
    return lang_score(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_token_count(sf_dir: str):
    from no_fasel_scrapers_ray.ops.textops import token_counts
    return token_counts(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_fingerprint(sf_dir: str):
    from no_fasel_scrapers_ray.ops.textops import fingerprint
    return fingerprint(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_dedup_exact(sf_dir: str):
    from no_fasel_scrapers_ray.ops.dedup import exact_dedup_key
    return exact_dedup_key(_read(sf_dir, "documents", ["doc_id", "text"]), "full")


def q_dedup_prefix(sf_dir: str):
    from no_fasel_scrapers_ray.ops.dedup import exact_dedup_key
    return exact_dedup_key(_read(sf_dir, "documents", ["doc_id", "text"]), "prefix20")


def q_knn_bruteforce(sf_dir: str):
    from no_fasel_scrapers_ray.ops.ann import knn_bruteforce
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_bruteforce(emb, query_ids=[0, 1, 2], k=5)


def q_knn_ivf(sf_dir: str):
    from no_fasel_scrapers_ray.ops.ann import knn_ivf
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_ivf(emb, query_ids=[0, 1, 2], k=5)


def q_knn_pq(sf_dir: str):
    """Product-quantization ANN (§ similarity search — the
    compressed-index scale path): codebooks trained on a hash sample,
    corpus encoded to m uint8 codes (32× smaller than f32 — the only
    full-width pass), ADC probe over codes, exact re-rank of the
    shortlist. No SQL oracle (shortlist membership is approximate);
    recall vs knn_bruteforce and exact-rerank cosine equality pinned
    in tests/test_neardup_quality.py."""
    from no_fasel_scrapers_ray.ops.ann import knn_pq
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_pq(emb, query_ids=[0, 1, 2], k=5)


def q_minhash_lsh(sf_dir: str):
    from no_fasel_scrapers_ray.ops.dedup import minhash_lsh_pairs
    return minhash_lsh_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                             jaccard_threshold=0.4)


def q_dedup_ngram(sf_dir: str):
    """Exact prefix-filtered n-gram Jaccard near-dup (its own family in
    the brief, distinct from the probabilistic MinHash path)."""
    from no_fasel_scrapers_ray.ops.dedup import ngram_jaccard_pairs
    return ngram_jaccard_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                               shingle=3, jaccard_threshold=0.5)


def q_simhash(sf_dir: str):
    from no_fasel_scrapers_ray.ops.dedup import simhash_candidates
    return simhash_candidates(_read(sf_dir, "documents", ["doc_id", "text"]),
                              max_hamming=10)


def q_cosine_near_dup(sf_dir: str):
    from no_fasel_scrapers_ray.ops.ann import cosine_near_dup
    return cosine_near_dup(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                           threshold=0.35)


def q_top3_orders_per_cust(sf_dir: str):
    """Per-group top-k: each customer's 3 largest orders (the keep-k-
    best-docs-per-domain shape). Partial top-k per batch prunes the
    shuffle to k rows/key/batch; oracle is ROW_NUMBER() windowing."""
    from no_fasel_scrapers_ray.ops.relational import topk_per_group
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"],
                   rows_per_block=8192)
    return topk_per_group(orders, ["o_custkey"], "o_totalprice", k=3,
                          tie_cols=["o_orderkey"])


def q_sample_orders(sf_dir: str):
    """Deterministic hash sample (§ sampling): ~5% of orders, the
    engine and the oracle running the SAME multiplicative-hash filter
    so the picked rows are identical (no RNG)."""
    from no_fasel_scrapers_ray.ops.relational import hash_sample
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"],
                   rows_per_block=8192)
    return hash_sample(orders, "o_orderkey", rate=0.05)


def q_intersect_users(sf_dir: str):
    """Set op (§2.9): users who both purchased and clicked — SQL
    INTERSECT as a distinct-key co-location shuffle."""
    from no_fasel_scrapers_ray.ops.relational import intersect_keys

    def typed(kind):
        return _read(sf_dir, "events", ["user_id", "event_type"],
                     rows_per_block=8192, derive={"user_id": col("user_id")},
                     where=col("event_type") == kind)

    return intersect_keys(typed("purchase"), typed("click"), "user_id")


def q_except_customers(sf_dir: str):
    """Set op (§2.9): customer keys with no URGENT order — SQL EXCEPT
    over distinct keys (the seen-set complement shape, cf. J6; the
    bucketed-shuffle counterpart of the broadcast anti_join)."""
    from no_fasel_scrapers_ray.ops.relational import except_keys
    cust = _read(sf_dir, "customer", ["c_custkey"], rows_per_block=8192)
    okeys = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                  rows_per_block=8192, derive={"c_custkey": col("o_custkey")},
                  where=col("o_orderpriority") == "1-URGENT")
    return except_keys(cust, okeys, "c_custkey")


def q_distinct_parts_per_supplier(sf_dir: str):
    """COUNT(DISTINCT) GROUP BY over the big table: distinct parts per
    supplier via the two-stage dedup-then-count bucket aggregate."""
    from no_fasel_scrapers_ray.ops.relational import grouped_count_distinct
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"],
               rows_per_block=65536)
    return grouped_count_distinct(li, ["l_suppkey"], "l_partkey",
                                  alias="n_parts")


def _purchase_events(sf_dir: str, with_cents: bool):
    """Purchases as (user_id, event_id, ts_us[, cents]) — shared by the
    window queries. ts as epoch µs int64; value as integer CENTS (×100
    of a 2-decimal value is integral, so rounding never hits the
    pandas-half-to-even vs SQL-half-away .5 boundary)."""
    cols = ["event_id", "ts", "user_id", "event_type"] + (
        ["value"] if with_cents else [])
    derive = {"user_id": col("user_id"), "event_id": col("event_id"),
              "ts_us": epoch_us("ts")}
    if with_cents:
        derive["cents"] = cents("value")
    return _read(sf_dir, "events", cols, rows_per_block=8192, derive=derive,
                 where=col("event_type") == "purchase")


def q_running_user_spend(sf_dir: str):
    """Windowed cumulative aggregate (§ custom operators): per-user
    running spend over purchase events, SUM() OVER (PARTITION BY user
    ORDER BY ts). Values carried as integer cents so the cumulative
    sum is bit-exact regardless of either engine's summation order."""
    from no_fasel_scrapers_ray.ops.relational import running_total
    purchases = _purchase_events(sf_dir, with_cents=True)
    out = running_total(purchases, ["user_id"], "ts_us", "cents",
                        alias="cum_cents", tie_cols=["event_id"])
    return out.select_columns(["user_id", "event_id", "ts_us", "cum_cents"])


def q_median_order_value(sf_dir: str):
    """Per-group discrete quantile (§ aggregates): each customer's
    median order value, the DuckDB quantile_disc rule — an actual
    element, so both engines return identical float bits."""
    from no_fasel_scrapers_ray.ops.relational import grouped_quantile_disc
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=8192)
    return grouped_quantile_disc(orders, ["o_custkey"], "o_totalprice",
                                 q=0.5, alias="median_price")


def q_cust_order_stats(sf_dir: str):
    """Fused multi-aggregate (§ aggregates, LMFAO shape): per customer,
    COUNT + SUM + MIN + MAX of order cents in ONE scan and ONE shuffle
    — n aggregates share the pass instead of costing n."""
    from no_fasel_scrapers_ray.ops.relational import grouped_multi_agg
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536, derive=_CUST_CENTS)
    return grouped_multi_agg(orders, ["o_custkey"], {
        "n_orders": ("cents", "count"),
        "sum_cents": ("cents", "sum"),
        "min_cents": ("cents", "min"),
        "max_cents": ("cents", "max"),
    })


def q_median_cents_cont(sf_dir: str):
    """Per-group INTERPOLATED quantile (§ aggregates): each customer's
    quantile_cont(0.5) order value in integer cents — the two
    bracketing order statistics and the `lo + (hi-lo)*frac`
    interpolation match DuckDB's bit-exactly."""
    from no_fasel_scrapers_ray.ops.relational import grouped_quantile_cont
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=8192, derive=_CUST_CENTS)
    return grouped_quantile_cont(orders, ["o_custkey"], "cents",
                                 q=0.5, alias="median_cents")


def q_rolling_user_spend(sf_dir: str):
    """Window-frame aggregate (§ custom operators): each user's spend
    over their last 4 purchases (ROWS BETWEEN 3 PRECEDING AND CURRENT
    ROW), integer cents so the sliding sums are bit-exact."""
    from no_fasel_scrapers_ray.ops.relational import rolling_sum
    purchases = _purchase_events(sf_dir, with_cents=True)
    out = rolling_sum(purchases, ["user_id"], "ts_us", "cents",
                      alias="last4_cents", preceding=3,
                      tie_cols=["event_id"])
    return out.select_columns(["user_id", "event_id", "ts_us",
                               "last4_cents"])


def q_trailing_hour_spend(sf_dir: str):
    """Time-based window frame (§ custom operators): each purchase's
    trailing-1-hour spend — SQL RANGE BETWEEN 3600000000 PRECEDING AND
    CURRENT ROW over epoch-µs, integer cents, tie-peers included per
    RANGE semantics so the result is order-independent at equal ts."""
    from no_fasel_scrapers_ray.ops.relational import rolling_time_sum
    purchases = _purchase_events(sf_dir, with_cents=True)
    out = rolling_time_sum(purchases, ["user_id"], "ts_us", "cents",
                           window=3_600_000_000, alias="trail_cents")
    return out.select_columns(["user_id", "event_id", "ts_us",
                               "trail_cents"])


def q_favorite_event_type(sf_dir: str):
    """Grouped MODE (§ aggregates): each user's most frequent event
    type (ties → lexicographically first) — partial counts then an
    arg-max topk_per_group, deterministic ROW_NUMBER oracle."""
    from no_fasel_scrapers_ray.ops.relational import (
        preagg_sum_count, topk_per_group)
    ev = _read(sf_dir, "events", ["user_id", "event_type"],
               rows_per_block=65536,
               derive={"user_id": col("user_id"),
                       "event_type": col("event_type"), "one": pc.scalar(1)})
    counts = preagg_sum_count(ev, ["user_id", "event_type"], {"one": "n"})
    return topk_per_group(counts, ["user_id"], "n", k=1,
                          ascending=False, tie_cols=["event_type"])


def q_lag_purchase_gap(sf_dir: str):
    """LAG window (§ custom operators): each purchase paired with the
    user's previous purchase timestamp (µs), -1 for the first — the
    COALESCE keeps the column int64 on both engines."""
    from no_fasel_scrapers_ray.ops.relational import windowed_lag
    purchases = _purchase_events(sf_dir, with_cents=False)
    out = windowed_lag(purchases, ["user_id"], "ts_us", "ts_us",
                       alias="prev_ts_us", tie_cols=["event_id"],
                       default=-1)
    return out.select_columns(["user_id", "event_id", "ts_us", "prev_ts_us"])


def q_lead_purchase_gap(sf_dir: str):
    """LEAD window (§ custom operators): each purchase paired with the
    user's NEXT purchase timestamp (µs), -1 for the last — the forward
    twin of `lag_purchase_gap`, same single key-bucket shuffle."""
    from no_fasel_scrapers_ray.ops.relational import windowed_lead
    purchases = _purchase_events(sf_dir, with_cents=False)
    out = windowed_lead(purchases, ["user_id"], "ts_us", "ts_us",
                        alias="next_ts_us", tie_cols=["event_id"],
                        default=-1)
    return out.select_columns(["user_id", "event_id", "ts_us",
                               "next_ts_us"])


def q_order_value_pctiles(sf_dir: str):
    """PERCENT_RANK + CUME_DIST (§ windows): both relative-position
    statistics of each order's value within its customer, computed in
    ONE bucket shuffle (`windowed_rank_stats`). Ranks over integer
    cents; the two ratios are exact IEEE doubles on both engines."""
    from no_fasel_scrapers_ray.ops.relational import windowed_rank_stats
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"o_custkey": col("o_custkey"),
                           "o_orderkey": col("o_orderkey"),
                           "cents": cents("o_totalprice")})
    return windowed_rank_stats(orders, ["o_custkey"], "cents",
                               pct_alias="pct_rank",
                               cume_alias="cume_dist")


def q_first_last_purchase(sf_dir: str):
    """FIRST_VALUE/LAST_VALUE as a decomposable aggregate (§ windows):
    each user's first and last purchase value (cents) by time. Unlike
    the windowed form, only per-batch argmin/argmax partials cross the
    shuffle — volume is users × batches, independent of events per
    user (the hot-key-safe shape)."""
    from no_fasel_scrapers_ray.ops.relational import grouped_first_last
    purchases = _purchase_events(sf_dir, with_cents=True)
    return grouped_first_last(purchases, ["user_id"], "ts_us", "cents",
                              first_alias="first_cents",
                              last_alias="last_cents",
                              tie_cols=["event_id"])


def q_props_value_by_type(sf_dir: str):
    """Semi-structured column extraction (§ parsers): pull the integer
    `k` out of the events' JSON `props` string and aggregate per
    event type. The flat-props fast path is one vectorized regex
    extract (pandas C loop, pattern cached per worker) — the honest
    general path for NESTED props is an orjson actor-pool stage, the
    same shape as the media featurizers. Oracle uses the identical
    extraction via regexp_extract."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_sum_count
    ev = _read(sf_dir, "events", ["event_type", "props"],
               rows_per_block=65536)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        k = (b["props"].str.extract(r'"k": (\d+)', expand=False)
             .astype("int64"))
        return pd.DataFrame({"event_type": b["event_type"].to_numpy(),
                             "k": k.to_numpy()})

    return preagg_sum_count(ev.map_batches(extract, batch_format="pandas"),
                            ["event_type"], {"k": "total_k"},
                            count_alias="n_events")


def q_pivot_event_counts(sf_dir: str):
    """Pivot / filtered aggregate (§ aggregates): per-user event counts
    by type as wide columns — COUNT(*) FILTER (WHERE type = v)."""
    from no_fasel_scrapers_ray.ops.relational import pivot_counts
    ev = _read(sf_dir, "events", ["user_id", "event_type"],
               rows_per_block=65536)
    return pivot_counts(ev, ["user_id"], "event_type",
                        values=["click", "view", "purchase"],
                        aliases=["n_click", "n_view", "n_purchase"])


def q_rollup_order_counts(sf_dir: str):
    """ROLLUP grouping sets (§ aggregates): order counts at
    (status, priority), (status) and the grand total, NULL-filled like
    SQL ROLLUP, without a second scan for the coarse levels."""
    from no_fasel_scrapers_ray.ops.relational import rollup_counts
    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"],
                   rows_per_block=65536)
    return rollup_counts(orders, "o_orderstatus", "o_orderpriority",
                         alias="n_orders")


def q_top_terms(sf_dir: str):
    """Corpus-wide top-50 terms (§ text analysis): wordcount as
    per-batch distinct-term partials → term-bucket shuffle → global
    top-k over the survivor set."""
    from no_fasel_scrapers_ray.ops.textops import top_terms
    return top_terms(_read(sf_dir, "documents", ["text"]), k=50)


def q_cust_order_counts(sf_dir: str):
    """LEFT OUTER join (§ joins): every customer with their order
    count, 0 for customers with no orders — the big-big bucketed join
    in 'left' mode, COALESCE keeping the count int64 on both engines."""
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_sum_count)
    orders = _read(sf_dir, "orders", ["o_custkey"], rows_per_block=65536,
                   derive={"c_custkey": col("o_custkey"),
                           "one": pc.scalar(1)})
    counts = preagg_sum_count(orders, ["c_custkey"], {"one": "n_orders"})
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"],
                 rows_per_block=65536)
    joined = bucketed_join(cust, counts, on="c_custkey", how="left")

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        b["n_orders"] = b["n_orders"].fillna(0).astype("int64")
        return b

    return joined.map_batches(fill, batch_format="pandas")


def q_nation_customer_list(sf_dir: str):
    """Grouped string_agg (§ aggregates): each nation's customer names
    concatenated in key order — the catalog-file shape (ordered
    per-group rendering) as a relational operator."""
    from no_fasel_scrapers_ray.ops.relational import grouped_string_agg
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_name"],
                 rows_per_block=65536)
    return grouped_string_agg(cust, ["c_nationkey"], "c_name",
                              alias="names", sep="|",
                              order_cols=["c_name"])


def q_unpivot_order_flags(sf_dir: str):
    """Unpivot / melt (§ reshapes): each order's (status, priority)
    pair melted into attribute/value rows — the wide→long flat_map
    family, 2 output rows per input row, no shuffle at all."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderstatus", "o_orderpriority"],
                   rows_per_block=65536)

    def melt(t: pa.Table) -> pa.Table:
        n = len(t)
        keys = pa.concat_arrays([t["o_orderkey"].combine_chunks(),
                                 t["o_orderkey"].combine_chunks()])
        attr = pa.array(["status"] * n + ["priority"] * n)
        val = pa.concat_arrays([t["o_orderstatus"].combine_chunks(),
                                t["o_orderpriority"].combine_chunks()])
        return pa.table({"o_orderkey": keys, "attr": attr, "val": val})

    return orders.map_batches(melt, batch_format="pyarrow")


def q_approx_parts_per_supplier(sf_dir: str):
    """Grouped HLL (§ sketches): approximate distinct parts per
    supplier — the scale path twin of the exact
    `distinct_parts_per_supplier`: shuffle volume is one 1 KiB register
    blob per key per batch, independent of how many distinct values a
    key has. No SQL oracle (approximate); per-key 10% envelope pinned
    in tests/test_sketch.py."""
    from no_fasel_scrapers_ray.ops.sketch import (
        grouped_approx_count_distinct)
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"],
               rows_per_block=65536)
    return grouped_approx_count_distinct(li, ["l_suppkey"], "l_partkey",
                                         alias="n_parts_approx", p=10)


def q_global_median_price(sf_dir: str):
    """Exact GLOBAL quantile by distributed selection (§ wide ops
    without a sort): the median order price found via two counting
    passes (range histogram, then one range's rows) instead of an
    all-to-all sort — bit-identical to quantile_disc because an actual
    element is returned."""
    from no_fasel_scrapers_ray.ops.relational import global_quantile_disc
    orders = _read(sf_dir, "orders", ["o_totalprice"], rows_per_block=65536)
    med = global_quantile_disc(orders, "o_totalprice", q=0.5)
    return pd.DataFrame({"median_price": [med]})


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog sketch (§ custom operators / sketches): approximate
    distinct users over events — constant-size register partials, so
    the reduce is cardinality-independent (the 10^10-key scale path
    next to the exact count-distinct operators). No SQL oracle
    (approximate by design); tests/test_sketch.py pins the 3-sigma
    error envelope against exact cardinalities."""
    from no_fasel_scrapers_ray.ops.sketch import approx_count_distinct
    ev = _read(sf_dir, "events", ["user_id"], rows_per_block=65536)
    est = approx_count_distinct(ev, "user_id")
    return pd.DataFrame({"n_users_approx": [float(est)]})


def q_rank_orders_per_cust(sf_dir: str):
    """DENSE_RANK window (§ custom operators): each order ranked
    within its customer by price, highest first — tie-safe (equal
    prices share a rank) so no tie column is needed."""
    from no_fasel_scrapers_ray.ops.relational import windowed_rank
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"],
                   rows_per_block=65536)
    return windowed_rank(orders, ["o_custkey"], "o_totalprice",
                         alias="price_rank", method="dense",
                         ascending=False)


def q_ntile_order_quartiles(sf_dir: str):
    """NTILE(4) window (§ custom operators): each customer's orders
    split into price quartiles with SQL's exact uneven-tile sizing;
    o_orderkey breaks price ties so both engines assign the same
    tile at boundaries."""
    from no_fasel_scrapers_ray.ops.relational import grouped_ntile
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"],
                   rows_per_block=65536)
    return grouped_ntile(orders, ["o_custkey"], "o_totalprice",
                         n_tiles=4, alias="quartile",
                         tie_cols=["o_orderkey"])


def q_media_thumbnails(sf_dir: str):
    """Multimodal binary-column stage under the oracle gate: per-doc
    synthetic image blobs (dims derived from doc_id) flow through the
    ImageResizer actor pool; the query returns the resize METADATA
    (thumb dims + container byte length), which the SQL oracle
    recomputes from the same dim derivation — the bytes plumbing is
    exercised for real, the math is checked exactly (IEEE double ops
    in the same order on both engines)."""
    from no_fasel_scrapers_ray.stages.media import resize_images, synth_image

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        ws = [320 + (i % 7) * 64 for i in ids]
        hs = [200 + (i % 5) * 80 for i in ids]
        return pa.table({
            "content_id": pa.array([str(i) for i in ids]),
            "image_bytes": pa.array(
                [synth_image(str(i), w, h)
                 for i, w, h in zip(ids, ws, hs)], pa.binary()),
        })

    thumbs = resize_images(
        docs.map_batches(mk, batch_format="pyarrow", batch_size=256),
        max_w=128, max_h=128)

    def meta(t: pa.Table) -> pa.Table:
        lens = [len(b) for b in t.column("thumb_bytes").to_pylist()]
        return pa.table({
            "content_id": t.column("content_id"),
            "thumb_w": t.column("thumb_w").cast(pa.int64()),
            "thumb_h": t.column("thumb_h").cast(pa.int64()),
            "thumb_len": pa.array(lens, pa.int64()),
        })

    return thumbs.map_batches(meta, batch_format="pyarrow")


def q_media_frame_sample(sf_dir: str):
    """Video frame-sampling stage under the oracle gate: synthetic
    video containers (frame count from doc_id) through the
    FrameSampler actor pool; the oracle recomputes the sampled-frame
    count and total sampled bytes from the same derivation."""
    from no_fasel_scrapers_ray.stages.media import sample_frames, synth_video

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.table({
            "content_id": pa.array([str(i) for i in ids]),
            "video_bytes": pa.array(
                [synth_video(str(i), n_frames=16 + (i % 6) * 16,
                             frame_bytes=64) for i in ids], pa.binary()),
        })

    sampled = sample_frames(
        docs.map_batches(mk, batch_format="pyarrow", batch_size=64),
        every=8, max_frames=16)

    def meta(t: pa.Table) -> pa.Table:
        frames = t.column("frames").to_pylist()
        return pa.table({
            "content_id": t.column("content_id"),
            "n_sampled": t.column("n_sampled").cast(pa.int64()),
            "sampled_bytes": pa.array(
                [sum(len(f) for f in fl) for fl in frames], pa.int64()),
        })

    return sampled.map_batches(meta, batch_format="pyarrow")


def q_media_audio_features(sf_dir: str):
    """Audio feature-extraction stage (§ multimodal): synthetic PCM
    containers (sample count derived from doc_id) through the
    AudioFeaturizer actor pool; emits the feature-vector length and
    the floored-integer RMS. Rows-only check (the blake2b-seeded
    sample synthesis has no SQL form); byte-level parsing and the
    container contract are pinned in tests/test_media_stages.py."""
    from no_fasel_scrapers_ray.stages.media import (
        extract_audio_features, synth_audio)

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.table({
            "content_id": pa.array([str(i) for i in ids]),
            "audio_bytes": pa.array(
                [synth_audio(str(i), n_samples=2048 + (i % 4) * 1024)
                 for i in ids], pa.binary()),
        })

    feats = extract_audio_features(
        docs.map_batches(mk, batch_format="pyarrow", batch_size=256))

    def meta(t: pa.Table) -> pa.Table:
        fl = t.column("features").to_pylist()
        return pa.table({
            "content_id": t.column("content_id"),
            "n_features": pa.array([len(f) for f in fl], pa.int64()),
            "rms_milli": pa.array([int(f[0] * 1000) for f in fl],
                                  pa.int64()),
        })

    return feats.map_batches(meta, batch_format="pyarrow")


def q_first_event_per_user_day(sf_dir: str):
    """ARG-MIN per composite group (§ windows): each user's FIRST event
    of each day — topk_per_group ascending k=1 over (user, day), the
    keep-earliest-record dedup shape. Oracle: ROW_NUMBER() = 1."""
    from no_fasel_scrapers_ray.ops.relational import topk_per_group
    day = 86_400_000_000
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"],
               rows_per_block=65536,
               derive={"user_id": col("user_id"),
                       "day_us": floor_div(epoch_us("ts"), day) * day,
                       "ts_us": epoch_us("ts"),
                       "event_id": col("event_id")})
    return topk_per_group(ev, ["user_id", "day_us"], "ts_us", k=1,
                          ascending=True, tie_cols=["event_id"])


def q_cube_order_counts(sf_dir: str):
    """CUBE grouping sets (§ aggregates): ROLLUP plus the
    priority-only marginal, NULL-filled like SQL CUBE."""
    from no_fasel_scrapers_ray.ops.relational import cube_counts
    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"],
                   rows_per_block=65536)
    return cube_counts(orders, "o_orderstatus", "o_orderpriority",
                       alias="n_orders")


def q_corr_qty_price(sf_dir: str):
    """Grouped Pearson correlation (§ statistical aggregates): quantity
    vs price per return flag, from exact integer moment sums so the
    float result is bit-identical to the oracle's closed form. Prices
    go to CENTS: ×100 of a 2-decimal value is integral, so rounding
    never lands on a .5 boundary (whole DOLLARS do — and pandas
    rounds half-to-even while DuckDB rounds half-away, which skewed
    the sums)."""
    from no_fasel_scrapers_ray.ops.relational import grouped_corr
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"],
               rows_per_block=65536, derive=_FLAG_QTY_CENTS)
    return grouped_corr(li, ["l_returnflag"], "qty", "cents",
                        alias="corr_qty_price")


def q_asof_clicks(sf_dir: str):
    """As-of join (§ custom operators): each purchase event matched to
    the user's most recent prior-or-same-instant click. Oracle: DuckDB
    native ASOF JOIN. Time carried as epoch microseconds (int64) so both
    engines compare integers, not timestamp encodings."""
    from no_fasel_scrapers_ray.ops.relational import asof_join

    def side(event_type: str, rename: dict):
        return _read(sf_dir, "events",
                     ["event_id", "ts", "user_id", "event_type", "value"],
                     rows_per_block=8192,
                     derive={"user_id": col("user_id"),
                             "ts_us": epoch_us("ts"),
                             **{dst: col(src) for src, dst in rename.items()}},
                     where=col("event_type") == event_type)

    i64, f64 = pa.int64(), pa.float64()
    return asof_join(
        side("purchase", {"event_id": "event_id", "value": "amount"}),
        side("click", {"event_id": "click_id", "value": "click_value"}),
        by="user_id", on="ts_us",
        left_fields={"user_id": i64, "ts_us": i64,
                     "event_id": i64, "amount": f64},
        right_fields={"user_id": i64, "ts_us": i64,
                      "click_id": i64, "click_value": f64})


def q_asof_clicks_forward(sf_dir: str):
    """FORWARD as-of join (§ custom operators — next-event
    attribution): each purchase matched to the user's EARLIEST
    at-or-after click. Reuses the backward as-of kernel by time
    negation — forward(t) = backward(−t), and 'last right with
    −r ≤ −l' is exactly 'first right with r ≥ l' (ties inclusive,
    unchanged). Oracle: DuckDB ASOF JOIN with the reversed
    inequality."""
    from no_fasel_scrapers_ray.ops.relational import asof_join

    def side(event_type: str, rename: dict):
        return _read(sf_dir, "events",
                     ["event_id", "ts", "user_id", "event_type"],
                     rows_per_block=8192,
                     derive={"user_id": col("user_id"),
                             "ts_neg": pc.negate(epoch_us("ts")),
                             **{dst: epoch_us("ts") if src == "__ts"
                                else col(src)
                                for src, dst in rename.items()}},
                     where=col("event_type") == event_type)

    i64 = pa.int64()
    j = asof_join(
        side("purchase", {"event_id": "event_id", "__ts": "ts_us"}),
        side("click", {"event_id": "click_id", "__ts": "click_ts_us"}),
        by="user_id", on="ts_neg",
        left_fields={"user_id": i64, "ts_neg": i64,
                     "event_id": i64, "ts_us": i64},
        right_fields={"user_id": i64, "ts_neg": i64,
                      "click_id": i64, "click_ts_us": i64})
    return j.select_columns(["event_id", "user_id", "ts_us",
                             "click_id", "click_ts_us"])


def q_funnel_click_purchase(sf_dir: str):
    """Funnel / sequence-match (§ custom operators, composition): per
    user, how many purchases happened within 1 h of their most recent
    prior click — asof_join carrying the click timestamp as payload,
    a vectorized gap filter, then the partial-agg count. Tie-robust:
    equal-timestamp clicks share the ts the filter reads. Oracle:
    DuckDB ASOF JOIN + the same gap predicate."""
    from no_fasel_scrapers_ray.ops.relational import (
        asof_join, preagg_sum_count)

    def side(event_type: str, extra: dict):
        return _read(sf_dir, "events",
                     ["event_id", "ts", "user_id", "event_type"],
                     rows_per_block=8192,
                     derive={"user_id": col("user_id"),
                             "ts_us": epoch_us("ts"),
                             **{dst: epoch_us("ts") if src == "ts_us"
                                else col(src) for dst, src in extra.items()}},
                     where=col("event_type") == event_type)

    i64 = pa.int64()
    joined = asof_join(
        side("purchase", {"event_id": "event_id"}),
        side("click", {"click_ts_us": "ts_us"}),
        by="user_id", on="ts_us",
        left_fields={"user_id": i64, "ts_us": i64, "event_id": i64},
        right_fields={"user_id": i64, "ts_us": i64, "click_ts_us": i64})

    def within_hour(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["ts_us"] - b["click_ts_us"] <= 3_600_000_000]
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(),
            "one": np.ones(len(b), dtype=np.int64)})

    hits = joined.map_batches(within_hour, batch_format="pandas")
    return preagg_sum_count(hits, ["user_id"], {"one": "n_converted"})


def q_range_join_clicks(sf_dir: str):
    """Range join (§ custom operators): per signup event, the number of
    the same user's clicks within the following hour — LEFT inequality
    join + GROUP BY in one windowed-count pass. Oracle: DuckDB
    inequality join (IEJoin)."""
    from no_fasel_scrapers_ray.ops.relational import range_count_join

    def side(event_type: str, with_id: bool):
        derive = {"user_id": col("user_id"), "ts_us": epoch_us("ts")}
        if with_id:
            derive["event_id"] = col("event_id")
        return _read(sf_dir, "events",
                     ["event_id", "ts", "user_id", "event_type"],
                     rows_per_block=8192, derive=derive,
                     where=col("event_type") == event_type)

    i64 = pa.int64()
    return range_count_join(side("signup", True), side("click", False),
                            by="user_id", on="ts_us",
                            window=3_600_000_000, out_col="n_clicks_1h",
                            left_fields={"user_id": i64, "ts_us": i64,
                                         "event_id": i64})


def q_tfidf_top_terms(sf_dir: str):
    """Per-doc TF-IDF keywords (§ text analysis): integer surrogate
    score tf*N//df so the full ranking is SQL-oracle-exact; the DF
    table is the only shuffle, scoring is doc-local."""
    from no_fasel_scrapers_ray.ops.textops import tfidf_top_terms
    return tfidf_top_terms(_read(sf_dir, "documents", ["doc_id", "text"]),
                           topn=3)


def q_doc_rarity(sf_dir: str):
    """Per-doc rare-term (OOV) permille (§ text analysis): share of
    tokens with corpus DF ≤ 2, integer permille — bit-exact oracle."""
    from no_fasel_scrapers_ray.ops.textops import rare_term_permille
    return rare_term_permille(_read(sf_dir, "documents",
                                    ["doc_id", "text"]), max_df=2)


def q_order_price_histogram(sf_dir: str):
    """Fixed-width histogram (§ aggregates): order counts per $500
    price bucket — a pure per-batch bucket map + partial-agg count,
    the profile/EDA operator at any scale."""
    from no_fasel_scrapers_ray.ops.relational import preagg_sum_count
    orders = _read(sf_dir, "orders", ["o_totalprice"],
                   rows_per_block=65536,
                   derive={"bucket_lo_cents":
                           floor_div(cents("o_totalprice"), 5_000_000)
                           * 5_000_000,
                           "one": pc.scalar(1)})
    return preagg_sum_count(orders, ["bucket_lo_cents"], {"one": "n_orders"})


def q_doc_quality(sf_dir: str):
    """Gopher-style rule-based quality filter (§ text analysis):
    integer features + keep verdict, bit-exact vs the SQL oracle."""
    from no_fasel_scrapers_ray.ops.textops import doc_quality
    return doc_quality(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_heavy_hitter_terms(sf_dir: str):
    """Misra-Gries heavy hitters (§ sketches): top-20 corpus terms via
    bounded per-batch summaries + one exact recount of the ≤k
    candidates — shares the EXACT SQL oracle because the MG superset
    guarantee holds whenever the 20th term's frequency exceeds
    N_tokens/(k+1) (adversarial-vocabulary envelope pinned in
    tests/test_sketch.py)."""
    from no_fasel_scrapers_ray.ops.sketch import heavy_hitter_terms
    return heavy_hitter_terms(_read(sf_dir, "documents", ["text"]),
                              topn=20)


def q_kmeans_embeddings(sf_dir: str):
    """Distributed spherical k-means (§ clustering, iterative): per-
    round broadcast centroids + per-batch partial sums; returns
    per-cluster sizes and floored-integer inertia. Rows-only check
    (iterative float algorithm, no SQL form); quality pinned vs a
    single-process numpy reference in tests/test_kmeans.py."""
    from no_fasel_scrapers_ray.ops.ann import kmeans_embeddings
    return kmeans_embeddings(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=8, iters=5)


def q_overlap_click_purchase(sf_dir: str):
    """Interval-overlap join (§ temporal joins): clicks held open for
    2 h paired with purchases held open for 30 min by the same user
    whose windows intersect — binned replication + one composite-key
    shuffle, exactly-once via the first-shared-bin rule. Oracle:
    DuckDB IEJoin on the same overlap predicate."""
    from no_fasel_scrapers_ray.ops.relational import interval_join

    def side(tp: str, width_us: int):
        return _read(sf_dir, "events",
                     ["event_id", "ts", "user_id", "event_type"],
                     rows_per_block=65536,
                     derive={"user_id": col("user_id"),
                             "eid": col("event_id"), "s": epoch_us("ts"),
                             "e": epoch_us("ts") + width_us},
                     where=col("event_type") == tp)

    return interval_join(side("click", 7_200_000_000),
                         side("purchase", 1_800_000_000),
                         "user_id", "eid", "s", "e", "eid", "s", "e",
                         bin_width=3_600_000_000,
                         l_alias="click_id", r_alias="purchase_id")


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix (§ composed pipelines): users bucketed
    by FIRST-activity week; for each (cohort_week, week_offset) the
    number of cohort members active that week. Pure composition of
    existing bucketed shapes — distinct (user, week) partial-agg,
    per-user min-reduce for the cohort, one user-key join, one count
    reduce — all-integer week arithmetic so the hash is exact."""
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_reduce)
    WEEK_US = 604_800_000_000
    weeks = _read(sf_dir, "events", ["user_id", "ts"], rows_per_block=65536,
                  derive={"user_id": col("user_id"),
                          "wk": floor_div(epoch_us("ts"), WEEK_US),
                          "one": pc.scalar(1)})
    # distinct (user, week) once; reuse for BOTH the cohort min and
    # the activity side of the join
    active = preagg_reduce(weeks, ["user_id", "wk"], "one",
                           "min").drop_columns(["one"])
    cohort = preagg_reduce(
        active.map_batches(
            lambda b: pd.DataFrame({"user_id": b["user_id"],
                                    "cohort_wk": b["wk"]}),
            batch_format="pandas"),
        ["user_id"], "cohort_wk", "min")
    j = bucketed_join(active, cohort, on="user_id", how="inner")

    def offs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "cohort_wk": b["cohort_wk"].to_numpy(),
            "week_offset": (b["wk"] - b["cohort_wk"]).to_numpy()})

    return preagg_reduce(j.map_batches(offs, batch_format="pandas"),
                         ["cohort_wk", "week_offset"], "n_users", "count")


# k for the fulfillment-graph k-core: validated against peeling
# simulations at sf0.001/0.01/0.1 — k=10 peels a real multi-round cut
# at every sf without cascading to empty (the part co-occurrence graph
# is near-regular and admits no such k)
_KCORE_K = 10


def _part_cooccurrence_edges(sf_dir: str):
    """Distinct canonical part co-occurrence edges (parts sharing an
    order, a < b) — shared by the triangle and k-core queries.

    All-numpy on packed int64 keys (orderkey < 2^32, partkey < 2^31 —
    asserted; a wider id domain would compact ids first, the
    ops/graph.py contract): per-batch (order,part) dedup is one
    np.unique on ``k·2^31|p``; the order-bucket pass unpacks the
    sorted key stream (k-major, so an order's parts are a contiguous
    RUN) and generates each run's pairs with an offset loop bounded by
    the max parts-per-order (≤7 in TPC-H-shaped data — 6 vectorized
    passes, no per-order Python); edge dedup is np.unique on
    ``a·2^31|b`` per edge bucket. Replaced the pandas
    merge-and-groupby build: 3.7 s → ~1.3 s at sf0.1 for identical
    output."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=65536)
    HALF = np.int64(1 << 31)

    def tag(b: pa.Table) -> pa.Table:
        k = b.column("l_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        p = b.column("l_partkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(k) and (int(k.max()) >= 1 << 32 or int(p.max()) >= HALF):
            raise ValueError("edge key packing needs orderkey < 2^32 "
                             "and partkey < 2^31; compact ids first")
        return pa.table({"kp": np.unique(k * HALF + p)})

    def order_of(b) -> np.ndarray:
        return np.asarray(b["kp"].to_numpy()) // HALF

    def gen_pairs(g: "pd.DataFrame") -> pa.Table:
        kp = np.unique(g["kp"].to_numpy(np.int64))  # cross-batch dedup
        k, p = kp // HALF, kp & (HALF - 1)
        al, bl = [], []
        j = 1
        while j < len(k):
            same = k[:-j] == k[j:]
            if not same.any():
                break
            al.append(p[:-j][same])
            bl.append(p[j:][same])
            j += 1
        if not al:
            return pa.table({"ab": np.array([], dtype=np.int64)})
        x = np.concatenate(al)
        y = np.concatenate(bl)
        return pa.table({"ab": np.unique(np.minimum(x, y) * HALF
                                         + np.maximum(x, y))})

    def dedup(g: "pd.DataFrame") -> pa.Table:
        ab = np.unique(g["ab"].to_numpy(np.int64))
        return pa.table({"a": ab // HALF, "b": ab & (HALF - 1)})

    pairs = key_shuffle(li.map_batches(tag, batch_format="pyarrow"),
                        gen_pairs, order_of, batch_format="pandas")
    return key_shuffle(pairs, dedup, ["ab"], batch_format="pandas")


def q_triangle_parts(sf_dir: str, tier3: bool = False):
    """Global triangle count (§ graph operators) over the part
    co-occurrence graph (parts sharing an order): distinct-pair build
    via one order-key bucketed self-join, then
    ``ops/graph.py::triangle_count`` (degree-oriented compact-forward
    with a two-tier closing check). Oracle: sorted-id 3-way SQL
    self-join — each triangle counted once on both engines.
    ``tier3=True`` (query ``triangle_parts_tier3``) runs the fully
    distributed closing join against the same oracle (``_budgets``)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import triangle_count
    edges = _part_cooccurrence_edges(sf_dir)
    with _budgets(tier3):
        n = triangle_count(edges)
    return pd.DataFrame({"n_triangles": np.array([n], dtype=np.int64)})


def q_pagerank_cust_supp(sf_dir: str, tier3: bool = False):
    """Fixed-iteration PageRank (§ graph operators) over the directed
    customer→supplier fulfillment graph: distinct (o_custkey,
    l_suppkey) pairs via the orders⋈lineitem bucketed join, supplier
    ids offset into their own node space. 5 damped iterations with
    uniform dangling-mass redistribution — suppliers have no
    out-edges, so the dangling path is exercised every iteration.
    Oracle: the same 5 iterations unrolled as chained CTEs in DuckDB;
    both sides round to 6 dp (cross-engine FP noise ~1e-15)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import pagerank
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_reduce, round_columns)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=65536)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"],
               rows_per_block=65536, derive=_SUPP_DST)
    j = bucketed_join(li, orders, on="o_orderkey", how="inner")

    def to_edge(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": b["o_custkey"].to_numpy(),
                             "dst": b["dst"].to_numpy(),
                             "one": np.ones(len(b), dtype=np.int64)})

    edges = preagg_reduce(j.map_batches(to_edge, batch_format="pandas"),
                          ["src", "dst"], "one", "min").drop_columns(["one"])
    with _budgets(tier3):
        ranks = pagerank(edges, damping=0.85, iters=5)
    return round_columns(ranks, {"rank": 6})


def q_pca_embeddings(sf_dir: str):
    """Distributed exact PCA (§ embeddings): one d²-sized moment
    all-reduce + one broadcast projection pass; no shuffle, no driver
    materialization of vectors. Rows-only check (eigendecomposition
    has no SQL form); projection equality vs a full-matrix numpy
    reference is pinned in tests/test_kmeans.py."""
    from no_fasel_scrapers_ray.ops.ann import pca_embeddings
    return pca_embeddings(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), k=2)


def q_curate_documents(sf_dir: str):
    """END-TO-END curation pipeline (§ the training-data flagship):
    quality filter → exact dedup (md5, keep min doc_id) → near-dup
    clustering (exact 3-gram Jaccard ≥ 0.5 pairs → connected
    components) → canonical survivors with token counts. Every stage
    is the distributed operator the standalone queries expose; the
    WHOLE composition is checked against one SQL oracle (CTE chain
    ending in a recursive transitive closure).

    Scale notes: the quality gate runs INLINE as a pure map (no join
    shuffles document text); the exact-dedup stage is SUBSUMED by the
    clustering — identical texts share every shingle, so they always
    emit Jaccard-1.0 pairs and land in one component whose canonical
    (min doc_id) is exactly the exact-dedup representative, making the
    composed survivor set identical to the oracle's staged form while
    the engine never materializes an intermediate dedup join. The only
    broadcast is the near-dup DROP list, bounded by the pair-graph's
    node count (≪ corpus)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.dedup import ngram_jaccard_pairs
    from no_fasel_scrapers_ray.ops.graph import connected_components
    from no_fasel_scrapers_ray.ops.relational import anti_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    # 1. quality gate: the SAME rules as q_doc_quality (shared
    #    textops.quality_keep_mask), as a pure per-batch filter
    from no_fasel_scrapers_ray.ops.textops import quality_keep_mask

    def quality_filter(b: pd.DataFrame) -> pd.DataFrame:
        return b[quality_keep_mask(b["text"]).to_numpy()]

    kept = docs.map_batches(quality_filter, batch_format="pandas")

    # 2.+3. exact + near-dup in ONE clustering: pairs (Jaccard >= 0.5,
    #    exact dups at 1.0), transitive closure, keep each component's
    #    min doc_id
    pairs = ngram_jaccard_pairs(kept, shingle=3, jaccard_threshold=0.5)
    cc = connected_components(pairs, "doc_a", "doc_b").to_pandas()
    # a pair-free corpus yields 0 CC rows — and a 0-row to_pandas()
    # drops column names (Ray gotcha), so guard before indexing
    drops = (cc["doc_id"][cc["cluster_id"] != cc["doc_id"]]
             .to_numpy(dtype=np.int64)
             if len(cc) else np.array([], dtype=np.int64))

    survivors = anti_join(kept, drops, "doc_id")

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "n_tokens": (b["text"].str.count(" ") + 1)
                        .astype(np.int64).to_numpy()})

    return survivors.map_batches(finalize, batch_format="pandas")


def q_dedup_clusters(sf_dir: str, tier3: bool = False):
    """Duplicate CLUSTERS (§ dedup): the exact n-gram Jaccard pairs
    closed under transitivity — connected components by iterative
    min-label propagation, each doc labeled with its component's
    smallest doc_id (the canonical representative a dedup pass keeps).
    Oracle: recursive CTE over the same pair predicate."""
    from no_fasel_scrapers_ray.ops.dedup import ngram_jaccard_pairs
    from no_fasel_scrapers_ray.ops.graph import connected_components
    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        shingle=3, jaccard_threshold=0.5)
    with _budgets(tier3):
        out = connected_components(pairs, "doc_a", "doc_b").to_pandas()
    if out.empty and "doc_id" not in out.columns:
        # 0-row to_pandas() drops column names (Ray gotcha) — restore
        # the contract schema so the driver's column compare holds
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                            "cluster_id": pd.Series([], dtype="int64")})
    return out


def q_bloom_semi_join_lineitem(sf_dir: str):
    """Bloom-prefiltered EXACT semi-join (§ joins, scale path): line
    items belonging to URGENT orders. The broadcast is a fixed-size
    bit array (not the key set), and only the Bloom survivors — not
    the whole lineitem table — reach the exact verify shuffle."""
    from no_fasel_scrapers_ray.ops.relational import bloom_semi_join
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"],
               rows_per_block=65536)
    ukeys = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"],
                  rows_per_block=65536,
                  derive={"l_orderkey": col("o_orderkey")},
                  where=col("o_orderpriority") == "1-URGENT")
    return bloom_semi_join(li, ukeys, "l_orderkey")


def q_urgent_orders_pruned(sf_dir: str):
    """Predicate pushdown AT THE READ (§ sources): the priority filter
    is handed to read_parquet as an Arrow dataset expression, so
    non-matching row groups are dropped by the scanner before any
    block enters the object store — the prune-at-the-read contract
    for 100-TB inputs (column pruning via `columns=` everywhere else
    in this file)."""
    import pyarrow.dataset as pads
    import ray.data as rd
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice"],
        filter=pads.field("o_orderpriority") == "1-URGENT")
    return ds


def q_user_activity_full(sf_dir: str):
    """FULL OUTER join (§ joins): per-user click counts vs purchase
    counts — the big-big bucketed join in 'outer' mode; users seen on
    one side only get COALESCEd zeros, int64 on both engines."""
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_sum_count)
    def counted(kind: str, alias: str):
        ev = _read(sf_dir, "events", ["user_id", "event_type"],
                   rows_per_block=65536,
                   derive={"user_id": col("user_id"), "one": pc.scalar(1)},
                   where=col("event_type") == kind)
        return preagg_sum_count(ev, ["user_id"], {"one": alias})

    joined = bucketed_join(counted("click", "n_clicks"),
                           counted("purchase", "n_purchases"),
                           on="user_id", how="outer")

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_clicks", "n_purchases"):
            b[c] = b[c].fillna(0).astype("int64")
        return b

    return joined.map_batches(fill, batch_format="pandas")


def q_events_hopping(sf_dir: str):
    """Hopping-window aggregate (§ windows): 1-hour windows every 30
    minutes over the events stream — each event lands in exactly two
    windows via a pure per-batch flat-map (2 output rows per event, no
    driver state), then the partial-agg groupby. Values as integer
    cents so the sums are bit-exact."""
    from no_fasel_scrapers_ray.ops.relational import preagg_sum_count
    HOP_US = 1_800_000_000  # 30 min

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"],
               rows_per_block=65536,
               derive={"event_type": col("event_type"),
                       "w1": floor_div(epoch_us("ts"), HOP_US) * HOP_US,
                       "cents": cents("value")})

    def windows(b: pd.DataFrame) -> pd.DataFrame:
        w1 = b["w1"].to_numpy()
        return pd.DataFrame({
            "event_type": np.concatenate([b["event_type"].to_numpy()] * 2),
            "win_start_us": np.concatenate([w1, w1 - HOP_US]),
            "cents": np.concatenate([b["cents"].to_numpy()] * 2),
        })

    win = ev.map_batches(windows, batch_format="pandas")
    return preagg_sum_count(win, ["event_type", "win_start_us"],
                            {"cents": "total_cents"},
                            count_alias="n_events")


def q_stratified_sample_events(sf_dir: str):
    """Stratified deterministic sample (§ sampling): per-event-type
    rates (downsample the dominant view/click classes, keep half of
    the rare purchases) — the same multiplicative-hash pick runs in
    the SQL oracle, so the chosen rows are identical."""
    from no_fasel_scrapers_ray.ops.relational import stratified_hash_sample
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type"],
               rows_per_block=65536)
    return stratified_hash_sample(
        ev, "event_id", "event_type",
        rates={"click": 0.05, "view": 0.02, "purchase": 0.5,
               "signup": 0.25})


def q_price_quartiles(sf_dir: str):
    """Interpolated GLOBAL quantiles (§ wide ops without a sort): the
    SQL quantile_cont rule at 0.25/0.5/0.75 over integer cents — all
    three quantiles share ONE distributed selection (one count pass +
    one collect pass for every bracketing order statistic); the
    interpolation `lo + (hi-lo)*frac` is bit-identical to DuckDB's."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import global_quantile_cont
    orders = _read(sf_dir, "orders", ["o_totalprice"], rows_per_block=65536,
                   derive={"cents": cents("o_totalprice")})
    q25, q50, q75 = global_quantile_cont(orders, "cents", [0.25, 0.5, 0.75])
    return pd.DataFrame({"q25": [q25], "q50": [q50], "q75": [q75]})


def q_local_supplier_revenue(sf_dir: str):
    """TPC-H Q5 shape (§ composed relational flagship): revenue from
    lineitems where customer and supplier share a nation, ASIA
    region, 1996 orders. ONE bucketed shuffle (orders ⋈ lineitem on
    orderkey, orders date-pruned AT THE READ); customer / supplier /
    nation / region are dim-sized → broadcast sorted-key arrays, the
    nation-match + region filter run map-side with searchsorted
    lookups. Revenue is exact integer cents×percent
    (ep_cents × (100 − disc_pct)) so both engines hash identically —
    no float ROUND on 4-decimal products (banker's vs half-away
    rounding differs exactly at .5)."""
    import pandas as pd
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, bucketed_join, preagg_sum_count)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate")
                >= pd.Timestamp("1996-01-01").date())
        & (pads.field("o_orderdate") < pd.Timestamp("1997-01-01").date()))
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"], rows_per_block=65536,
               derive={"o_orderkey": col("l_orderkey"),
                       "l_suppkey": col("l_suppkey"), "rev": _REV_E4})

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas() \
        .sort_values("c_custkey", ignore_index=True)
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey"]).to_pandas() \
        .sort_values("s_suppkey", ignore_index=True)
    nat = _read(sf_dir, "nation",
                ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    asia = set(nat.merge(reg, left_on="n_regionkey",
                         right_on="r_regionkey")
               .query("r_name == 'ASIA'")["n_nationkey"])
    names = dict(zip(nat["n_nationkey"], nat["n_name"]))
    dims_ref = ray.put((
        cust["c_custkey"].to_numpy(np.int64),
        cust["c_nationkey"].to_numpy(np.int64),
        supp["s_suppkey"].to_numpy(np.int64),
        supp["s_nationkey"].to_numpy(np.int64),
        np.array(sorted(asia), dtype=np.int64), names))

    j = bucketed_join(li, orders, on="o_orderkey", how="inner")

    def nation_match(b: pd.DataFrame) -> pd.DataFrame:
        ck, cn, sk, sn, asia_keys, _ = broadcast_get(dims_ref)
        c_nat = cn[np.searchsorted(ck, b["o_custkey"].to_numpy())]
        s_nat = sn[np.searchsorted(sk, b["l_suppkey"].to_numpy())]
        keep = (c_nat == s_nat) & np.isin(c_nat, asia_keys)
        return pd.DataFrame({"n_nationkey": c_nat[keep],
                             "rev": b["rev"].to_numpy()[keep]})

    agg = preagg_sum_count(
        j.map_batches(nation_match, batch_format="pandas"),
        ["n_nationkey"], {"rev": "revenue_e4"})

    # names attached on the aggregate (≤ |nation| rows), not per lineitem
    def name_it(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_name": b["n_nationkey"].map(names).astype(object),
            "revenue_e4": b["revenue_e4"].to_numpy()})

    return agg.map_batches(name_it, batch_format="pandas")


def q_events_nation_spend(sf_dir: str):
    """Skew-aware join (§ joins): events ⋈ customer on user key with
    hot-key isolation — keys above 4× a bucket's fair share are
    detected from per-batch partial counts, their dim rows broadcast
    and joined map-side, only the cold remainder is hash-partitioned.
    On this data the hot set is small-or-empty (mild skew) — the hot
    path itself is pinned with a zipf corpus in
    tests/test_window_aggs.py. Exact integer cents."""
    from no_fasel_scrapers_ray.ops.relational import (
        preagg_sum_count, skew_aware_join)
    ev = _read(sf_dir, "events", ["user_id", "value"],
               rows_per_block=65536,
               derive={"user_id": col("user_id"), "cents": cents("value"),
                       "one": pc.scalar(1)})
    # explicit widen (the oracle CASTs to BIGINT): the join used to widen
    # int32 accidentally via its float null-padding round trip; the r4
    # precision fix preserves true input dtypes
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"],
                 rows_per_block=65536,
                 derive={"user_id": col("c_custkey"),
                         "c_nationkey": int64("c_nationkey")})
    j = skew_aware_join(ev, cust, on="user_id")
    return preagg_sum_count(j, ["c_nationkey"],
                            {"one": "n_events", "cents": "total_cents"})


def q_doc_repetition(sf_dir: str):
    """Intra-document repetition (§ text quality, the Gopher
    duplicate-n-gram filter): per doc, the permille of word-3-gram
    occurrences that are repeats of an earlier gram in the SAME doc.
    Pure per-batch vectorized pandas — explode tokens once, build
    grams from shifted token columns (no per-doc Python loop), then a
    per-doc nunique. Integer permille so the oracle hash is exact;
    docs with <3 tokens score 0."""
    import pandas as pd

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def rep(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split(" ")
        flat = toks.explode()
        d = pd.DataFrame({"doc": flat.index.to_numpy(),
                          "t0": flat.to_numpy()})
        d["t1"] = d["t0"].shift(-1)
        d["t2"] = d["t0"].shift(-2)
        dd = d["doc"]
        same = dd.eq(dd.shift(-1)) & dd.eq(dd.shift(-2))
        g = d[same].copy()
        g["gram"] = g["t0"] + " " + g["t1"] + " " + g["t2"]
        stats = g.groupby("doc")["gram"].agg(["size", "nunique"])
        total = stats["size"].reindex(range(len(b)), fill_value=0)
        uniq = stats["nunique"].reindex(range(len(b)), fill_value=0)
        permille = np.zeros(len(b), dtype=np.int64)
        nz = total.to_numpy() > 0
        permille[nz] = (1000 * (total.to_numpy()[nz]
                                - uniq.to_numpy()[nz])
                        // total.to_numpy()[nz])
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "rep_permille": permille})

    def rep_reset(b: pd.DataFrame) -> pd.DataFrame:
        return rep(b.reset_index(drop=True))

    return docs.map_batches(rep_reset, batch_format="pandas")


def q_inverted_index(sf_dir: str):
    """Inverted index build (§ text/IR): term → document-frequency +
    comma-joined sorted postings, for terms in ≥ 20 docs. ONE term-
    bucket shuffle: per-batch distinct (term, doc) partials prune the
    map side, the per-bucket pass re-dedupes, counts df and joins
    postings in doc_id order. Oracle: string_agg(... ORDER BY) with
    HAVING on the same distinct pairs."""
    import pandas as pd

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split(" ")
        flat = toks.explode()
        d = pd.DataFrame({
            "term": flat.to_numpy(),
            "doc_id": b["doc_id"].to_numpy()[
                flat.index.to_numpy()]}).drop_duplicates()
        return d.reset_index(drop=True)

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates()
             .sort_values(["term", "doc_id"], kind="stable"))
        g["doc_s"] = g["doc_id"].astype(str)
        r = g.groupby("term", sort=False).agg(
            df=("doc_id", "size"), postings=("doc_s", ",".join)
        ).reset_index()
        return r[r["df"] >= 20]

    def pairs_reset(b: pd.DataFrame) -> pd.DataFrame:
        return pairs(b.reset_index(drop=True))

    return key_shuffle(docs.map_batches(pairs_reset, batch_format="pandas"),
                       build, ["term"], batch_format="pandas")


def q_approx_price_quartiles(sf_dir: str):
    """Mergeable quantile DIGEST (§ sketches): the one-pass scale twin
    of `price_quartiles` — per-batch weighted-centroid compression,
    one digest-row shuffle, driver final merge; state is k centroids
    no matter the row count (the HLL-vs-exact-distinct trade, applied
    to quantiles). No SQL oracle by design (approximate); the rank-
    error envelope vs the exact selection path is pinned in
    tests/test_sketch.py."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.sketch import approx_quantiles
    orders = _read(sf_dir, "orders", ["o_totalprice"], rows_per_block=65536,
                   derive={"cents": cents("o_totalprice")})
    q25, q50, q75 = approx_quantiles(orders, "cents", [0.25, 0.5, 0.75])
    return pd.DataFrame({"q25": [q25], "q50": [q50], "q75": [q75]})


def q_cosine_near_dup_exact(sf_dir: str):
    """Exact blocked all-pairs cosine — the hash-verified baseline for
    the approximate cosine_near_dup path (full DuckDB oracle)."""
    from no_fasel_scrapers_ray.ops.ann import cosine_near_dup_exact
    return cosine_near_dup_exact(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.35)


def q_cust_order_distribution(sf_dir: str):
    """Count-of-counts distribution (TPC-H Q13 shape): how many
    customers placed exactly k orders, INCLUDING the zero-order bucket.
    Two chained distributed reduces — orders→per-cust counts (bucketed
    partial agg), counts→histogram (second tiny reduce) — plus an
    anti-join key count for the k=0 row; the customer table itself
    never joins row-wise, only its key set is probed."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    orders = _read(sf_dir, "orders", ["o_custkey"], rows_per_block=65536)
    cust = _read(sf_dir, "customer", ["c_custkey"], rows_per_block=65536)
    per_cust = preagg_reduce(orders, ["o_custkey"], "n_orders", "count")
    hist = preagg_reduce(per_cust, ["n_orders"], "n_custs", "count") \
        .to_pandas()
    n_cust_total = cust.count()
    n_with_orders = int(hist["n_custs"].sum())
    zero = n_cust_total - n_with_orders
    if zero > 0:
        hist = pd.concat([hist, pd.DataFrame(
            {"n_orders": [0], "n_custs": [zero]})], ignore_index=True)
    return hist.astype({"n_orders": "int64", "n_custs": "int64"})


def q_large_volume_orders(sf_dir: str):
    """HAVING-then-join-back (TPC-H Q18 shape): orders whose total
    lineitem quantity exceeds a threshold, joined back to the order
    row. The per-order SUM is a distributed bucketed reduce; the
    survivors (rare by construction) broadcast-join back to the
    streaming orders scan — the Q18 plan DuckDB itself picks."""
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_join, preagg_reduce, round_columns)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"],
               rows_per_block=65536,
               derive={"l_orderkey": col("l_orderkey"),
                       "sum_qty": col("l_quantity")})
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"],
                   rows_per_block=65536)
    per_order = preagg_reduce(li, ["l_orderkey"], "sum_qty", "sum") \
        .map_batches(lambda b: b[b["sum_qty"].to_numpy() > 180.0],
                     batch_format="pandas")
    big = per_order.to_pandas().rename(columns={"l_orderkey": "o_orderkey"})
    out = broadcast_join(orders, big, on="o_orderkey", how="inner")
    return round_columns(out, {"sum_qty": 2, "o_totalprice": 2})


def q_priority_late_orders(sf_dir: str):
    """Correlated-inequality EXISTS (TPC-H Q4 shape): count orders per
    priority having at least one lineitem shipped AFTER the order date.
    The correlated predicate needs a column from EACH side, so it can't
    be a key-set semi-join: lineitem reduces to max(l_shipdate) per
    order (bucketed partial agg), big-big bucketed join to orders, then
    the inequality filter and a tiny count rollup."""
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_reduce)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"],
               rows_per_block=65536, derive=_SHIP_US)
    max_ship = preagg_reduce(li, ["o_orderkey"], "ship_us", "max")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"],
                   rows_per_block=65536,
                   derive={"o_orderkey": col("o_orderkey"),
                           "o_orderpriority": col("o_orderpriority"),
                           "order_us": epoch_us("o_orderdate")})
    joined = bucketed_join(orders, max_ship, on="o_orderkey", how="inner")
    late = joined.map_batches(
        lambda b: b[b["ship_us"].to_numpy() > b["order_us"].to_numpy()],
        batch_format="pandas")
    return preagg_reduce(late, ["o_orderpriority"], "n_orders", "count")


def q_price_moments(sf_dir: str):
    """Distributed skewness + excess kurtosis (§ statistical
    aggregates) of lineitem quantity per return flag, from exact
    raw-moment sums (grouped_moments) — the closed form evaluated
    once in float64, bit-identical to the oracle's mirrored
    expression."""
    from no_fasel_scrapers_ray.ops.relational import grouped_moments
    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"],
               rows_per_block=65536,
               derive={"l_returnflag": col("l_returnflag"),
                       "qty": rint("l_quantity")})
    return grouped_moments(li, ["l_returnflag"], "qty",
                           skew_alias="qty_skew", kurt_alias="qty_kurt")


def q_promo_revenue_ratio(sf_dir: str):
    """Conditional-sum ratio over a dimension join (TPC-H Q14 shape):
    percent of discounted revenue coming from ECONOMY-type parts. The
    part dimension collapses to a dense partkey→is_promo BITMAP
    broadcast once (O(#parts) bytes — 100 MB even at 10^8 parts, vs
    shuffling the fact table); lineitem streams through one map_batches
    computing revenue as cents × (100−disc_pct); the two revenue sums
    are exact (``exact_sums``) and feed ONE mirrored float64
    expression."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      exact_sums)
    parts = _read(sf_dir, "part", ["p_partkey", "p_type"],
                  rows_per_block=65536).to_pandas()
    bitmap = np.zeros(int(parts["p_partkey"].max()) + 1, dtype=bool)
    bitmap[parts.loc[parts["p_type"] == "ECONOMY", "p_partkey"]
           .to_numpy()] = True
    bm_ref = ray.put(bitmap)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount"],
               rows_per_block=65536,
               derive={"l_partkey": col("l_partkey"),
                       "cents": cents("l_extendedprice"), "keep": _KEEP_PCT})

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        bm = broadcast_get(bm_ref)
        return pd.DataFrame({
            "cents": b["cents"].to_numpy(), "keep": b["keep"].to_numpy(),
            "promo": bm[b["l_partkey"].to_numpy()].astype(np.int64)})

    s = exact_sums(li.map_batches(prep, batch_format="pandas"), [],
                   {"promo_v": ("cents", "keep", "promo"),
                    "total_v": ("cents", "keep")}).iloc[0]
    return pd.DataFrame(
        {"promo_ratio": [100.0 * float(s["promo_v"])
                         / float(s["total_v"])]})


def q_weighted_avg_discount(sf_dir: str):
    """Ratio-of-sums aggregate (§ statistical): price-weighted mean
    discount per return flag. Decomposes into two exact int64 sums
    (Σ cents·disc_pct, Σ cents) via one bucketed partial agg; the
    single float64 division is mirrored in the oracle so bits match —
    the 'weighted mean without a second pass' shape."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_sum_count
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_discount"],
               rows_per_block=65536,
               derive={"l_returnflag": col("l_returnflag"),
                       "wd": cents("l_extendedprice") * cents("l_discount"),
                       "w": cents("l_extendedprice")})
    sums = preagg_sum_count(li, ["l_returnflag"],
                            {"wd": "sum_wd", "w": "sum_w"})

    def ratio(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_returnflag": b["l_returnflag"].to_numpy(),
            "wavg_discount": b["sum_wd"].to_numpy(np.float64)
            / b["sum_w"].to_numpy(np.float64) / 100.0})

    return sums.map_batches(ratio, batch_format="pandas")


def q_user_spend_zscore(sf_dir: str):
    """Per-group z-score normalization (§ ML feature prep): every
    purchase event's value standardized against ITS USER's mean/std.
    Agg-then-join-back shape: per-user exact int64 moment sums (n, Σx,
    Σx²) via bucketed partial agg, big-big bucketed join back onto the
    streaming events, then z = (n·x − s) / √(n·ssq − s²) — one float64
    expression mirrored in the oracle, so bits match (values go to
    cents; n·ssq must fit int64). Zero-variance users are excluded on
    both sides."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_sum_count)
    def ev(**derive):
        return _read(sf_dir, "events", ["event_id", "user_id", "value"],
                     rows_per_block=65536,
                     derive={"user_id": col("user_id"), **derive})

    moments = preagg_sum_count(
        ev(x=cents("value"), x2=cents("value") * cents("value")),
        ["user_id"], {"x": "s", "x2": "ssq"}, count_alias="n")
    joined = bucketed_join(ev(event_id=col("event_id"), x=cents("value")),
                           moments, on="user_id", how="inner")

    def z(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy(np.int64)
        s = b["s"].to_numpy(np.int64)
        ssq = b["ssq"].to_numpy(np.int64)
        x = b["x"].to_numpy(np.int64)
        den2 = n * ssq - s * s
        keep = den2 > 0
        num = (n * x - s)[keep].astype(np.float64)
        den = np.sqrt(den2[keep].astype(np.float64))
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy()[keep],
            "zscore": num / den})

    return joined.map_batches(z, batch_format="pandas")


def q_orders_above_p99(sf_dir: str):
    """Global-order-statistic filter (§ composition): orders priced
    above the exact P99 of o_totalprice. The P99 comes from the
    distributed selection operator (one count pass + one bracketing
    collect, never a full sort); the scalar threshold then prunes the
    streaming scan — the 'compute a corpus statistic, filter by it'
    shape every data-curation pipeline runs. Prices compared in exact
    cents so the discrete quantile is bit-unambiguous."""
    from no_fasel_scrapers_ray.ops.relational import (
        global_quantile_disc, round_columns)
    price = _read(sf_dir, "orders", ["o_totalprice"], rows_per_block=65536,
                  derive={"cents": cents("o_totalprice")})
    # an int: Arrow 16 compares an int64 column with a float literal in
    # float32, exact only below 2^24
    p99 = int(global_quantile_disc(price, "cents", 0.99))
    out = _read(sf_dir, "orders",
                ["o_orderkey", "o_custkey", "o_totalprice"],
                rows_per_block=65536, where=cents("o_totalprice") > p99)
    return round_columns(out, {"o_totalprice": 2})


def q_doc_decontaminate(sf_dir: str):
    """Benchmark decontamination (§ LLM training-data prep): training
    docs sharing any 4-token shingle with the benchmark subset
    (doc_id % 10 == 0). The benchmark shingle set broadcasts once
    (eval suites are small even at 100 TB corpora); the corpus streams
    through one vectorized searchsorted hash probe (exact-string
    verify on the rare candidates) — no shuffle."""
    from no_fasel_scrapers_ray.ops.textops import decontaminate
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return decontaminate(docs, bench_mod=10, shingle=4)


def q_doc_dup_spans(sf_dir: str):
    """Substring-level exact dedup (§ LLM training-data prep; the
    round-4 missing family per VERDICT r03): maximal token ranges
    whose 6-token windows also appear in at least one OTHER document —
    the duplicated-span finder that a span-removal pass would consume.
    Three narrow shuffles over window hashes / (doc, off) rows; while
    the candidate hashes fit the broadcast budget the document text
    never shuffles, and past it the op degrades to the distributed
    candidate tier (ops/dedup.py::dup_spans). Oracle:
    UNNEST(range) windows + HAVING count(DISTINCT doc_id) > 1 +
    gaps-and-islands merge."""
    from no_fasel_scrapers_ray.ops.dedup import dup_spans
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    spans = dup_spans(docs, k=6)
    if spans.count() == 0:
        # 0-row to_pandas() drops column names (Ray gotcha) — hand back
        # the contract schema so the driver's column compare holds
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in spans.schema().names})
    return spans


def q_doc_chunks(sf_dir: str):
    """Fixed-width token chunking (§ LLM training-data prep): split
    every document into 32-token windows — the map that feeds a
    tokenizer/packer in a pretraining pipeline. Pure flat-map: each
    batch expands independently (np.repeat on chunk counts, no Python
    per-token loop), no shuffle at all; output is (doc_id, chunk_id,
    n_tokens, first_tok). Splitting is single-space (str.split(' '))
    to match SQL string_split semantics exactly."""
    import pandas as pd
    W = 32
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def chunks(b: pd.DataFrame) -> pd.DataFrame:
        doc_ids, n_chunks, n_last, firsts = [], [], [], []
        for did, text in zip(b["doc_id"].to_numpy(), b["text"]):
            toks = text.split(" ")
            n = len(toks)
            k = (n + W - 1) // W
            doc_ids.append(did)
            n_chunks.append(k)
            n_last.append(n - W * (k - 1))
            firsts.append(toks[::W])
        k_arr = np.asarray(n_chunks, dtype=np.int64)
        out_doc = np.repeat(np.asarray(doc_ids, dtype=np.int64), k_arr)
        chunk_id = np.concatenate([np.arange(k) for k in k_arr])
        n_tokens = np.full(len(out_doc), W, dtype=np.int64)
        ends = np.cumsum(k_arr) - 1
        n_tokens[ends] = np.asarray(n_last, dtype=np.int64)
        return pd.DataFrame({
            "doc_id": out_doc, "chunk_id": chunk_id, "n_tokens": n_tokens,
            "first_tok": np.concatenate(firsts) if firsts else
            np.array([], dtype=object)})

    return docs.map_batches(chunks, batch_format="pandas")


def q_small_qty_revenue(sf_dir: str):
    """Correlated-scalar-subquery join-back (TPC-H Q17 shape): revenue
    from lineitems whose quantity is below 20% of THEIR PART's average
    quantity, for one brand's parts. The per-part average is the
    correlated scalar; distributed it becomes a pruned bucketed
    aggregate whose survivors broadcast back over the streaming scan.
    The threshold compare is kept in exact integers —
    ``5·qty·cnt < Σqty`` is algebraically ``qty < 0.2·avg`` with no
    division — so no float rounding rule can diverge between engines;
    the revenue total is an exact sum (``exact_sums``)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      exact_sums)
    parts = _read(sf_dir, "part", ["p_partkey", "p_brand"],
                  rows_per_block=65536).to_pandas()
    brand_keys = np.sort(parts.loc[parts["p_brand"] == "Brand#1",
                                   "p_partkey"].to_numpy(np.int64))
    keys_ref = ray.put(brand_keys)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"],
               rows_per_block=65536,
               derive={"l_partkey": col("l_partkey"),
                       "qty": rint("l_quantity"),
                       "cents": cents("l_extendedprice")})

    def part_sums(b: pd.DataFrame) -> pd.DataFrame:
        ks = broadcast_get(keys_ref)
        pk = b["l_partkey"].to_numpy(np.int64)
        pos = np.searchsorted(ks, pk)
        hit = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)] == pk)
        qty = b["qty"].to_numpy()[hit]
        g = pd.DataFrame({"l_partkey": pk[hit], "sum_qty": qty,
                          "cnt": np.ones(hit.sum(), dtype=np.int64)})
        return g.groupby("l_partkey", as_index=False).sum()

    per_part = li.map_batches(part_sums, batch_format="pandas") \
        .to_pandas().groupby("l_partkey", as_index=False).sum() \
        .sort_values("l_partkey", ignore_index=True)
    stats_ref = ray.put((per_part["l_partkey"].to_numpy(np.int64),
                         per_part["sum_qty"].to_numpy(np.int64),
                         per_part["cnt"].to_numpy(np.int64)))

    def small_cents(b: pd.DataFrame) -> pd.DataFrame:
        ks, sums, cnts = broadcast_get(stats_ref)
        pk = b["l_partkey"].to_numpy(np.int64)
        pos = np.searchsorted(ks, pk)
        hit = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)] == pk)
        pos = np.minimum(pos, len(ks) - 1)
        qty = b["qty"].to_numpy()
        small = hit & (5 * qty * cnts[pos] < sums[pos])
        return pd.DataFrame({"c": b["cents"].to_numpy()[small]})

    total = exact_sums(li.map_batches(small_cents, batch_format="pandas"),
                       [], {"c": ("c",)})["c"][0]
    return pd.DataFrame({"revenue_cents": np.array([total], np.int64)})


def q_late_sole_supplier(sf_dir: str):
    """EXISTS + NOT-EXISTS on the same fact table (TPC-H Q21 shape):
    suppliers who were the ONLY late shipper on a multi-supplier order
    (late = shipped >45 days after the order date). The two correlated
    quantifiers collapse into ONE per-order distinct aggregate —
    |suppliers| ≥ 2 and |late suppliers| = 1 — so the whole query is a
    single big-big orderkey-bucketed join plus one per-order pass; the
    oracle keeps DuckDB's literal EXISTS/NOT-EXISTS form so the two
    formulations check each other."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_reduce)
    LATE_US = 45 * 86400 * 1_000_000
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"],
                   rows_per_block=65536, derive=_ORDER_US)
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"],
               rows_per_block=65536,
               derive={"o_orderkey": col("l_orderkey"),
                       "l_suppkey": col("l_suppkey"),
                       "ship_us": epoch_us("l_shipdate")})
    j = bucketed_join(li, orders, on="o_orderkey", how="inner")

    def per_order(g: pd.DataFrame) -> pd.DataFrame:
        n_supp = g.groupby("o_orderkey")["l_suppkey"].nunique()
        late = g[g["ship_us"].to_numpy()
                 > g["order_us"].to_numpy() + LATE_US]
        if late.empty:
            return pd.DataFrame({"s_suppkey": np.array([], np.int64)})
        lg = late.groupby("o_orderkey")["l_suppkey"]
        n_late, sole = lg.nunique(), lg.min()
        ok = (n_late == 1) & (n_supp.reindex(n_late.index) >= 2)
        return pd.DataFrame({"s_suppkey": sole[ok].to_numpy(np.int64)})

    charged = key_shuffle(j, per_order, ["o_orderkey"],
                          batch_format="pandas")
    return preagg_reduce(charged, ["s_suppkey"], "numwait", "count")


def q_stock_value_parts(sf_dir: str):
    """Group-HAVING against a GLOBAL aggregate scalar (TPC-H Q11
    shape): parts whose total lineitem value exceeds 1.1× the average
    part's (a relative threshold — a fixed corpus-share cutoff goes
    empty as the part count grows with sf). Per-part values come from
    one bucketed sum; the global total and part count are the
    Python-int combine of that aggregate's own partials (part-sized,
    never row-sized); the filter then prunes the aggregate stream
    against the broadcast scalars. All compares in exact integer cents
    (``value·n·10 > 11·total`` ⇔ value > 1.1·avg, no division)."""
    from no_fasel_scrapers_ray.ops.relational import (exact_sums,
                                                      preagg_sum_count)
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"],
               rows_per_block=65536,
               derive={"l_partkey": col("l_partkey"),
                       "v": cents("l_extendedprice")})
    per_part = preagg_sum_count(li, ["l_partkey"], {"v": "value_cents"}) \
        .materialize()
    s = exact_sums(per_part, [], {"s": ("value_cents",), "n": ()}).iloc[0]
    total, n_parts = s["s"], s["n"]
    return per_part.map_batches(
        lambda b: b[b["value_cents"].to_numpy(np.int64) * n_parts * 10
                    > 11 * total],
        batch_format="pandas")


def q_shuffle_corpus(sf_dir: str):
    """Deterministic global corpus shuffle (§ LLM training-data prep):
    every doc gets a shard and a dense position within it — the
    'shuffle 100 TB reproducibly, resume mid-epoch' op a pretraining
    loader needs. Shard and order come from two mirrored multiplicative
    hashes (Knuth / xxhash primes, exact in int64 for ids < 2^31), so
    the shuffle is a pure map + ONE shard-bucket shuffle for the dense
    rank (`windowed_rank` row_number) — no RNG, no driver state, and
    the SQL oracle reproduces it bit-for-bit via ROW_NUMBER."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import windowed_rank
    N_SHARDS = 8
    docs = _read(sf_dir, "documents", ["doc_id"])

    def hashes(b: pd.DataFrame) -> pd.DataFrame:
        did = b["doc_id"].to_numpy(np.int64)
        if len(did) and int(did.max()) >= 1 << 31:
            raise ValueError("shuffle hash needs doc_id < 2^31")
        h1 = (did * 2654435761) % 4294967296
        h2 = (did * 2246822519) % 4294967296
        return pd.DataFrame({"doc_id": did, "shard_id": h1 % N_SHARDS,
                             "h2": h2})

    ranked = windowed_rank(docs.map_batches(hashes,
                                            batch_format="pandas"),
                           ["shard_id"], "h2", "pos",
                           method="row_number", tie_cols=["doc_id"])
    return ranked.map_batches(lambda b: b[["doc_id", "shard_id", "pos"]],
                              batch_format="pandas")


def q_pack_token_windows(sf_dir: str):
    """Token-stream sequence packing (§ LLM training-data prep): lay
    every document's tokens on ONE global concatenated stream in
    doc_id order and cut fixed 256-token training windows across doc
    boundaries — the GPT-style packer. The global token offset is a
    distributed ordered PREFIX SUM (`ops/relational.py::
    ordered_prefix_sum` — range partitions, per-range sums to the
    driver, broadcast base offsets; driver state is one int per range).
    Token counts are zero-copy Arrow (count_substring), single-space
    split to mirror SQL's string_split exactly."""
    from no_fasel_scrapers_ray.ops.relational import ordered_prefix_sum
    W = 256
    toks = _read(sf_dir, "documents", ["doc_id", "text"],
                 derive=_DOC_TOKENS)
    offs = ordered_prefix_sum(toks, "doc_id", "n_tokens", "start_tok")

    def windows(b: "pd.DataFrame") -> "pd.DataFrame":
        s = b["start_tok"].to_numpy(np.int64)
        n = b["n_tokens"].to_numpy(np.int64)
        return b.assign(first_window=s // W,
                        last_window=(s + n - 1) // W)

    return offs.map_batches(windows, batch_format="pandas")


def _fulfillment_edges(sf_dir: str, qty_eq: int | None = None):
    """Distinct (customer, supplier) fulfillment pairs — shared by the
    walk, k-core and BFS queries. Same packed-int64 np.unique dedup as
    the part co-occurrence builder (custkey/suppkey < 2^31 asserted):
    the orders⋈lineitem join streams through one per-batch unique + one
    key-bucket unique pass instead of a two-column pandas groupby.
    ``qty_eq`` keeps only lines with that rounded quantity (the BFS
    query's sparse subgraph) — filtered per batch BEFORE the join, so
    the shuffle moves only the ~2% of lines that survive."""
    from no_fasel_scrapers_ray.ops.relational import bucketed_join
    HALF = np.int64(1 << 31)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=65536)
    li_cols = ["l_orderkey", "l_suppkey"] + (
        ["l_quantity"] if qty_eq is not None else [])
    li = _read(sf_dir, "lineitem", li_cols, rows_per_block=65536,
               derive={"o_orderkey": col("l_orderkey"),
                       "l_suppkey": col("l_suppkey")},
               where=None if qty_eq is None
               else rint("l_quantity") == qty_eq)
    j = bucketed_join(li, orders, on="o_orderkey", how="inner")

    def pack(b: pd.DataFrame) -> pa.Table:
        c = b["o_custkey"].to_numpy(np.int64)
        s = b["l_suppkey"].to_numpy(np.int64)
        if len(c) and (int(c.max()) >= HALF or int(s.max()) >= HALF):
            raise ValueError("edge key packing needs ids < 2^31; "
                             "compact ids first")
        return pa.table({"cs": np.unique(c * HALF + s)})

    def dedup(g: "pd.DataFrame") -> pa.Table:
        cs = np.unique(g["cs"].to_numpy(np.int64))
        return pa.table({"c": cs // HALF, "s": cs & (HALF - 1)})

    return key_shuffle(j.map_batches(pack, batch_format="pandas"), dedup,
                       ["cs"], batch_format="pandas").materialize()


def q_graph_walks(sf_dir: str):
    """Deterministic pseudo-random graph walks (§ graph sampling):
    3-hop walks customer→supplier→customer→supplier over the distinct
    fulfillment adjacency, hop h moving to the out-neighbor minimizing
    a mirrored integer hash (`ops/graph.py::deterministic_walks`).
    Each adjacency direction is reduced ONCE into fused per-step
    best-next tables; walks from all customers chain through
    node-keyed bucketed joins (hop 1 is the fwd best table itself).
    The oracle unrolls the same three hops as chained CTE argmin
    joins."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import deterministic_walks
    cs = _fulfillment_edges(sf_dir)
    fwd = cs.map_batches(lambda b: pd.DataFrame(
        {"src": b["c"].to_numpy(np.int64),
         "dst": b["s"].to_numpy(np.int64)}), batch_format="pandas")
    rev = cs.map_batches(lambda b: pd.DataFrame(
        {"src": b["s"].to_numpy(np.int64),
         "dst": b["c"].to_numpy(np.int64)}), batch_format="pandas")
    return deterministic_walks([fwd, rev, fwd], starts=None)


def q_kcore_fulfillment(sf_dir: str):
    """Iterative k-core peeling (§ graph operators) on the bipartite
    customer–supplier fulfillment graph: 4 rounds of 'delete nodes
    with degree < 10 and their incident edges'
    (`ops/graph.py::kcore_nodes`) — the density-pruning pass community
    detection and near-dup graph cleanup start with. The part
    co-occurrence graph is near-regular (any threshold either peels
    nothing or cascades to empty); the bipartite graph's skewed
    customer degrees give real multi-round peeling at every sf. Per
    round one bucketed degree reduce + one edge anti-join against the
    round's dropped-node set; the oracle unrolls the same 4 rounds as
    chained CTEs. Customers offset by 2^40 into their own node space
    (the pagerank contract)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import kcore_nodes
    edges = _fulfillment_edges(sf_dir).map_batches(
        lambda b: pd.DataFrame({
            "a": b["s"].to_numpy(np.int64),
            "b": b["c"].to_numpy(np.int64) + (1 << 40)}),
        batch_format="pandas")
    return kcore_nodes(edges, k=_KCORE_K, rounds=4)


def q_weighted_sample_docs(sf_dir: str):
    """Weighted deterministic Bernoulli sampling (§ LLM training-data
    prep): keep each doc with probability proportional to its token
    count — the 'sample the corpus ∝ quality weight' subsampling a
    data-mixture pipeline runs, reproducible with no RNG. Keep rule in
    EXACT integers: ``hash(doc)·w_max < 2^32·w_doc`` ⇔ u < w/w_max
    with u = hash/2^32 (all products < 2^63, mirrored in SQL). The
    global max weight is a scalar from the token pass's own partials;
    the filter is then one streaming map — the weighted twin of
    `hash_sample`."""
    import pandas as pd
    toks = _read(sf_dir, "documents", ["doc_id", "text"],
                 derive=_DOC_TOKENS).materialize()
    partials = toks.map_batches(
        lambda b: pd.DataFrame({"m": [int(b["n_tokens"].max())]}),
        batch_format="pandas").to_pandas()
    w_max = int(partials["m"].max())

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        did = b["doc_id"].to_numpy(np.int64)
        if len(did) and int(did.max()) >= 1 << 31:
            raise ValueError("sampling hash needs doc_id < 2^31")
        h = (did * 3266489917) % 4294967296
        w = b["n_tokens"].to_numpy(np.int64)
        return b[h * w_max < w * 4294967296]

    return toks.map_batches(keep, batch_format="pandas")


def q_user_event_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution (§
    statistical aggregates) — the behavioral-diversity feature a
    curation/abuse pipeline computes per source. Integer (user, type)
    counts from one bucketed partial agg, then per-user
    ``H = ln(n) − Σ nᵢ·ln(nᵢ)/n`` evaluated in ONE float64 expression
    and rounded to 6 dp on both engines (the pagerank float contract —
    ln is correctly rounded on both, residue is ~1e-16)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    ev = _read(sf_dir, "events", ["user_id", "event_type"],
               rows_per_block=65536)
    counts = preagg_reduce(ev, ["user_id", "event_type"], "n_i",
                           "count")

    def entropy(g: pd.DataFrame) -> pd.DataFrame:
        n_i = g["n_i"].to_numpy(np.int64).astype(np.float64)
        # Σ nᵢ·ln(nᵢ) summed FIRST, divided by n ONCE — the same
        # association as the oracle's SUM(n_i*LN(n_i))/SUM(n_i)
        s = pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                          "t": n_i * np.log(n_i),
                          "n_i": g["n_i"].to_numpy(np.int64)}) \
            .groupby("user_id", as_index=False).agg(t=("t", "sum"),
                                                    n=("n_i", "sum"))
        n = s["n"].to_numpy(np.int64).astype(np.float64)
        return pd.DataFrame({
            "user_id": s["user_id"].to_numpy(),
            "entropy": np.round(np.log(n) - s["t"].to_numpy() / n, 6)})

    return key_shuffle(counts, entropy, ["user_id"], batch_format="pandas")


def q_top_suppliers_per_nation(sf_dir: str):
    """Aggregate-then-top-k (§ composition): the 3 highest-revenue
    suppliers per nation — the 'leaderboard per segment' analytics
    shape. One bucketed revenue sum per supplier (exact cents), the
    nation comes from a broadcast dim lookup map-side, then
    `topk_per_group` prunes the shuffle to ≤ k partial rows per
    (nation, batch). ROW_NUMBER oracle with suppkey tie-break."""
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, preagg_sum_count, topk_per_group)
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"],
                 rows_per_block=65536).to_pandas() \
        .sort_values("s_suppkey", ignore_index=True)
    # Keep s_nationkey in its source dtype (int32 in the parquet
    # schema) so the output column round-trips dtype-exactly.
    nat_ref = ray.put((supp["s_suppkey"].to_numpy(np.int64),
                       supp["s_nationkey"].to_numpy()))
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"],
               rows_per_block=65536,
               derive={"s_suppkey": col("l_suppkey"),
                       "v": cents("l_extendedprice")})
    rev = preagg_sum_count(li, ["s_suppkey"], {"v": "revenue_cents"})

    def add_nation(b: pd.DataFrame) -> pd.DataFrame:
        ks, nk = broadcast_get(nat_ref)
        pos = np.searchsorted(ks, b["s_suppkey"].to_numpy(np.int64))
        return b.assign(s_nationkey=nk[pos])

    return topk_per_group(rev.map_batches(add_nation,
                                          batch_format="pandas"),
                          ["s_nationkey"], "revenue_cents", 3,
                          ascending=False, tie_cols=["s_suppkey"])


def q_hits_suppliers(sf_dir: str):
    """HITS hubs/authorities (§ graph operators) on the bipartite
    customer→supplier fulfillment graph: 3 alternating iterations
    (authority ← Σ hub over in-edges, hub ← Σ authority over
    out-edges, each side sum-normalized) — PageRank's two-sided
    sibling, ranking suppliers by how concentrated their demand is
    among high-fan-out customers. State per iteration is one
    node-sized float vector per side (the pagerank tier-2
    broadcast-ranks contract: one edge pass + one node-sized reduce
    per half-step; the fully-bucketed tier-3 shape applies unchanged
    when nodes outgrow a broadcast). Oracle: the same 3 iterations
    unrolled as chained CTEs, both sides rounded to 6 dp (the
    pagerank float contract)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import broadcast_get
    cs = _fulfillment_edges(sf_dir)
    mm = cs.map_batches(
        lambda b: pd.DataFrame({"mc": [int(b["c"].max())],
                                "ms": [int(b["s"].max())]}),
        batch_format="pandas").to_pandas()
    n_c, n_s = int(mm["mc"].max()) + 1, int(mm["ms"].max()) + 1

    def edge_sum(vec_ref, src_col, dst_col, out_size):
        def partial(b: pd.DataFrame) -> pd.DataFrame:
            v = broadcast_get(vec_ref)
            acc = np.zeros(out_size, dtype=np.float64)
            np.add.at(acc, b[dst_col].to_numpy(np.int64),
                      v[b[src_col].to_numpy(np.int64)])
            return pd.DataFrame({"acc": [acc.tobytes()]})
        parts = cs.map_batches(partial,
                               batch_format="pandas").to_pandas()
        out = np.zeros(out_size, dtype=np.float64)
        for blob in parts["acc"]:
            out += np.frombuffer(blob, dtype=np.float64)
        return out

    hub = np.ones(n_c, dtype=np.float64)
    auth = np.zeros(n_s, dtype=np.float64)
    for it in range(3):
        raw_a = edge_sum(ray.put(hub), "c", "s", n_s)
        auth = raw_a / raw_a.sum()
        if it < 2:   # the final hub half-step feeds nothing
            raw_h = edge_sum(ray.put(auth), "s", "c", n_c)
            hub = raw_h / raw_h.sum()
    keys = np.flatnonzero(auth > 0)
    return pd.DataFrame({"s_suppkey": keys.astype(np.int64),
                         "authority": np.round(auth[keys], 6)})


def q_idle_rich_customers(sf_dir: str):
    """Global-scalar filter + anti-join (TPC-H Q22 shape): customers
    with a strictly-above-average positive balance who never placed an
    URGENT order (every customer has SOME order in the synthetic data,
    so the classic no-orders predicate would be legitimately empty).
    The average is the Python-int combine of the balance scan's own
    partials (``cents·n > total``, no division); the anti side is the
    broadcast-key-set anti-join — swap for `bloom_semi_join`'s
    bit-array when the key set outgrows a broadcast."""
    from no_fasel_scrapers_ray.ops.relational import anti_join, exact_sums
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"],
                 rows_per_block=65536,
                 derive={"c_custkey": col("c_custkey"),
                         "cents": cents("c_acctbal")},
                 where=cents("c_acctbal") > 0).materialize()
    s = exact_sums(cust, [], {"s": ("cents",), "n": ()}).iloc[0]
    total, n = s["s"], s["n"]
    rich = cust.map_batches(
        lambda b: b[b["cents"].to_numpy(np.int64) * n > total],
        batch_format="pandas")
    urgent = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536,
                   derive={"o_custkey": col("o_custkey")},
                   where=col("o_orderpriority") == "1-URGENT").to_pandas()
    return anti_join(rich, np.unique(urgent["o_custkey"].to_numpy()),
                     "c_custkey")


def q_winsorized_user_spend(sf_dir: str):
    """Per-group winsorization (§ data cleaning): every purchase
    clipped at ITS USER's exact p90 spend — outlier capping before a
    mean/feature pass. Agg-then-join-back: exact per-user discrete
    quantile (`grouped_quantile_disc`, DuckDB's element rule) →
    bucketed join onto the streaming events → LEAST in exact cents."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, grouped_quantile_disc)
    ev = _read(sf_dir, "events", ["event_id", "user_id", "value",
                                  "event_type"],
               rows_per_block=65536,
               derive={"event_id": col("event_id"),
                       "user_id": col("user_id"), "cents": cents("value")},
               where=col("event_type") == "purchase").materialize()
    p90 = grouped_quantile_disc(ev.select_columns(["user_id", "cents"]),
                                ["user_id"], "cents", 0.9, "p90")
    joined = bucketed_join(ev, p90, on="user_id", how="inner")
    return joined.map_batches(
        lambda b: pd.DataFrame({
            "event_id": b["event_id"].to_numpy(),
            "clipped_cents": np.minimum(
                b["cents"].to_numpy(np.int64),
                b["p90"].to_numpy(np.int64))}),
        batch_format="pandas")


def q_approx_type_value_quantiles(sf_dir: str):
    """PER-GROUP approximate quantiles from mergeable digests (§
    sketches, rows-only): p50/p95 of event value per event type —
    the per-host-latency-percentile monitor shape. Per-key state is
    ≤ k centroids regardless of the key's row count (the hot-key-safe
    twin of the exact grouped quantiles); rank-error envelope incl. a
    100× hot group pinned in tests/test_sketch.py — approximate by
    design, so no SQL oracle."""
    from no_fasel_scrapers_ray.ops.sketch import grouped_approx_quantiles
    ev = _read(sf_dir, "events", ["event_type", "value"],
               rows_per_block=65536)
    return grouped_approx_quantiles(ev, ["event_type"], "value",
                                    [0.5, 0.95], k=128)


def q_doc_decontaminate_neardup(sf_dir: str):
    """Cross-set EXACT near-dup decontamination (§ LLM training-data
    prep): training docs whose 3-gram Jaccard with ANY benchmark doc
    (doc_id % 10 == 0) is ≥ 0.5 — the near-dup generalization of the
    exact-shingle `doc_decontaminate` probe, catching paraphrased /
    partially-copied contamination. `ops/dedup.py::ngram_jaccard_cross`:
    the prefix-filter guarantee holds per pair, but pair emission is
    CROSS-ONLY (|eval|×|train| within a shared-prefix group, never the
    self-join triangle, and train-train pairs never exist as keys)."""
    from no_fasel_scrapers_ray.ops.dedup import ngram_jaccard_cross
    docs = _read(sf_dir, "documents", ["doc_id", "text"],
                 derive={"doc_id": col("doc_id"), "text": col("text"),
                         "side": flag(mod("doc_id", 10) != 0)})
    return ngram_jaccard_cross(docs, "side", shingle=3,
                               jaccard_threshold=0.5)


def q_orders_page(sf_dir: str):
    """ORDER BY + LIMIT/OFFSET pagination WITHOUT a global sort (§
    sorts/limits): page [101, 120] of orders by (price, orderkey) via
    `ops/relational.py::global_order_page` — two exact rank selections
    bracket the page's value range, only that bracket is collected and
    ordered locally. Prices in exact cents so the bracket bounds are
    unambiguous; orderkey tie-break makes the page deterministic."""
    from no_fasel_scrapers_ray.ops.relational import global_order_page
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"cents": cents("o_totalprice"),
                           "o_orderkey": col("o_orderkey")})
    return global_order_page(orders, "cents", "o_orderkey",
                             offset=100, limit=20)


def q_cms_part_counts(sf_dir: str):
    """Count-min sketch point-frequency estimates (§ sketches,
    rows-only): per-batch (depth×width) counter partials merged by
    addition — constant driver state regardless of key cardinality,
    the frequency twin of the HLL blob. Estimates are one-sided
    (est ≥ true, est ≤ true + (e/width)·N w.h.p. — envelope pinned in
    tests/test_sketch.py); queried here for the 20 most frequent
    partkeys found by the exact Misra-Gries pass, so the output is
    deterministic but intentionally NOT SQL-equal (overestimates by
    design → no oracle entry)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    from no_fasel_scrapers_ray.ops.sketch import cms_query, cms_sketch
    li = _read(sf_dir, "lineitem", ["l_partkey"], rows_per_block=65536)
    m = cms_sketch(li, "l_partkey", depth=4, width=4096)
    exact = preagg_reduce(li, ["l_partkey"], "n", "count").to_pandas() \
        .sort_values(["n", "l_partkey"], ascending=[False, True],
                     ignore_index=True).head(20)
    keys = exact["l_partkey"].to_numpy(np.int64)
    return pd.DataFrame({"l_partkey": keys,
                         "est": cms_query(m, keys),
                         "n": exact["n"].to_numpy(np.int64)})


# --------------------------------------------------------------------------
# Crawl-engine queries (rows-only: the reference-semantics oracle — not
# SQL — is their correctness authority; covered by tests/test_crawl_e2e
# and tests/test_pipelines_e2e)
# --------------------------------------------------------------------------

_CRAWL_MEMO: dict = {}


def _crawl_run():
    """One tiny-corpus crawl shared by the crawl_* queries (memoized
    per process; deterministic: seeded generator, structural ordering)."""
    if "run" in _CRAWL_MEMO:
        return _CRAWL_MEMO["run"]
    import tempfile
    from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
    from no_fasel_scrapers_ray.pipelines.assemble import (
        assemble_records, build_catalogs)
    from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine
    corpus, seeds = generate(tiny_config())
    run_dir = tempfile.mkdtemp(prefix="entry_crawl_")
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=2)
    eng.run()
    catalogs = build_catalogs(assemble_records(eng.records_dataset()))
    _CRAWL_MEMO["run"] = (corpus, catalogs, eng.frontier_log_table())
    return _CRAWL_MEMO["run"]


def q_crawl_catalogs(sf_dir: str):
    """Full multi-site crawl → flattened catalog entries."""
    import json
    _, catalogs, _ = _crawl_run()
    rows = [
        {"catalog": cat, "key": k, "title": str(rec.get("Title", "")),
         "category": str(rec.get("Category", "")),
         "n_episodes": int(rec.get("Number Of Episodes", 0)),
         "payload": json.dumps(rec, ensure_ascii=False, sort_keys=True)}
        for cat, data in sorted(catalogs.items())
        for k, rec in data.items()
    ]
    return pd.DataFrame(rows)


def q_crawl_frontier_log(sf_dir: str):
    """The frontier pop log — (site, depth, order_key)-priority order."""
    _, _, log = _crawl_run()
    return log.select(["url", "site", "category", "depth", "order_key"])


def q_crawl_all_content(sf_dir: str):
    """Postprocess (genre cleanup U8, TMDb fill J2, drops D4) + the
    union-all indexer A6."""
    from no_fasel_scrapers_ray.pipelines.postprocess import (
        all_content_index, postprocess_catalogs)
    _, catalogs, _ = _crawl_run()
    post, _ = postprocess_catalogs(catalogs)
    rows = all_content_index(post)["content"]
    return pd.DataFrame([
        {"key": r["key"], "title": r["Title"], "category": r["Category"],
         "rating": str(r["Rating"]), "n_genres": len(r["Genres"])}
        for r in rows])


def q_crawl_host_stats(sf_dir: str):
    """Per-site frontier audit: pages popped, depth reach, and the
    pop-order span per site — the politeness/ordering summary a crawl
    operator watches. Derived from the same frontier log whose exact
    (site, depth, order_key) order is oracle-pinned in
    tests/test_crawl_e2e.py; rows-only at the driver gate."""
    _, _, log = _crawl_run()
    df = log.select(["site", "depth", "order_key"]).to_pandas()
    g = df.groupby("site", as_index=False).agg(
        n_pages=("order_key", "size"), max_depth=("depth", "max"),
        first_pop=("order_key", "min"), last_pop=("order_key", "max"))
    return g.sort_values("site", ignore_index=True)


def q_scrape_all(sf_dir: str):
    """One-shot orchestrated run (ScrapeAll.py:5-39 parity): crawl →
    assemble → trending → postprocess → all-content → image blobs →
    full output directory. Returns the file manifest (name, md5,
    size) — rows-only check; per-artifact equality is oracle-tested in
    tests/test_scrape_all.py."""
    import hashlib
    import os
    if "scrape_all" not in _CRAWL_MEMO:
        import tempfile
        from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
        from no_fasel_scrapers_ray.pipelines.scrape_all import scrape_all
        corpus, seeds = generate(tiny_config())
        run_dir = tempfile.mkdtemp(prefix="entry_scrape_all_")
        _CRAWL_MEMO["scrape_all"] = scrape_all(
            corpus, seeds.to_pylist(), run_dir, n_shards=2)
    summary = _CRAWL_MEMO["scrape_all"]
    out_dir = summary["out_dir"]
    rows = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as fp:
            blob = fp.read()
        rows.append({"file": name, "md5": hashlib.md5(blob).hexdigest(),
                     "bytes": len(blob)})
    return pd.DataFrame(rows)


def q_crawl_dead_letter(sf_dir: str):
    """Bounded-retry + dead-letter path (SURVEY §4.1; replaces the
    reference's infinite retry, Common.py:110-136): a tiny crawl with a
    deterministic injected failure plan — one URL recovers within the
    budget (absent below), one exhausts it (reason='transient'), one
    seed points at a page missing from the corpus (reason='missing').
    Deterministic rows; correctness pinned by tests/test_dead_letter.py
    (catalog/pop-log/seen-set equality vs the no-failure run)."""
    import tempfile
    from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
    from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine
    if "dead_letter" not in _CRAWL_MEMO:
        corpus, seeds = generate(tiny_config())
        run_dir = tempfile.mkdtemp(prefix="entry_dead_letter_")
        extra = seeds.to_pylist() + [{
            "url": "https://fasel.test/movies/not-a-real-page",
            "site": "fasel", "category": "movies"}]
        eng = CrawlEngine(corpus, extra, run_dir, n_shards=2,
                          max_attempts=3,
                          fail_plan={"https://fasel.test/movies/m3": 2,
                                     "https://fasel.test/movies/m5": 99})
        eng.run()
        _CRAWL_MEMO["dead_letter"] = (
            eng.dead_letter_dataset().to_pandas()
            .sort_values(["url"], ignore_index=True))
    return _CRAWL_MEMO["dead_letter"]


def q_crawl_trending(sf_dir: str):
    """Trending joins (J3 first-match title join, J4 id semi-joins, J5
    featured projection)."""
    from no_fasel_scrapers_ray.pipelines.trending import run_trending
    corpus, catalogs, _ = _crawl_run()
    content, featured, _ = run_trending(corpus, catalogs)
    rows = [{"section": cat, "key": k, "title": rec["Title"]}
            for cat, data in content.items() for k, rec in data.items()]
    rows += [{"section": "featured", "key": r["key"], "title": r["Title"]}
             for r in featured["content"]]
    return pd.DataFrame(rows)


def q_shipping_priority(sf_dir: str):
    """Unshipped-order revenue top-10 (TPC-H Q3 shape): BUILDING-
    segment customers, orders placed before the cut date, revenue from
    lineitems shipped after it. The customer dimension collapses to a
    broadcast custkey array probed map-side (semi_join); orders and
    lineitem are BOTH date-pruned at the read (row-group predicate
    pushdown — neither fact table's out-of-window rows leave storage);
    lineitem pre-aggregates to exact integer revenue units per
    orderkey (cents × (100−disc_pct)) before the ONE bucketed orderkey
    shuffle; the global top-10 runs on per-block top-10 survivors (a
    block's top-10 under the same total order is a superset filter)."""
    import pandas as pd
    import pyarrow.dataset as pads
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_sum_count, semi_join)
    cut = pd.Timestamp("1998-06-01")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .to_pandas()
    building = cust.loc[cust["c_mktsegment"] == "BUILDING",
                        "c_custkey"].to_numpy()

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pads.field("o_orderdate") < cut.to_pydatetime())
    orders = _derive(semi_join(orders, building, "o_custkey"), _ORDER_US)
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=pads.field("l_shipdate") > cut.to_pydatetime())
    li = _derive(li, {"o_orderkey": col("l_orderkey"), "v": _REV_E4})
    rev = preagg_sum_count(li, ["o_orderkey"], {"v": "revenue_units"})
    joined = bucketed_join(rev, orders, on="o_orderkey", how="inner")

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["revenue_units", "o_orderkey"],
                             ascending=[False, True]).head(10)

    survivors = joined.map_batches(block_topk, batch_format="pandas")
    return survivors.sort(["revenue_units", "o_orderkey"],
                          descending=[True, False]).limit(10)


def q_revenue_delta(sf_dir: str):
    """Forecast-revenue-change scan (TPC-H Q6 shape): the pure
    filter + global-sum query — 1996 shipments at a 5–7% discount in
    small quantities; how much revenue would dropping the discount
    have added. The date range is pruned at the read; discount /
    quantity predicates run as one vectorized pass; Σ cents×pct is
    an exact sum (``exact_sums``), with ONE mirrored float division at
    the end."""
    import pandas as pd
    import pyarrow.dataset as pads
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.relational import exact_sums
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity",
                 "l_shipdate"],
        filter=(pads.field("l_shipdate")
                >= pd.Timestamp("1996-01-01").to_pydatetime())
        & (pads.field("l_shipdate")
           < pd.Timestamp("1997-01-01").to_pydatetime()))

    pct = cents("l_discount")
    li = _derive(li, {"cents": cents("l_extendedprice"), "pct": pct},
                 where=(pct >= 5) & (pct <= 7) & (rint("l_quantity") < 24))
    units = exact_sums(li, [], {"v": ("cents", "pct")})["v"][0]
    return pd.DataFrame({"revenue_delta": [float(units) / 10000.0]})


def q_funnel_conversion(sf_dir: str):
    """Ordered-funnel conversion (§ event analytics): of the users who
    ever VIEWED, how many first CLICKED strictly after their first
    view, and of those, how many first PURCHASED strictly after that
    first click. Per-batch partials collapse each user's events to
    first-seen timestamps per step (sentinel INT64_MAX for absent
    steps), grouped_multi_agg min-combines them through one bucket
    shuffle — shuffle volume is users × batches, independent of events
    per user — and the three funnel counts reduce from per-block
    partial sums combined driver-side (constant rows cross the wire)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import grouped_multi_agg
    SENT = np.iinfo(np.int64).max
    def first_us(kind):
        return pc.if_else(col("event_type") == kind, epoch_us("ts"),
                          pc.scalar(SENT))

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"],
               rows_per_block=65536,
               derive={"user_id": col("user_id"), "v_us": first_us("view"),
                       "c_us": first_us("click"),
                       "p_us": first_us("purchase")})
    firsts = grouped_multi_agg(
        ev, ["user_id"],
        {"v": ("v_us", "min"), "c": ("c_us", "min"),
         "p": ("p_us", "min")})

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        v = b["v"].to_numpy()
        c = b["c"].to_numpy()
        p = b["p"].to_numpy()
        viewed = v < SENT
        clicked = viewed & (c < SENT) & (c > v)
        purchased = clicked & (p < SENT) & (p > c)
        return pd.DataFrame({"n_viewed": [int(viewed.sum())],
                             "n_view_click": [int(clicked.sum())],
                             "n_funnel": [int(purchased.sum())]})

    parts = firsts.map_batches(counts, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "n_viewed": np.array([parts["n_viewed"].sum()], dtype=np.int64),
        "n_view_click": np.array([parts["n_view_click"].sum()],
                                 dtype=np.int64),
        "n_funnel": np.array([parts["n_funnel"].sum()], dtype=np.int64)})


def q_copurchase_pairs(sf_dir: str):
    """Frequent co-purchase pair mining (§ data mining — the
    market-basket / Apriori candidate-pair shape): the 25 part pairs
    most often bought in the same order. Bucketing on orderkey
    co-locates every line of an order, so per-bucket distinct + a
    C-level self-merge (pandas hash join, no Python per-order loop)
    forms each order's pairs exactly once; pair skew is bounded by
    (max lines per order)² regardless of corpus size. Pair counts
    reduce through preagg_reduce (pair-cardinality-safe bucketed
    combine) and the global top-25 runs on per-block top-25 survivors
    under the deterministic (count desc, p1, p2) total order."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=65536)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        items = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = items.merge(items, on="l_orderkey", suffixes=("_a", "_b"))
        m = m[m["l_partkey_a"] < m["l_partkey_b"]]
        return pd.DataFrame({"p1": m["l_partkey_a"].to_numpy(),
                             "p2": m["l_partkey_b"].to_numpy()})

    pair_ds = key_shuffle(li, pairs, ["l_orderkey"], batch_format="pandas")
    counts = preagg_reduce(pair_ds, ["p1", "p2"], "n_orders", "count")

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n_orders", "p1", "p2"],
                             ascending=[False, True, True]).head(25)

    survivors = counts.map_batches(block_topk, batch_format="pandas")
    return survivors.sort(["n_orders", "p1", "p2"],
                          descending=[True, False, False]).limit(25)


def q_frequent_triples(sf_dir: str, minsup: int = 2):
    """Frequent 3-itemsets (§ data mining — the Apriori join+prune
    step above copurchase_pairs): part triples bought together in
    ≥ minsup orders. Downward closure makes the pruning EXACT: a
    triple with support ≥ s has all three pairs ≥ s, so candidates =
    frequent-pair self-join on the shared first item, kept only when
    the closing (b,c) pair is frequent too. The frequent-PAIR set is
    the only driver state (the Apriori contract — it shrinks as
    minsup rises; here a few hundred rows); baskets emit in-basket
    triples pre-filtered batch-side against the broadcast candidate
    table before any shuffle. Oracle: the direct triple self-join
    GROUP BY HAVING."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, preagg_reduce)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=65536).materialize()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        items = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = items.merge(items, on="l_orderkey", suffixes=("_a", "_b"))
        m = m[m["l_partkey_a"] < m["l_partkey_b"]]
        return pd.DataFrame({"p1": m["l_partkey_a"].to_numpy(),
                             "p2": m["l_partkey_b"].to_numpy()})

    pair_counts = preagg_reduce(
        key_shuffle(li, pairs, ["l_orderkey"], batch_format="pandas"),
        ["p1", "p2"], "n", "count")
    freq = pair_counts.map_batches(
        lambda b: b[b["n"] >= minsup][["p1", "p2"]],
        batch_format="pandas").to_pandas()   # Apriori driver state
    # join step: (a,b) ⋈ (a,c), b < c, closed by frequent (b,c)
    cand = freq.merge(freq, on="p1", suffixes=("_b", "_c"))
    cand = cand[cand["p2_b"] < cand["p2_c"]].rename(
        columns={"p1": "i", "p2_b": "j", "p2_c": "k"})
    cand = cand.merge(freq.rename(columns={"p1": "j", "p2": "k"}),
                      on=["j", "k"], how="inner")[["i", "j", "k"]]
    import ray
    cand_ref = ray.put(cand)

    def triples(g: pd.DataFrame) -> pd.DataFrame:
        c = broadcast_get(cand_ref)
        items = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        m = items.merge(items, on="l_orderkey", suffixes=("", "_j"))
        m = m[m["l_partkey"] < m["l_partkey_j"]]
        m = m.merge(items, on="l_orderkey", suffixes=("", "_k"))
        m = m[m["l_partkey_j"] < m["l_partkey_k"]]
        t = pd.DataFrame({"i": m["l_partkey"].to_numpy(),
                          "j": m["l_partkey_j"].to_numpy(),
                          "k": m["l_partkey_k"].to_numpy()})
        return t.merge(c, on=["i", "j", "k"], how="inner")

    sup = preagg_reduce(
        key_shuffle(li, triples, ["l_orderkey"], batch_format="pandas"),
        ["i", "j", "k"], "support", "count")
    return sup.map_batches(
        lambda b: b[b["support"] >= minsup],
        batch_format="pandas")


def q_ewma_user_spend(sf_dir: str):
    """Per-user exponentially-weighted moving average of purchase
    value (§ windows — the decay-weighted engagement score):
    s_i = a·x_i + (1−a)·s_{i−1} with a=0.1 seeded at s_1 = x_1; output
    is each user's final EWMA. The recurrence unrolls to the closed
    form x_i·a^[i>1]·(1−a)^{n−i}, computed VECTORIZED per bucket (one
    stable sort per bucket, rank/size from C-level groupby transforms
    — no Python per-user loop), quantized to integer micro-units under
    the round-6 transcendental contract (BASELINE.md) so the per-user
    sum is order-independent and bit-identical to the oracle's, with
    ONE mirrored float division at the end."""
    import pandas as pd
    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"],
               rows_per_block=65536,
               derive={"user_id": col("user_id"),
                       "event_id": col("event_id"), "ts_us": epoch_us("ts"),
                       "value": col("value")},
               where=col("event_type") == "purchase")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="stable", ignore_index=True)
        grp = g.groupby("user_id", sort=False)
        rn = grp.cumcount().to_numpy()                   # 0-based rank
        n = grp["value"].transform("size").to_numpy()
        w = np.power(0.9, (n - 1 - rn).astype(np.float64))
        a = np.where(rn == 0, 1.0, 0.1)
        term = (a * g["value"].to_numpy()) * w
        # half-away-from-zero micro-units (mirrors SQL ROUND exactly;
        # np.round is half-to-even and differs at knife-edge .5s)
        scaled = term * 1e6
        units = (np.sign(scaled)
                 * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)
        s = pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                          "u": units}) \
            .groupby("user_id", as_index=False, sort=False)["u"].sum()
        return pd.DataFrame({"user_id": s["user_id"].to_numpy(),
                             "ewma_spend": s["u"].to_numpy() / 1e6})

    return key_shuffle(ev, per_bucket, ["user_id"], batch_format="pandas")


def q_lpa_communities(sf_dir: str, tier3: bool = False):
    """Synchronous label-propagation communities (§ graph operators,
    Raghavan et al. 2007): 3 fixed deterministic rounds (mode of
    neighbor labels, ties → smallest) over the sparse quantity-1
    fulfillment graph — the BFS query's graph, so communities are
    non-trivial at every sf (ops/graph.py::label_propagation; driver
    CSR tier within the driver budget, pre-counted mode-offer BSP
    beyond).
    Oracle: the same 3 rounds unrolled as chained CTEs with a
    window-mode per round."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import label_propagation
    OFF = np.int64(1) << np.int64(40)
    edges = _fulfillment_edges(sf_dir, qty_eq=1).map_batches(
        lambda b: pd.DataFrame({
            "c": b["c"].to_numpy(np.int64),
            "s": b["s"].to_numpy(np.int64) + OFF}),
        batch_format="pandas")
    with _budgets(tier3):
        return label_propagation(edges, "c", "s", rounds=3)


def _lpa_oracle_sql(rounds: int = 3) -> str:
    """The LPA oracle: init labels = node ids over the mirrored sparse
    fulfillment edges, then ``rounds`` unrolled (count → window-mode →
    coalesce) CTE blocks — the pagerank-oracle pattern for iterative
    algorithms."""
    sql = ["""
        WITH e AS (
            SELECT DISTINCT o_custkey AS u,
                   1099511627776 + l_suppkey AS v
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            WHERE CAST(ROUND(l_quantity) AS BIGINT) = 1),
        ee AS (SELECT u, v FROM e UNION ALL SELECT v, u FROM e),
        l0 AS (SELECT DISTINCT u AS node, u AS label FROM ee)"""]
    for i in range(rounds):
        sql.append(f""",
        cnt{i} AS (SELECT ee.v AS node, l{i}.label, COUNT(*) AS c
                   FROM ee JOIN l{i} ON ee.u = l{i}.node
                   GROUP BY 1, 2),
        win{i} AS (SELECT node, label FROM (
                       SELECT *, row_number() OVER (
                           PARTITION BY node
                           ORDER BY c DESC, label) AS rk
                       FROM cnt{i}) WHERE rk = 1),
        l{i + 1} AS (SELECT l.node,
                            COALESCE(w.label, l.label) AS label
                     FROM l{i} l LEFT JOIN win{i} w
                          ON l.node = w.node)""")
    sql.append(f"""
        SELECT node AS node_id, label AS community FROM l{rounds}""")
    return "".join(sql)


def q_nation_top_parts(sf_dir: str):
    """Per-nation top-3 parts by line count (§ aggregates — the exact
    agg-then-topk shape): supplier nation resolved by a broadcast dim
    lookup (no fact-side shuffle), then an exact two-stage (nation,
    part) count — cardinality is dim-bounded (25 × |part|), so the
    aggregate is shuffle-safe at any sf — and a per-group head under
    the (count desc, partkey) total order. Originally pointed at the
    grouped-MG sketch; this data is NEAR-UNIFORM (top-3 part counts
    sit BELOW the N_g/(k+1) recovery bound at sf ≥ 0.01), so the
    sketch path cannot certify exactness here — `lang_top_tokens` is
    the grouped-heavy-hitter query on data with true heavy hitters."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    sup = _read(sf_dir, "supplier",
                ["s_suppkey", "s_nationkey"]).to_pandas()
    sup = sup.sort_values("s_suppkey")
    sk = sup["s_suppkey"].to_numpy(np.int64)
    sn = sup["s_nationkey"].to_numpy()
    import ray
    dim_ref = ray.put((sk, sn))
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"],
               rows_per_block=65536)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        k, n = ray.get(dim_ref)
        pos = np.searchsorted(k, b["l_suppkey"].to_numpy(np.int64))
        return pd.DataFrame({"nation": n[pos],
                             "l_partkey": b["l_partkey"].to_numpy()})

    counts = preagg_reduce(li.map_batches(tag, batch_format="pandas"),
                           ["nation", "l_partkey"], "n_lines", "count")

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["nation", "n_lines", "l_partkey"],
                          ascending=[True, False, True], kind="stable")
        return b.groupby("nation", sort=False).head(3)

    # per-block top-3 survivors (superset under the same total order),
    # final head on the ≤ 3 × blocks × nations survivor set
    surv = counts.map_batches(block_topk,
                              batch_format="pandas").to_pandas()
    surv = surv.sort_values(["nation", "n_lines", "l_partkey"],
                            ascending=[True, False, True],
                            kind="stable")
    return surv.groupby("nation", sort=False).head(3) \
               .reset_index(drop=True)


def q_lang_top_tokens(sf_dir: str):
    """Per-language top-3 tokens (§ sketches — grouped heavy hitters,
    heavy_hitter_terms' grouped twin): per-batch exploded token
    partials feed per-group Misra-Gries candidates + one exact recount
    (ops/sketch.py::grouped_heavy_hitters). Token frequencies are
    genuinely heavy (top-3 counts clear the N_g/(k+1) recovery bound
    by >10× at every sf, and the ratio is scale-invariant); the op
    VERIFIES the bound at runtime and raises rather than silently
    degrade. Exploded tokens never shuffle — partials are ≤ groups × k
    rows per batch."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.sketch import grouped_heavy_hitters
    docs = _read(sf_dir, "documents", ["lang", "text"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split(" ")
        return pd.DataFrame({
            "lang": np.repeat(b["lang"].to_numpy(),
                              toks.str.len().to_numpy()),
            "tok": np.concatenate(toks.to_numpy())
            if len(b) else np.array([], dtype=object)})

    return grouped_heavy_hitters(
        docs.map_batches(explode, batch_format="pandas"),
        "lang", "tok", topn=3).rename(columns={"n": "n_tok"})


def q_corpus_mix_sample(sf_dir: str, budget: int = 3_000):
    """Corpus-mixing budget sampler (§ sampling — the Pile/Dolma data
    -mixing shape): per SOURCE, admit documents in a deterministic
    pseudo-random order (multiplicative hash of doc_id — expressible
    on both engines, unlike SipHash) until the source's cumulative
    character budget is reached; emits (doc_id, source, cum_chars) for
    admitted docs. ONE source-bucket shuffle + per-group sort/cumsum
    (the running_total contract: a source's docs meet in one group).
    Oracle: window SUM over the same hash order."""
    # low 32 bits of doc_id × 2654435761: int64 multiply wraps like uint64
    docs = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"],
                 derive={"doc_id": col("doc_id"), "source": col("source"),
                         "n_chars": col("n_chars"),
                         "h": pc.bit_wise_and(col("doc_id") * 2654435761,
                                              0xFFFFFFFF)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "h", "doc_id"], kind="stable")
        cum = g.groupby("source", sort=False)["n_chars"].cumsum()
        out = g[cum <= budget].copy()
        out["cum_chars"] = cum[cum <= budget]
        return out[["doc_id", "source", "cum_chars"]]

    return key_shuffle(docs, per_bucket, ["source"], batch_format="pandas")


def q_twa_user_value(sf_dir: str):
    """Time-weighted average (§ windows — the window family's INTEGRAL
    variant): per user, the step-function mean of purchase value
    cents between first and last purchase, Σ cents_i·(t_{i+1}−t_i) /
    (t_n−t_1). ONE user-bucket shuffle, per-bucket sort + vectorized
    shifted-column weights; the numerator is exact int64 (cents ×
    µs-gaps, bounded by max_cents × time range < 2^63). Oracle: lead()
    window + the mirrored float division."""
    import pandas as pd
    p = _purchase_events(sf_dir, with_cents=True)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="stable")
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        c = g["cents"].to_numpy(np.int64)
        last = np.concatenate([u[1:] != u[:-1], [True]])
        dt = np.concatenate([t[1:] - t[:-1], [0]])
        dt[last] = 0
        df = pd.DataFrame({"user_id": u, "w": c * dt, "t": t})
        agg = df.groupby("user_id", sort=False).agg(
            numer=("w", "sum"), lo=("t", "min"), hi=("t", "max"))
        agg = agg[agg["hi"] > agg["lo"]]
        return pd.DataFrame({
            "user_id": agg.index.to_numpy(np.int64),
            "twa_cents": np.round(
                agg["numer"].to_numpy(np.float64)
                / (agg["hi"] - agg["lo"]).to_numpy(np.float64), 6)})

    return key_shuffle(
        p.select_columns(["user_id", "event_id", "ts_us", "cents"]),
        per_bucket, ["user_id"], batch_format="pandas")


def q_embedding_stats(sf_dir: str):
    """Per-dimension corpus statistics of the embedding column
    (§ similarity search — the whitening/feature-scaling pass): mean
    and sample variance per dimension from ONE streaming pass of
    (n, Σx, Σx²) partials, d rows per batch, combined driver-side
    (d × n_batches rows — the constant-size partial-merge tier).
    Oracle: generate_subscripts + unnest with the SAME moment
    expressions; both engines widen float32→float64 exactly, the
    float64 sums differ only in order (~1e-13) — far under round-6."""
    import pandas as pd
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):   # empty block guard (see commit 9be3d72)
            return pd.DataFrame({"dim": np.zeros(0, np.int64),
                                 "n": np.zeros(0, np.int64),
                                 "s": np.zeros(0, np.float64),
                                 "s2": np.zeros(0, np.float64)})
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b["embedding"]])
        return pd.DataFrame({
            "dim": np.arange(1, m.shape[1] + 1, dtype=np.int64),
            "n": np.int64(len(m)),
            "s": m.sum(axis=0), "s2": (m * m).sum(axis=0)})

    parts = emb.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("dim", sort=True).agg(
        n=("n", "sum"), s=("s", "sum"), s2=("s2", "sum"))
    n = agg["n"].to_numpy(np.float64)
    s = agg["s"].to_numpy(np.float64)
    s2 = agg["s2"].to_numpy(np.float64)
    return pd.DataFrame({
        "dim": agg.index.to_numpy(np.int64),
        "n": agg["n"].to_numpy(np.int64),
        "mean_x": np.round(s / n, 6),
        "var_x": np.round((s2 - s * s / n) / (n - 1), 6)})


def q_scrub_tokens(sf_dir: str):
    """Pattern scrubbing (§ text analysis — the PII-redaction stage
    shape): redact two target tokens across the corpus with zero-copy
    Arrow RE2 kernels (ops/textops.py::regex_scrub). The pattern here
    targets the synthetic vocabulary for oracle discrimination; real
    deployments pass email/phone regexes. Oracle: DuckDB regexp_*
    (RE2 both sides → bit-identical rewrites)."""
    from no_fasel_scrapers_ray.ops.textops import regex_scrub
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return regex_scrub(docs, r"\b(key|hash)\b", "<tok>")


def q_robust_zscore(sf_dir: str):
    """Grouped ROBUST z-score (§ aggregates — the outlier-detection
    normalization: (x − median) / IQR per event type). Exact at scale
    via the value-domain histogram: one (type, cents) count preagg —
    bounded by value quantization, not row count — driver-side
    quantile_disc positions from cumulative counts, broadcast stats,
    one scoring pass. Oracle: DuckDB quantile_disc trio + the mirrored
    float expression."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    v = _read(sf_dir, "events", ["event_id", "event_type", "value"],
              rows_per_block=65536,
              derive={"event_id": col("event_id"),
                      "event_type": col("event_type"),
                      "cents": cents("value")})
    hist = preagg_reduce(v, ["event_type", "cents"],
                         "n", "count").to_pandas()
    stats = {}
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("cents")
        c = g["n"].to_numpy(np.int64).cumsum()
        vals = g["cents"].to_numpy(np.int64)
        n = int(c[-1])
        qs = []
        for q in (0.25, 0.5, 0.75):
            pos = max(int(np.ceil(q * n)), 1)   # quantile_disc rule
            qs.append(int(vals[np.searchsorted(c, pos)]))
        stats[et] = (qs[0], qs[1], qs[2])
    import ray
    stats_ref = ray.put(stats)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(stats_ref)
        # vectorized stats lookup: factorize once, fancy-index the
        # per-type arrays (a per-row dict comprehension costs ~10 s
        # per 1M rows of pure interpreter time)
        codes, types = pd.factorize(b["event_type"])
        med_a = np.array([st[t][1] for t in types], np.int64)
        iqr_a = np.array([st[t][2] - st[t][0] for t in types],
                         np.int64)
        med = med_a[codes]
        iqr = iqr_a[codes]
        cz = b["cents"].to_numpy(np.int64) - med
        z = np.where(iqr == 0, 0.0,
                     np.round(cz.astype(np.float64)
                              / np.where(iqr == 0, 1, iqr), 6))
        return pd.DataFrame({"event_id": b["event_id"].to_numpy(),
                             "event_type": b["event_type"].to_numpy(),
                             "robust_z": z})

    return v.map_batches(score, batch_format="pandas")


def q_approx_overlap_users(sf_dir: str):
    """HLL set-operation estimates (§ sketches — completes the matrix:
    union is exact in sketch space via register max, intersection by
    inclusion-exclusion): distinct click users, purchase users, their
    union and intersection, one streaming pass with register-sized
    driver state (ops/sketch.py::hll_set_ops). Exact twin:
    `intersect_users` / `overlap_click_purchase`. Rows-only by design;
    the ±2σ envelope vs exact is pinned in tests/test_sketch.py."""
    from no_fasel_scrapers_ray.ops.sketch import hll_set_ops
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return hll_set_ops(ev, "user_id", "event_type",
                       "click", "purchase")


def q_semantic_prune(sf_dir: str):
    """SemDeDup-style semantic pruning (§ dedup / similarity): coarse
    k-means clusters, then greedy intra-cluster cosine dedup at 0.9 —
    (vec_id, cluster_id, kept) for the whole table
    (ops/ann.py::semantic_prune). No SQL oracle (k-means); invariants
    and a planted-duplicate case pinned in tests/test_round4_ops.py."""
    from no_fasel_scrapers_ray.ops.ann import semantic_prune
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semantic_prune(emb, n_clusters=8, threshold=0.9)


def q_overlap_duration(sf_dir: str):
    """Interval-overlap DURATION aggregate (§ custom operators — the
    temporal-join family's measure variant, vs range_join_clicks'
    count): per user, total microseconds where a click half-hour
    window [ts, ts+30m) overlaps a purchase half-hour window. ONE
    user-bucketed join, vectorized LEAST/GREATEST minus, exact int64
    µs sum. Oracle: DuckDB inequality join + SUM."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, preagg_reduce)
    W = 1_800_000_000   # 30 min in µs
    def side(event_type: str, tag: str):
        return _read(sf_dir, "events", ["ts", "user_id", "event_type"],
                     rows_per_block=8192,
                     derive={"user_id": col("user_id"),
                             f"{tag}_us": epoch_us("ts")},
                     where=col("event_type") == event_type)

    j = bucketed_join(side("click", "c"), side("purchase", "p"),
                      on="user_id")

    def overlap(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c_us"].to_numpy(np.int64)
        p = b["p_us"].to_numpy(np.int64)
        ov = np.minimum(c + W, p + W) - np.maximum(c, p)
        keep = ov > 0
        return pd.DataFrame({"user_id": b["user_id"].to_numpy()[keep],
                             "overlap_us": ov[keep]})

    return preagg_reduce(j.map_batches(overlap, batch_format="pandas"),
                         ["user_id"], "overlap_us", "sum")


def q_knn_mutual(sf_dir: str):
    """Exact mutual-kNN graph (§ similarity search): canonical
    (vec_a < vec_b) edges where each endpoint is in the other's exact
    cosine top-5 — the SemDeDup-style semantic-pruning primitive
    (ops/ann.py::knn_graph_mutual; blocked partial top-k in the object
    store, distributive combine, count-2 mutual filter; block_rows
    512 so every sf exercises the cross-block combine)."""
    from no_fasel_scrapers_ray.ops.ann import knn_graph_mutual
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_graph_mutual(emb, k=5, block_rows=512)


def q_dedup_containment(sf_dir: str):
    """Directed n-gram containment near-dup pairs (§ dedup): ordered
    (contained, container) doc pairs with |S(A)∩S(B)|/|S(A)| ≥ 0.8 —
    the doc-inside-doc family Jaccard misses when the container is
    much larger (ops/dedup.py::ngram_containment_pairs; rarest-prefix
    candidate filter, full SQL cross-join oracle)."""
    from no_fasel_scrapers_ray.ops.dedup import ngram_containment_pairs
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_containment_pairs(docs, shingle=3, threshold=0.8)


def q_bfs_fulfillment(sf_dir: str, tier3: bool = False):
    """Multi-source BFS hop distance (§ graph operators; the batch
    analogue of the reference's crawl frontier expansion,
    FaselMoviesScraper.py's listing→title→episode walk): minimum hops
    from nation-0 customers to every node of the SPARSE fulfillment
    graph (only quantity-1 lines — the full bipartite graph is so
    dense everything sits ≤ 2 hops; the sparse subgraph populates all
    5 levels at every sf). Suppliers offset by 2^40 (the pagerank
    packing contract). Seeds are a query parameter (node-sized driver
    state, like the tier-2 broadcast-rank contract); the traversal is
    `ops/graph.py::bfs_hops` — driver CSR within the driver budget, the CC
    BSP kernel with dist+1 offers beyond. Oracle: DuckDB recursive CTE
    with min-hop aggregation."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import bfs_hops
    OFF = np.int64(1) << np.int64(40)
    edges = _fulfillment_edges(sf_dir, qty_eq=1).map_batches(
        lambda b: pd.DataFrame({
            "c": b["c"].to_numpy(np.int64),
            "s": b["s"].to_numpy(np.int64) + OFF}),
        batch_format="pandas")
    seeds = (_read(sf_dir, "customer", ["c_custkey", "c_nationkey"],
                   derive={"c_custkey": col("c_custkey")},
                   where=col("c_nationkey") == 0)
             .to_pandas()["c_custkey"].to_numpy(np.int64))
    with _budgets(tier3):
        return bfs_hops(edges, "c", "s", seeds, max_hops=4)


def q_tfidf_cosine_pairs(sf_dir: str):
    """EXACT sparse all-pairs TF-IDF cosine similarity join (§ dedup /
    similarity — the APSS family, Bayardo et al. WWW'07): every
    document pair with cosine ≥ 0.9 over integer-quantized tf·idf
    vectors. Candidates come from the weight-mass (t/2) prefix filter
    under a rare-first global term order — complete by construction,
    with boilerplate terms excluded from candidate groups — and each
    candidate is verified with exact int64 dots/norms, so the
    similarity is bit-identical to the SQL oracle's
    (ops/dedup.py::tfidf_cosine_pairs)."""
    from no_fasel_scrapers_ray.ops.dedup import tfidf_cosine_pairs
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_cosine_pairs(docs, threshold=0.9)


# --------------------------------------------------------------------------
# Driver contract
# --------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: the ONE-SHOT orchestrated pipeline (ScrapeAll parity —
    crawl rounds → distributed assembly → trending → postprocess →
    all-content → S9 image blobs → full output dir), then the flattened
    catalog entries of the same tiny synthetic web."""
    q_scrape_all("/root/testdata/sf0.001")
    return q_crawl_catalogs("/root/testdata/sf0.001")


def q_nation_trade_volume(sf_dir: str):
    """TPC-H Q7 shape (§ composed relational): shipped revenue between
    every ordered pair of DISTINCT (supplier nation → customer nation)
    by ship year. Same posture as q_local_supplier_revenue (Q5): ONE
    bucketed shuffle (orders ⋈ lineitem on orderkey); customer /
    supplier / nation are dim-sized → broadcast sorted-key arrays and
    the nation pair resolves map-side; revenue in exact integer
    cents×percent. The aggregate is (25×24×years) rows — tiny."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, bucketed_join, preagg_sum_count)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=65536)
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"], rows_per_block=65536,
               derive={"o_orderkey": col("l_orderkey"),
                       "l_suppkey": col("l_suppkey"), "l_year": _SHIP_YEAR,
                       "rev": _REV_E4})
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .to_pandas().sort_values("c_custkey", ignore_index=True)
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .to_pandas().sort_values("s_suppkey", ignore_index=True)
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas() \
        .sort_values("n_nationkey", ignore_index=True)
    dims_ref = ray.put((
        cust["c_custkey"].to_numpy(np.int64),
        cust["c_nationkey"].to_numpy(np.int64),
        supp["s_suppkey"].to_numpy(np.int64),
        supp["s_nationkey"].to_numpy(np.int64),
        nat["n_nationkey"].to_numpy(np.int64),
        nat["n_name"].to_numpy(object)))

    j = bucketed_join(li, orders, on="o_orderkey", how="inner")

    def pair_tag(b: pd.DataFrame) -> pd.DataFrame:
        ck, cn, sk, sn, nk, nn = broadcast_get(dims_ref)
        c_nat = cn[np.searchsorted(ck, b["o_custkey"].to_numpy())]
        s_nat = sn[np.searchsorted(sk, b["l_suppkey"].to_numpy())]
        keep = c_nat != s_nat
        return pd.DataFrame({
            "supp_nation": nn[np.searchsorted(nk, s_nat[keep])],
            "cust_nation": nn[np.searchsorted(nk, c_nat[keep])],
            "l_year": b["l_year"].to_numpy()[keep],
            "rev": b["rev"].to_numpy()[keep]})

    return preagg_sum_count(
        j.map_batches(pair_tag, batch_format="pandas"),
        ["supp_nation", "cust_nation", "l_year"], {"rev": "revenue_e4"})


def q_brand_year_profit(sf_dir: str):
    """TPC-H Q9 shape adapted to the available tables (no partsupp in
    the testdata, so unit cost is the part's retail price): profit =
    discounted revenue − retail cost of the shipped quantity, by brand
    and ship year, in exact integer e4 units (cents × percent). part
    is dim-sized → ONE broadcast sorted-key array; NO shuffle at all
    before the (brands × years)-row aggregate — the canonical
    broadcast-join-then-partial-agg posture."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, preagg_sum_count)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_quantity",
                "l_extendedprice", "l_discount"], rows_per_block=65536,
               derive={"l_partkey": col("l_partkey"), "l_year": _SHIP_YEAR,
                       "qty": rint("l_quantity"), "rev": _REV_E4})
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_retailprice"],
                 derive={"p_partkey": col("p_partkey"),
                         "p_brand": col("p_brand"),
                         "retail": cents("p_retailprice")}).to_pandas() \
        .sort_values("p_partkey", ignore_index=True)
    part_ref = ray.put((part["p_partkey"].to_numpy(np.int64),
                        part["p_brand"].to_numpy(object),
                        part["retail"].to_numpy()))

    def profit(b: pd.DataFrame) -> pd.DataFrame:
        pk, brand, retail = broadcast_get(part_ref)
        idx = np.searchsorted(pk, b["l_partkey"].to_numpy())
        qty = b["qty"].to_numpy()
        return pd.DataFrame({
            "p_brand": brand[idx], "l_year": b["l_year"].to_numpy(),
            "profit": b["rev"].to_numpy() - retail[idx] * qty * 100})

    return preagg_sum_count(
        li.map_batches(profit, batch_format="pandas"),
        ["p_brand", "l_year"], {"profit": "profit_e4"})


def q_price_qty_regression(sf_dir: str):
    """Grouped OLS regression (§ statistical aggregates): line-item
    price-in-cents regressed on quantity per return flag, from exact
    integer moment sums (ops/relational.py::grouped_regression — the
    grouped_corr decomposition with the slope/intercept closed form).
    Bit-exact: the oracle evaluates the identical float expression
    over the identical exact sums."""
    from no_fasel_scrapers_ray.ops.relational import grouped_regression
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"],
               rows_per_block=65536, derive=_FLAG_QTY_CENTS)
    return grouped_regression(
        li, ["l_returnflag"], "qty", "cents",
        slope_alias="slope", icept_alias="icept")


def q_pareto_parts(sf_dir: str):
    """Skyline / pareto-frontier operator (§ custom operators — new
    distributed family this round): parts not dominated on (retail
    price ↓, size ↑). ops/relational.py::skyline_2d — per-batch local
    frontier CONTRACTION (skyline of a union = skyline of the per-part
    skylines), so only frontier candidates ever move; the fact table
    never shuffles. Oracle: NOT EXISTS dominance, duplicates of a
    frontier point all kept."""
    from no_fasel_scrapers_ray.ops.relational import skyline_2d
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_retailprice", "p_size"],
                 rows_per_block=8192,
                 derive={"p_partkey": col("p_partkey"),
                         "price_cents": cents("p_retailprice"),
                         "p_size": col("p_size")})  # keeps source int32
    return skyline_2d(part, min_col="price_cents", max_col="p_size")


BM25_QUERY_TERMS = ("join", "sort", "window", "vector")


def q_bm25_docs(sf_dir: str):
    """BM25 relevance scoring (§ text analysis — the quality-targeted
    sampling primitive): Okapi BM25 of every document against a fixed
    query-term set, one row per (doc, matching term) so no cross-term
    float summation order exists. ops/textops.py::bm25_term_scores —
    constant-size corpus-stats pass, then zero-copy Arrow tf counting
    via the doubled-padding token trick. ln() is transcendental →
    round-6 contract on both sides."""
    from no_fasel_scrapers_ray.ops.textops import bm25_term_scores
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_term_scores(docs, BM25_QUERY_TERMS)


def q_similar_part_names(sf_dir: str):
    """Blocked edit-distance similarity join (§ custom operators —
    record-linkage family): pairs of same-brand parts whose names are
    within 2 Levenshtein edits. ops/dedup.py::blocked_levenshtein_pairs
    — ONE groupby shuffle on the blocking key, length-difference prune,
    then a P-pair-vectorized DP (every DP cell is one numpy op over all
    surviving pairs). Oracle: DuckDB's native levenshtein()."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_name"],
                 rows_per_block=8192)
    from no_fasel_scrapers_ray.ops.dedup import blocked_levenshtein_pairs
    return blocked_levenshtein_pairs(part, block_col="p_brand",
                                     text_col="p_name",
                                     key_col="p_partkey", max_dist=2)


def q_cheapest_supplier_per_part(sf_dir: str):
    """TPC-H Q2 shape (min-cost supplier, correlated-subquery
    join-back) adapted to the available tables (no partsupp: the
    part↔supplier price relationship is the lineitem history). For
    every size-15 part, the supplier with the LOWEST observed line
    price, ties to the smallest suppkey — expressed as ONE
    decomposable argmin (`topk_per_group` k=1: a batch's local argmin
    is a superset filter for the global one, so the shuffle moves ≤ 1
    row per part per batch, never the fact table). part / supplier /
    nation are dim-sized → broadcast sorted-key arrays; the ROW_NUMBER
    join-back of the SQL form never materializes."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, topk_per_group)
    part = _read(sf_dir, "part", ["p_partkey", "p_size"]).to_pandas()
    want = np.sort(part.loc[part["p_size"] == 15, "p_partkey"]
                   .to_numpy(np.int64))
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_name", "s_nationkey"]).to_pandas() \
        .sort_values("s_suppkey", ignore_index=True)
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas() \
        .sort_values("n_nationkey", ignore_index=True)
    dims_ref = ray.put((want,
                        supp["s_suppkey"].to_numpy(np.int64),
                        supp["s_name"].to_numpy(object),
                        supp["s_nationkey"].to_numpy(np.int64),
                        nat["n_nationkey"].to_numpy(np.int64),
                        nat["n_name"].to_numpy(object)))
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice"],
               rows_per_block=65536,
               derive={"l_partkey": col("l_partkey"),
                       "l_suppkey": col("l_suppkey"),
                       "cents": cents("l_extendedprice")})

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        w = broadcast_get(dims_ref)[0]
        pk = b["l_partkey"].to_numpy(np.int64)
        if not len(w):   # empty filter key set: w[-1] would raise
            keep = np.zeros(len(pk), dtype=bool)
        else:
            pos = np.searchsorted(w, pk)
            keep = (pos < len(w)) & \
                (w[np.minimum(pos, len(w) - 1)] == pk)
        return pd.DataFrame({
            "p_partkey": pk[keep], "min_cents": b["cents"].to_numpy()[keep],
            "s_suppkey": b["l_suppkey"].to_numpy()[keep]})

    best = topk_per_group(li.map_batches(prep, batch_format="pandas"),
                          ["p_partkey"], "min_cents", 1,
                          ascending=True, tie_cols=["s_suppkey"])

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        _, sk, sn, snat, nk, nn = broadcast_get(dims_ref)
        pos = np.searchsorted(sk, b["s_suppkey"].to_numpy(np.int64))
        return b.assign(s_name=sn[pos],
                        n_name=nn[np.searchsorted(nk, snat[pos])])

    return best.map_batches(attach, batch_format="pandas")


Q8_SUPP_NATION = "NATION_3"
Q8_CUST_REGION = "AMERICA"


def q_nation_market_share(sf_dir: str):
    """TPC-H Q8 shape (market share): within orders placed by
    customers of one region, the revenue share supplied by one nation,
    per order year. Same posture as Q7 (`q_nation_trade_volume`): ONE
    bucketed orders ⋈ lineitem shuffle; customer→nation→region and
    supplier→nation resolve map-side from broadcast sorted-key arrays.
    Numerator and denominator are EXACT int64 e4 sums per year; the
    share is the promo_revenue_ratio contract — one mirrored IEEE
    double division, no rounding."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, bucketed_join, preagg_sum_count)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"],
                   rows_per_block=65536,
                   derive={"o_orderkey": col("o_orderkey"),
                           "o_custkey": col("o_custkey"),
                           "o_year": int64(pc.year(col("o_orderdate")))})
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"], rows_per_block=65536,
               derive={"l_orderkey": col("l_orderkey"),
                       "l_suppkey": col("l_suppkey"), "rev": _REV_E4})
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .to_pandas().sort_values("c_custkey", ignore_index=True)
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .to_pandas().sort_values("s_suppkey", ignore_index=True)
    nat = _read(sf_dir, "nation",
                ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nat = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey") \
        .sort_values("n_nationkey", ignore_index=True)
    dims_ref = ray.put((
        cust["c_custkey"].to_numpy(np.int64),
        cust["c_nationkey"].to_numpy(np.int64),
        supp["s_suppkey"].to_numpy(np.int64),
        supp["s_nationkey"].to_numpy(np.int64),
        nat["n_nationkey"].to_numpy(np.int64),
        nat["n_name"].to_numpy(object),
        nat["r_name"].to_numpy(object)))

    def o_prep(b: pd.DataFrame) -> pd.DataFrame:
        ck, cn, _, _, nk, _, rn = broadcast_get(dims_ref)
        c_nat = cn[np.searchsorted(ck, b["o_custkey"].to_numpy(np.int64))]
        keep = rn[np.searchsorted(nk, c_nat)] == Q8_CUST_REGION
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"].to_numpy()[keep],
            "o_year": b["o_year"].to_numpy()[keep]})

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        _, _, sk, sn, nk, nn, _ = broadcast_get(dims_ref)
        s_nat = sn[np.searchsorted(sk, b["l_suppkey"].to_numpy(np.int64))]
        rev = b["rev"].to_numpy()
        hit = nn[np.searchsorted(nk, s_nat)] == Q8_SUPP_NATION
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"].to_numpy(),
            "rev": rev, "nat_rev": np.where(hit, rev, 0)})

    j = bucketed_join(li.map_batches(li_prep, batch_format="pandas"),
                      orders.map_batches(o_prep, batch_format="pandas"),
                      on="o_orderkey", how="inner")
    agg = preagg_sum_count(j, ["o_year"],
                           {"rev": "den", "nat_rev": "num"})

    def share(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_year": b["o_year"].to_numpy(),
            "mkt_share": b["num"].to_numpy(np.float64)
            / b["den"].to_numpy(np.float64)})

    return agg.map_batches(share, batch_format="pandas")


def q_returned_item_revenue(sf_dir: str):
    """TPC-H Q10 shape (returned-item reporting): the 20 customers who
    generated the most revenue on RETURNED line items in one quarter.
    One bucketed orders ⋈ lineitem shuffle (both sides filtered at the
    read/map side first), a customer-keyed exact-cents preagg, then
    the global top-20 via `topk_per_group` with a single group — the
    partial prunes every batch to 20 rows, so no full sort. Customer
    attributes attach map-side from broadcast arrays AFTER the top-20
    (20 lookups, not |customers|)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, bucketed_join, preagg_sum_count, topk_per_group)

    d = col("o_orderdate")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"],
                   rows_per_block=65536,
                   derive={"o_orderkey": col("o_orderkey"),
                           "o_custkey": col("o_custkey")},
                   where=(d >= _Q1_1996[0]) & (d < _Q1_1996[1]))
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"], rows_per_block=65536,
               derive={"o_orderkey": col("l_orderkey"), "rev": _REV_E4},
               where=col("l_returnflag") == "R")
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]) \
        .to_pandas().sort_values("c_custkey", ignore_index=True)
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas() \
        .sort_values("n_nationkey", ignore_index=True)
    dims_ref = ray.put((cust["c_custkey"].to_numpy(np.int64),
                        cust["c_name"].to_numpy(object),
                        cust["c_acctbal"].to_numpy(),
                        cust["c_nationkey"].to_numpy(np.int64),
                        nat["n_nationkey"].to_numpy(np.int64),
                        nat["n_name"].to_numpy(object)))

    j = bucketed_join(li, orders, on="o_orderkey", how="inner")
    agg = preagg_sum_count(j, ["o_custkey"], {"rev": "revenue_e4"})
    top = topk_per_group(
        agg.map_batches(lambda b: b.assign(__one=np.int64(0)),
                        batch_format="pandas"),
        ["__one"], "revenue_e4", 20, ascending=False,
        tie_cols=["o_custkey"])

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        ck, cname, bal, cnat, nk, nn = broadcast_get(dims_ref)
        pos = np.searchsorted(ck, b["o_custkey"].to_numpy(np.int64))
        return pd.DataFrame({
            "c_custkey": b["o_custkey"].to_numpy(),
            "c_name": cname[pos],
            "revenue_e4": b["revenue_e4"].to_numpy(),
            "c_acctbal": bal[pos],
            "n_name": nn[np.searchsorted(nk, cnat[pos])]})

    return top.map_batches(attach, batch_format="pandas")


def q_top_revenue_supplier(sf_dir: str):
    """TPC-H Q15 shape (top supplier): supplier(s) whose discounted
    revenue over one quarter equals the GLOBAL maximum — the
    aggregate-then-join-back-on-max shape. The per-supplier sum is the
    standard bucketed exact-cents preagg; the max is taken over that
    supplier-sized aggregate (constant-size driver pull — the Q15 VIEW
    is supplier-sized by construction) and re-applied as a filter, so
    ties all surface, exactly like the SQL HAVING = (SELECT MAX...)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, preagg_sum_count)
    d = col("l_shipdate")
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_extendedprice",
                "l_discount"], rows_per_block=65536,
               derive={"s_suppkey": col("l_suppkey"), "rev": _REV_E4},
               where=(d >= _Q1_1996[0]) & (d < _Q1_1996[1]))
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]) \
        .to_pandas().sort_values("s_suppkey", ignore_index=True)
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(np.int64),
                        supp["s_name"].to_numpy(object)))

    agg = preagg_sum_count(li, ["s_suppkey"], {"rev": "total_revenue_e4"})
    best = int(agg.max("total_revenue_e4"))

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        sk, sn = broadcast_get(supp_ref)
        b = b[b["total_revenue_e4"].to_numpy() == best]
        pos = np.searchsorted(sk, b["s_suppkey"].to_numpy(np.int64))
        return pd.DataFrame({
            "s_suppkey": b["s_suppkey"].to_numpy(),
            "s_name": sn[pos],
            "total_revenue_e4": b["total_revenue_e4"].to_numpy()})

    return agg.map_batches(pick, batch_format="pandas")


def q_dominant_part_suppliers(sf_dir: str):
    """TPC-H Q20 shape (potential part promotion) adapted (no
    partsupp availqty): (part, supplier) pairs where the supplier
    shipped at least 1.5× its FAIR SHARE of a LARGE-type part's total
    quantity — a nested aggregate (per (part, supplier) → per part)
    feeding a share filter, all in exact integers (2·qty·n_suppliers >
    3·total). Two bucketed passes, both over shrinking data: the
    (part, supplier) preagg collapses the fact table, then a
    part-bucketed group pass computes each part's total/supplier-count
    and keeps dominant holders — the fact table itself is never
    re-shuffled. Supplier names attach from a broadcast dim."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, preagg_sum_count)

    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    want = np.sort(part.loc[part["p_type"] == "LARGE", "p_partkey"]
                   .to_numpy(np.int64))
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]) \
        .to_pandas().sort_values("s_suppkey", ignore_index=True)
    dims_ref = ray.put((want, supp["s_suppkey"].to_numpy(np.int64),
                        supp["s_name"].to_numpy(object)))
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity"],
               rows_per_block=65536,
               derive={"l_partkey": col("l_partkey"),
                       "l_suppkey": col("l_suppkey"),
                       "qty": rint("l_quantity")})

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        w = broadcast_get(dims_ref)[0]
        pk = b["l_partkey"].to_numpy(np.int64)
        if not len(w):   # empty filter key set: w[-1] would raise
            keep = np.zeros(len(pk), dtype=bool)
        else:
            pos = np.searchsorted(w, pk)
            keep = (pos < len(w)) & \
                (w[np.minimum(pos, len(w) - 1)] == pk)
        return pd.DataFrame({
            "l_partkey": pk[keep],
            "l_suppkey": b["l_suppkey"].to_numpy()[keep],
            "qty": b["qty"].to_numpy()[keep]})

    ps = preagg_sum_count(li.map_batches(prep, batch_format="pandas"),
                          ["l_partkey", "l_suppkey"], {"qty": "qty"})

    def dominant(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("l_partkey")["qty"]
        tot = grp.transform("sum").to_numpy()
        ns = grp.transform("size").to_numpy()
        qty = g["qty"].to_numpy()
        keep = 2 * qty * ns > 3 * tot
        _, sk, sn = broadcast_get(dims_ref)
        skey = g["l_suppkey"].to_numpy(np.int64)[keep]
        return pd.DataFrame({
            "p_partkey": g["l_partkey"].to_numpy()[keep],
            "s_suppkey": skey,
            "s_name": sn[np.searchsorted(sk, skey)],
            "qty": qty[keep],
            "part_total": tot[keep]})

    return key_shuffle(ps, dominant, ["l_partkey"], batch_format="pandas")


def q_event_transitions(sf_dir: str):
    """Event-sequence transition matrix (§ sequence analytics — the
    Markov-chain / funnel-mining primitive): count of every
    (event_type → next event_type) step within each user's
    ts-ordered stream. LEAD over a string column via the shared
    windowed-lag kernel (ONE user-bucket shuffle), then a tiny
    (types × types) count aggregate. Deterministic under ts ties via
    the event_id tie-break."""
    from no_fasel_scrapers_ray.ops.relational import (
        preagg_reduce, windowed_lead)
    ev = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"],
               rows_per_block=65536)
    led = windowed_lead(ev, ["user_id"], "ts", "event_type",
                        "next_type", tie_cols=["event_id"])

    def steps(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["next_type"].notna()]
        return b[["event_type", "next_type"]]

    return preagg_reduce(led.map_batches(steps, batch_format="pandas"),
                         ["event_type", "next_type"], "n", "count")


def q_transition_entropy(sf_dir: str):
    """Shannon entropy of the event-type transition distribution (§
    sequence analytics — how predictable the clickstream's next step
    is; the Markov-chain summary on top of `event_transitions`): the
    same ONE user-bucket LEAD + tiny transition-count aggregate, then
    H = −Σ p·ln p over the ≤ |types|² support in ONE mirrored float
    expression (round-6 ln contract; sum order reassociates)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        preagg_reduce, windowed_lead)
    ev = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"],
               rows_per_block=65536)
    led = windowed_lead(ev, ["user_id"], "ts", "event_type",
                        "next_type", tie_cols=["event_id"])

    def steps(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["next_type"].notna()]
        return b[["event_type", "next_type"]]

    a = preagg_reduce(led.map_batches(steps, batch_format="pandas"),
                      ["event_type", "next_type"], "n",
                      "count").to_pandas()
    n = a["n"].to_numpy(np.int64).astype(np.float64)
    tot = float(int(a["n"].sum()))
    p_ = n / tot
    h = -float(np.sum(p_ * np.log(p_)))
    return pd.DataFrame({
        "entropy": [np.round(h, 6)],
        "n_steps": np.array([int(tot)], dtype=np.int64),
        "n_cells": np.array([len(a)], dtype=np.int64)})


def q_theil_customer_spend(sf_dir: str):
    """Theil inequality index of per-customer total spend (§
    statistical aggregates — the decomposable inequality measure next
    to Gini): T = (1/(N·μ))·Σ x·ln x − ln μ. Fully distributed exact
    shape: ONE customer-bucket spend preagg (exact cents), then
    exact sums of x and x·micro(ln x) (the doc_perplexity micro-nat
    discipline — ln rounded to 6, scaled 1e6; ``exact_sums``); the
    final expression is ONE mirrored float chain (round-6)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (exact_sums,
                                                      preagg_reduce)
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"u": col("o_custkey"),
                           "x": cents("o_totalprice")})
    spend = preagg_reduce(orders, ["u"], "x", "sum")

    def micro_ln(b: pd.DataFrame) -> pd.DataFrame:
        x = b["x"].to_numpy(np.int64)
        mi = np.round(np.round(np.log(x.astype(np.float64)), 6)
                      * 1e6).astype(np.int64)
        return pd.DataFrame({"x": x, "mi": mi})

    S, XS, N = exact_sums(
        spend.map_batches(micro_ln, batch_format="pandas"), [],
        {"s": ("x",), "xs": ("x", "mi"), "cnt": ()}).iloc[0]
    mu = float(S) / N
    t = (float(XS) / 1e6) / (float(N) * mu) - float(np.log(mu))
    return pd.DataFrame({
        "theil": [np.round(t, 6)],
        "n_customers": np.array([N], dtype=np.int64)})


def q_monthly_revenue_growth(sf_dir: str):
    """Time-bucketed trend with month-over-month growth (§ composed
    window-over-aggregate): total order revenue per calendar month in
    exact cents, plus the growth ratio vs the previous month. The
    month aggregate is the standard bucketed preagg; the LAG runs over
    the months-sized result (one group, ~80 rows) through the same
    windowed-lag kernel — window-over-aggregate, not
    window-over-fact. Growth is the one-mirrored-float-expression
    contract (prev cents / cents in IEEE double)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        preagg_sum_count, windowed_lag)
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"o_year": int64(pc.year(col("o_orderdate"))),
                           "o_month": int64(pc.month(col("o_orderdate"))),
                           "cents": cents("o_totalprice")})
    agg = preagg_sum_count(orders, ["o_year", "o_month"], {"cents": "cents"})
    mkey = agg.map_batches(
        lambda b: b.assign(
            __m=b["o_year"].to_numpy() * 12 + b["o_month"].to_numpy(),
            __one=np.int64(0)),
        batch_format="pandas")
    lagged = windowed_lag(mkey, ["__one"], "__m", "cents", "prev_cents")

    def growth(b: pd.DataFrame) -> pd.DataFrame:
        prev = b["prev_cents"].to_numpy(np.float64)
        cur = b["cents"].to_numpy(np.float64)
        keep = ~np.isnan(prev)  # the corpus-first month has no prior
        return pd.DataFrame({
            "o_year": b["o_year"].to_numpy()[keep],
            "o_month": b["o_month"].to_numpy()[keep],
            "cents": b["cents"].to_numpy()[keep],
            "growth": (cur[keep] - prev[keep]) / prev[keep]})

    return lagged.map_batches(growth, batch_format="pandas")


def q_bigram_pmi(sf_dir: str):
    """Adjacent-token collocation mining (§ text analysis): PMI of
    every bigram with the fully distributed count/join shape
    (ops/textops.py::bigram_pmi) — no vocabulary-sized driver or
    broadcast state, so the same code holds when the corpus vocab
    outgrows a node. Round-6 ln contract."""
    from no_fasel_scrapers_ray.ops.textops import bigram_pmi
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_pmi(docs)


def q_zipf_slope(sf_dir: str):
    """Zipf's-law OLS fit over the term-frequency ranking (§ text
    analysis — corpus health check): distributed unigram counts, then
    the closed-form fit on the ≤ topn survivor set
    (ops/textops.py::zipf_slope). Round-6 ln contract."""
    from no_fasel_scrapers_ray.ops.textops import zipf_slope
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return zipf_slope(docs, topn=1000)


RRF_QUERY_IDS = (0, 1, 2)
RRF_K = 60          # the standard RRF damping constant
RRF_CAND = 20       # per-retriever candidate-list depth
RRF_TOP = 10        # fused results returned per query


def q_hybrid_search_rrf(sf_dir: str):
    """Reciprocal-rank fusion of two retrievers (§ similarity search —
    the hybrid-retrieval primitive): for each query vector, the
    cosine-similarity ranking and the (negative) Euclidean-distance
    ranking over all other embeddings are fused with
    RRF(d) = Σ_lists 1/(60 + rank_d). Scale shape: query vectors
    broadcast once; each batch computes BOTH scores vectorized
    (one matmul + one norm pass per batch — the knn_bruteforce
    posture); `topk_per_group` prunes every batch to ≤ 20 candidates
    per (query, retriever), so only candidate partials shuffle. The
    fusion itself runs on the ≤ 2·20-row-per-query survivor set.
    Scores are rounded to 4 dp BEFORE ranking (the knn contract:
    rank boundaries are decided on round-4 values with vec_id
    tie-breaks, deterministic on both engines); the fused score is
    one mirrored float expression rounded to 6."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, topk_per_group)

    import pyarrow.parquet as pq
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # dim-sized driver pull with predicate pushdown (3 rows)
    qdf = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(RRF_QUERY_IDS))]).to_pandas()
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    q_ref = ray.put((qids, qmat))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qi, qm = broadcast_get(q_ref)
        vm = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        vid = b["vec_id"].to_numpy(np.int64)
        vn = np.sqrt((vm * vm).sum(axis=1))
        qn = np.sqrt((qm * qm).sum(axis=1))
        dots = vm @ qm.T                          # (batch, nq)
        out = []
        for j, qid in enumerate(qi):
            keep = vid != qid
            cos = np.round(dots[keep, j] / (vn[keep] * qn[j]), 4)
            # direct (a-b)² form, not the norm expansion — mirrors
            # list_distance numerically (no cancellation error)
            diff = vm[keep] - qm[j]
            l2 = np.round(np.sqrt((diff * diff).sum(axis=1)), 4)
            out.append(pd.DataFrame({
                "query_id": np.int64(qid),
                "vec_id": vid[keep], "cos": cos, "l2": l2}))
        return pd.concat(out, ignore_index=True)

    # materialize: BOTH rankings consume `scored` — without this the
    # full matmul scoring pass re-executes per consumer (the standing
    # lineage re-run pitfall)
    scored = emb.map_batches(score, batch_format="pandas").materialize()
    top_cos = topk_per_group(scored, ["query_id"], "cos", RRF_CAND,
                             ascending=False, tie_cols=["vec_id"]) \
        .to_pandas()
    top_l2 = topk_per_group(scored, ["query_id"], "l2", RRF_CAND,
                            ascending=True, tie_cols=["vec_id"]) \
        .to_pandas()

    def ranked(df: pd.DataFrame, col: str, asc: bool) -> pd.DataFrame:
        df = df.sort_values(["query_id", col, "vec_id"],
                            ascending=[True, asc, True],
                            ignore_index=True)
        df["rank"] = df.groupby("query_id").cumcount() + 1
        return df[["query_id", "vec_id", "rank"]]

    rc = ranked(top_cos, "cos", False).rename(columns={"rank": "r_cos"})
    rl = ranked(top_l2, "l2", True).rename(columns={"rank": "r_l2"})
    f = rc.merge(rl, on=["query_id", "vec_id"], how="outer")
    contrib_c = np.where(f["r_cos"].notna(),
                         1.0 / (RRF_K + f["r_cos"].to_numpy(np.float64)),
                         0.0)
    contrib_l = np.where(f["r_l2"].notna(),
                         1.0 / (RRF_K + f["r_l2"].to_numpy(np.float64)),
                         0.0)
    f["rrf"] = np.round(contrib_c + contrib_l, 6)
    f = f.sort_values(["query_id", "rrf", "vec_id"],
                      ascending=[True, False, True], ignore_index=True)
    out = f.groupby("query_id").head(RRF_TOP).reset_index(drop=True)
    return out[["query_id", "vec_id", "rrf"]]


Q16_SIZES = (1, 9, 14, 19, 23, 36, 45, 49)


def q_parts_supplier_counts(sf_dir: str):
    """NOT-IN subquery + COUNT DISTINCT over a fact-dim join (TPC-H
    Q16 shape, partsupp stood in by lineitem): distinct suppliers per
    (brand, size) for non-PROMO parts in a size set, excluding
    'complaint' suppliers (acctbal < 0 — the Q16 NOT IN analogue).
    Scale shape: the part dimension collapses to dense partkey-indexed
    keep/brand-code/size arrays broadcast once (O(#parts) bytes); the
    excluded-supplier key set is a sorted array probed with
    searchsorted (dim-sized by nature); lineitem streams through ONE
    map_batches that filters and projects to distinct
    (brand, size, suppkey) partials, and only those distinct triples
    shuffle into `grouped_count_distinct`'s bucketed final."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, grouped_count_distinct)
    parts = _read(sf_dir, "part",
                  ["p_partkey", "p_brand", "p_size", "p_type"],
                  rows_per_block=65536).to_pandas()
    keep = ((parts["p_type"] != "PROMO")
            & parts["p_size"].isin(Q16_SIZES)).to_numpy()
    npart = int(parts["p_partkey"].max()) + 1
    keep_arr = np.zeros(npart, dtype=bool)
    keep_arr[parts["p_partkey"].to_numpy()[keep]] = True
    brands, brand_codes = np.unique(
        parts["p_brand"].to_numpy(dtype=object), return_inverse=True)
    brand_arr = np.zeros(npart, dtype=np.int32)
    brand_arr[parts["p_partkey"].to_numpy()] = brand_codes
    size_arr = np.zeros(npart, dtype=np.int32)
    size_arr[parts["p_partkey"].to_numpy()] = \
        parts["p_size"].to_numpy(np.int32)

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"],
                 rows_per_block=65536).to_pandas()
    excl = np.sort(supp.loc[supp["s_acctbal"] < 0, "s_suppkey"]
                   .to_numpy(np.int64))
    dims_ref = ray.put((keep_arr, brand_arr, size_arr, brands, excl))

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"],
               rows_per_block=65536)

    def project(b: pd.DataFrame) -> pd.DataFrame:
        ka, ba, sa, labels, ex = broadcast_get(dims_ref)
        pk = b["l_partkey"].to_numpy(np.int64)
        sk = b["l_suppkey"].to_numpy(np.int64)
        m = ka[pk]
        if len(ex):
            pos = np.searchsorted(ex, sk)
            pos[pos == len(ex)] = 0
            m &= ex[pos] != sk
        pk, sk = pk[m], sk[m]
        return pd.DataFrame({"p_brand": labels[ba[pk]],
                             "p_size": sa[pk],
                             "l_suppkey": sk})

    proj = li.map_batches(project, batch_format="pandas")
    return grouped_count_distinct(proj, ["p_brand", "p_size"],
                                  "l_suppkey", "supplier_cnt")


Q19_BRANCHES = (
    ("b1", "Brand#1", 1, 15, 1, 20),
    ("b2", "Brand#13", 1, 25, 10, 30),
    ("b3", "Brand#23", 1, 35, 20, 40),
)


def q_special_deal_revenue(sf_dir: str):
    """Disjunctive multi-branch predicate revenue (TPC-H Q19 shape):
    total discounted revenue for lineitems matching ANY of three
    (brand, size-range, quantity-range) deal branches, reported per
    branch. Scale shape: each branch's part-side predicate collapses
    to a dense partkey-indexed boolean broadcast once; lineitem
    streams through ONE map_batches evaluating all branches
    vectorized into per-branch 0/1 columns, and the three revenue sums
    are exact (``exact_sums``). Revenue is the house exact-cents
    contract (cents × (100−disc_pct) → BIGINT `revenue_e4`), so the
    result is bit-exact vs the oracle."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      exact_sums)
    parts = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"],
                  rows_per_block=65536).to_pandas()
    npart = int(parts["p_partkey"].max()) + 1
    masks = np.zeros((len(Q19_BRANCHES), npart), dtype=bool)
    for i, (_, brand, slo, shi, _, _) in enumerate(Q19_BRANCHES):
        sel = ((parts["p_brand"] == brand)
               & parts["p_size"].between(slo, shi))
        masks[i, parts["p_partkey"].to_numpy()[sel.to_numpy()]] = True
    qty_lo = np.array([b[4] for b in Q19_BRANCHES], dtype=np.int64)
    qty_hi = np.array([b[5] for b in Q19_BRANCHES], dtype=np.int64)
    dims_ref = ray.put((masks, qty_lo, qty_hi))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice",
                "l_discount"], rows_per_block=65536,
               derive={"l_partkey": col("l_partkey"),
                       "qty": rint("l_quantity"),
                       "cents": cents("l_extendedprice"), "keep": _KEEP_PCT})

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        ms, qlo, qhi = broadcast_get(dims_ref)
        pk = b["l_partkey"].to_numpy(np.int64)
        qty = b["qty"].to_numpy()
        out = {"cents": b["cents"].to_numpy(), "keep": b["keep"].to_numpy()}
        for i, (name, *_rest) in enumerate(Q19_BRANCHES):
            out[name] = (ms[i][pk] & (qty >= qlo[i])
                         & (qty <= qhi[i])).astype(np.int64)
        return pd.DataFrame(out)

    names = [b[0] for b in Q19_BRANCHES]
    s = exact_sums(li.map_batches(prep, batch_format="pandas"), [],
                   {n: ("cents", "keep", n) for n in names}).iloc[0]
    return pd.DataFrame({
        "branch": names,
        "revenue_e4": np.array([s[n] for n in names], dtype=np.int64)})


def q_doc_perplexity(sf_dir: str):
    """Bigram-LM perplexity scoring (§ text analysis — the CCNet-style
    LM-quality signal for corpus curation): per-document average
    negative log-likelihood under an add-one-smoothed bigram model
    trained on the corpus itself (ops/textops.py::doc_perplexity).
    Fully distributed: counts and per-doc scoring both go through
    term-bucketed joins — no vocabulary-sized driver or broadcast
    state. Round-6 ln contract with integer-microNLL summation so the
    per-doc sum is order-independent."""
    from no_fasel_scrapers_ray.ops.textops import doc_perplexity
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return doc_perplexity(docs)


def q_debounce_events(sf_dir: str):
    """Event debouncing (§ stream cleaning — the dedup-by-recency
    stage a clickstream pipeline runs before counting): drop any
    event whose previous event of the same (user, type) lies within
    6 h (the synthetic stream's density makes sub-minute windows
    no-ops — 6 h drops ~10%); keep the rest. ONE (user, type)-bucket
    shuffle via `windowed_lag` (each key's history meets in one
    group, vectorized shift), then a streaming filter. Oracle: LAG
    window + the same strict > 6 h keep rule."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import windowed_lag
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts"], rows_per_block=65536,
               derive=_EVENT_US)
    lag = windowed_lag(ev, ["user_id", "event_type"], "ts_us", "ts_us",
                       "prev_us", tie_cols=["event_id"],
                       default=-(1 << 62))

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["ts_us"].to_numpy(np.int64)
             - b["prev_us"].to_numpy(np.int64)) > 21_600_000_000
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(np.int64)[m],
            "user_id": b["user_id"].to_numpy(np.int64)[m]})

    return lag.map_batches(keep, batch_format="pandas")


def q_sample_k_per_nation(sf_dir: str):
    """Deterministic EXACT-k stratified sample (§ sampling — the
    fixed-budget twin of the rate-based `stratified_hash_sample`): 3
    customers per nation, chosen by md5-of-key order so both engines
    agree bit-for-bit with no RNG. `topk_per_group` prunes per batch
    (≤ k rows per key per batch move through the shuffle). The per-row
    md5 loop is bounded by batch size and exists only because md5 is
    the one hash both engines share — at 100 TB swap both sides to a
    vectorized shared hash. Oracle: row_number() over md5 order."""
    import hashlib
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import topk_per_group
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"],
                 rows_per_block=65536)

    def add_h(b: pd.DataFrame) -> pd.DataFrame:
        keys = b["c_custkey"].to_numpy(np.int64)
        h = [hashlib.md5(str(k).encode()).hexdigest() for k in keys]
        return pd.DataFrame({"c_custkey": keys,
                             "c_nationkey":
                             b["c_nationkey"].to_numpy(np.int32),
                             "h": pd.array(h, dtype=object)})

    top = topk_per_group(cust.map_batches(add_h, batch_format="pandas"),
                         ["c_nationkey"], "h", k=3, ascending=True,
                         tie_cols=["c_custkey"])
    return top.map_batches(
        lambda b: b[["c_nationkey", "c_custkey"]],
        batch_format="pandas")


def q_impute_acctbal(sf_dir: str):
    """Group-median imputation (§ data repair — the fill-missing
    stage): customers with negative account balance take their
    nation's interpolated median balance. Medians via
    `grouped_quantile_cont` (bit-identical interpolation expression
    to DuckDB's median()), nation-sized result broadcast, one
    streaming fill pass. Oracle: median() join + CASE."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, grouped_quantile_cont)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"],
                 rows_per_block=65536)
    med = grouped_quantile_cont(cust, ["c_nationkey"], "c_acctbal",
                                0.5, "med").to_pandas()
    med = med.sort_values("c_nationkey")
    mk = ray.put(med["c_nationkey"].to_numpy(np.int64))
    mv = ray.put(med["med"].to_numpy(np.float64))

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        bal = b["c_acctbal"].to_numpy(np.float64)
        nk = b["c_nationkey"].to_numpy(np.int64)
        m = broadcast_get(mv)[np.searchsorted(broadcast_get(mk), nk)]
        return pd.DataFrame({
            "c_custkey": b["c_custkey"].to_numpy(np.int64),
            "acctbal_filled": np.where(bal < 0, m, bal)})

    return cust.map_batches(fill, batch_format="pandas")


def q_bpe_encode(sf_dir: str):
    """BPE corpus encoding (§ LLM training-data prep — the consumer of
    `bpe_merges`): tokenize every document with the learned top-30
    merge table and report its BPE token count
    (`ops/textops.py::bpe_encode_counts` — per-batch distinct-word
    encode, counts fanned back by inverse indices). Rows-only (the
    trainer itself is reference-pinned; the encoder has its own
    reference-equality test)."""
    from no_fasel_scrapers_ray.ops.textops import (bpe_encode_counts,
                                                   train_bpe_merges)
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe_merges(docs, n_merges=30)
    pairs = list(zip(merges["left"], merges["right"]))
    return bpe_encode_counts(docs, pairs)


def q_bpe_merges(sf_dir: str):
    """Distributed BPE tokenizer training (§ LLM training-data prep —
    the merge-table learning stage): top-30 byte-pair merges over the
    documents corpus (`ops/textops.py::train_bpe_merges`). The corpus
    collapses once to the distinct-word frequency vocab; all merge
    iterations run over the vocab dataset (Heaps-law-bounded), never
    re-reading the corpus. No SQL oracle by design (iterative argmax
    is not SQL-expressible at depth 30) — exact merge-table equality
    vs a single-process reference implementation is pinned in
    tests/test_round5_ops.py."""
    from no_fasel_scrapers_ray.ops.textops import train_bpe_merges
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return train_bpe_merges(docs, n_merges=30)


def q_user_similarity(sf_dir: str):
    """User-user Jaccard similarity over purchased-part sets, top-1
    most similar per user (§ set-similarity join — the collaborative-
    filtering neighbor step, the behavioral twin of the doc-level
    n-gram Jaccard dedup). Scale shape (`ops/dedup.py::
    set_similarity_top1`): ONE orders⋈lineitem bucketed join →
    distinct (user, part) preagg, then one of two tiers. While the
    (user, part) index fits the broadcast budget and no part reaches
    8192 users (sf0.01: 59k rows, fan-out ≤ 50), one task builds a
    CSR index and one wave of owner-range tasks counts co-users
    against it, slice by slice — no pair row is shuffled. Otherwise
    the hot/cold item split: cold items take the per-item bucket
    pair emission (volume Σ|users(item)|², BOUNDED by the threshold
    × nnz); hot items never self-merge — their co-membership rides as
    per-user bit signatures added exactly at scoring time, and
    hot-only pairs come from a signature-reduction popcount scan; one
    owner-bucket shuffle finishes: max-per-pair, then top-1. Both
    tiers break ties (jaccard DESC, other ASC) and compute Jaccard as
    ONE double division of exact int64s — bit-identical to the
    oracle's expression."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.dedup import set_similarity_top1
    from no_fasel_scrapers_ray.ops.relational import (bucketed_join,
                                                      preagg_reduce)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=65536)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=65536,
               derive={"o_orderkey": col("l_orderkey"),
                       "item": col("l_partkey")})
    j = bucketed_join(li, orders, on="o_orderkey", how="inner")
    ui = preagg_reduce(
        j.map_batches(lambda b: pd.DataFrame({
            "u": b["o_custkey"].to_numpy(np.int64),
            "item": b["item"].to_numpy(np.int64)}),
            batch_format="pandas"),
        ["u", "item"], "__n", "count")
    return set_similarity_top1(
        ui, hot_threshold=8192,
        out_names=("o_custkey", "similar_cust", "jaccard"))


def q_snapshot_diff_orders(sf_dir: str):
    """CDC keyed snapshot diff (§ incremental processing — the
    'what changed since yesterday' feed next to the reference's
    old/new merge precedence, Common.py merge-with-old): two
    deterministic snapshots of orders (old = keys %10≠0; new =
    keys %7≠3 with a 500-cent bump on keys %5=0) diffed into
    added/removed/changed rows via `ops/relational.py::
    keyed_snapshot_diff` — one key-bucket shuffle per side, per-bucket
    outer merge, integer-cents exact. Oracle: FULL OUTER JOIN with the
    same COALESCE(-1) sentinels."""
    from no_fasel_scrapers_ray.ops.relational import keyed_snapshot_diff
    def snapshot(where, bump=0):
        return _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"],
                     rows_per_block=65536, where=where,
                     derive={"o_orderkey": col("o_orderkey"),
                             "cents": cents("o_totalprice") + bump})

    old = snapshot(mod("o_orderkey", 10) != 0)
    new = snapshot(mod("o_orderkey", 7) != 3,
                   flag(mod("o_orderkey", 5) == 0) * 500)
    return keyed_snapshot_diff(old, new, "o_orderkey", ["cents"])


def q_profile_orders(sf_dir: str):
    """One-scan numeric data profiler (§ data-quality audit): per
    column of orders — row count, null count, exact distinct count,
    min, max (`ops/relational.py::profile_numeric_columns`). The
    ingest gate a pipeline runs before trusting new data; distinct is
    exact via a (column, value)-bounded preagg (HLL is the 100 TB
    swap-in, same scan). Oracle: UNION ALL of per-column aggregate
    SELECTs."""
    from no_fasel_scrapers_ray.ops.relational import (
        profile_numeric_columns)
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"],
                   rows_per_block=65536)
    return profile_numeric_columns(
        orders, ["o_custkey", "o_orderkey", "o_totalprice"])


def q_activity_islands(sf_dir: str):
    """Gaps-and-islands (§ windowed/sessionized analytics): per user,
    the count of maximal consecutive-day activity runs, the longest
    streak, and distinct active days (`ops/relational.py::
    consecutive_islands` — distinct-pair preagg, one user-bucket
    shuffle, shifted-array run detection; no Python per-user loop).
    Oracle: the classic day − row_number() island grouping."""
    from no_fasel_scrapers_ray.ops.relational import consecutive_islands
    DAY_US = 86400 * 1000000
    d = _read(sf_dir, "events", ["user_id", "ts"], rows_per_block=65536,
              derive={"user_id": col("user_id"),
                      "day": floor_div(epoch_us("ts"), DAY_US)})
    isl = consecutive_islands(d, "user_id", "day")
    return isl.map_batches(
        lambda b: b.rename(columns={"longest": "longest_streak",
                                    "n_vals": "n_days"}),
        batch_format="pandas")


def q_weighted_median_price(sf_dir: str):
    """Exact WEIGHTED median (§ statistical aggregates — the
    data-mixture quantile): per return flag, the smallest price whose
    cumulative line quantity reaches half the flag's total
    (`ops/relational.py::grouped_weighted_median` — value-domain
    histogram preagg, state bounded by price quantization). Oracle:
    cumulative-weight window scan with the same lower-median rule."""
    from no_fasel_scrapers_ray.ops.relational import (
        grouped_weighted_median)
    v = _read(sf_dir, "lineitem",
              ["l_returnflag", "l_extendedprice", "l_quantity"],
              rows_per_block=65536, derive=_FLAG_QTY_CENTS)
    out = grouped_weighted_median(v, ["l_returnflag"], "cents", "qty")
    return out.map_batches(
        lambda b: b.rename(columns={"cents": "median_cents"}),
        batch_format="pandas")


def q_rolling_distinct_users(sf_dir: str):
    """Sliding-window COUNT DISTINCT (§ streaming analytics): distinct
    users per hour over a trailing 3-hour window — NOT pre-aggregable
    as counts, so the scale shape is dedup → window EXPANSION → dedup
    (`ops/relational.py::trailing_distinct_count`; moved volume is
    width × distinct pairs, independent of raw row count). Oracle:
    present-hours × pairs interval join with COUNT(DISTINCT)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        trailing_distinct_count)
    HOUR_US = 3600 * 1000000
    v = _read(sf_dir, "events", ["ts", "user_id"], rows_per_block=65536,
              derive={"hr_us": floor_div(epoch_us("ts"), HOUR_US) * HOUR_US,
                      "user_id": col("user_id")})
    out = trailing_distinct_count(v, "hr_us", "user_id", width=3,
                                  step=HOUR_US, out_col="n_users")

    def render(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "hr": b["hr_us"].to_numpy(np.int64).astype("datetime64[us]"),
            "n_users": b["n_users"].to_numpy(np.int64)})

    return out.map_batches(render, batch_format="pandas")


def _event_user_counts(sf_dir: str, et: str, alias: str):
    """Per-user count of events of one type — the count-reduction both
    bag-semantics set ops share (bag INTERSECT/EXCEPT reduce to
    per-key counts; one helper so the two queries can't drift)."""
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    s = _read(sf_dir, "events", ["user_id", "event_type"],
              rows_per_block=65536, derive={"user_id": col("user_id")},
              where=col("event_type") == et)
    return preagg_reduce(s, ["user_id"], alias, "count")


def q_intersect_all_users(sf_dir: str):
    """INTERSECT ALL — bag semantics (§ set operations, completing
    the family next to the DISTINCT-semantics `intersect_users`):
    users kept with multiplicity min(click count, purchase count).
    Set ops under bag semantics reduce to per-key COUNTS — two
    per-side preaggs, one user-bucket join, a vectorized repeat; the
    shuffle moves counts, never the multiset. Oracle: INTERSECT ALL."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import bucketed_join

    j = bucketed_join(_event_user_counts(sf_dir, "click", "nl"),
                      _event_user_counts(sf_dir, "purchase", "nr"),
                      on="user_id", how="inner")

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        u = b["user_id"].to_numpy(np.int64)
        rep = np.minimum(b["nl"].to_numpy(np.int64),
                         b["nr"].to_numpy(np.int64))
        return pd.DataFrame({"user_id": np.repeat(u, rep)})

    return j.map_batches(expand, batch_format="pandas")


def q_except_all_clicks(sf_dir: str):
    """EXCEPT ALL — bag semantics (the multiset difference):
    click-user occurrences with multiplicity max(clicks − purchases,
    0). Same count-reduction shape as INTERSECT ALL (shared
    `_event_user_counts`), with a LEFT bucket join so click-only users
    keep their full multiplicity (missing right counts surface as the
    join's float-NaN → 0, the documented left-join contract). Oracle:
    EXCEPT ALL."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import bucketed_join

    j = bucketed_join(_event_user_counts(sf_dir, "click", "nl"),
                      _event_user_counts(sf_dir, "purchase", "nr"),
                      on="user_id", how="left")

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        u = b["user_id"].to_numpy(np.int64)
        nl = b["nl"].to_numpy(np.int64)
        nr = np.nan_to_num(b["nr"].to_numpy(np.float64),
                           nan=0.0).astype(np.int64)
        rep = np.maximum(nl - nr, 0)
        return pd.DataFrame({"user_id": np.repeat(u, rep)})

    return j.map_batches(expand, batch_format="pandas")


def q_scd2_user_events(sf_dir: str):
    """SCD2 validity intervals from a change log (§ warehouse/CDC —
    the slowly-changing-dimension build: each state row becomes
    [valid_from, valid_to) with valid_to = the next change's
    timestamp, sentinel 2100-01-01 for the current row). ONE
    user-bucket shuffle via `windowed_lead` (each user's history in
    one group, vectorized shift); ties ordered by event_id on both
    engines. Oracle: LEAD window + COALESCE(sentinel)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import windowed_lead
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts"], rows_per_block=65536,
               derive=_EVENT_US)
    SENTINEL_US = int(pd.Timestamp("2100-01-01").value // 1000)
    led = windowed_lead(ev, ["user_id"], "ts_us", "ts_us", "valid_to_us",
                        tie_cols=["event_id"], default=SENTINEL_US)

    def render(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(np.int64),
            "user_id": b["user_id"].to_numpy(np.int64),
            "event_type": b["event_type"].to_numpy(),
            "valid_from": b["ts_us"].to_numpy(np.int64)
            .astype("datetime64[us]"),
            "valid_to": b["valid_to_us"].to_numpy(np.int64)
            .astype("datetime64[us]")})

    return led.map_batches(render, batch_format="pandas")


def q_nation_priority_kl(sf_dir: str):
    """Per-nation KL divergence of the order-priority distribution vs
    the global one (§ statistical aggregates — the drift/segmentation
    score a data monitor computes per shard). Counts via ONE
    (nation, priority) preagg with broadcast customer→nation dims
    (bucketed join is the 100 TB path); the ≤ nations×priorities
    count table finishes on the driver (dim-bounded pull, the
    sketch-merge convention). ln is transcendental → round-6 contract
    like pagerank. Oracle mirrors the same p·ln(p/q) expression."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      preagg_reduce)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int64))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        nat = broadcast_get(cn)[np.searchsorted(broadcast_get(ck), c)]
        return pd.DataFrame({"nation": nat,
                             "pr": b["o_orderpriority"].to_numpy()})

    counts = preagg_reduce(orders.map_batches(tag, batch_format="pandas"),
                           ["nation", "pr"], "n", "count").to_pandas()
    tn = counts.groupby("nation")["n"].transform("sum").to_numpy(
        np.float64)
    gn = counts.groupby("pr")["n"].transform("sum").to_numpy(np.float64)
    at = float(counts["n"].sum())
    p = counts["n"].to_numpy(np.float64) / tn
    q = gn / at
    counts["term"] = p * np.log(p / q)
    kl = counts.groupby("nation", as_index=False)["term"].sum()
    return pd.DataFrame({
        "nation": kl["nation"].to_numpy(np.int64).astype(np.int32),
        "kl": np.round(kl["term"].to_numpy(np.float64), 6)})


def q_grouping_sets_orders(sf_dir: str):
    """GROUPING SETS ((priority), (status), ()) in ONE scan (§
    relational aggregates — the general form next to rollup/cube):
    the scan reduces once to the (priority, status) pair table (≤
    |priorities|×|statuses| rows), and all three grouping sets
    aggregate from that dim-bounded table — the same
    partial-reuse trick LMFAO-style batched aggregation exploits.
    'ALL' sentinels mirror the oracle's COALESCE."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_sum_count
    orders = _read(sf_dir, "orders",
                   ["o_orderpriority", "o_orderstatus", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"pr": col("o_orderpriority"),
                           "st": col("o_orderstatus"),
                           "cents": cents("o_totalprice")})
    pairs = preagg_sum_count(orders, ["pr", "st"], {"cents": "total_cents"},
                             count_alias="n_orders").to_pandas()
    by_pr = pairs.groupby("pr", as_index=False).agg(
        n_orders=("n_orders", "sum"), total_cents=("total_cents", "sum"))
    by_pr["st"] = "ALL"
    by_st = pairs.groupby("st", as_index=False).agg(
        n_orders=("n_orders", "sum"), total_cents=("total_cents", "sum"))
    by_st["pr"] = "ALL"
    total = pd.DataFrame({"pr": ["ALL"], "st": ["ALL"],
                          "n_orders": [pairs["n_orders"].sum()],
                          "total_cents": [pairs["total_cents"].sum()]})
    out = pd.concat([by_pr, by_st, total], ignore_index=True)
    return pd.DataFrame({
        "grp_priority": out["pr"].to_numpy(object),
        "grp_status": out["st"].to_numpy(object),
        "n_orders": out["n_orders"].to_numpy(np.int64),
        "total_cents": out["total_cents"].to_numpy(np.int64)})


def q_ingest_incremental(sf_dir: str):
    """Continuous-ingest story (§ incremental processing — the
    micro-batch twin of the reference's daily cron batch,
    ScrapeAll.py:5-39): three deterministic arrival batches sliced
    from the documents table (batch 2 replays half of batch 1, batch
    3 replays half of batch 2 plus fresh rows) stream through
    `pipelines/ingest.py::MicroBatchIngest` — hash-partitioned
    persistent seen store, partition-pruned anti-joins, exactly-once
    manifest watermark, crash-replay idempotence (pinned in
    tests/test_ingest.py). Returns the per-batch
    (batch_id, arrived, new, dupes) ledger. Rows-only by design
    (stateful streaming is not SQL-expressible; the brief's carve-out
    class)."""
    import shutil
    import tempfile

    from no_fasel_scrapers_ray.pipelines.ingest import MicroBatchIngest
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # batch boundaries from the doc_id RANGE — no driver
    # materialization (review-caught posture): the synthetic table's
    # ids are dense, and approximate thirds are all the ledger needs
    lo = int(docs.min("doc_id"))
    hi = int(docs.max("doc_id"))
    n = hi - lo + 1
    a, b = lo + n // 3, lo + 2 * n // 3
    c = b - (b - a) // 2

    def sl(lo_id, hi_id):
        return docs.filter(
            expr=f"doc_id >= {lo_id} and doc_id < {hi_id}")

    batches = [("b1", sl(lo, b)),          # ids [lo, b)
               ("b2", sl(a, b)),           # full replay slice
               ("b3", sl(c, hi + 1))]      # half-old + fresh
    state = tempfile.mkdtemp(prefix="ingest_state_")
    try:
        ing = MicroBatchIngest(state, n_partitions=8)
        for bid, bds in batches:
            ing.process(bid, bds)
        return ing.stats_frame()
    finally:
        shutil.rmtree(state, ignore_errors=True)


def q_msf_fulfillment(sf_dir: str, tier3: bool = False):
    """Minimum spanning forest (§ graph operators — single-linkage
    clustering's backbone) over the bipartite customer–supplier
    fulfillment graph with deterministic integer weights
    w = (c·2654435761 + s·40503) mod 9973 + 1 (pseudo-unique, so the
    MSF is essentially unique and run-independent), through the three
    size tiers of `ops/graph.py::minimum_spanning_forest`;
    ``tier3=True`` (query ``msf_tier3``) runs its fully distributed
    `_msf_tier3` (``_budgets``). Customers offset by
    2^40 into their own node space (the pagerank contract). No SQL
    oracle by design (MSF is not SQL-expressible) — Kruskal-reference
    + tier-equality pinned in tests/test_round5_ops.py and
    tests/test_round6_ops.py."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import minimum_spanning_forest
    cs = _fulfillment_edges(sf_dir)

    def weight(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(np.int64)
        s = b["s"].to_numpy(np.int64)
        w = (c * 2654435761 + s * 40503) % 9973 + 1
        return pd.DataFrame({"u": c + (1 << 40), "v": s, "w": w})

    edges = cs.map_batches(weight, batch_format="pandas")
    with _budgets(tier3):
        return minimum_spanning_forest(edges)


def q_top_session_paths(sf_dir: str):
    """Top-10 session-opening paths (§ sequence analytics — the
    clickstream path analysis next to funnels/transitions): sessions
    cut at 30-min inactivity (the sessionize contract), each session
    reduced to its first 3 event types joined 'a>b>c', counted
    corpus-wide. ONE user-bucket shuffle (a user's sessions co-locate
    by construction), vectorized boundary/rank arithmetic, per-bucket
    path partials → ONE path-count preagg → block-top-10 survivors →
    tiny global sort (the top_terms shape). Oracle: window
    sessionization + ordered string_agg."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts"], rows_per_block=65536,
               derive=_EVENT_US)
    GAP_US = 30 * 60 * 1000000

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          ignore_index=True)
        if not len(g):
            return pd.DataFrame({"path": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        start = np.ones(len(g), dtype=bool)
        start[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > GAP_US)
        sid = np.cumsum(start) - 1
        starts_idx = np.flatnonzero(start)
        rank = np.arange(len(g)) - starts_idx[sid]
        head = g[rank < 3].assign(__sid=sid[rank < 3])
        p = head.groupby("__sid", sort=False)["event_type"].agg(
            ">".join)
        vc = p.value_counts()
        return pd.DataFrame({"path": vc.index.to_numpy(object),
                             "n": vc.to_numpy(np.int64)})

    partials = key_shuffle(ev, paths, ["user_id"], batch_format="pandas")
    counts = preagg_reduce(partials, ["path"], "n", "sum")

    def block_top(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n", "path"],
                             ascending=[False, True]).head(10)

    surv = counts.map_batches(block_top, batch_format="pandas")
    top = surv.sort(["n", "path"], descending=[True, False]).limit(10)
    return top.map_batches(
        lambda b: pd.DataFrame({"path": b["path"].to_numpy(object),
                                "n_sessions": b["n"].to_numpy(np.int64)}),
        batch_format="pandas")


def q_interpolate_hourly(sf_dir: str):
    """Time-series gap fill with LINEAR INTERPOLATION (§ resampling —
    the sensor/metrics repair stage next to the zero-fill
    `events_hourly_dense`): mean purchase value per hour on the dense
    min..max grid; absent hours take prev + (next−prev)·frac between
    the nearest present hours. The hourly reduce is distributed
    (integer-cents sum + count preagg); the grid walk runs on the
    driver over the dim-bounded present-hours table (hours = range/1h
    — the sketch-merge convention). Means and interpolation use ONE
    fixed float expression mirrored in SQL → bit-exact."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import grouped_multi_agg
    HOUR_US = 3600 * 1000000
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"],
               rows_per_block=65536,
               derive={"hr_us": floor_div(epoch_us("ts"), HOUR_US) * HOUR_US,
                       "cents": cents("value")},
               where=col("event_type") == "purchase")
    hourly = grouped_multi_agg(
        ev, ["hr_us"],
        {"sum_cents": ("cents", "sum"), "n": ("cents", "count")}
    ).to_pandas().sort_values("hr_us", ignore_index=True)
    hrs = hourly["hr_us"].to_numpy(np.int64)
    v = (hourly["sum_cents"].to_numpy(np.int64).astype(np.float64)
         / hourly["n"].to_numpy(np.int64) / 100.0)
    grid = np.arange(hrs[0], hrs[-1] + HOUR_US, HOUR_US,
                     dtype=np.int64)
    pos = np.searchsorted(hrs, grid)
    present = (pos < len(hrs)) & (hrs[np.minimum(pos, len(hrs) - 1)]
                                  == grid)
    nxt = np.minimum(pos, len(hrs) - 1)
    prv = np.maximum(pos - 1, 0)
    frac = ((grid - hrs[prv]).astype(np.float64)
            / np.maximum(hrs[nxt] - hrs[prv], 1).astype(np.float64))
    interp = v[prv] + (v[nxt] - v[prv]) * frac
    out_v = np.where(present, v[np.minimum(pos, len(hrs) - 1)], interp)
    return pd.DataFrame({
        "hr": grid.astype("datetime64[us]"),
        "value": out_v,
        "filled": (~present).astype(np.int64)})


def q_stock_balance_clamped(sf_dir: str):
    """Zero-clamped running stock balance per part (§ stateful scans —
    the no-overdraft accumulator that LOOKS inherently sequential):
    shipments add quantity, returns (l_returnflag='R') remove it,
    stock never goes negative. Parallelized via the clamp identity
    B_i = C_i − min(0, runmin(C_i)) over plain prefix sums
    (`ops/relational.py::clamped_running_balance` — one part-bucket
    shuffle, vectorized cumsum/cummin, no Python recurrence). Oracle:
    the same identity as nested window SUM/MIN."""
    from no_fasel_scrapers_ray.ops.relational import (
        clamped_running_balance)
    sign = pc.if_else(col("l_returnflag") == "R", pc.scalar(-1),
                      pc.scalar(1))
    v = _read(sf_dir, "lineitem",
              ["l_partkey", "l_orderkey", "l_linenumber", "l_quantity",
               "l_returnflag", "l_shipdate"], rows_per_block=65536,
              derive={"l_partkey": col("l_partkey"),
                      "ship_us": epoch_us("l_shipdate"),
                      "l_orderkey": col("l_orderkey"),
                      "l_linenumber": int64("l_linenumber"),
                      "delta": rint("l_quantity") * sign})
    return clamped_running_balance(
        v, "l_partkey", ["ship_us", "l_orderkey", "l_linenumber"],
        "delta")


def q_rolling_approx_users(sf_dir: str):
    """APPROXIMATE sliding-window distinct users (§ sketches ×
    streaming windows — the composition that shows why mergeable
    sketches matter): same trailing 3-hour window as the exact
    `rolling_distinct_users`, but each hour reduces once to a 4 KiB
    HLL register blob and windows are register maxes — no width×
    expansion, state independent of user cardinality
    (`ops/sketch.py::rolling_approx_distinct`). Rows-only by design;
    ±5% envelope vs the exact twin pinned in tests/test_sketch.py."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.sketch import rolling_approx_distinct
    HOUR_US = 3600 * 1000000
    v = _read(sf_dir, "events", ["ts", "user_id"], rows_per_block=65536,
              derive={"hr_us": floor_div(epoch_us("ts"), HOUR_US) * HOUR_US,
                      "user_id": col("user_id")})
    out = rolling_approx_distinct(v, "hr_us", "user_id", width=3,
                                  step=HOUR_US, out_col="n_users_approx")
    return pd.DataFrame({
        "hr": out["hr_us"].to_numpy(np.int64).astype("datetime64[us]"),
        "n_users_approx": out["n_users_approx"].to_numpy(np.int64)})


def q_sssp_nations(sf_dir: str):
    """Weighted single-source shortest paths (§ graph operators — the
    weighted twin of bfs_fulfillment): distances from nation 0 over
    the undirected supplier-nation ↔ customer-nation trade graph with
    deterministic integer weights w = (u+v)%5 + 1
    (`ops/graph.py::weighted_sssp`, Bellman-Ford; driver tier here —
    25 nodes — with the node-bucket BSP kernel past the driver
    budget, tier-equality-tested). Oracle: bounded recursive-CTE
    relaxation (d ≤ 130 > the 24·5 worst shortest distance, so no
    shortest path is cut)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.graph import weighted_sssp
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      preagg_reduce)
    cs = _fulfillment_edges(sf_dir)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    supp = supp.sort_values("s_suppkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int64))
    sk = ray.put(supp["s_suppkey"].to_numpy(np.int64))
    sn = ray.put(supp["s_nationkey"].to_numpy(np.int64))

    def to_nations(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(np.int64)
        s = b["s"].to_numpy(np.int64)
        u = broadcast_get(sn)[np.searchsorted(broadcast_get(sk), s)]
        v = broadcast_get(cn)[np.searchsorted(broadcast_get(ck), c)]
        # undirected trade graph: emit both directions (a directed
        # graph from a non-supplier source nation is trivially {0})
        return pd.DataFrame({"u": np.concatenate([u, v]),
                             "v": np.concatenate([v, u])})

    dn = preagg_reduce(cs.map_batches(to_nations, batch_format="pandas"),
                       ["u", "v"], "__n", "count")

    def weight(b: pd.DataFrame) -> pd.DataFrame:
        u = b["u"].to_numpy(np.int64)
        v = b["v"].to_numpy(np.int64)
        return pd.DataFrame({"u": u, "v": v, "w": (u + v) % 5 + 1})

    edges = dn.map_batches(weight, batch_format="pandas")
    out = weighted_sssp(edges, source=0)

    def render(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "nation": b["node_id"].to_numpy(np.int64).astype(np.int32),
            "dist": b["dist"].to_numpy(np.int64)})

    return out.map_batches(render, batch_format="pandas")


def q_rfm_segments(sf_dir: str):
    """RFM customer segmentation (§ scoring — the classic CRM/feature
    pipeline: quintile scores for Recency/Frequency/Monetary and a
    composite segment code). Per-customer profile via ONE bucketed
    multi-agg pass over orders; each score is a GLOBAL NTILE(5) from
    `ops/relational.py::global_ntile` — the range-partitioned scan
    (sampled value ranges → per-range base ranks → one range shuffle),
    because a global ranking cannot hash-bucket. o_custkey breaks
    every tie so both engines assign identical tiles at boundaries.
    Integer days/cents throughout → hash-exact."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (global_ntile,
                                                      grouped_multi_agg)
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"o_custkey": col("o_custkey"),
                           "od_us": epoch_us("o_orderdate"),
                           "cents": cents("o_totalprice")})
    DAY_US = 86400 * 1000000
    prof = grouped_multi_agg(
        orders, ["o_custkey"],
        {"last_us": ("od_us", "max"), "freq": ("od_us", "count"),
         "mon_cents": ("cents", "sum")}).materialize()
    gmax = int(prof.max("last_us"))

    def add_rec(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rec_days"] = (gmax - b["last_us"].to_numpy(np.int64)) // DAY_US
        return b.drop(columns="last_us")

    scored = global_ntile(
        global_ntile(
            global_ntile(
                prof.map_batches(add_rec, batch_format="pandas"),
                "rec_days", ["o_custkey"], 5, "r_score"),
            "freq", ["o_custkey"], 5, "f_score"),
        "mon_cents", ["o_custkey"], 5, "m_score")

    def render(b: pd.DataFrame) -> pd.DataFrame:
        r = b["r_score"].to_numpy(np.int64)
        f = b["f_score"].to_numpy(np.int64)
        m = b["m_score"].to_numpy(np.int64)
        return pd.DataFrame({
            "o_custkey": b["o_custkey"].to_numpy(np.int64),
            "rec_days": b["rec_days"].to_numpy(np.int64),
            "freq": b["freq"].to_numpy(np.int64),
            "mon_cents": b["mon_cents"].to_numpy(np.int64),
            "r_score": r, "f_score": f, "m_score": m,
            "segment": r * 100 + f * 10 + m})

    return scored.map_batches(render, batch_format="pandas")


def q_gini_nation_spend(sf_dir: str):
    """Per-nation Gini coefficient of customer order spend (§
    statistical aggregates — the inequality/concentration score next
    to the KL drift monitor). Spend per (nation, customer) via one
    bucketed agg with the broadcast customer→nation dim (searchsorted
    map-side join, the `nation_priority_kl` shape); then the key scale
    move: reduce to the (nation, spend-value) DISTINCT-VALUE count
    table before ranking, so the per-nation pass sorts distinct values
    (≪ customers) and computes the tie-group rank sum
    Σ v·(k·s0 + k(k+1)/2) in exact int64 — identical to the oracle's
    row_number formulation because permuting equal values never
    changes Σ i·x_i. Final Gini = 2S/(n·Σx) − (n+1)/n in ONE mirrored
    float expression, round-6 contract (int64 S is exact at bench
    scales; the 100 TB path would hold S in float with a tolerance
    gate)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      grouped_multi_agg,
                                                      preagg_reduce)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int64))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536, derive=_CUST_CENTS)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        nat = broadcast_get(cn)[np.searchsorted(broadcast_get(ck), c)]
        return pd.DataFrame({"nation": nat, "cust": c,
                             "cents": b["cents"].to_numpy()})

    spend = grouped_multi_agg(
        orders.map_batches(tag, batch_format="pandas"),
        ["nation", "cust"], {"cents": ("cents", "sum")})
    vals = preagg_reduce(
        spend.map_batches(
            lambda b: b[["nation", "cents"]], batch_format="pandas"),
        ["nation", "cents"], "k", "count")

    def gini(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("cents", ignore_index=True)
        v = g["cents"].to_numpy(np.int64)
        k = g["k"].to_numpy(np.int64)
        s0 = np.cumsum(k) - k
        S = int(np.sum(v * (k * s0 + k * (k + 1) // 2)))
        n = int(k.sum())
        s = int(np.sum(v * k))
        val = np.round(2.0 * float(S) / (float(n) * float(s))
                       - (float(n) + 1.0) / float(n), 6)
        return pd.DataFrame({
            "c_nationkey": np.array([g["nation"].iloc[0]],
                                    dtype=np.int32),
            "gini": np.array([val], dtype=np.float64)})

    return vals.groupby("nation").map_groups(gini,
                                             batch_format="pandas")


def q_acf_daily_revenue(sf_dir: str):
    """Autocorrelation function of daily purchase revenue at lags 1–7
    (§ time-series analytics — the seasonality probe next to EWMA and
    the interpolating gap-fill). The daily reduce is distributed
    (integer-cents sum per day, one bucketed agg); the ACF itself runs
    on the driver over the dim-bounded day series (days = range/1d,
    the sketch-merge convention) using exact int64 moment sums
    (Σx, Σx², Σx·x₊ₖ) so numerator/denominator come from ONE mirrored
    float expression on both engines — no float accumulation order to
    drift (round-6 contract for the final ratio). ACF here is the
    series-index form (rows ordered by day, lag = index offset), the
    standard definition for regularly-reported metrics."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import grouped_multi_agg
    DAY_US = 86400 * 1000000
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"],
               rows_per_block=65536,
               derive={"day_us": floor_div(epoch_us("ts"), DAY_US) * DAY_US,
                       "cents": cents("value")},
               where=col("event_type") == "purchase")
    daily = grouped_multi_agg(
        ev, ["day_us"],
        {"cents": ("cents", "sum")}).to_pandas()
    daily = daily.sort_values("day_us", ignore_index=True)
    x = daily["cents"].to_numpy(np.int64)
    n = len(x)
    s1 = int(x.sum())
    s2 = int(np.dot(x, x))
    mu = float(s1) / float(n)
    lags, acf = [], []
    for k in range(1, 8):
        if k >= n:
            break
        sxy = int(np.dot(x[:-k], x[k:]))
        sx = int(x[:-k].sum())
        sy = int(x[k:].sum())
        num = (float(sxy) - mu * (float(sx) + float(sy))
               + float(n - k) * mu * mu)
        den = float(s2) - float(n) * mu * mu
        lags.append(k)
        acf.append(np.round(num / den, 6))
    return pd.DataFrame({"lag": np.array(lags, dtype=np.int64),
                         "acf": np.array(acf, dtype=np.float64)})


def q_spearman_qty_price(sf_dir: str):
    """Global Spearman rank correlation between line quantity and
    extended price (§ statistical aggregates — the monotone-association
    twin of the Pearson `corr_qty_price`). The whole rank machinery is
    distributed: distinct (qty, cents) pair counts, per-column tied
    doubled-ranks via the range-partitioned scan (no broadcast of the
    near-distinct price domain), two bucketed joins over the PAIR
    table, exact integer moment sums combined in big-int space, ONE
    mirrored float closed form (ops/relational.py::spearman_corr)."""
    from no_fasel_scrapers_ray.ops.relational import spearman_corr
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"],
               rows_per_block=65536,
               derive={"q": rint("l_quantity"),
                       "c": cents("l_extendedprice")})
    return spearman_corr(li, "q", "c", "spearman")


def q_pct_rank_nation_spend(sf_dir: str):
    """PERCENT_RANK of each customer's total order spend within their
    nation (§ window functions — the grouped rank-score shape used for
    within-cohort percentiles). Spend per customer is one bucketed agg;
    the rank itself runs on the DISTINCT (nation, spend) count table —
    a hot nation costs its distinct spend values, never its customer
    count — then one key-bucketed merge stitches scores back
    (ops/relational.py::percent_rank_in_group)."""
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, percent_rank_in_group, preagg_reduce)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int32))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"c_custkey": col("o_custkey"),
                           "spend_cents": cents("o_totalprice")})
    spend = preagg_reduce(orders, ["c_custkey"], "spend_cents", "sum")

    def add_nation(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c_custkey"].to_numpy(np.int64)
        b = b.copy()
        b["c_nationkey"] = broadcast_get(cn)[
            np.searchsorted(broadcast_get(ck), c)]
        return b

    tagged = spend.map_batches(add_nation, batch_format="pandas")
    return percent_rank_in_group(tagged, "c_nationkey", "spend_cents",
                                 "pr")


def q_fd_cust_priority(sf_dir: str):
    """Functional-dependency audit (§ data-quality profiling, next to
    `profile_orders`): customers whose orders carry MORE than one
    distinct order priority, with the distinct-priority count —
    `o_custkey → o_orderpriority` holds iff empty. Two bucketed
    distinct reduces; the fact table streams once
    (ops/relational.py::fd_violations)."""
    from no_fasel_scrapers_ray.ops.relational import fd_violations
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536)
    return fd_violations(orders, "o_custkey", "o_orderpriority",
                         "n_priorities")


def q_theil_sen_cust_trend(sf_dir: str):
    """Per-customer Theil–Sen robust spend trend (§ statistical
    aggregates — the outlier-immune regression next to the OLS
    `price_qty_regression`): median pairwise slope of (order day,
    order cents) for customers with ≥ 6 orders. Many-small-groups
    O(k²) shape: one key-bucket shuffle, vectorized triu pairs per
    group, loud failure past the group-size bound
    (ops/relational.py::theil_sen_grouped)."""
    from no_fasel_scrapers_ray.ops.relational import theil_sen_grouped
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"],
                   rows_per_block=65536, derive=_CUST_DAY_CENTS)
    return theil_sen_grouped(orders, "o_custkey", "day", "cents",
                             "trend_slope", min_points=6)


def q_benford_totalprice(sf_dir: str):
    """Benford leading-digit audit of order totals in cents (§
    data-quality profiling — the fraud/sensor screen): observed count
    per digit 1-9, Benford expectation, per-digit χ² contribution.
    Vectorized integer digit extraction per batch, 9-int partials,
    mirrored float expectation (ops/relational.py::benford_digits)."""
    from no_fasel_scrapers_ray.ops.relational import benford_digits
    orders = _read(sf_dir, "orders", ["o_totalprice"],
                   rows_per_block=65536,
                   derive={"cents": cents("o_totalprice")})
    return benford_digits(orders, "cents")


def q_ztest_urgent_nation(sf_dir: str):
    """Per-nation two-proportion z-test of the URGENT-order share
    against the rest of the world (§ statistical aggregates — the
    segment-vs-complement significance screen). Counts come from one
    bucketed agg with the broadcast customer→nation dim; the z
    statistic is ONE mirrored float expression over the 25-row
    nation frame (exact integer counts in, float out)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      grouped_multi_agg)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int32))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536,
                   derive={"o_custkey": col("o_custkey"),
                           "one": pc.scalar(1), "urgent": _URGENT})

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "c_nationkey": broadcast_get(cn)[
                np.searchsorted(broadcast_get(ck), c)],
            "one": b["one"].to_numpy(), "urgent": b["urgent"].to_numpy()})

    a = grouped_multi_agg(
        orders.map_batches(prep, batch_format="pandas"),
        ["c_nationkey"], {"n_orders": ("one", "sum"),
                          "n_urgent": ("urgent", "sum")}).to_pandas()
    N = float(int(a["n_orders"].sum()))
    X = float(int(a["n_urgent"].sum()))
    n = a["n_orders"].to_numpy(np.int64).astype(np.float64)
    x = a["n_urgent"].to_numpy(np.int64).astype(np.float64)
    # expression order mirrored in the SQL oracle — keep in sync
    p1 = x / n
    p2 = (X - x) / (N - n)
    pp = X / N
    a["z"] = (p1 - p2) / np.sqrt(pp * (1.0 - pp)
                                 * (1.0 / n + 1.0 / (N - n)))
    return a


def q_cusum_daily_revenue(sf_dir: str):
    """CUSUM change-point monitor over daily order revenue (§
    time-series analytics — the drift detector next to the ACF
    seasonality probe): standardized daily revenue, then the one-sided
    clamped cumulative sums C⁺/C⁻ with drift k = 0.5. The recurrence
    max(0, prev + z − k) is computed via the clamped-scan closed form
    C_t − min(0, min_{j≤t} C_j) (the `stock_balance_clamped` identity)
    so the oracle mirrors it with window SUM + window MIN. Daily
    reduce is distributed; the scan runs on the driver over the
    dim-bounded day series (days = range/1d)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import grouped_multi_agg
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"day_us": epoch_us("o_orderdate"),
                           "cents": cents("o_totalprice")})
    daily = grouped_multi_agg(
        orders, ["day_us"],
        {"r": ("cents", "sum")}).to_pandas()
    daily = daily.sort_values("day_us", ignore_index=True)
    r = daily["r"].to_numpy(np.int64)
    nf = float(len(r))
    s = float(sum(int(v) for v in r))            # exact big-int sums
    ss = float(sum(int(v) * int(v) for v in r))
    # expression order mirrored in the SQL oracle — keep in sync
    mu = s / nf
    std = np.sqrt(ss / nf - mu * mu)
    z = (r.astype(np.float64) - mu) / std
    cp = np.cumsum(z - 0.5)
    cn_ = np.cumsum(-z - 0.5)
    pos = cp - np.minimum(np.minimum.accumulate(cp), 0.0)
    neg = cn_ - np.minimum(np.minimum.accumulate(cn_), 0.0)
    return pd.DataFrame({"day_us": daily["day_us"].to_numpy(np.int64),
                         "cusum_pos": pos, "cusum_neg": neg})


def q_local_clustering(sf_dir: str, tier3: bool = False):
    """Per-node local clustering coefficient over the part
    co-occurrence graph (§ graph operators — the node-level
    cohesion score next to the global `triangle_parts`): for every
    part with co-occurrence degree ≥ 2, its triangle participation
    count and lcc = 2·T/(deg·(deg−1)). Degree-oriented per-bucket
    wedge closing with node-sized dense partials
    (ops/graph.py::local_clustering); each triangle credited to all
    three corners exactly once. ``tier3=True`` (query
    ``local_clustering_tier3``) runs the fully distributed closing
    exchange against the same oracle (``_budgets``)."""
    from no_fasel_scrapers_ray.ops.graph import local_clustering
    edges = _part_cooccurrence_edges(sf_dir)
    with _budgets(tier3):
        return local_clustering(edges)


def _with_rank2(b):
    """Adds the doubled tied rank ``r2 = 2·cum + cnt + 1`` of each
    distinct value to an ``ordered_prefix_sum`` count block."""
    return b.assign(r2=2 * b["__cum"].to_numpy(np.int64)
                    + b["cnt"].to_numpy(np.int64) + 1)


def _discount_rank_stats(sf_dir: str) -> tuple[float, float, float,
                                               float]:
    """Shared rank machinery for the Mann–Whitney / AUC twins (they
    are the same statistic up to the final expression — AUC =
    U/(nA·nB)): distinct-cents counts with per-value discounted
    share, doubled tied ranks via the range-partitioned scan, then
    exact rank sums (`ops/relational.py::exact_sums`). Returns exact
    (Σ cnt_a·rank2, Σ t³−t, n_A, n) as floats."""
    from no_fasel_scrapers_ray.ops.relational import (
        exact_sums, grouped_multi_agg, ordered_prefix_sum)
    li = _read(sf_dir, "lineitem", ["l_extendedprice", "l_discount"],
               rows_per_block=65536,
               derive={"v": cents("l_extendedprice"), "f": _DISCOUNTED,
                       "one": pc.scalar(1)})
    counts = grouped_multi_agg(
        li, ["v"],
        {"cnt": ("one", "sum"), "cnt_a": ("f", "sum")})
    ranked = ordered_prefix_sum(counts, "v", "cnt", "__cum")
    s = exact_sums(ranked.map_batches(_with_rank2, batch_format="pandas"),
                   [], {"s2ra": ("cnt_a", "r2"), "t3": ("cnt",) * 3,
                        "na": ("cnt_a",), "n": ("cnt",)}).iloc[0]
    return (float(s["s2ra"]), float(s["t3"] - s["n"]), float(s["na"]),
            float(s["n"]))


def q_mannwhitney_discount(sf_dir: str):
    """Mann–Whitney U rank-sum test (§ statistical aggregates — the
    nonparametric two-sample screen next to the z-test): do discounted
    line items (l_discount ≥ 0.05) have a different extended-price
    distribution than barely-discounted ones? The combined tied-rank
    sum for the A sample comes from the SAME distinct-value count
    machinery as Spearman (doubled ranks over the distinct-cents
    table — no value-domain broadcast, `_discount_rank_stats`), tie
    correction from exact Σ(t³−t); U, its null mean and the
    tie-corrected normal z evaluate ONE mirrored float expression
    from exact big-int sums."""
    import pandas as pd
    s2ra, tie, na, n = _discount_rank_stats(sf_dir)
    nb = n - na
    # expression order mirrored in the SQL oracle — keep in sync
    u_a = s2ra / 2.0 - na * (na + 1.0) / 2.0
    z = (u_a - na * nb / 2.0) / np.sqrt(
        (na * nb / 12.0) * ((n + 1.0) - tie / (n * (n - 1.0))))
    return pd.DataFrame({"n_a": np.array([na], dtype=np.int64),
                         "n_b": np.array([nb], dtype=np.int64),
                         "u_a": np.array([u_a], dtype=np.float64),
                         "z": np.array([z], dtype=np.float64)})


def q_mad_nation_price(sf_dir: str):
    """Per-nation median absolute deviation of order totals (§
    statistical aggregates — the robust scale estimator next to
    Theil–Sen's robust slope and the winsorized mean). Two composed
    exact-quantile passes over integer cents: per-nation cont median
    (doubled to stay integer), broadcast of the 25 medians, then the
    cont median of |2·cents − 2·median| halved — every interpolation
    is the same two order statistics DuckDB picks, so the float
    matches bit-for-bit."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, grouped_quantile_cont)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int32))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536, derive=_CUST_CENTS)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "c_nationkey": broadcast_get(cn)[
                np.searchsorted(broadcast_get(ck), c)],
            "cents": b["cents"].to_numpy()})

    tagged = orders.map_batches(prep,
                                batch_format="pandas").materialize()
    med = grouped_quantile_cont(tagged, ["c_nationkey"], "cents", 0.5,
                                "med").to_pandas()
    med = med.sort_values("c_nationkey")
    # 2·(interpolated median of ints) is mathematically an integer —
    # the cast is exact on both engines
    mk = ray.put(med["c_nationkey"].to_numpy(np.int32))
    mv = ray.put((2.0 * med["med"].to_numpy(np.float64))
                 .astype(np.int64))

    def dev(b: pd.DataFrame) -> pd.DataFrame:
        n = b["c_nationkey"].to_numpy(np.int32)
        med2 = broadcast_get(mv)[
            np.searchsorted(broadcast_get(mk), n)]
        return pd.DataFrame({
            "c_nationkey": n,
            "d2": np.abs(2 * b["cents"].to_numpy(np.int64) - med2)})

    mad2 = grouped_quantile_cont(
        tagged.map_batches(dev, batch_format="pandas"),
        ["c_nationkey"], "d2", 0.5, "mad2").to_pandas()
    mad2["mad"] = mad2["mad2"].to_numpy(np.float64) / 2.0
    return mad2[["c_nationkey", "mad"]]


def q_ks_urgent_price(sf_dir: str):
    """Kolmogorov–Smirnov two-sample statistic (§ statistical
    aggregates — the distribution-shift screen next to PSI/KL):
    D = sup|F_urgent − F_other| over order totalprice cents. Fully
    distributed EXACT shape: distinct-cents counts (grouped_multi_agg)
    → the range-partitioned ordered scan (`ordered_prefix_sum`, the
    Mann–Whitney machinery) attaches cumulative counts → per-block
    integer max of |s1·n0 − s0·n1| → driver max over block partials
    (block-count-bounded). ks_d is that integer over n1·n0 — both
    < 2^53 (loud guard), so ONE double division is bit-exact vs the
    oracle's mirrored window-cumsum expression."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        grouped_multi_agg, ordered_prefix_sum)
    orders = _read(sf_dir, "orders",
                   ["o_totalprice", "o_orderpriority"],
                   rows_per_block=65536,
                   derive={"v": cents("o_totalprice"), "f": _URGENT,
                           "one": pc.scalar(1)})
    counts = grouped_multi_agg(
        orders, ["v"],
        {"cnt": ("one", "sum"), "ca": ("f", "sum")}).materialize()
    n = int(counts.sum("cnt") or 0)
    n1 = int(counts.sum("ca") or 0)
    n0 = n - n1
    if n1 * n0 >= 1 << 53:
        raise ValueError("ks_urgent_price: n1*n0 exceeds 2^53 — the "
                         "exact double division needs a wider type")
    ranked = ordered_prefix_sum(counts, "v", "cnt", "__cum")
    ranked = ordered_prefix_sum(ranked, "v", "ca", "__cuma")

    def block_max(b: pd.DataFrame) -> pd.DataFrame:
        s1 = b["__cuma"].to_numpy(np.int64) + b["ca"].to_numpy(np.int64)
        s0 = (b["__cum"].to_numpy(np.int64)
              + b["cnt"].to_numpy(np.int64)) - s1
        d = np.abs(s1 * n0 - s0 * n1)
        return pd.DataFrame({"m": [int(d.max()) if len(d) else 0]})

    parts = ranked.map_batches(block_max,
                               batch_format="pandas").to_pandas()
    num = int(parts["m"].max()) if len(parts) else 0
    return pd.DataFrame({
        "ks_d": [float(num) / (float(n1) * float(n0))],
        "n_urgent": np.array([n1], dtype=np.int64),
        "n_other": np.array([n0], dtype=np.int64)})


def q_kruskal_wallis_price(sf_dir: str):
    """Kruskal–Wallis H (tie-corrected) across the five order
    priorities over totalprice cents (§ statistical aggregates — the
    k-group generalization of the Mann–Whitney screen). Same
    distributed rank machinery: distinct-cents per-group counts, ONE
    range-partitioned ordered scan for doubled tied ranks
    (r2 = 2·cum + cnt + 1), exact sums (per-group Σ c_j·r2, tie mass
    Σ t³−t; ``exact_sums``), then ONE mirrored float expression
    (round-6: the five-term group sum reassociates)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (
        exact_sums, grouped_multi_agg, ordered_prefix_sum)
    K = 5
    orders = _read(sf_dir, "orders",
                   ["o_totalprice", "o_orderpriority"],
                   rows_per_block=65536,
                   derive={"v": cents("o_totalprice"), "one": pc.scalar(1),
                           **{f"g{j}": flag(_PRIORITY_NO == j)
                              for j in range(1, K + 1)}})
    counts = grouped_multi_agg(
        orders, ["v"],
        dict({"cnt": ("one", "sum")},
             **{f"c{j}": (f"g{j}", "sum") for j in range(1, K + 1)}))
    ranked = ordered_prefix_sum(counts, "v", "cnt", "__cum")
    terms = {"t3": ("cnt",) * 3, "n": ("cnt",)}
    for j in range(1, K + 1):
        terms[f"s{j}"] = (f"c{j}", "r2")
        terms[f"n{j}"] = (f"c{j}",)
    tot = exact_sums(ranked.map_batches(_with_rank2,
                                        batch_format="pandas"),
                     [], terms).iloc[0]
    n = tot["n"]
    # S_j are DOUBLED rank sums: H = 3/(N(N+1))·Σ S_j²/n_j − 3(N+1)
    acc = 0.0
    for j in range(1, K + 1):
        if tot[f"n{j}"]:
            sj = float(tot[f"s{j}"])
            acc += sj * sj / float(tot[f"n{j}"])
    h = 3.0 / (float(n) * (n + 1)) * acc - 3.0 * (n + 1)
    corr = 1.0 - float(tot["t3"] - n) / (float(n) ** 3 - float(n))
    return pd.DataFrame({
        "kw_h": [np.round(h / corr, 6)],
        "n": np.array([n], dtype=np.int64)})


def q_cramers_v_nation_priority(sf_dir: str):
    """Cramér's V association strength for the nation × priority
    contingency table (§ statistical aggregates — the normalized
    effect size on top of the χ² audit): same broadcast-dim bucketed
    contingency counts as `chisq_nation_priority`, then ONE mirrored
    float expression √(χ²/(n·min(r−1, c−1))) over the ≤125-cell
    driver frame (round-6: √ is transcendental and the cell sum
    reassociates)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      preagg_reduce)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int32))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "c_nationkey": broadcast_get(cn)[
                np.searchsorted(broadcast_get(ck), c)],
            "o_orderpriority": b["o_orderpriority"].to_numpy()})

    a = preagg_reduce(orders.map_batches(prep, batch_format="pandas"),
                      ["c_nationkey", "o_orderpriority"], "n",
                      "count").to_pandas()
    rn = a.groupby("c_nationkey")["n"].transform("sum")         .to_numpy(np.int64).astype(np.float64)
    cnn = a.groupby("o_orderpriority")["n"].transform("sum")         .to_numpy(np.int64).astype(np.float64)
    tot = float(int(a["n"].sum()))
    obs = a["n"].to_numpy(np.int64).astype(np.float64)
    e = rn * cnn / tot
    chi2 = float(np.sum((obs - e) * (obs - e) / e))
    r = int(a["c_nationkey"].nunique())
    c = int(a["o_orderpriority"].nunique())
    v = float(np.sqrt(chi2 / (tot * min(r - 1, c - 1))))
    return pd.DataFrame({
        "cramers_v": [np.round(v, 6)],
        "n_rows": np.array([r], dtype=np.int64),
        "n_cols": np.array([c], dtype=np.int64)})


def q_jsd_region_priority(sf_dir: str):
    """Jensen–Shannon divergence between the order-priority
    distributions of EUROPE and ASIA customers (§ statistical
    aggregates — the symmetric, bounded drift distance next to the
    KL monitor): broadcast region→nation→customer dims, ONE bucketed
    (region, priority) count, then the mirrored closed form
    ½Σp·ln(p/m) + ½Σq·ln(q/m) over the ≤5-cell support (round-6 ln
    contract; zero-count terms dropped on BOTH engines)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      preagg_reduce)
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_regionkey"]).to_pandas()
    nation = nation.merge(region, left_on="n_regionkey",
                          right_on="r_regionkey")
    nk = {int(k): str(v) for k, v in
          zip(nation["n_nationkey"], nation["r_name"])}
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cr = ray.put(np.array([nk[int(x)] for x in cust["c_nationkey"]],
                          dtype=object))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        reg = broadcast_get(cr)[np.searchsorted(broadcast_get(ck), c)]
        keep = (reg == "EUROPE") | (reg == "ASIA")
        return pd.DataFrame({
            "reg": reg[keep],
            "o_orderpriority":
                b["o_orderpriority"].to_numpy()[keep]})

    a = preagg_reduce(orders.map_batches(prep, batch_format="pandas"),
                      ["reg", "o_orderpriority"], "n", "count").to_pandas()
    piv = a.pivot_table(index="o_orderpriority", columns="reg",
                        values="n", aggfunc="sum",
                        fill_value=0)
    c1 = piv.get("EUROPE", pd.Series(0, index=piv.index))         .to_numpy(np.int64).astype(np.float64)
    c2 = piv.get("ASIA", pd.Series(0, index=piv.index))         .to_numpy(np.int64).astype(np.float64)
    n1, n2 = float(c1.sum()), float(c2.sum())
    pp = c1 / n1
    qq = c2 / n2
    m = (pp + qq) / 2.0
    t1 = np.where(pp > 0, pp * np.log(np.where(pp > 0, pp, 1.0) / m),
                  0.0)
    t2 = np.where(qq > 0, qq * np.log(np.where(qq > 0, qq, 1.0) / m),
                  0.0)
    jsd = 0.5 * float(t1.sum()) + 0.5 * float(t2.sum())
    return pd.DataFrame({
        "jsd": [np.round(jsd, 6)],
        "n_europe": np.array([int(n1)], dtype=np.int64),
        "n_asia": np.array([int(n2)], dtype=np.int64)})


def q_brown_forsythe_price(sf_dir: str):
    """Brown–Forsythe test (Levene with group medians) for equal
    totalprice spread across the five order priorities (§ statistical
    aggregates — the robust variance-homogeneity screen). Distributed
    shape: per-group EXACT interpolated medians
    (`grouped_quantile_cont` — bit-identical to DuckDB's median),
    doubled so |2x − med2| stays INTEGER; per-group exact sums of
    z and z² (``exact_sums``); then ONE mirrored float expression
    F = (SSB/(k−1))/(SSW/(N−k)) from the exact sums (round-6)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (
        broadcast_get, exact_sums, grouped_quantile_cont)
    gv = _read(sf_dir, "orders", ["o_totalprice", "o_orderpriority"],
               rows_per_block=65536,
               derive={"g": _PRIORITY_NO,
                       "v": cents("o_totalprice")}).materialize()
    med = grouped_quantile_cont(gv, ["g"], "v", 0.5,
                                "med").to_pandas().sort_values("g")
    gk = ray.put(med["g"].to_numpy(np.int64))
    m2 = ray.put(np.round(med["med"].to_numpy(np.float64)
                          * 2).astype(np.int64))

    def spread(b: pd.DataFrame) -> pd.DataFrame:
        g = b["g"].to_numpy(np.int64)
        med2 = broadcast_get(m2)[
            np.searchsorted(broadcast_get(gk), g)]
        return pd.DataFrame({
            "g": g, "z": np.abs(2 * b["v"].to_numpy(np.int64) - med2)})

    p = exact_sums(gv.map_batches(spread, batch_format="pandas"), ["g"],
                   {"cnt": (), "s1": ("z",), "s2": ("z", "z")})
    agg = {int(j): row for j, *row in p.itertuples(index=False)}
    ks = sorted(agg)
    k = len(ks)
    n = sum(agg[j][0] for j in ks)
    ssum = sum(agg[j][1] for j in ks)
    ssb = sum(float(agg[j][1]) ** 2 / agg[j][0] for j in ks)         - float(ssum) ** 2 / n
    ssw = sum(float(agg[j][2]) for j in ks)         - sum(float(agg[j][1]) ** 2 / agg[j][0] for j in ks)
    f = (ssb / (k - 1)) / (ssw / (n - k))
    return pd.DataFrame({
        "bf_f": [np.round(f, 6)],
        "n": np.array([n], dtype=np.int64),
        "k_groups": np.array([k], dtype=np.int64)})


def q_chisq_nation_priority(sf_dir: str):
    """χ² contingency audit of nation × order priority (§ statistical
    aggregates — the independence screen generalizing the two-sample
    z-test): observed cell counts from one bucketed agg with the
    broadcast customer→nation dim, expectations and per-cell χ²
    contributions from ONE mirrored float expression over the
    125-cell driver frame. Cells absent from the data are absent on
    both engines (observed-support convention)."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      preagg_reduce)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int32))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                   rows_per_block=65536)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "c_nationkey": broadcast_get(cn)[
                np.searchsorted(broadcast_get(ck), c)],
            "o_orderpriority": b["o_orderpriority"].to_numpy()})

    a = preagg_reduce(orders.map_batches(prep, batch_format="pandas"),
                      ["c_nationkey", "o_orderpriority"], "n",
                      "count").to_pandas()
    rn = a.groupby("c_nationkey")["n"].transform("sum") \
        .to_numpy(np.int64).astype(np.float64)
    cnn = a.groupby("o_orderpriority")["n"].transform("sum") \
        .to_numpy(np.int64).astype(np.float64)
    tot = float(int(a["n"].sum()))
    obs = a["n"].to_numpy(np.int64).astype(np.float64)
    # expression order mirrored in the SQL oracle — keep in sync
    e = rn * cnn / tot
    a["expected_n"] = e
    a["chi2"] = (obs - e) * (obs - e) / e
    return a


def q_mutual_info_priority_status(sf_dir: str):
    """Mutual information between order priority and order status (§
    statistical aggregates — the dependence strength score next to
    the χ² audit and the KL drift monitor): exact joint/marginal
    counts over the ≤ 15-cell support, ONE mirrored float expression
    Σ p(x,y)·ln(p(x,y)/(p(x)p(y))) in nats."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import preagg_reduce
    orders = _read(sf_dir, "orders",
                   ["o_orderpriority", "o_orderstatus"],
                   rows_per_block=65536)
    a = preagg_reduce(orders, ["o_orderpriority", "o_orderstatus"],
                      "n", "count").to_pandas()
    npp = a.groupby("o_orderpriority")["n"].transform("sum") \
        .to_numpy(np.int64).astype(np.float64)
    ns = a.groupby("o_orderstatus")["n"].transform("sum") \
        .to_numpy(np.int64).astype(np.float64)
    tot = float(int(a["n"].sum()))
    obs = a["n"].to_numpy(np.int64).astype(np.float64)
    # expression order mirrored in the SQL oracle — keep in sync
    mi = float(np.sum((obs / tot) * np.log(obs * tot / (npp * ns))))
    return pd.DataFrame({"mi": np.array([mi], dtype=np.float64)})


def q_vocab_coverage(sf_dir: str):
    """Top-100 vocabulary with cumulative corpus coverage (§ text
    analysis — the tokenizer-budget planning curve next to the BPE
    trainer): term counts via the bucketed wordcount, the coverage
    denominator from per-batch token-count partials (never a token
    shuffle), cumulative share over the deterministic
    (count desc, term) order on the 100-row driver frame."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.textops import top_terms
    docs = _read(sf_dir, "documents", ["text"])
    top = top_terms(docs, k=100)
    top = (top.to_pandas() if hasattr(top, "to_pandas") else top)
    top = top.sort_values(["n", "term"], ascending=[False, True],
                          ignore_index=True)

    def tok_count(b: pd.DataFrame) -> pd.DataFrame:
        s = b["text"].astype(str)
        return pd.DataFrame({"t": [int(s.str.count(" ").sum())
                                   + len(s)]})

    total = float(int(_read(sf_dir, "documents", ["text"])
                      .map_batches(tok_count, batch_format="pandas")
                      .to_pandas()["t"].sum()))
    cum = np.cumsum(top["n"].to_numpy(np.int64))
    top["cum_share"] = cum.astype(np.float64) / total
    return top


def q_anova_nation_spend(sf_dir: str):
    """One-way ANOVA of order totals across nations (§ statistical
    aggregates — the k-sample generalization of the two-proportion
    z-test): F = (SSB/(k−1)) / (SSW/(n−k)) from exact per-nation
    moment sums (n, Σx, Σx²) in integer cents (``exact_sums``: a
    GROUP total Σx² exceeds int64 from sf≈0.3). One streaming pass
    with the broadcast customer→nation dim; a few tiny partial rows
    per nation per block cross the wire."""
    import pandas as pd
    import ray
    from no_fasel_scrapers_ray.ops.relational import (broadcast_get,
                                                      exact_sums)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    ck = ray.put(cust["c_custkey"].to_numpy(np.int64))
    cn = ray.put(cust["c_nationkey"].to_numpy(np.int32))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=65536, derive=_CUST_CENTS)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        c = b["o_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "c_nationkey": broadcast_get(cn)[
                np.searchsorted(broadcast_get(ck), c)],
            "cents": b["cents"].to_numpy()})

    a = exact_sums(orders.map_batches(prep, batch_format="pandas"),
                   ["c_nationkey"], {"n": (), "sx": ("cents",),
                                     "sxx": ("cents", "cents")})
    k = float(len(a))
    n_tot = float(a["n"].sum())
    sx_tot = float(a["sx"].sum())
    ni, sxi, sxxi = (a[c].astype(np.float64).to_numpy()
                     for c in ("n", "sx", "sxx"))
    # expression order mirrored in the SQL oracle — keep in sync
    grand = sx_tot / n_tot
    ssb = float(np.sum(ni * (sxi / ni - grand) * (sxi / ni - grand)))
    ssw = float(np.sum(sxxi - sxi * sxi / ni))
    f_stat = (ssb / (k - 1.0)) / (ssw / (n_tot - k))
    return pd.DataFrame({"k_groups": np.array([k], dtype=np.int64),
                         "f_stat": np.array([f_stat],
                                            dtype=np.float64)})


def q_spearman_by_returnflag(sf_dir: str):
    """Per-returnflag Spearman rank correlation of quantity vs
    extended price (§ statistical aggregates — the grouped twin of the
    global `spearman_qty_price`): per-group doubled tied ranks over
    the distinct (group, value) count table, two key-bucketed stitch
    merges, exact per-group big-int moment sums, ONE mirrored float
    closed form (ops/relational.py::grouped_spearman)."""
    from no_fasel_scrapers_ray.ops.relational import grouped_spearman
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"],
               rows_per_block=65536,
               derive={"l_returnflag": col("l_returnflag"),
                       "q": rint("l_quantity"),
                       "c": cents("l_extendedprice")})
    return grouped_spearman(li, "l_returnflag", "q", "c", "spearman")


def q_kendall_cust_trend(sf_dir: str):
    """Per-customer Kendall τ-b between order date and order value (§
    statistical aggregates — the concordance score completing the rank
    family next to Theil–Sen's slope): exact concordant/discordant/tie
    pair counts per customer with ≥ 6 orders, ONE mirrored float
    (ops/relational.py::kendall_tau_grouped)."""
    from no_fasel_scrapers_ray.ops.relational import kendall_tau_grouped
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"],
                   rows_per_block=65536, derive=_CUST_DAY_CENTS)
    return kendall_tau_grouped(orders, "o_custkey", "day", "cents",
                               "tau_b", min_points=6)


def q_psi_order_value_drift(sf_dir: str):
    """Population stability index of the order-value distribution,
    1996 vs 1997 (§ statistical aggregates — the ML-monitoring drift
    score next to the KL monitor and the CUSUM detector): fixed
    equal-width cent bins (10 × $30k, open-ended top), exact per-bin
    counts for both windows from ONE pruned streaming pass, then the
    mirrored float Σ (p−q)·ln(p/q). Bins with support in only one
    window would make PSI infinite; the fixed-bin width is chosen so
    both windows populate every bin (asserted)."""
    from no_fasel_scrapers_ray.ops.relational import grouped_multi_agg
    BIN = 3_000_000          # cents
    NBINS = 10
    yr = pc.year(col("o_orderdate"))
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"],
                   rows_per_block=65536,
                   derive={"bin": pc.min_element_wise(
                               floor_div(cents("o_totalprice"), BIN),
                               pc.scalar(NBINS - 1)),
                           "ref": flag(yr == 1996), "cur": flag(yr == 1997)},
                   where=(yr == 1996) | (yr == 1997))
    a = grouped_multi_agg(
        orders, ["bin"],
        {"n_ref": ("ref", "sum"), "n_cur": ("cur", "sum")}
    ).to_pandas().sort_values("bin", ignore_index=True)
    if (a["n_ref"].to_numpy() == 0).any() or \
            (a["n_cur"].to_numpy() == 0).any():
        raise ValueError("psi: a bin has support in only one window; "
                         "widen the bins")
    nr = float(int(a["n_ref"].sum()))
    nc = float(int(a["n_cur"].sum()))
    p = a["n_ref"].to_numpy(np.int64).astype(np.float64) / nr
    q = a["n_cur"].to_numpy(np.int64).astype(np.float64) / nc
    # expression order mirrored in the SQL oracle — keep in sync
    a["psi_part"] = (q - p) * np.log(q / p)
    return a[["bin", "n_ref", "n_cur", "psi_part"]]


def q_welch_ttest_discount(sf_dir: str):
    """Welch's unequal-variance t statistic comparing extended prices
    of discounted (l_discount ≥ 0.05) vs barely-discounted line items
    (§ statistical aggregates — the parametric twin of the
    Mann–Whitney screen): per-side integer moment sums (n, Σx, Σx²)
    in cents (``exact_sums``: a SIDE total Σx² passes int64 already
    near sf≈0.3). Sample variance s² = (Σx² − (Σx)²/n)/(n−1), ONE
    mirrored float t and Welch–Satterthwaite df."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import exact_sums
    li = _read(sf_dir, "lineitem", ["l_extendedprice", "l_discount"],
               rows_per_block=65536,
               derive={"side": _DISCOUNTED,
                       "cents": cents("l_extendedprice")})
    a = exact_sums(li, ["side"],
                   {"n": (), "sx": ("cents",), "sxx": ("cents", "cents")})
    n0, n1 = (float(v) for v in a["n"])
    sx0, sx1 = (float(v) for v in a["sx"])
    ss0, ss1 = (float(v) for v in a["sxx"])
    # expression order mirrored in the SQL oracle — keep in sync
    m0, m1 = sx0 / n0, sx1 / n1
    v0 = (ss0 - sx0 * sx0 / n0) / (n0 - 1.0)
    v1 = (ss1 - sx1 * sx1 / n1) / (n1 - 1.0)
    se2 = v0 / n0 + v1 / n1
    t = (m1 - m0) / np.sqrt(se2)
    df = se2 * se2 / ((v0 / n0) * (v0 / n0) / (n0 - 1.0)
                      + (v1 / n1) * (v1 / n1) / (n1 - 1.0))
    return pd.DataFrame({
        "n_a": np.array([n1], dtype=np.int64),
        "n_b": np.array([n0], dtype=np.int64),
        "t_stat": np.array([t], dtype=np.float64),
        "welch_df": np.array([df], dtype=np.float64)})


def q_ppr_top_customers(sf_dir: str):
    """Personalized PageRank over the customer→supplier fulfillment
    graph, teleporting to the five lowest-id purchasing customers (§
    graph operators — the seed-proximity primitive next to global
    PageRank; the graph analogue of seed-based corpus expansion).
    Same edge build as `pagerank_cust_supp` (distinct pairs via the
    bucketed orders⋈lineitem join, supplier ids offset by 2^40);
    3 damped iterations, round-9 contract (round-6 lands exact
    half-boundary ties where numpy half-even and SQL half-away
    disagree; at 9 decimals the analytic values are never ties)
    (ops/graph.py::personalized_pagerank)."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.graph import personalized_pagerank
    from no_fasel_scrapers_ray.ops.relational import (bucketed_join,
                                                      preagg_reduce,
                                                      round_columns)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=65536)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"],
               rows_per_block=65536, derive=_SUPP_DST)
    j = bucketed_join(li, orders, on="o_orderkey", how="inner")

    def to_edge(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": b["o_custkey"].to_numpy(),
                             "dst": b["dst"].to_numpy(),
                             "one": np.ones(len(b), dtype=np.int64)})

    edges = preagg_reduce(
        j.map_batches(to_edge, batch_format="pandas"),
        ["src", "dst"], "one", "min").drop_columns(["one"]) \
        .materialize()
    srcs = preagg_reduce(
        edges.map_batches(lambda b: pd.DataFrame(
            {"node": b["src"], "one": np.int64(1)}),
            batch_format="pandas"),
        ["node"], "one", "min").to_pandas()
    seeds = np.sort(srcs["node"].to_numpy(np.int64))[:5].tolist()
    return round_columns(
        personalized_pagerank(edges, seeds, damping=0.85, iters=3),
        {"rank": 9})


def q_auc_price_discount(sf_dir: str):
    """Exact ROC AUC of extended price as a 'was discounted' predictor
    (§ statistical aggregates — the ML-evaluation score riding the
    Mann–Whitney identity AUC = U_A/(n_A·n_B), tie-corrected by the
    averaged ranks): the SAME distinct-value doubled-rank machinery as
    `mannwhitney_discount`, one extra mirrored division. An AUC over
    10¹⁰ scored rows costs one distinct-value reduce, never a sort of
    the scores."""
    import pandas as pd
    s2ra, _tie, na, n = _discount_rank_stats(sf_dir)
    nb = n - na
    # expression order mirrored in the SQL oracle — keep in sync
    auc = (s2ra / 2.0 - na * (na + 1.0) / 2.0) / (na * nb)
    return pd.DataFrame({"n_pos": np.array([na], dtype=np.int64),
                         "n_neg": np.array([nb], dtype=np.int64),
                         "auc": np.array([auc], dtype=np.float64)})


def q_lift_table_urgent(sf_dir: str):
    """Decile lift table for customer spend as an 'ever placed an
    URGENT order' predictor (§ statistical aggregates — the campaign-
    targeting gains curve): per spend decile (NTILE 10 descending),
    customers, positives, positive rate, and lift vs the base rate.
    One bucketed per-customer agg → the range-partitioned global NTILE
    (`ops/relational.py::global_ntile` — no global sort) → a 10-row
    mirrored float frame."""
    from no_fasel_scrapers_ray.ops.relational import (global_ntile,
                                                      grouped_multi_agg)
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice", "o_orderpriority"],
                   rows_per_block=65536,
                   derive={"c": col("o_custkey"),
                           "cents": cents("o_totalprice"),
                           "urgent": _URGENT})
    cust = grouped_multi_agg(
        orders, ["c"],
        {"spend": ("cents", "sum"), "pos": ("urgent", "max")})

    def neg_spend(b: pd.DataFrame) -> pd.DataFrame:
        # descending deciles via ascending ntile on the negated spend
        b = b.copy()
        b["neg"] = -b["spend"].to_numpy(np.int64)
        return b

    tiled = global_ntile(cust.map_batches(neg_spend,
                                          batch_format="pandas"),
                         "neg", ["c"], 10, "decile")
    agg = grouped_multi_agg(
        tiled, ["decile"],
        {"n_cust": ("pos", "count"), "n_pos": ("pos", "sum")}
    ).to_pandas().sort_values("decile", ignore_index=True)
    n_tot = float(int(agg["n_cust"].sum()))
    pos_tot = float(int(agg["n_pos"].sum()))
    nc = agg["n_cust"].to_numpy(np.int64).astype(np.float64)
    npos = agg["n_pos"].to_numpy(np.int64).astype(np.float64)
    # expression order mirrored in the SQL oracle — keep in sync
    agg["pos_rate"] = npos / nc
    agg["lift"] = (npos / nc) / (pos_tot / n_tot)
    return agg


def _ship_delay_day_counts(sf_dir: str,
                           with_group: bool) -> "Any":
    """Shared reduce for the survival family (Kaplan–Meier and its
    log-rank companion): ship delay in days per line item via one
    bucketed orders⋈lineitem join, with 'returned' as the event (and,
    when ``with_group``, the l_discount ≥ 0.05 group flag), reduced
    to the day-domain-bounded per-day count frame sorted by day."""
    import pandas as pd
    from no_fasel_scrapers_ray.ops.relational import (bucketed_join,
                                                      grouped_multi_agg)
    cols = ["l_orderkey", "l_shipdate", "l_returnflag"]
    derive = {**_SHIP_US, "e": flag(col("l_returnflag") == "R")}
    if with_group:
        cols.append("l_discount")
        derive["grp"] = _DISCOUNTED
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"],
                   rows_per_block=65536, derive=_ORDER_US)
    li = _read(sf_dir, "lineitem", cols, rows_per_block=65536,
               derive=derive)
    j = bucketed_join(li, orders, on="o_orderkey", how="inner")
    DAY_US = 86400 * 1000000

    def delay(b: pd.DataFrame) -> pd.DataFrame:
        od = b["order_us"].to_numpy(np.int64)
        e = b["e"].to_numpy(np.int64)
        out = {"t": (b["ship_us"].to_numpy(np.int64) - od) // DAY_US,
               "d": e, "one": np.ones(len(b), dtype=np.int64)}
        if with_group:
            g = b["grp"].to_numpy(np.int64)
            out["d1"], out["l1"] = e * g, g
        return pd.DataFrame(out)

    specs = {"d": ("d", "sum"), "n_all": ("one", "sum")}
    if with_group:
        specs.update({"d1": ("d1", "sum"), "l1": ("l1", "sum")})
    return grouped_multi_agg(
        j.map_batches(delay, batch_format="pandas"), ["t"], specs
    ).to_pandas().sort_values("t", ignore_index=True)


def q_km_return_survival(sf_dir: str):
    """Kaplan–Meier survival curve over ship delay (days from order to
    ship), with 'returned' (l_returnflag = R) as the event and other
    lines right-censored at their ship day (§ statistical aggregates —
    the survival-analysis family: time-to-event with censoring, which
    no plain aggregate expresses). One bucketed orders⋈lineitem join
    for the delay, distinct-day (event, censor) counts via one reduce,
    then the day-domain-bounded driver pass computes at-risk counts
    and the product-limit estimator as a cumulative product of
    (1 − d/n) — mirrored with DuckDB's product() window aggregate
    (a log-sum form would blow up on the terminal event day where
    d = n_risk and the factor is exactly 0). Rows at event days only
    (censored-only days contribute factor 1 on both engines).
    Day-count reduce shared with the log-rank twin
    (`_ship_delay_day_counts`)."""
    import pandas as pd
    g = _ship_delay_day_counts(sf_dir, with_group=False)
    total = int(g["n_all"].sum())
    leave = g["n_all"].to_numpy(np.int64)
    n_risk = total - (np.cumsum(leave) - leave)
    d = g["d"].to_numpy(np.int64)
    keep = d > 0
    # expression order mirrored in the SQL oracle — keep in sync
    surv = np.cumprod(1.0 - d[keep].astype(np.float64)
                      / n_risk[keep].astype(np.float64))
    return pd.DataFrame({"day": g["t"].to_numpy(np.int64)[keep],
                         "n_events": d[keep],
                         "n_risk": n_risk[keep],
                         "survival": surv})


def q_logrank_discount_survival(sf_dir: str):
    """Log-rank test comparing the ship-delay-to-return survival of
    discounted (l_discount ≥ 0.05) vs barely-discounted line items (§
    statistical aggregates — the two-sample companion of the
    Kaplan–Meier curve): at every event day, observed group-1 events
    vs the hypergeometric expectation d·n₁/n and variance
    d·(n₁/n)·(n₂/n)·(n−d)/(n−1) from exact at-risk counts, one
    mirrored float z over the day-domain-bounded frame. Counts reduce
    distributed (one bucketed join + one grouped agg); the scan runs
    on the driver over ≤ delay-domain rows. Day-count reduce shared
    with the Kaplan–Meier twin (`_ship_delay_day_counts`)."""
    import pandas as pd
    c = _ship_delay_day_counts(sf_dir, with_group=True)
    tot1 = int(c["l1"].sum())
    tot = int(c["n_all"].sum())
    l1 = c["l1"].to_numpy(np.int64)
    l = c["n_all"].to_numpy(np.int64)
    n1 = tot1 - (np.cumsum(l1) - l1)
    n = tot - (np.cumsum(l) - l)
    d1 = c["d1"].to_numpy(np.int64)
    d = c["d"].to_numpy(np.int64)
    keep = d > 0
    n1f = n1[keep].astype(np.float64)
    nf = n[keep].astype(np.float64)
    df_ = d[keep].astype(np.float64)
    # expression order mirrored in the SQL oracle — keep in sync
    o1 = float(int(d1[keep].sum()))
    e1 = float(np.sum(df_ * n1f / nf))
    v = float(np.sum(df_ * (n1f / nf) * ((nf - n1f) / nf)
                     * ((nf - df_) / np.maximum(nf - 1.0, 1.0))))
    z = (o1 - e1) / np.sqrt(v)
    return pd.DataFrame({
        "observed_1": np.array([o1], dtype=np.int64),
        "expected_1": np.array([e1], dtype=np.float64),
        "variance": np.array([v], dtype=np.float64),
        "z": np.array([z], dtype=np.float64)})


def q_km_by_discount_group(sf_dir: str):
    """Per-group Kaplan–Meier curves (§ statistical aggregates — the
    stratified twin of `km_return_survival`, the curves the log-rank
    test compares): one survival curve per discount stratum over the
    same shared day-count reduce (`_ship_delay_day_counts`), each
    group's product-limit estimator mirrored with the product()
    window aggregate partitioned by group."""
    import pandas as pd
    c = _ship_delay_day_counts(sf_dir, with_group=True)
    out = []
    for grp in (0, 1):
        if grp == 1:
            d = c["d1"].to_numpy(np.int64)
            leave = c["l1"].to_numpy(np.int64)
        else:
            d = (c["d"] - c["d1"]).to_numpy(np.int64)
            leave = (c["n_all"] - c["l1"]).to_numpy(np.int64)
        total = int(leave.sum())
        n_risk = total - (np.cumsum(leave) - leave)
        keep = d > 0
        # expression order mirrored in the SQL oracle — keep in sync
        surv = np.cumprod(1.0 - d[keep].astype(np.float64)
                          / n_risk[keep].astype(np.float64))
        out.append(pd.DataFrame({
            "grp": np.full(int(keep.sum()), grp, dtype=np.int64),
            "day": c["t"].to_numpy(np.int64)[keep],
            "n_events": d[keep], "n_risk": n_risk[keep],
            "survival": surv}))
    return pd.concat(out, ignore_index=True)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "pricing_summary": q_pricing_summary,
        "region_rollup": q_region_rollup,
        "semi_join_customers": q_semi_join_customers,
        "anti_join_customers": q_anti_join_customers,
        "merge_old_wins": q_merge_old_wins,
        "merge_new_wins": q_merge_new_wins,
        "nested_rollup": q_nested_rollup,
        "union_index": q_union_index,
        "top10_customers": q_top10_customers,
        "events_hourly": q_events_hourly,
        "sessionize": q_sessionize,
        "distinct_suppliers": q_distinct_suppliers,
        "doc_stats": q_doc_stats,
        "lang_signal": q_lang_signal,
        "token_count": q_token_count,
        "doc_fingerprint": q_fingerprint,
        "dedup_exact": q_dedup_exact,
        "dedup_prefix": q_dedup_prefix,
        "knn_bruteforce": q_knn_bruteforce,
        "knn_ivf": q_knn_ivf,
        "knn_pq": q_knn_pq,
        "dedup_minhash_lsh": q_minhash_lsh,
        "dedup_ngram_jaccard": q_dedup_ngram,
        "dedup_simhash": q_simhash,
        "cosine_near_dup": q_cosine_near_dup,
        "cosine_near_dup_exact": q_cosine_near_dup_exact,
        "asof_clicks": q_asof_clicks,
        "range_join_clicks": q_range_join_clicks,
        "top3_orders_per_cust": q_top3_orders_per_cust,
        "running_user_spend": q_running_user_spend,
        "median_order_value": q_median_order_value,
        "median_cents_cont": q_median_cents_cont,
        "cust_order_stats": q_cust_order_stats,
        "lag_purchase_gap": q_lag_purchase_gap,
        "lead_purchase_gap": q_lead_purchase_gap,
        "order_value_pctiles": q_order_value_pctiles,
        "first_last_purchase": q_first_last_purchase,
        "trailing_hour_spend": q_trailing_hour_spend,
        "favorite_event_type": q_favorite_event_type,
        "rolling_user_spend": q_rolling_user_spend,
        "pivot_event_counts": q_pivot_event_counts,
        "props_value_by_type": q_props_value_by_type,
        "urgent_orders_pruned": q_urgent_orders_pruned,
        "rollup_order_counts": q_rollup_order_counts,
        "cube_order_counts": q_cube_order_counts,
        "corr_qty_price": q_corr_qty_price,
        "top_terms": q_top_terms,
        "approx_distinct_users": q_approx_distinct_users,
        "approx_price_quartiles": q_approx_price_quartiles,
        "doc_repetition": q_doc_repetition,
        "events_nation_spend": q_events_nation_spend,
        "local_supplier_revenue": q_local_supplier_revenue,
        "events_hourly_dense": q_events_hourly_dense,
        "cust_order_distribution": q_cust_order_distribution,
        "large_volume_orders": q_large_volume_orders,
        "priority_late_orders": q_priority_late_orders,
        "price_moments": q_price_moments,
        "doc_chunks": q_doc_chunks,
        "doc_decontaminate": q_doc_decontaminate,
        "doc_dup_spans": q_doc_dup_spans,
        "user_spend_zscore": q_user_spend_zscore,
        "orders_above_p99": q_orders_above_p99,
        "weighted_avg_discount": q_weighted_avg_discount,
        "promo_revenue_ratio": q_promo_revenue_ratio,
        "inverted_index": q_inverted_index,
        "global_median_price": q_global_median_price,
        "nation_customer_list": q_nation_customer_list,
        "funnel_click_purchase": q_funnel_click_purchase,
        "approx_parts_per_supplier": q_approx_parts_per_supplier,
        "unpivot_order_flags": q_unpivot_order_flags,
        "rank_orders_per_cust": q_rank_orders_per_cust,
        "ntile_order_quartiles": q_ntile_order_quartiles,
        "media_thumbnails": q_media_thumbnails,
        "media_frame_sample": q_media_frame_sample,
        "media_audio_features": q_media_audio_features,
        "first_event_per_user_day": q_first_event_per_user_day,
        "cust_order_counts": q_cust_order_counts,
        "sample_orders": q_sample_orders,
        "intersect_users": q_intersect_users,
        "except_customers": q_except_customers,
        "distinct_parts_per_supplier": q_distinct_parts_per_supplier,
        "user_activity_full": q_user_activity_full,
        "bloom_semi_join_lineitem": q_bloom_semi_join_lineitem,
        "dedup_clusters": q_dedup_clusters,
        "dedup_clusters_tier3": partial(q_dedup_clusters, tier3=True),
        "curate_documents": q_curate_documents,
        "doc_quality": q_doc_quality,
        "tfidf_top_terms": q_tfidf_top_terms,
        "doc_rarity": q_doc_rarity,
        "order_price_histogram": q_order_price_histogram,
        "heavy_hitter_terms": q_heavy_hitter_terms,
        "kmeans_embeddings": q_kmeans_embeddings,
        "pca_embeddings": q_pca_embeddings,
        "pagerank_cust_supp": q_pagerank_cust_supp,
        "pagerank_tier3": partial(q_pagerank_cust_supp, tier3=True),
        "cohort_retention": q_cohort_retention,
        "triangle_parts": q_triangle_parts,
        "triangle_parts_tier3": partial(q_triangle_parts, tier3=True),
        "overlap_click_purchase": q_overlap_click_purchase,
        "events_hopping": q_events_hopping,
        "stratified_sample_events": q_stratified_sample_events,
        "price_quartiles": q_price_quartiles,
        "small_qty_revenue": q_small_qty_revenue,
        "late_sole_supplier": q_late_sole_supplier,
        "stock_value_parts": q_stock_value_parts,
        "shuffle_corpus": q_shuffle_corpus,
        "pack_token_windows": q_pack_token_windows,
        "graph_walks": q_graph_walks,
        "kcore_fulfillment": q_kcore_fulfillment,
        "weighted_sample_docs": q_weighted_sample_docs,
        "user_event_entropy": q_user_event_entropy,
        "cms_part_counts": q_cms_part_counts,
        "orders_page": q_orders_page,
        "doc_decontaminate_neardup": q_doc_decontaminate_neardup,
        "approx_type_value_quantiles": q_approx_type_value_quantiles,
        "hits_suppliers": q_hits_suppliers,
        "top_suppliers_per_nation": q_top_suppliers_per_nation,
        "idle_rich_customers": q_idle_rich_customers,
        "winsorized_user_spend": q_winsorized_user_spend,
        "nation_trade_volume": q_nation_trade_volume,
        "brand_year_profit": q_brand_year_profit,
        "price_qty_regression": q_price_qty_regression,
        "pareto_parts": q_pareto_parts,
        "bm25_docs": q_bm25_docs,
        "similar_part_names": q_similar_part_names,
        "cheapest_supplier_per_part": q_cheapest_supplier_per_part,
        "nation_market_share": q_nation_market_share,
        "returned_item_revenue": q_returned_item_revenue,
        "top_revenue_supplier": q_top_revenue_supplier,
        "dominant_part_suppliers": q_dominant_part_suppliers,
        "event_transitions": q_event_transitions,
        "transition_entropy": q_transition_entropy,
        "theil_customer_spend": q_theil_customer_spend,
        "monthly_revenue_growth": q_monthly_revenue_growth,
        "bigram_pmi": q_bigram_pmi,
        "zipf_slope": q_zipf_slope,
        "hybrid_search_rrf": q_hybrid_search_rrf,
        "parts_supplier_counts": q_parts_supplier_counts,
        "special_deal_revenue": q_special_deal_revenue,
        "doc_perplexity": q_doc_perplexity,
        "shipping_priority": q_shipping_priority,
        "revenue_delta": q_revenue_delta,
        "funnel_conversion": q_funnel_conversion,
        "copurchase_pairs": q_copurchase_pairs,
        "ewma_user_spend": q_ewma_user_spend,
        "tfidf_cosine_pairs": q_tfidf_cosine_pairs,
        "bfs_fulfillment": q_bfs_fulfillment,
        "dedup_containment": q_dedup_containment,
        "knn_mutual": q_knn_mutual,
        "overlap_duration": q_overlap_duration,
        "semantic_prune": q_semantic_prune,
        "approx_overlap_users": q_approx_overlap_users,
        "scrub_tokens": q_scrub_tokens,
        "robust_zscore": q_robust_zscore,
        "twa_user_value": q_twa_user_value,
        "corpus_mix_sample": q_corpus_mix_sample,
        "nation_top_parts": q_nation_top_parts,
        "lang_top_tokens": q_lang_top_tokens,
        "lpa_communities": q_lpa_communities,
        "lpa_tier3": partial(q_lpa_communities, tier3=True),
        "asof_clicks_forward": q_asof_clicks_forward,
        "frequent_triples": q_frequent_triples,
        "embedding_stats": q_embedding_stats,
        "bfs_tier3": partial(q_bfs_fulfillment, tier3=True),
        "user_similarity": q_user_similarity,
        "bpe_merges": q_bpe_merges,
        "bpe_encode": q_bpe_encode,
        "debounce_events": q_debounce_events,
        "sample_k_per_nation": q_sample_k_per_nation,
        "impute_acctbal": q_impute_acctbal,
        "snapshot_diff_orders": q_snapshot_diff_orders,
        "profile_orders": q_profile_orders,
        "activity_islands": q_activity_islands,
        "weighted_median_price": q_weighted_median_price,
        "rolling_distinct_users": q_rolling_distinct_users,
        "rolling_approx_users": q_rolling_approx_users,
        "scd2_user_events": q_scd2_user_events,
        "intersect_all_users": q_intersect_all_users,
        "except_all_clicks": q_except_all_clicks,
        "nation_priority_kl": q_nation_priority_kl,
        "grouping_sets_orders": q_grouping_sets_orders,
        "sssp_nations": q_sssp_nations,
        "msf_fulfillment": q_msf_fulfillment,
        "msf_tier3": partial(q_msf_fulfillment, tier3=True),
        "ingest_incremental": q_ingest_incremental,
        "stock_balance_clamped": q_stock_balance_clamped,
        "interpolate_hourly": q_interpolate_hourly,
        "top_session_paths": q_top_session_paths,
        "rfm_segments": q_rfm_segments,
        "gini_nation_spend": q_gini_nation_spend,
        "acf_daily_revenue": q_acf_daily_revenue,
        "spearman_qty_price": q_spearman_qty_price,
        "pct_rank_nation_spend": q_pct_rank_nation_spend,
        "fd_cust_priority": q_fd_cust_priority,
        "theil_sen_cust_trend": q_theil_sen_cust_trend,
        "benford_totalprice": q_benford_totalprice,
        "ztest_urgent_nation": q_ztest_urgent_nation,
        "cusum_daily_revenue": q_cusum_daily_revenue,
        "local_clustering": q_local_clustering,
        "local_clustering_tier3": partial(q_local_clustering,
                                          tier3=True),
        "mannwhitney_discount": q_mannwhitney_discount,
        "mad_nation_price": q_mad_nation_price,
        "anova_nation_spend": q_anova_nation_spend,
        "spearman_by_returnflag": q_spearman_by_returnflag,
        "kendall_cust_trend": q_kendall_cust_trend,
        "psi_order_value_drift": q_psi_order_value_drift,
        "auc_price_discount": q_auc_price_discount,
        "lift_table_urgent": q_lift_table_urgent,
        "km_return_survival": q_km_return_survival,
        "logrank_discount_survival": q_logrank_discount_survival,
        "km_by_discount_group": q_km_by_discount_group,
        "ppr_top_customers": q_ppr_top_customers,
        "welch_ttest_discount": q_welch_ttest_discount,
        "chisq_nation_priority": q_chisq_nation_priority,
        "ks_urgent_price": q_ks_urgent_price,
        "kruskal_wallis_price": q_kruskal_wallis_price,
        "cramers_v_nation_priority": q_cramers_v_nation_priority,
        "jsd_region_priority": q_jsd_region_priority,
        "brown_forsythe_price": q_brown_forsythe_price,
        "mutual_info_priority_status": q_mutual_info_priority_status,
        "vocab_coverage": q_vocab_coverage,
        "crawl_catalogs": q_crawl_catalogs,
        "crawl_frontier_log": q_crawl_frontier_log,
        "crawl_all_content": q_crawl_all_content,
        "crawl_trending": q_crawl_trending,
        "crawl_scrape_all": q_scrape_all,
        "crawl_host_stats": q_crawl_host_stats,
        "crawl_dead_letter": q_crawl_dead_letter,
    }


def oracle_sql() -> dict[str, str]:
    d = _oracle_sql_literal()
    # the tier-3 twins compute the SAME result on the forced fully-
    # distributed graph paths — identical oracles by construction
    d["triangle_parts_tier3"] = d["triangle_parts"]
    d["pagerank_tier3"] = d["pagerank_cust_supp"]
    d["bfs_tier3"] = d["bfs_fulfillment"]
    d["lpa_communities"] = _lpa_oracle_sql(3)
    d["lpa_tier3"] = d["lpa_communities"]
    d["dedup_clusters_tier3"] = d["dedup_clusters"]
    d["local_clustering_tier3"] = d["local_clustering"]
    return d


def _oracle_sql_literal() -> dict[str, str]:
    return {
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "shipping_priority": """
            -- TPC-H Q3 shape; exact int64 revenue units, epoch-µs date
            SELECT o_orderkey,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_units,
                   CAST(epoch_us(o_orderdate) AS BIGINT) AS order_us
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY o_orderkey, o_orderdate
            ORDER BY revenue_units DESC, o_orderkey
            LIMIT 10
        """,
        "revenue_delta": """
            -- TPC-H Q6 shape; exact int units, ONE float division
            SELECT CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * CAST(ROUND(l_discount * 100) AS BIGINT))
                        AS DOUBLE) / 10000.0 AS revenue_delta
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND CAST(ROUND(l_quantity) AS BIGINT) < 24
        """,
        "top_session_paths": """
            WITH g AS (SELECT user_id, ts, event_id, event_type,
                              CASE WHEN ts - lag(ts) OVER (
                                       PARTITION BY user_id
                                       ORDER BY ts, event_id)
                                   > INTERVAL 30 MINUTE
                                   THEN 1 ELSE 0 END AS ns
                       FROM events),
            s AS (SELECT user_id, ts, event_id, event_type,
                         SUM(ns) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS sid
                  FROM g),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY user_id, sid
                      ORDER BY ts, event_id) AS rk
                  FROM s),
            p AS (SELECT user_id, sid,
                         string_agg(event_type, '>'
                                    ORDER BY ts, event_id) AS path
                  FROM r WHERE rk <= 3 GROUP BY user_id, sid)
            SELECT path, COUNT(*) AS n_sessions
            FROM p GROUP BY path
            ORDER BY n_sessions DESC, path LIMIT 10
        """,
        "interpolate_hourly": """
            WITH h AS (SELECT date_trunc('hour', ts) AS hr,
                              CAST(SUM(CAST(ROUND(value * 100)
                                            AS BIGINT)) AS DOUBLE)
                              / COUNT(*) / 100.0 AS v
                       FROM events WHERE event_type = 'purchase'
                       GROUP BY 1),
            grid AS (SELECT unnest(generate_series(
                         (SELECT MIN(hr) FROM h),
                         (SELECT MAX(hr) FROM h),
                         INTERVAL 1 HOUR)) AS hr),
            j AS (SELECT g.hr, h.v,
                         (SELECT MAX(h2.hr) FROM h h2
                          WHERE h2.hr <= g.hr) AS prev_hr,
                         (SELECT MIN(h2.hr) FROM h h2
                          WHERE h2.hr >= g.hr) AS next_hr
                  FROM grid g LEFT JOIN h ON h.hr = g.hr)
            SELECT hr,
                   CASE WHEN v IS NOT NULL THEN v
                        ELSE (SELECT v FROM h WHERE h.hr = j.prev_hr)
                             + ((SELECT v FROM h
                                 WHERE h.hr = j.next_hr)
                                - (SELECT v FROM h
                                   WHERE h.hr = j.prev_hr))
                               * (CAST(epoch_us(j.hr)
                                       - epoch_us(prev_hr) AS DOUBLE)
                                  / CAST(epoch_us(next_hr)
                                         - epoch_us(prev_hr)
                                         AS DOUBLE))
                   END AS value,
                   CAST(CASE WHEN v IS NULL THEN 1 ELSE 0 END
                        AS BIGINT) AS filled
            FROM j
        """,
        "rfm_segments": """
            WITH base AS (
                SELECT o_custkey,
                       (epoch_us((SELECT MAX(o_orderdate) FROM orders))
                        - epoch_us(MAX(o_orderdate))) // 86400000000
                           AS rec_days,
                       CAST(COUNT(*) AS BIGINT) AS freq,
                       CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                     AS BIGINT)) AS BIGINT) AS mon_cents
                FROM orders GROUP BY o_custkey),
            sc AS (SELECT o_custkey, rec_days, freq, mon_cents,
                          NTILE(5) OVER (ORDER BY rec_days, o_custkey)
                              AS r_score,
                          NTILE(5) OVER (ORDER BY freq, o_custkey)
                              AS f_score,
                          NTILE(5) OVER (ORDER BY mon_cents, o_custkey)
                              AS m_score
                   FROM base)
            SELECT o_custkey, CAST(rec_days AS BIGINT) AS rec_days,
                   freq, mon_cents, r_score, f_score, m_score,
                   r_score * 100 + f_score * 10 + m_score AS segment
            FROM sc
        """,
        "gini_nation_spend": """
            WITH spend AS (
                SELECT c_nationkey, o_custkey,
                       CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                     AS BIGINT)) AS BIGINT) AS cents
                FROM orders JOIN customer ON c_custkey = o_custkey
                GROUP BY 1, 2),
            r AS (SELECT c_nationkey, cents,
                         row_number() OVER (PARTITION BY c_nationkey
                                            ORDER BY cents) AS i
                  FROM spend),
            a AS (SELECT c_nationkey,
                         CAST(SUM(i * cents) AS BIGINT) AS s_rank,
                         CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(cents) AS BIGINT) AS s
                  FROM r GROUP BY 1)
            SELECT c_nationkey,
                   ROUND(2.0 * CAST(s_rank AS DOUBLE)
                         / (CAST(n AS DOUBLE) * CAST(s AS DOUBLE))
                         - (CAST(n AS DOUBLE) + 1.0)
                           / CAST(n AS DOUBLE), 6) AS gini
            FROM a
        """,
        "acf_daily_revenue": """
            WITH d AS (SELECT date_trunc('day', ts) AS day,
                              CAST(SUM(CAST(ROUND(value * 100)
                                            AS BIGINT)) AS BIGINT)
                                  AS cents
                       FROM events WHERE event_type = 'purchase'
                       GROUP BY 1),
            i AS (SELECT row_number() OVER (ORDER BY day) AS idx,
                         cents
                  FROM d),
            g AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(cents) AS BIGINT) AS s1,
                         CAST(SUM(cents * cents) AS BIGINT) AS s2
                  FROM i),
            ks AS (SELECT unnest(generate_series(1, 7)) AS lag),
            j AS (SELECT ks.lag AS lag,
                         CAST(SUM(a.cents * b.cents) AS BIGINT) AS sxy,
                         CAST(SUM(a.cents) AS BIGINT) AS sx,
                         CAST(SUM(b.cents) AS BIGINT) AS sy
                  FROM ks JOIN i a ON TRUE
                  JOIN i b ON b.idx = a.idx + ks.lag
                  GROUP BY 1)
            SELECT CAST(j.lag AS BIGINT) AS lag,
                   ROUND((CAST(sxy AS DOUBLE)
                          - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                            * (CAST(sx AS DOUBLE) + CAST(sy AS DOUBLE))
                          + CAST(n - j.lag AS DOUBLE)
                            * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                            * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)))
                         / (CAST(s2 AS DOUBLE)
                            - CAST(n AS DOUBLE)
                              * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                              * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))),
                         6) AS acf
            FROM j, g
            WHERE j.lag < n
        """,
        "spearman_qty_price": """
            -- tied doubled-ranks (2*cum_below + cnt + 1 =
            -- 2*RANK() + tie_count - 1), exact HUGEINT moment sums,
            -- mirrored closed form
            WITH b AS (SELECT CAST(ROUND(l_quantity) AS BIGINT) AS q,
                              CAST(ROUND(l_extendedprice * 100)
                                   AS BIGINT) AS c
                       FROM lineitem),
            r AS (SELECT 2 * RANK() OVER (ORDER BY q)
                           + COUNT(*) OVER (PARTITION BY q) - 1 AS rx,
                         2 * RANK() OVER (ORDER BY c)
                           + COUNT(*) OVER (PARTITION BY c) - 1 AS ry
                  FROM b),
            s AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n,
                         CAST(SUM(rx) AS DOUBLE) AS sx,
                         CAST(SUM(ry) AS DOUBLE) AS sy,
                         CAST(SUM(rx * ry) AS DOUBLE) AS sxy,
                         CAST(SUM(rx * rx) AS DOUBLE) AS sxx,
                         CAST(SUM(ry * ry) AS DOUBLE) AS syy
                  FROM r)
            SELECT (n * sxy - sx * sy)
                   / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
                       AS spearman
            FROM s
        """,
        "pct_rank_nation_spend": """
            WITH s AS (SELECT o_custkey AS c_custkey,
                              CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                            AS BIGINT)) AS BIGINT)
                                  AS spend_cents
                       FROM orders GROUP BY o_custkey)
            SELECT s.c_custkey, c.c_nationkey, s.spend_cents,
                   PERCENT_RANK() OVER (PARTITION BY c.c_nationkey
                                        ORDER BY s.spend_cents) AS pr
            FROM s JOIN customer c USING (c_custkey)
        """,
        "fd_cust_priority": """
            SELECT o_custkey,
                   CAST(COUNT(DISTINCT o_orderpriority) AS BIGINT)
                       AS n_priorities
            FROM orders GROUP BY o_custkey
            HAVING COUNT(DISTINCT o_orderpriority) > 1
        """,
        "theil_sen_cust_trend": """
            -- median of pairwise slopes; pairs taken once (a.d < b.d),
            -- slope is swap-symmetric so orientation is irrelevant;
            -- same-day pairs contribute no slope on either engine
            WITH o AS (SELECT o_custkey,
                              CAST(epoch_us(o_orderdate) AS BIGINT)
                                  // 86400000000 AS d,
                              CAST(ROUND(o_totalprice * 100) AS BIGINT)
                                  AS c
                       FROM orders),
            g AS (SELECT o_custkey FROM o GROUP BY o_custkey
                  HAVING COUNT(*) >= 6),
            p AS (SELECT a.o_custkey,
                         CAST(b.c - a.c AS DOUBLE)
                         / CAST(b.d - a.d AS DOUBLE) AS sl
                  FROM o a JOIN o b
                    ON a.o_custkey = b.o_custkey AND a.d < b.d)
            SELECT p.o_custkey, MEDIAN(sl) AS trend_slope
            FROM p JOIN g USING (o_custkey)
            GROUP BY p.o_custkey
        """,
        "benford_totalprice": """
            WITH v AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT)
                              AS c FROM orders),
            d AS (SELECT CAST(SUBSTR(CAST(c AS VARCHAR), 1, 1)
                              AS BIGINT) AS digit,
                         CAST(COUNT(*) AS BIGINT) AS n
                  FROM v GROUP BY 1),
            t AS (SELECT CAST(SUM(n) AS DOUBLE) AS total FROM d)
            SELECT digit, n,
                   total * ln(1.0 + 1.0 / CAST(digit AS DOUBLE))
                       / ln(10.0) AS expected_n,
                   (CAST(n AS DOUBLE)
                    - total * ln(1.0 + 1.0 / CAST(digit AS DOUBLE))
                      / ln(10.0))
                   * (CAST(n AS DOUBLE)
                      - total * ln(1.0 + 1.0 / CAST(digit AS DOUBLE))
                        / ln(10.0))
                   / (total * ln(1.0 + 1.0 / CAST(digit AS DOUBLE))
                      / ln(10.0)) AS chi2
            FROM d, t
        """,
        "ztest_urgent_nation": """
            WITH a AS (SELECT c_nationkey,
                              CAST(COUNT(*) AS BIGINT) AS n_orders,
                              CAST(SUM(CASE WHEN o_orderpriority =
                                            '1-URGENT' THEN 1 ELSE 0
                                       END) AS BIGINT) AS n_urgent
                       FROM orders
                       JOIN customer ON o_custkey = c_custkey
                       GROUP BY c_nationkey),
            t AS (SELECT CAST(SUM(n_orders) AS DOUBLE) AS nn,
                         CAST(SUM(n_urgent) AS DOUBLE) AS xx FROM a)
            SELECT c_nationkey, n_orders, n_urgent,
                   (CAST(n_urgent AS DOUBLE) / CAST(n_orders AS DOUBLE)
                    - (xx - CAST(n_urgent AS DOUBLE))
                      / (nn - CAST(n_orders AS DOUBLE)))
                   / sqrt((xx / nn) * (1.0 - xx / nn)
                          * (1.0 / CAST(n_orders AS DOUBLE)
                             + 1.0 / (nn - CAST(n_orders AS DOUBLE))))
                       AS z
            FROM a, t
        """,
        "cusum_daily_revenue": """
            -- clamped-scan closed form: C_t - min(0, running min C)
            WITH d AS (SELECT CAST(epoch_us(o_orderdate) AS BIGINT)
                              AS day_us,
                              CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                            AS BIGINT)) AS BIGINT) AS r
                       FROM orders GROUP BY 1),
            m AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n,
                         CAST(SUM(r) AS DOUBLE) AS s,
                         CAST(SUM(CAST(r AS HUGEINT)
                                  * CAST(r AS HUGEINT)) AS DOUBLE)
                             AS ss
                  FROM d),
            z AS (SELECT day_us,
                         (CAST(r AS DOUBLE) - s / n)
                         / sqrt(ss / n - (s / n) * (s / n)) AS z
                  FROM d, m),
            c AS (SELECT day_us,
                         SUM(z - 0.5) OVER (ORDER BY day_us) AS cp,
                         SUM(-z - 0.5) OVER (ORDER BY day_us) AS cn
                  FROM z)
            SELECT day_us,
                   cp - LEAST(MIN(cp) OVER (ORDER BY day_us), 0.0)
                       AS cusum_pos,
                   cn - LEAST(MIN(cn) OVER (ORDER BY day_us), 0.0)
                       AS cusum_neg
            FROM c
        """,
        "local_clustering": """
            -- triangles once per (pa < pb < pc) triple, credited to
            -- all three corners; lcc mirrored float expression
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
            e AS (SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
                  FROM op a JOIN op b
                    ON a.l_orderkey = b.l_orderkey
                   AND a.l_partkey < b.l_partkey),
            deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
                    FROM (SELECT pa AS node FROM e
                          UNION ALL SELECT pb FROM e)
                    GROUP BY node),
            tr AS (SELECT e1.pa AS x, e1.pb AS y, e2.pb AS w
                   FROM e e1
                   JOIN e e2 ON e2.pa = e1.pa AND e2.pb > e1.pb
                   JOIN e e3 ON e3.pa = e1.pb AND e3.pb = e2.pb),
            tri AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS n_tri
                    FROM (SELECT x AS node FROM tr
                          UNION ALL SELECT y FROM tr
                          UNION ALL SELECT w FROM tr)
                    GROUP BY node)
            SELECT d.node, d.deg,
                   CAST(COALESCE(t.n_tri, 0) AS BIGINT) AS n_tri,
                   2.0 * CAST(COALESCE(t.n_tri, 0) AS DOUBLE)
                   / (CAST(d.deg AS DOUBLE)
                      * (CAST(d.deg AS DOUBLE) - 1.0)) AS lcc
            FROM deg d LEFT JOIN tri t USING (node)
            WHERE d.deg >= 2
        """,
        "mannwhitney_discount": """
            -- doubled tied ranks over the distinct-value count table
            -- (2*cum_below + cnt + 1); exact HUGEINT sums; mirrored
            -- U / tie-corrected z
            WITH b AS (SELECT CAST(ROUND(l_extendedprice * 100)
                              AS BIGINT) AS v,
                              CASE WHEN l_discount >= 0.05 THEN 1
                                   ELSE 0 END AS f
                       FROM lineitem),
            r AS (SELECT v, COUNT(*) AS cnt, SUM(f) AS cnt_a
                  FROM b GROUP BY v),
            w AS (SELECT cnt, cnt_a,
                         2 * (SUM(cnt) OVER (ORDER BY v) - cnt)
                           + cnt + 1 AS rank2
                  FROM r),
            s AS (SELECT CAST(SUM(cnt_a * rank2) AS DOUBLE) AS s2ra,
                         CAST(SUM(cnt * cnt * cnt - cnt) AS DOUBLE)
                             AS tie,
                         CAST(SUM(cnt_a) AS DOUBLE) AS na,
                         CAST(SUM(cnt) AS DOUBLE) AS n
                  FROM w)
            SELECT CAST(na AS BIGINT) AS n_a,
                   CAST(n - na AS BIGINT) AS n_b,
                   s2ra / 2.0 - na * (na + 1.0) / 2.0 AS u_a,
                   (s2ra / 2.0 - na * (na + 1.0) / 2.0
                    - na * (n - na) / 2.0)
                   / sqrt((na * (n - na) / 12.0)
                          * ((n + 1.0)
                             - tie / (n * (n - 1.0)))) AS z
            FROM s
        """,
        "spearman_by_returnflag": """
            WITH b AS (SELECT l_returnflag,
                              CAST(ROUND(l_quantity) AS BIGINT) AS q,
                              CAST(ROUND(l_extendedprice * 100)
                                   AS BIGINT) AS c
                       FROM lineitem),
            r AS (SELECT l_returnflag,
                         2 * RANK() OVER (PARTITION BY l_returnflag
                                          ORDER BY q)
                           + COUNT(*) OVER (PARTITION BY l_returnflag,
                                            q) - 1 AS rx,
                         2 * RANK() OVER (PARTITION BY l_returnflag
                                          ORDER BY c)
                           + COUNT(*) OVER (PARTITION BY l_returnflag,
                                            c) - 1 AS ry
                  FROM b),
            s AS (SELECT l_returnflag,
                         CAST(COUNT(*) AS DOUBLE) AS n,
                         CAST(SUM(rx) AS DOUBLE) AS sx,
                         CAST(SUM(ry) AS DOUBLE) AS sy,
                         CAST(SUM(rx * ry) AS DOUBLE) AS sxy,
                         CAST(SUM(rx * rx) AS DOUBLE) AS sxx,
                         CAST(SUM(ry * ry) AS DOUBLE) AS syy
                  FROM r GROUP BY l_returnflag)
            SELECT l_returnflag,
                   (n * sxy - sx * sy)
                   / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
                       AS spearman
            FROM s
            WHERE (n * sxx - sx * sx) > 0 AND (n * syy - sy * sy) > 0
        """,
        "ppr_top_customers": """
            -- 3 unrolled damped iterations; teleport vector p on the
            -- 5 lowest-id purchasing customers; dangling mass returns
            -- to p; mirrored update expression, round-6
            WITH e AS (
                SELECT DISTINCT o_custkey AS src,
                       1099511627776 + l_suppkey AS dst
                FROM orders JOIN lineitem ON o_orderkey = l_orderkey),
            nodes AS (SELECT src AS node FROM e
                      UNION SELECT dst FROM e),
            seeds AS (SELECT DISTINCT src AS node FROM e
                      ORDER BY node LIMIT 5),
            ks AS (SELECT CAST(COUNT(*) AS DOUBLE) AS k FROM seeds),
            pv AS (SELECT nd.node,
                          CASE WHEN s.node IS NOT NULL
                               THEN 1.0 / (SELECT k FROM ks)
                               ELSE 0.0 END AS p
                   FROM nodes nd
                   LEFT JOIN seeds s ON nd.node = s.node),
            deg AS (SELECT src AS node, CAST(COUNT(*) AS DOUBLE)
                               AS deg
                    FROM e GROUP BY src),
            r0 AS (SELECT node, p AS r FROM pv),
            d1 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r0 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c1 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r0 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r1 AS (SELECT pv.node,
                          (1.0 - 0.85) * pv.p
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d1) * pv.p)
                              AS r
                   FROM pv LEFT JOIN c1 c ON pv.node = c.node),
            d2 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r1 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c2 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r1 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r2 AS (SELECT pv.node,
                          (1.0 - 0.85) * pv.p
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d2) * pv.p)
                              AS r
                   FROM pv LEFT JOIN c2 c ON pv.node = c.node),
            d3 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r2 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c3 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r2 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r3 AS (SELECT pv.node,
                          (1.0 - 0.85) * pv.p
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d3) * pv.p)
                              AS r
                   FROM pv LEFT JOIN c3 c ON pv.node = c.node)
            SELECT node, ROUND(r, 9) AS rank FROM r3
        """,
        "km_by_discount_group": """
            -- one product-limit curve per discount stratum; the
            -- per-group at-risk counts use each group's OWN totals
            WITH b AS (SELECT CAST(epoch_us(l_shipdate)
                              - epoch_us(o_orderdate) AS BIGINT)
                              // 86400000000 AS t,
                              CASE WHEN l_returnflag = 'R' THEN 1
                                   ELSE 0 END AS e,
                              CASE WHEN l_discount >= 0.05 THEN 1
                                   ELSE 0 END AS g
                       FROM lineitem
                       JOIN orders ON l_orderkey = o_orderkey),
            c AS (SELECT CAST(g AS BIGINT) AS grp, t,
                         CAST(SUM(e) AS BIGINT) AS d,
                         CAST(COUNT(*) AS BIGINT) AS n_all
                  FROM b GROUP BY g, t),
            r AS (SELECT grp, t, d,
                         CAST(SUM(n_all) OVER (PARTITION BY grp)
                              AS BIGINT)
                         - CAST(COALESCE(SUM(n_all) OVER (
                               PARTITION BY grp ORDER BY t
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS BIGINT)
                             AS n_risk
                  FROM c),
            s AS (SELECT grp, t, d, n_risk,
                         product(1.0 - CAST(d AS DOUBLE)
                                 / CAST(n_risk AS DOUBLE))
                             OVER (PARTITION BY grp ORDER BY t)
                             AS survival
                  FROM r WHERE d > 0)
            SELECT grp, t AS day, d AS n_events, n_risk, survival
            FROM s
        """,
        "logrank_discount_survival": """
            WITH b AS (SELECT CAST(epoch_us(l_shipdate)
                              - epoch_us(o_orderdate) AS BIGINT)
                              // 86400000000 AS t,
                              CASE WHEN l_returnflag = 'R' THEN 1
                                   ELSE 0 END AS e,
                              CASE WHEN l_discount >= 0.05 THEN 1
                                   ELSE 0 END AS g
                       FROM lineitem
                       JOIN orders ON l_orderkey = o_orderkey),
            c AS (SELECT t,
                         CAST(SUM(e * g) AS BIGINT) AS d1,
                         CAST(SUM(e) AS BIGINT) AS d,
                         CAST(SUM(g) AS BIGINT) AS l1,
                         CAST(COUNT(*) AS BIGINT) AS l
                  FROM b GROUP BY t),
            r AS (SELECT t, d1, d,
                         CAST((SELECT SUM(g) FROM b) AS BIGINT)
                         - CAST(COALESCE(SUM(l1) OVER (
                               ORDER BY t ROWS BETWEEN UNBOUNDED
                               PRECEDING AND 1 PRECEDING), 0)
                               AS BIGINT) AS n1,
                         CAST((SELECT COUNT(*) FROM b) AS BIGINT)
                         - CAST(COALESCE(SUM(l) OVER (
                               ORDER BY t ROWS BETWEEN UNBOUNDED
                               PRECEDING AND 1 PRECEDING), 0)
                               AS BIGINT) AS n
                  FROM c),
            s AS (SELECT CAST(SUM(d1) AS DOUBLE) AS o1,
                         SUM(CAST(d AS DOUBLE) * CAST(n1 AS DOUBLE)
                             / CAST(n AS DOUBLE)) AS e1,
                         SUM(CAST(d AS DOUBLE)
                             * (CAST(n1 AS DOUBLE)
                                / CAST(n AS DOUBLE))
                             * ((CAST(n AS DOUBLE)
                                 - CAST(n1 AS DOUBLE))
                                / CAST(n AS DOUBLE))
                             * ((CAST(n AS DOUBLE)
                                 - CAST(d AS DOUBLE))
                                / GREATEST(CAST(n AS DOUBLE) - 1.0,
                                           1.0))) AS v
                  FROM r WHERE d > 0)
            SELECT CAST(o1 AS BIGINT) AS observed_1,
                   e1 AS expected_1, v AS variance,
                   (o1 - e1) / sqrt(v) AS z
            FROM s
        """,
        "km_return_survival": """
            -- product-limit estimator via the product() window
            -- aggregate (log-sum would hit ln(0) on the terminal
            -- event day); WHERE d > 0 binds before the window, so
            -- the cumulative product runs over event days only
            -- (censored-only days contribute factor 1 on both
            -- engines)
            WITH b AS (SELECT CAST(epoch_us(l_shipdate)
                              - epoch_us(o_orderdate) AS BIGINT)
                              // 86400000000 AS t,
                              CASE WHEN l_returnflag = 'R' THEN 1
                                   ELSE 0 END AS e
                       FROM lineitem
                       JOIN orders ON l_orderkey = o_orderkey),
            g AS (SELECT t, CAST(SUM(e) AS BIGINT) AS d,
                         CAST(COUNT(*) AS BIGINT) AS n_all
                  FROM b GROUP BY t),
            r AS (SELECT t, d,
                         CAST((SELECT COUNT(*) FROM b) AS BIGINT)
                         - CAST(COALESCE(SUM(n_all) OVER (
                               ORDER BY t ROWS BETWEEN UNBOUNDED
                               PRECEDING AND 1 PRECEDING), 0)
                               AS BIGINT) AS n_risk
                  FROM g),
            s AS (SELECT t, d, n_risk,
                         product(1.0 - CAST(d AS DOUBLE)
                                 / CAST(n_risk AS DOUBLE))
                             OVER (ORDER BY t) AS survival
                  FROM r WHERE d > 0)
            SELECT t AS day, d AS n_events, n_risk, survival FROM s
        """,
        "auc_price_discount": """
            -- AUC = U_A/(nA*nB) via tie-averaged doubled ranks
            WITH b AS (SELECT CAST(ROUND(l_extendedprice * 100)
                              AS BIGINT) AS v,
                              CASE WHEN l_discount >= 0.05 THEN 1
                                   ELSE 0 END AS f
                       FROM lineitem),
            r AS (SELECT v, COUNT(*) AS cnt, SUM(f) AS cnt_a
                  FROM b GROUP BY v),
            w AS (SELECT cnt, cnt_a,
                         2 * (SUM(cnt) OVER (ORDER BY v) - cnt)
                           + cnt + 1 AS rank2
                  FROM r),
            s AS (SELECT CAST(SUM(cnt_a * rank2) AS DOUBLE) AS s2ra,
                         CAST(SUM(cnt_a) AS DOUBLE) AS na,
                         CAST(SUM(cnt) AS DOUBLE) AS n
                  FROM w)
            SELECT CAST(na AS BIGINT) AS n_pos,
                   CAST(n - na AS BIGINT) AS n_neg,
                   (s2ra / 2.0 - na * (na + 1.0) / 2.0)
                   / (na * (n - na)) AS auc
            FROM s
        """,
        "lift_table_urgent": """
            WITH cust AS (SELECT o_custkey AS c,
                                 CAST(SUM(CAST(ROUND(o_totalprice
                                               * 100) AS BIGINT))
                                      AS BIGINT) AS spend,
                                 MAX(CASE WHEN o_orderpriority =
                                          '1-URGENT' THEN 1 ELSE 0
                                     END) AS pos
                          FROM orders GROUP BY o_custkey),
            t AS (SELECT NTILE(10) OVER (ORDER BY spend DESC, c)
                             AS decile, pos
                  FROM cust),
            a AS (SELECT decile, CAST(COUNT(*) AS BIGINT) AS n_cust,
                         CAST(SUM(pos) AS BIGINT) AS n_pos
                  FROM t GROUP BY decile),
            g AS (SELECT CAST(SUM(n_cust) AS DOUBLE) AS n_tot,
                         CAST(SUM(n_pos) AS DOUBLE) AS pos_tot FROM a)
            SELECT decile, n_cust, n_pos,
                   CAST(n_pos AS DOUBLE) / CAST(n_cust AS DOUBLE)
                       AS pos_rate,
                   (CAST(n_pos AS DOUBLE) / CAST(n_cust AS DOUBLE))
                   / (pos_tot / n_tot) AS lift
            FROM a, g
        """,
        "psi_order_value_drift": """
            WITH b AS (SELECT LEAST(CAST(ROUND(o_totalprice * 100)
                                         AS BIGINT) // 3000000, 9)
                                  AS bin,
                              CASE WHEN year(o_orderdate) = 1996
                                   THEN 1 ELSE 0 END AS ref,
                              CASE WHEN year(o_orderdate) = 1997
                                   THEN 1 ELSE 0 END AS cur
                       FROM orders
                       WHERE year(o_orderdate) IN (1996, 1997)),
            a AS (SELECT bin, CAST(SUM(ref) AS BIGINT) AS n_ref,
                         CAST(SUM(cur) AS BIGINT) AS n_cur
                  FROM b GROUP BY bin),
            t AS (SELECT CAST(SUM(n_ref) AS DOUBLE) AS nr,
                         CAST(SUM(n_cur) AS DOUBLE) AS nc FROM a)
            SELECT bin, n_ref, n_cur,
                   (CAST(n_cur AS DOUBLE) / nc
                    - CAST(n_ref AS DOUBLE) / nr)
                   * ln((CAST(n_cur AS DOUBLE) / nc)
                        / (CAST(n_ref AS DOUBLE) / nr)) AS psi_part
            FROM a, t
        """,
        "welch_ttest_discount": """
            WITH b AS (SELECT CASE WHEN l_discount >= 0.05 THEN 1
                                   ELSE 0 END AS side,
                              CAST(ROUND(l_extendedprice * 100)
                                   AS BIGINT) AS x
                       FROM lineitem),
            a AS (SELECT side, CAST(COUNT(*) AS DOUBLE) AS n,
                         CAST(SUM(x) AS DOUBLE) AS sx,
                         CAST(SUM(CAST(x AS HUGEINT)
                                  * CAST(x AS HUGEINT)) AS DOUBLE)
                             AS ss
                  FROM b GROUP BY side),
            s AS (SELECT
                    MAX(CASE WHEN side = 0 THEN n END) AS n0,
                    MAX(CASE WHEN side = 1 THEN n END) AS n1,
                    MAX(CASE WHEN side = 0 THEN sx END) AS sx0,
                    MAX(CASE WHEN side = 1 THEN sx END) AS sx1,
                    MAX(CASE WHEN side = 0 THEN ss END) AS ss0,
                    MAX(CASE WHEN side = 1 THEN ss END) AS ss1
                  FROM a),
            v AS (SELECT n0, n1, sx0, sx1,
                         (ss0 - sx0 * sx0 / n0) / (n0 - 1.0) AS v0,
                         (ss1 - sx1 * sx1 / n1) / (n1 - 1.0) AS v1
                  FROM s)
            SELECT CAST(n1 AS BIGINT) AS n_a,
                   CAST(n0 AS BIGINT) AS n_b,
                   (sx1 / n1 - sx0 / n0)
                   / sqrt(v0 / n0 + v1 / n1) AS t_stat,
                   (v0 / n0 + v1 / n1) * (v0 / n0 + v1 / n1)
                   / ((v0 / n0) * (v0 / n0) / (n0 - 1.0)
                      + (v1 / n1) * (v1 / n1) / (n1 - 1.0))
                       AS welch_df
            FROM v
        """,
        "kendall_cust_trend": """
            -- unordered pairs once (a.o_orderkey < b.o_orderkey);
            -- concordance counts are orientation-symmetric
            WITH o AS (SELECT o_custkey, o_orderkey,
                              CAST(epoch_us(o_orderdate) AS BIGINT)
                                  // 86400000000 AS d,
                              CAST(ROUND(o_totalprice * 100) AS BIGINT)
                                  AS c
                       FROM orders),
            g AS (SELECT o_custkey FROM o GROUP BY o_custkey
                  HAVING COUNT(*) >= 6),
            p AS (SELECT a.o_custkey,
                         CASE WHEN (b.d - a.d) * (b.c - a.c) > 0
                              THEN 1 ELSE 0 END AS con,
                         CASE WHEN (b.d - a.d) * (b.c - a.c) < 0
                              THEN 1 ELSE 0 END AS dis,
                         CASE WHEN b.d = a.d THEN 1 ELSE 0 END AS tx,
                         CASE WHEN b.c = a.c THEN 1 ELSE 0 END AS ty
                  FROM o a JOIN o b
                    ON a.o_custkey = b.o_custkey
                   AND a.o_orderkey < b.o_orderkey),
            s AS (SELECT p.o_custkey,
                         CAST(SUM(con) AS BIGINT) AS c,
                         CAST(SUM(dis) AS BIGINT) AS d,
                         CAST(SUM(tx) AS BIGINT) AS tx,
                         CAST(SUM(ty) AS BIGINT) AS ty,
                         CAST(COUNT(*) AS BIGINT) AS n0
                  FROM p JOIN g USING (o_custkey)
                  GROUP BY p.o_custkey)
            SELECT o_custkey,
                   (CAST(c AS DOUBLE) - CAST(d AS DOUBLE))
                   / sqrt(CAST(n0 - tx AS DOUBLE)
                          * CAST(n0 - ty AS DOUBLE)) AS tau_b
            FROM s WHERE n0 <> tx AND n0 <> ty
        """,
        "anova_nation_spend": """
            WITH b AS (SELECT c_nationkey,
                              CAST(ROUND(o_totalprice * 100) AS BIGINT)
                                  AS x
                       FROM orders
                       JOIN customer ON o_custkey = c_custkey),
            a AS (SELECT c_nationkey,
                         CAST(COUNT(*) AS DOUBLE) AS n,
                         CAST(SUM(x) AS DOUBLE) AS sx,
                         CAST(SUM(CAST(x AS HUGEINT)
                                  * CAST(x AS HUGEINT)) AS DOUBLE)
                             AS sxx
                  FROM b GROUP BY c_nationkey),
            t AS (SELECT CAST(COUNT(*) AS DOUBLE) AS k,
                         SUM(n) AS n_tot, SUM(sx) AS sx_tot FROM a)
            SELECT CAST(t.k AS BIGINT) AS k_groups,
                   (SUM(n * (sx / n - sx_tot / n_tot)
                        * (sx / n - sx_tot / n_tot)) / (t.k - 1.0))
                   / (SUM(sxx - sx * sx / n) / (t.n_tot - t.k))
                       AS f_stat
            FROM a, t GROUP BY t.k, t.n_tot, t.sx_tot
        """,
        "mad_nation_price": """
            -- doubled medians stay integer (cont median of ints is a
            -- half-integer), so both passes are exact order statistics
            WITH b AS (SELECT c_nationkey,
                              CAST(ROUND(o_totalprice * 100) AS BIGINT)
                                  AS c
                       FROM orders
                       JOIN customer ON o_custkey = c_custkey),
            m AS (SELECT c_nationkey,
                         CAST(2.0 * quantile_cont(c, 0.5) AS BIGINT)
                             AS med2
                  FROM b GROUP BY c_nationkey),
            d AS (SELECT b.c_nationkey, ABS(2 * b.c - m.med2) AS d2
                  FROM b JOIN m USING (c_nationkey))
            SELECT c_nationkey, quantile_cont(d2, 0.5) / 2.0 AS mad
            FROM d GROUP BY c_nationkey
        """,
        "ks_urgent_price": """
            WITH v AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT)
                           AS x,
                       CASE WHEN o_orderpriority = '1-URGENT'
                            THEN 1 ELSE 0 END AS f
                       FROM orders),
            c AS (SELECT x, SUM(f) AS ca, COUNT(*) AS cnt
                  FROM v GROUP BY x),
            n AS (SELECT SUM(ca) AS n1, SUM(cnt) - SUM(ca) AS n0
                  FROM c),
            cum AS (SELECT x,
                        SUM(ca) OVER (ORDER BY x) AS s1,
                        SUM(cnt - ca) OVER (ORDER BY x) AS s0
                    FROM c)
            SELECT CAST(MAX(ABS(s1 * n.n0 - s0 * n.n1)) AS DOUBLE)
                       / (CAST(n.n1 AS DOUBLE) * n.n0) AS ks_d,
                   CAST(n.n1 AS BIGINT) AS n_urgent,
                   CAST(n.n0 AS BIGINT) AS n_other
            FROM cum, n GROUP BY n.n1, n.n0
        """,
        "kruskal_wallis_price": """
            WITH v AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT)
                           AS x,
                       CAST(substr(o_orderpriority, 1, 1) AS INT) AS g
                       FROM orders),
            c AS (SELECT x, g, COUNT(*) AS c FROM v GROUP BY x, g),
            t AS (SELECT x, SUM(c) AS cnt FROM c GROUP BY x),
            r AS (SELECT x,
                      2 * (SUM(cnt) OVER (ORDER BY x) - cnt)
                          + cnt + 1 AS r2
                  FROM t),
            s AS (SELECT g, SUM(c.c * r.r2) AS s2, SUM(c.c) AS nj
                  FROM c JOIN r ON c.x = r.x GROUP BY g),
            nn AS (SELECT SUM(cnt) AS n,
                          SUM(cnt * cnt * cnt - cnt) AS ties
                   FROM t),
            acc AS (SELECT SUM(CAST(s2 AS DOUBLE) * s2 / nj) AS a
                    FROM s)
            SELECT ROUND(
                (3.0 / (CAST(n AS DOUBLE) * (n + 1)) * acc.a
                 - 3.0 * (n + 1))
                / (1.0 - CAST(ties AS DOUBLE)
                   / (CAST(n AS DOUBLE) * n * n - n)), 6) AS kw_h,
                CAST(n AS BIGINT) AS n
            FROM nn, acc
        """,
        "cramers_v_nation_priority": """
            WITH j AS (SELECT c_nationkey, o_orderpriority
                       FROM orders JOIN customer
                       ON o_custkey = c_custkey),
            a AS (SELECT c_nationkey, o_orderpriority, COUNT(*) AS n
                  FROM j GROUP BY 1, 2),
            tot AS (SELECT SUM(n) AS t,
                           COUNT(DISTINCT c_nationkey) AS r,
                           COUNT(DISTINCT o_orderpriority) AS c
                    FROM a),
            m AS (SELECT a.c_nationkey, a.o_orderpriority, a.n,
                         rs.rn, cs.cn
                  FROM a
                  JOIN (SELECT c_nationkey, SUM(n) AS rn FROM a
                        GROUP BY 1) rs USING (c_nationkey)
                  JOIN (SELECT o_orderpriority, SUM(n) AS cn FROM a
                        GROUP BY 1) cs USING (o_orderpriority)),
            chi AS (SELECT SUM(
                        (n - CAST(rn AS DOUBLE) * cn / tot.t)
                        * (n - CAST(rn AS DOUBLE) * cn / tot.t)
                        / (CAST(rn AS DOUBLE) * cn / tot.t)) AS x2
                    FROM m, tot GROUP BY tot.t)
            SELECT ROUND(SQRT(chi.x2 / (CAST(tot.t AS DOUBLE)
                       * LEAST(tot.r - 1, tot.c - 1))), 6)
                       AS cramers_v,
                   tot.r AS n_rows, tot.c AS n_cols
            FROM chi, tot
        """,
        "jsd_region_priority": """
            WITH cr AS (SELECT c_custkey, r_name
                        FROM customer
                        JOIN nation ON c_nationkey = n_nationkey
                        JOIN region ON n_regionkey = r_regionkey
                        WHERE r_name IN ('EUROPE', 'ASIA')),
            a AS (SELECT r_name, o_orderpriority, COUNT(*) AS n
                  FROM orders JOIN cr ON o_custkey = c_custkey
                  GROUP BY 1, 2),
            pv AS (SELECT o_orderpriority,
                       SUM(CASE WHEN r_name = 'EUROPE' THEN n
                                ELSE 0 END) AS c1,
                       SUM(CASE WHEN r_name = 'ASIA' THEN n
                                ELSE 0 END) AS c2
                   FROM a GROUP BY 1),
            nn AS (SELECT SUM(c1) AS n1, SUM(c2) AS n2 FROM pv),
            terms AS (SELECT
                CASE WHEN c1 > 0 THEN
                    (CAST(c1 AS DOUBLE) / nn.n1)
                    * LN((CAST(c1 AS DOUBLE) / nn.n1)
                         / ((CAST(c1 AS DOUBLE) / nn.n1
                             + CAST(c2 AS DOUBLE) / nn.n2) / 2.0))
                ELSE 0.0 END AS t1,
                CASE WHEN c2 > 0 THEN
                    (CAST(c2 AS DOUBLE) / nn.n2)
                    * LN((CAST(c2 AS DOUBLE) / nn.n2)
                         / ((CAST(c1 AS DOUBLE) / nn.n1
                             + CAST(c2 AS DOUBLE) / nn.n2) / 2.0))
                ELSE 0.0 END AS t2
                FROM pv, nn)
            SELECT ROUND(0.5 * SUM(t1) + 0.5 * SUM(t2), 6) AS jsd,
                   CAST(nn.n1 AS BIGINT) AS n_europe,
                   CAST(nn.n2 AS BIGINT) AS n_asia
            FROM terms, nn GROUP BY nn.n1, nn.n2
        """,
        "brown_forsythe_price": """
            WITH v AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT)
                           AS x,
                       CAST(substr(o_orderpriority, 1, 1) AS INT) AS g
                       FROM orders),
            med AS (SELECT g,
                        CAST(ROUND(2 * quantile_cont(x, 0.5))
                             AS BIGINT) AS m2
                    FROM v GROUP BY g),
            z AS (SELECT v.g, ABS(2 * v.x - med.m2) AS z2
                  FROM v JOIN med ON v.g = med.g),
            s AS (SELECT g, COUNT(*) AS nj, SUM(z2) AS s1,
                         SUM(z2 * z2) AS s2
                  FROM z GROUP BY g),
            nn AS (SELECT SUM(nj) AS n, COUNT(*) AS k,
                          SUM(s1) AS stot,
                          SUM(CAST(s1 AS DOUBLE) * s1 / nj) AS sb,
                          SUM(CAST(s2 AS DOUBLE)) AS sw
                   FROM s)
            SELECT ROUND(
                ((sb - CAST(stot AS DOUBLE) * stot / n) / (k - 1))
                / ((sw - sb) / (n - k)), 6) AS bf_f,
                CAST(n AS BIGINT) AS n, CAST(k AS BIGINT) AS k_groups
            FROM nn
        """,
        "chisq_nation_priority": """
            WITH a AS (SELECT c_nationkey, o_orderpriority,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM orders
                       JOIN customer ON o_custkey = c_custkey
                       GROUP BY c_nationkey, o_orderpriority),
            r AS (SELECT c_nationkey, CAST(SUM(n) AS DOUBLE) AS rn
                  FROM a GROUP BY c_nationkey),
            c AS (SELECT o_orderpriority, CAST(SUM(n) AS DOUBLE) AS cn
                  FROM a GROUP BY o_orderpriority),
            t AS (SELECT CAST(SUM(n) AS DOUBLE) AS tot FROM a)
            SELECT a.c_nationkey, a.o_orderpriority, a.n,
                   rn * cn / tot AS expected_n,
                   (CAST(n AS DOUBLE) - rn * cn / tot)
                   * (CAST(n AS DOUBLE) - rn * cn / tot)
                   / (rn * cn / tot) AS chi2
            FROM a JOIN r USING (c_nationkey)
            JOIN c USING (o_orderpriority), t
        """,
        "mutual_info_priority_status": """
            WITH a AS (SELECT o_orderpriority AS p, o_orderstatus AS s,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM orders GROUP BY 1, 2),
            r AS (SELECT p, CAST(SUM(n) AS DOUBLE) AS np FROM a
                  GROUP BY p),
            c AS (SELECT s, CAST(SUM(n) AS DOUBLE) AS ns FROM a
                  GROUP BY s),
            t AS (SELECT CAST(SUM(n) AS DOUBLE) AS tot FROM a)
            SELECT CAST(SUM((CAST(n AS DOUBLE) / tot)
                            * ln(CAST(n AS DOUBLE) * tot / (np * ns)))
                        AS DOUBLE) AS mi
            FROM a JOIN r USING (p) JOIN c USING (s), t
        """,
        "vocab_coverage": """
            WITH tok AS (SELECT unnest(string_split(text, ' ')) AS term
                         FROM documents),
            cnt AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS n
                    FROM tok GROUP BY term),
            tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS total FROM tok),
            top AS (SELECT term, n FROM cnt
                    ORDER BY n DESC, term LIMIT 100)
            SELECT term, n,
                   CAST(SUM(n) OVER (ORDER BY n DESC, term)
                        AS DOUBLE) / total AS cum_share
            FROM top, tot
        """,
        "stock_balance_clamped": """
            WITH d AS (SELECT l_partkey, l_shipdate, l_orderkey,
                              l_linenumber,
                              CASE WHEN l_returnflag = 'R'
                                   THEN -CAST(ROUND(l_quantity)
                                              AS BIGINT)
                                   ELSE CAST(ROUND(l_quantity)
                                             AS BIGINT) END AS delta
                       FROM lineitem),
            c AS (SELECT l_partkey, l_shipdate, l_orderkey,
                         l_linenumber,
                         CAST(SUM(delta) OVER (
                             PARTITION BY l_partkey
                             ORDER BY l_shipdate, l_orderkey,
                                      l_linenumber) AS BIGINT) AS cum
                  FROM d),
            m AS (SELECT l_partkey, l_shipdate, l_orderkey,
                         l_linenumber, cum,
                         CAST(MIN(cum) OVER (
                             PARTITION BY l_partkey
                             ORDER BY l_shipdate, l_orderkey,
                                      l_linenumber) AS BIGINT)
                             AS runmin
                  FROM c),
            b AS (SELECT l_partkey,
                         cum - LEAST(runmin, 0) AS bal,
                         row_number() OVER (
                             PARTITION BY l_partkey
                             ORDER BY l_shipdate DESC,
                                      l_orderkey DESC,
                                      l_linenumber DESC) AS rn
                  FROM m)
            SELECT l_partkey,
                   CAST(MAX(CASE WHEN rn = 1 THEN bal END) AS BIGINT)
                       AS final_balance,
                   CAST(MAX(bal) AS BIGINT) AS peak_balance
            FROM b GROUP BY l_partkey
        """,
        "intersect_all_users": """
            SELECT user_id FROM events WHERE event_type = 'click'
            INTERSECT ALL
            SELECT user_id FROM events WHERE event_type = 'purchase'
        """,
        "except_all_clicks": """
            SELECT user_id FROM events WHERE event_type = 'click'
            EXCEPT ALL
            SELECT user_id FROM events WHERE event_type = 'purchase'
        """,
        "scd2_user_events": """
            WITH l AS (SELECT event_id, user_id, event_type,
                              ts AS valid_from,
                              lead(ts) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id)
                                  AS vt
                       FROM events)
            SELECT event_id, user_id, event_type, valid_from,
                   COALESCE(vt, TIMESTAMP '2100-01-01') AS valid_to
            FROM l
        """,
        "nation_priority_kl": """
            WITH c AS (SELECT c_nationkey AS nation,
                              o_orderpriority AS pr, COUNT(*) AS n
                       FROM orders
                       JOIN customer ON o_custkey = c_custkey
                       GROUP BY 1, 2),
            tn AS (SELECT nation, CAST(SUM(n) AS DOUBLE) AS tn
                   FROM c GROUP BY 1),
            gn AS (SELECT pr, CAST(SUM(n) AS DOUBLE) AS gn
                   FROM c GROUP BY 1),
            at AS (SELECT CAST(SUM(n) AS DOUBLE) AS at FROM c)
            SELECT nation,
                   ROUND(SUM((CAST(n AS DOUBLE) / tn.tn)
                             * LN((CAST(n AS DOUBLE) / tn.tn)
                                  / (gn.gn / at.at))), 6) AS kl
            FROM c
            JOIN tn USING (nation)
            JOIN gn USING (pr)
            CROSS JOIN at
            GROUP BY nation
        """,
        "grouping_sets_orders": """
            SELECT COALESCE(o_orderpriority, 'ALL') AS grp_priority,
                   COALESCE(o_orderstatus, 'ALL') AS grp_status,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders
            GROUP BY GROUPING SETS ((o_orderpriority),
                                    (o_orderstatus), ())
        """,
        "debounce_events": """
            WITH l AS (SELECT event_id, user_id, ts,
                              lag(ts) OVER (PARTITION BY user_id,
                                            event_type
                                            ORDER BY ts, event_id)
                                  AS pts
                       FROM events)
            SELECT event_id, user_id
            FROM l
            WHERE pts IS NULL OR ts - pts > INTERVAL 6 HOUR
        """,
        "sample_k_per_nation": """
            WITH r AS (SELECT c_nationkey, c_custkey,
                              row_number() OVER (
                                  PARTITION BY c_nationkey
                                  ORDER BY md5(CAST(c_custkey
                                               AS VARCHAR)),
                                           c_custkey) AS rk
                       FROM customer)
            SELECT c_nationkey, c_custkey FROM r WHERE rk <= 3
        """,
        "impute_acctbal": """
            WITH m AS (SELECT c_nationkey, median(c_acctbal) AS med
                       FROM customer GROUP BY 1)
            SELECT c_custkey,
                   CASE WHEN c_acctbal < 0 THEN med
                        ELSE c_acctbal END AS acctbal_filled
            FROM customer JOIN m USING (c_nationkey)
        """,
        "user_similarity": """
            WITH ui AS (SELECT DISTINCT o_custkey AS u,
                               l_partkey AS i
                        FROM orders
                        JOIN lineitem ON l_orderkey = o_orderkey),
            sz AS (SELECT u, COUNT(*) AS n FROM ui GROUP BY u),
            pr AS (SELECT a.u AS u1, b.u AS u2, COUNT(*) AS inter
                   FROM ui a JOIN ui b ON a.i = b.i AND a.u < b.u
                   GROUP BY 1, 2),
            j AS (SELECT u1, u2,
                         CAST(inter AS DOUBLE) / (s1.n + s2.n - inter)
                             AS jac
                  FROM pr
                  JOIN sz s1 ON s1.u = u1
                  JOIN sz s2 ON s2.u = u2),
            b AS (SELECT u1 AS u, u2 AS other, jac FROM j
                  UNION ALL SELECT u2, u1, jac FROM j),
            r AS (SELECT u, other, jac,
                         row_number() OVER (PARTITION BY u
                                            ORDER BY jac DESC, other)
                             AS rk
                  FROM b)
            SELECT u AS o_custkey, other AS similar_cust,
                   jac AS jaccard
            FROM r WHERE rk = 1
        """,
        "snapshot_diff_orders": """
            WITH snap_old AS (
                SELECT o_orderkey AS k,
                       CAST(ROUND(o_totalprice * 100) AS BIGINT) AS v
                FROM orders WHERE o_orderkey % 10 != 0),
            snap_new AS (
                SELECT o_orderkey AS k,
                       CAST(ROUND(o_totalprice * 100) AS BIGINT)
                       + CASE WHEN o_orderkey % 5 = 0
                              THEN 500 ELSE 0 END AS v
                FROM orders WHERE o_orderkey % 7 != 3)
            SELECT COALESCE(snap_old.k, snap_new.k) AS o_orderkey,
                   CASE WHEN snap_old.k IS NULL THEN 'added'
                        WHEN snap_new.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS change,
                   COALESCE(snap_old.v, -1) AS cents_old,
                   COALESCE(snap_new.v, -1) AS cents_new
            FROM snap_old FULL OUTER JOIN snap_new
                 ON snap_old.k = snap_new.k
            WHERE snap_old.k IS NULL OR snap_new.k IS NULL
               OR snap_old.v != snap_new.v
        """,
        "profile_orders": """
            SELECT 'o_custkey' AS col_name, COUNT(*) AS n_rows,
                   COUNT(*) - COUNT(o_custkey) AS n_null,
                   COUNT(DISTINCT o_custkey) AS n_distinct,
                   CAST(MIN(o_custkey) AS DOUBLE) AS min_val,
                   CAST(MAX(o_custkey) AS DOUBLE) AS max_val
            FROM orders
            UNION ALL
            SELECT 'o_orderkey', COUNT(*),
                   COUNT(*) - COUNT(o_orderkey),
                   COUNT(DISTINCT o_orderkey),
                   CAST(MIN(o_orderkey) AS DOUBLE),
                   CAST(MAX(o_orderkey) AS DOUBLE)
            FROM orders
            UNION ALL
            SELECT 'o_totalprice', COUNT(*),
                   COUNT(*) - COUNT(o_totalprice),
                   COUNT(DISTINCT o_totalprice),
                   MIN(o_totalprice), MAX(o_totalprice)
            FROM orders
        """,
        "activity_islands": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(date_trunc('day', ts))
                                   // 86400000000 AS BIGINT) AS day
                       FROM events),
            r AS (SELECT user_id, day,
                         row_number() OVER (PARTITION BY user_id
                                            ORDER BY day) AS rn
                  FROM d),
            g AS (SELECT user_id, grp, COUNT(*) AS len
                  FROM (SELECT user_id, day - rn AS grp FROM r)
                  GROUP BY user_id, grp)
            SELECT user_id, COUNT(*) AS n_islands,
                   CAST(MAX(len) AS BIGINT) AS longest_streak,
                   CAST(SUM(len) AS BIGINT) AS n_days
            FROM g GROUP BY user_id
        """,
        "weighted_median_price": """
            WITH w AS (SELECT l_returnflag AS f,
                              CAST(ROUND(l_extendedprice * 100)
                                   AS BIGINT) AS cents,
                              SUM(CAST(ROUND(l_quantity) AS BIGINT))
                                  AS wt
                       FROM lineitem GROUP BY 1, 2),
            c AS (SELECT f, cents,
                         SUM(wt) OVER (PARTITION BY f ORDER BY cents)
                             AS cum,
                         SUM(wt) OVER (PARTITION BY f) AS tot
                  FROM w)
            SELECT f AS l_returnflag,
                   CAST(MIN(cents) AS BIGINT) AS median_cents
            FROM c WHERE cum * 2 >= tot GROUP BY f
        """,
        "rolling_distinct_users": """
            WITH h AS (SELECT DISTINCT date_trunc('hour', ts) AS hr,
                              user_id
                       FROM events),
            hrs AS (SELECT DISTINCT hr FROM h)
            SELECT hrs.hr AS hr, COUNT(DISTINCT h.user_id) AS n_users
            FROM hrs JOIN h ON h.hr <= hrs.hr
                           AND h.hr >= hrs.hr - INTERVAL 2 HOUR
            GROUP BY hrs.hr
        """,
        "sssp_nations": """
            WITH RECURSIVE e0 AS (
                SELECT DISTINCT s_nationkey AS a, c_nationkey AS b
                FROM lineitem
                JOIN orders ON l_orderkey = o_orderkey
                JOIN customer ON o_custkey = c_custkey
                JOIN supplier ON l_suppkey = s_suppkey),
            e AS (SELECT a AS u, b AS v FROM e0
                  UNION SELECT b, a FROM e0),
            ew AS (SELECT u, v,
                          CAST(((u + v) % 5) + 1 AS BIGINT) AS w
                   FROM e),
            sp AS (SELECT CAST(0 AS INTEGER) AS v, CAST(0 AS BIGINT) AS d
                   UNION
                   SELECT ew.v, sp.d + ew.w
                   FROM sp JOIN ew ON ew.u = sp.v
                   WHERE sp.d + ew.w <= 130)
            SELECT v AS nation, CAST(MIN(d) AS BIGINT) AS dist
            FROM sp GROUP BY v
        """,
        "lang_top_tokens": """
            WITH t AS (SELECT lang, unnest(string_split(text, ' '))
                              AS tok
                       FROM documents),
            c AS (SELECT lang, tok, COUNT(*) AS n_tok
                  FROM t GROUP BY 1, 2),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY lang
                      ORDER BY n_tok DESC, tok) AS rk
                  FROM c)
            SELECT lang, tok, n_tok FROM r WHERE rk <= 3
        """,
        "nation_top_parts": """
            WITH l AS (SELECT s_nationkey AS nation, l_partkey
                       FROM lineitem JOIN supplier
                            ON l_suppkey = s_suppkey),
            c AS (SELECT nation, l_partkey, COUNT(*) AS n_lines
                  FROM l GROUP BY 1, 2),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY nation
                      ORDER BY n_lines DESC, l_partkey) AS rk
                  FROM c)
            SELECT nation, l_partkey, n_lines FROM r WHERE rk <= 3
        """,
        "corpus_mix_sample": """
            -- per-source char-budget admission in multiplicative-hash
            -- order; (doc_id * 2654435761) mod 2^32 mirrors the engine
            WITH h AS (SELECT doc_id, source, n_chars,
                              (doc_id * 2654435761) % 4294967296 AS h
                       FROM documents),
            c AS (SELECT doc_id, source,
                         CAST(SUM(n_chars) OVER (
                             PARTITION BY source ORDER BY h, doc_id)
                             AS BIGINT) AS cum_chars
                  FROM h)
            SELECT doc_id, source, cum_chars FROM c
            WHERE cum_chars <= 3000
        """,
        "twa_user_value": """
            -- step-function time-weighted mean of purchase cents,
            -- exact int64 numerator, ONE mirrored float division
            WITH p AS (SELECT user_id, event_id, epoch_us(ts) AS us,
                              CAST(ROUND(value * 100) AS BIGINT)
                                  AS cents
                       FROM events WHERE event_type = 'purchase'),
            w AS (SELECT user_id, cents, us,
                         lead(us) OVER (PARTITION BY user_id
                                        ORDER BY us, event_id) AS nxt
                  FROM p),
            agg AS (SELECT user_id,
                           CAST(SUM(cents * (nxt - us)) AS BIGINT)
                               AS numer,
                           MAX(us) - MIN(us) AS span
                    FROM w GROUP BY user_id)
            SELECT user_id,
                   round(CAST(numer AS DOUBLE) / span, 6) AS twa_cents
            FROM agg WHERE span > 0
        """,
        "embedding_stats": """
            WITH e AS (SELECT generate_subscripts(embedding, 1) AS dim,
                              unnest(CAST(embedding AS DOUBLE[])) AS x
                       FROM embeddings)
            SELECT CAST(dim AS BIGINT) AS dim,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   round(SUM(x) / COUNT(*), 6) AS mean_x,
                   round((SUM(x * x) - SUM(x) * SUM(x) / COUNT(*))
                         / (COUNT(*) - 1), 6) AS var_x
            FROM e GROUP BY dim
        """,
        "scrub_tokens": """
            SELECT doc_id,
                   regexp_replace(text, '\\b(key|hash)\\b',
                                  '<tok>', 'g') AS text_clean,
                   CAST(len(regexp_extract_all(
                        text, '\\b(key|hash)\\b')) AS BIGINT)
                        AS n_redactions
            FROM documents
        """,
        "robust_zscore": """
            WITH v AS (SELECT event_id, event_type,
                              CAST(ROUND(value * 100) AS BIGINT)
                                  AS cents
                       FROM events),
            stats AS (SELECT event_type,
                             quantile_disc(cents, 0.25) AS q25,
                             quantile_disc(cents, 0.5) AS med,
                             quantile_disc(cents, 0.75) AS q75
                      FROM v GROUP BY event_type)
            SELECT v.event_id, v.event_type,
                   CASE WHEN q75 - q25 = 0 THEN 0.0
                        ELSE round(CAST(v.cents - med AS DOUBLE)
                                   / (q75 - q25), 6)
                   END AS robust_z
            FROM v JOIN stats USING (event_type)
        """,
        "overlap_duration": """
            -- total click-window × purchase-window overlap per user,
            -- 30-minute windows, exact integer microseconds
            WITH c AS (SELECT user_id, epoch_us(ts) AS us FROM events
                       WHERE event_type = 'click'),
                 p AS (SELECT user_id, epoch_us(ts) AS us FROM events
                       WHERE event_type = 'purchase')
            SELECT c.user_id,
                   CAST(SUM(LEAST(c.us, p.us) + 1800000000
                       - GREATEST(c.us, p.us)) AS BIGINT) AS overlap_us
            FROM c JOIN p ON c.user_id = p.user_id
              AND LEAST(c.us, p.us) + 1800000000 > GREATEST(c.us, p.us)
            GROUP BY c.user_id
        """,
        "knn_mutual": """
            -- mutual top-5: round-4 cosine, neighbor-id tiebreak
            -- (the knn_bruteforce ranking contract)
            WITH sims AS (
                SELECT a.vec_id AS va, b.vec_id AS vb,
                       round(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])), 4) AS c
                FROM embeddings a JOIN embeddings b
                     ON a.vec_id <> b.vec_id),
            ranked AS (SELECT *, row_number() OVER (
                           PARTITION BY va ORDER BY c DESC, vb) AS rk
                       FROM sims),
            top AS (SELECT va, vb, c FROM ranked WHERE rk <= 5)
            SELECT t1.va AS vec_a, t1.vb AS vec_b, t1.c AS cosine
            FROM top t1 JOIN top t2 ON t1.va = t2.vb AND t1.vb = t2.va
            WHERE t1.va < t1.vb
        """,
        "dedup_containment": """
            -- directed containment: |S(A)∩S(B)| / |S(A)| over the
            -- same distinct 3-shingle sets as the Jaccard oracle
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t
                          FROM documents),
            sh AS (SELECT doc_id,
                    CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                         ELSE list_distinct(list_transform(
                                generate_series(1, len(t) - 2),
                                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))
                    END AS s
                   FROM toks),
            p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         len(list_intersect(a.s, b.s)) AS i,
                         len(a.s) AS la
                  FROM sh a JOIN sh b ON a.doc_id <> b.doc_id)
            SELECT doc_a, doc_b, round(i / la, 6) AS containment
            FROM p WHERE round(i / la, 6) >= 0.8
        """,
        "bfs_fulfillment": """
            -- min-hop BFS from nation-0 customers over the sparse
            -- (quantity-1) fulfillment graph, suppliers offset 2^40
            WITH RECURSIVE e AS (
                SELECT DISTINCT o_custkey AS u,
                       1099511627776 + l_suppkey AS v
                FROM orders JOIN lineitem ON o_orderkey = l_orderkey
                WHERE CAST(ROUND(l_quantity) AS BIGINT) = 1),
            ee AS (SELECT u, v FROM e UNION ALL SELECT v, u FROM e),
            bfs AS (
                SELECT c_custkey AS node_id, 0 AS hops FROM customer
                WHERE c_nationkey = 0
                UNION
                SELECT ee.v, bfs.hops + 1
                FROM bfs JOIN ee ON ee.u = bfs.node_id
                WHERE bfs.hops < 4)
            SELECT node_id, CAST(MIN(hops) AS BIGINT) AS hops
            FROM bfs GROUP BY node_id
        """,
        "tfidf_cosine_pairs": """
            -- exact APSS: integer tf*idf_milli weights, int64 dots and
            -- norms, ONE mirrored float similarity expression
            WITH toks AS (SELECT doc_id,
                                 unnest(string_split(text, ' ')) AS term
                          FROM documents),
            tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks
                   GROUP BY doc_id, term),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            nd AS (SELECT COUNT(*) AS n FROM documents),
            idf AS (SELECT term,
                           CAST(ROUND(LN(CAST(n AS DOUBLE) / df) * 1000)
                                AS BIGINT) AS idf
                    FROM df CROSS JOIN nd),
            w AS (SELECT tf.doc_id, tf.term, tf.tf * idf.idf AS w
                  FROM tf JOIN idf USING (term) WHERE idf.idf > 0),
            norm AS (SELECT doc_id, CAST(SUM(w * w) AS BIGINT) AS n2
                     FROM w GROUP BY doc_id),
            dots AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                            CAST(SUM(a.w * b.w) AS BIGINT) AS dot
                     FROM w a JOIN w b ON a.term = b.term
                                      AND a.doc_id < b.doc_id
                     GROUP BY 1, 2)
            SELECT doc_a, doc_b,
                   CAST(dot AS DOUBLE) / (SQRT(CAST(na.n2 AS DOUBLE))
                        * SQRT(CAST(nb.n2 AS DOUBLE))) AS cos_sim
            FROM dots JOIN norm na ON na.doc_id = doc_a
                      JOIN norm nb ON nb.doc_id = doc_b
            WHERE CAST(dot AS DOUBLE) / (SQRT(CAST(na.n2 AS DOUBLE))
                  * SQRT(CAST(nb.n2 AS DOUBLE))) >= 0.9
        """,
        "copurchase_pairs": """
            -- market-basket pair mining: top 25 co-purchased pairs
            WITH items AS (SELECT DISTINCT l_orderkey, l_partkey
                           FROM lineitem)
            SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                   COUNT(*) AS n_orders
            FROM items a
            JOIN items b ON a.l_orderkey = b.l_orderkey
                        AND a.l_partkey < b.l_partkey
            GROUP BY p1, p2
            ORDER BY n_orders DESC, p1, p2
            LIMIT 25
        """,
        "ewma_user_spend": """
            -- closed-form EWMA (a=0.1, s_1=x_1): per-event terms
            -- quantized to half-away integer micro-units so the
            -- per-user sum is order-independent; ONE float divide
            WITH p AS (
                SELECT user_id, value,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                                          ORDER BY epoch_us(ts),
                                                   event_id) AS rn,
                       COUNT(*) OVER (PARTITION BY user_id) AS n
                FROM events WHERE event_type = 'purchase')
            SELECT user_id,
                   CAST(SUM(CAST(ROUND(
                       (CASE WHEN rn = 1
                             THEN value * POWER(0.9, n - 1)
                             ELSE 0.1 * value * POWER(0.9, n - rn)
                        END) * 1000000) AS BIGINT)) AS BIGINT)
                   / 1000000.0 AS ewma_spend
            FROM p GROUP BY user_id
        """,
        "funnel_conversion": """
            WITH m AS (
                SELECT user_id,
                       MIN(CASE WHEN event_type = 'view'
                                THEN epoch_us(ts) END) AS v,
                       MIN(CASE WHEN event_type = 'click'
                                THEN epoch_us(ts) END) AS c,
                       MIN(CASE WHEN event_type = 'purchase'
                                THEN epoch_us(ts) END) AS p
                FROM events GROUP BY user_id)
            SELECT COUNT(*) FILTER (v IS NOT NULL) AS n_viewed,
                   COUNT(*) FILTER (v IS NOT NULL AND c IS NOT NULL
                                    AND c > v) AS n_view_click,
                   COUNT(*) FILTER (v IS NOT NULL AND c IS NOT NULL
                                    AND c > v AND p IS NOT NULL
                                    AND p > c) AS n_funnel
            FROM m
        """,
        "region_rollup": """
            SELECT r_name, n_name,
                   round(sum(o_totalprice), 2) AS total_price,
                   count(*) AS order_count
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name, n_name
        """,
        "semi_join_customers": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey IN (SELECT o_custkey FROM orders)
        """,
        "anti_join_customers": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN
                (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
        """,
        "merge_old_wins": """
            WITH old AS (SELECT o_orderkey, o_totalprice, 'old' AS src
                         FROM orders WHERE o_orderkey % 2 = 0),
                 new AS (SELECT o_orderkey, o_totalprice, 'new' AS src
                         FROM orders WHERE o_orderkey % 4 = 0)
            SELECT coalesce(old.o_orderkey, new.o_orderkey) AS o_orderkey,
                   coalesce(old.o_totalprice, new.o_totalprice) AS o_totalprice,
                   coalesce(old.src, new.src) AS src
            FROM old FULL OUTER JOIN new ON old.o_orderkey = new.o_orderkey
        """,
        "merge_new_wins": """
            WITH old AS (SELECT o_orderkey, o_totalprice, 'old' AS src
                         FROM orders WHERE o_orderkey % 2 = 0),
                 new AS (SELECT o_orderkey, o_totalprice, 'new' AS src
                         FROM orders WHERE o_orderkey % 4 = 0)
            SELECT coalesce(new.o_orderkey, old.o_orderkey) AS o_orderkey,
                   coalesce(new.o_totalprice, old.o_totalprice) AS o_totalprice,
                   coalesce(new.src, old.src) AS src
            FROM new FULL OUTER JOIN old ON old.o_orderkey = new.o_orderkey
        """,
        "nested_rollup": """
            WITH per_order AS (
                SELECT l_orderkey AS o_orderkey, count(*) AS n_items,
                       sum(l_quantity) AS order_qty
                FROM lineitem GROUP BY l_orderkey)
            SELECT o_custkey,
                   CAST(sum(n_items) AS BIGINT) AS n_items,
                   round(sum(order_qty), 2) AS total_qty,
                   count(*) AS n_orders
            FROM orders JOIN per_order USING (o_orderkey)
            GROUP BY o_custkey
        """,
        "union_index": """
            SELECT c_custkey AS key, c_name AS name, 'customer' AS kind FROM customer
            UNION ALL
            SELECT s_suppkey AS key, s_name AS name, 'supplier' AS kind FROM supplier
        """,
        "top10_customers": """
            WITH per_cust AS (
                SELECT o_custkey, round(sum(o_totalprice), 2) AS spend,
                       count(*) AS n_orders
                FROM orders GROUP BY o_custkey)
            SELECT o_custkey, spend, n_orders, c_name
            FROM per_cust JOIN customer ON o_custkey = c_custkey
            ORDER BY spend DESC, o_custkey LIMIT 10
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   round(sum(value), 2) AS total_value,
                   count(*) AS n_events
            FROM events GROUP BY event_type, hour
        """,
        "sessionize": """
            WITH gaps AS (
                SELECT user_id, ts,
                       CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_session
                FROM events)
            SELECT user_id, count(*) AS n_events,
                   CAST(1 + sum(new_session) AS BIGINT) AS n_sessions
            FROM gaps GROUP BY user_id
        """,
        "distinct_suppliers": """
            SELECT l_partkey, count(DISTINCT l_suppkey) AS n_suppliers
            FROM lineitem GROUP BY l_partkey
        """,
        "doc_stats": """
            SELECT doc_id,
                   array_length(string_split(text, ' ')) AS n_tokens,
                   length(text) AS n_chars,
                   round(len(list_filter(string_split(text, ' '),
                             t -> t IN ('the', 'a', 'value', 'table')))
                         * 1.0 / array_length(string_split(text, ' ')), 6)
                       AS stopword_ratio
            FROM documents
        """,
        "lang_signal": """
            WITH hits AS (
                SELECT doc_id,
                       CAST((length(' ' || text || ' ')
                             - length(replace(' ' || text || ' ', ' the ', ''))) / 5
                            AS BIGINT) AS the_hits,
                       CAST((length(' ' || text || ' ')
                             - length(replace(' ' || text || ' ', ' data ', ''))) / 6
                            AS BIGINT) AS data_hits
                FROM documents)
            SELECT doc_id, the_hits, data_hits,
                   CASE WHEN the_hits > data_hits THEN 'en-like'
                        ELSE 'other' END AS lang_pred
            FROM hits
        """,
        "token_count": """
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+')) AS n_regex_tokens
            FROM documents
        """,
        "doc_fingerprint": """
            SELECT doc_id,
                   md5(array_to_string(list_sort(list_distinct(
                       string_split(text, ' '))), ' ')) AS fingerprint
            FROM documents
        """,
        "dedup_exact": """
            SELECT md5(text) AS content_hash, min(doc_id) AS rep_doc_id,
                   count(*) AS n_docs
            FROM documents GROUP BY md5(text)
        """,
        "dedup_prefix": """
            SELECT md5(substr(text, 1, 20)) AS content_hash,
                   min(doc_id) AS rep_doc_id, count(*) AS n_docs
            FROM documents GROUP BY md5(substr(text, 1, 20))
        """,
        # exact all-pairs 3-gram Jaccard (the engine's prefix filter is
        # exact, so the brute-force cross join is a true oracle); docs
        # shorter than 3 tokens contribute one whole-text shingle,
        # mirroring ops/dedup.py::_token_hashes; jaccard is rounded to
        # 6 decimals BEFORE the threshold filter on both sides
        "dedup_ngram_jaccard": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t
                          FROM documents),
            sh AS (SELECT doc_id,
                    CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                         ELSE list_distinct(list_transform(
                                generate_series(1, len(t) - 2),
                                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))
                    END AS s
                   FROM toks),
            p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         len(list_intersect(a.s, b.s)) AS i,
                         len(a.s) AS la, len(b.s) AS lb
                  FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
            SELECT doc_a, doc_b, round(i / (la + lb - i), 6) AS jaccard
            FROM p WHERE round(i / (la + lb - i), 6) >= 0.5
        """,
        "knn_bruteforce": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id IN (0, 1, 2)),
                 sims AS (
                SELECT q.query_id, e.vec_id AS neighbor_id,
                       round(list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]),
                           CAST(q.qe AS DOUBLE[])), 4) AS cosine
                FROM embeddings e CROSS JOIN q
                WHERE e.vec_id <> q.query_id),
                 ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY query_id
                    ORDER BY cosine DESC, neighbor_id) AS rk
                FROM sims)
            SELECT query_id, neighbor_id, cosine FROM ranked WHERE rk <= 5
        """,
        "top3_orders_per_cust": """
            SELECT o_custkey, o_orderkey, o_totalprice FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       row_number() OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) AS rk
                FROM orders) WHERE rk <= 3
        """,
        "median_order_value": """
            SELECT o_custkey, quantile_disc(o_totalprice, 0.5)
                   AS median_price
            FROM orders GROUP BY o_custkey
        """,
        "running_user_spend": """
            SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                   CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id) AS BIGINT)
                       AS cum_cents
            FROM events WHERE event_type = 'purchase'
        """,
        "cust_order_stats": """
            SELECT o_custkey, COUNT(*) AS n_orders,
                   CAST(SUM(c) AS BIGINT) AS sum_cents,
                   MIN(c) AS min_cents, MAX(c) AS max_cents
            FROM (SELECT o_custkey,
                         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c
                  FROM orders)
            GROUP BY o_custkey
        """,
        "median_cents_cont": """
            SELECT o_custkey,
                   quantile_cont(CAST(ROUND(o_totalprice * 100) AS BIGINT),
                                 0.5) AS median_cents
            FROM orders GROUP BY o_custkey
        """,
        "rolling_user_spend": """
            SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                   CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id
                       ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
                       AS BIGINT) AS last4_cents
            FROM events WHERE event_type = 'purchase'
        """,
        "lag_purchase_gap": """
            SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                   COALESCE(LAG(epoch_us(ts)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id), -1) AS prev_ts_us
            FROM events WHERE event_type = 'purchase'
        """,
        "lead_purchase_gap": """
            SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                   COALESCE(LEAD(epoch_us(ts)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id), -1) AS next_ts_us
            FROM events WHERE event_type = 'purchase'
        """,
        "order_value_pctiles": """
            SELECT o_custkey, o_orderkey, cents,
                   PERCENT_RANK() OVER (PARTITION BY o_custkey
                                        ORDER BY cents) AS pct_rank,
                   CUME_DIST() OVER (PARTITION BY o_custkey
                                     ORDER BY cents) AS cume_dist
            FROM (SELECT o_custkey, o_orderkey,
                         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
                  FROM orders)
        """,
        "first_last_purchase": """
            SELECT DISTINCT user_id,
                   FIRST_VALUE(cents) OVER (
                       PARTITION BY user_id
                       ORDER BY ts_us, event_id) AS first_cents,
                   LAST_VALUE(cents) OVER (
                       PARTITION BY user_id
                       ORDER BY ts_us, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                            AND UNBOUNDED FOLLOWING) AS last_cents
            FROM (SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                         CAST(ROUND(value * 100) AS BIGINT) AS cents
                  FROM events WHERE event_type = 'purchase')
        """,
        "urgent_orders_pruned": """
            SELECT o_orderkey, o_totalprice FROM orders
            WHERE o_orderpriority = '1-URGENT'
        """,
        # triangle count: sorted-id 3-way self-join — each triangle
        # (p1<p2<p3) counted once, matching the engine's one-count-per-
        # minimum-degree-vertex orientation
        "triangle_parts": """
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
                 e AS (SELECT DISTINCT a.l_partkey AS pa,
                              b.l_partkey AS pb
                       FROM op a JOIN op b
                         ON a.l_orderkey = b.l_orderkey
                        AND a.l_partkey < b.l_partkey)
            SELECT COUNT(*) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.pa = e1.pa AND e2.pb > e1.pb
            JOIN e e3 ON e3.pa = e1.pb AND e3.pb = e2.pb
        """,
        "cust_order_distribution": """
            SELECT n_orders, COUNT(*) AS n_custs
            FROM (SELECT c_custkey, COUNT(o_orderkey) AS n_orders
                  FROM customer LEFT JOIN orders ON c_custkey = o_custkey
                  GROUP BY c_custkey)
            GROUP BY n_orders
        """,
        "large_volume_orders": """
            SELECT o_orderkey, o_custkey, ROUND(o_totalprice, 2)
                       AS o_totalprice,
                   ROUND(sum_qty, 2) AS sum_qty
            FROM orders JOIN (
                SELECT l_orderkey, SUM(l_quantity) AS sum_qty
                FROM lineitem GROUP BY l_orderkey
                HAVING SUM(l_quantity) > 180.0) q
            ON o_orderkey = q.l_orderkey
        """,
        "priority_late_orders": """
            SELECT o_orderpriority, COUNT(*) AS n_orders
            FROM orders
            WHERE EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_shipdate > o_orderdate)
            GROUP BY o_orderpriority
        """,
        "price_moments": """
            -- expression order mirrors grouped_moments (bit-identical)
            WITH s AS (
                SELECT l_returnflag,
                       CAST(COUNT(*) AS DOUBLE) AS nf,
                       CAST(SUM(x) AS DOUBLE) AS s1,
                       CAST(SUM(x*x) AS DOUBLE) AS s2,
                       CAST(SUM(x*x*x) AS DOUBLE) AS s3,
                       CAST(SUM(x*x*x*x) AS DOUBLE) AS s4
                FROM (SELECT l_returnflag,
                             CAST(ROUND(l_quantity) AS BIGINT) AS x
                      FROM lineitem)
                GROUP BY l_returnflag),
            m AS (
                SELECT l_returnflag, nf, s1, s2, s3, s4,
                       s2 - s1*s1/nf AS m2,
                       s3 - 3.0*s2*s1/nf + 2.0*s1*s1*s1/(nf*nf) AS m3,
                       s4 - 4.0*s3*s1/nf + 6.0*s2*s1*s1/(nf*nf)
                          - 3.0*s1*s1*s1*s1/(nf*nf*nf) AS m4
                FROM s)
            SELECT l_returnflag,
                   SQRT(nf) * m3 / POW(m2, 1.5) AS qty_skew,
                   nf * m4 / (m2*m2) - 3.0 AS qty_kurt
            FROM m
        """,
        "promo_revenue_ratio": """
            -- exact int64 revenue units; ONE mirrored float expression
            SELECT 100.0 * CAST(SUM(CASE WHEN p_type = 'ECONOMY'
                                         THEN v ELSE 0 END) AS DOUBLE)
                         / CAST(SUM(v) AS DOUBLE) AS promo_ratio
            FROM (SELECT l_partkey,
                         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                             AS v
                  FROM lineitem) li
            JOIN part ON p_partkey = li.l_partkey
        """,
        "weighted_avg_discount": """
            -- exact int sums; ONE float division mirrored in the engine
            SELECT l_returnflag,
                   CAST(SUM(cents * pct) AS DOUBLE)
                       / CAST(SUM(cents) AS DOUBLE) / 100.0
                       AS wavg_discount
            FROM (SELECT l_returnflag,
                         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                             AS cents,
                         CAST(ROUND(l_discount * 100) AS BIGINT) AS pct
                  FROM lineitem)
            GROUP BY l_returnflag
        """,
        "user_spend_zscore": """
            -- z = (n·x − s)/√(n·ssq − s²): expression mirrors the
            -- engine's single float64 evaluation over exact int sums
            WITH c AS (SELECT event_id, user_id,
                              CAST(ROUND(value * 100) AS BIGINT) AS x
                       FROM events),
            m AS (SELECT user_id, COUNT(*) AS n, SUM(x) AS s,
                         SUM(x*x) AS ssq
                  FROM c GROUP BY user_id)
            SELECT c.event_id,
                   CAST(m.n*c.x - m.s AS DOUBLE)
                       / SQRT(CAST(m.n*m.ssq - m.s*m.s AS DOUBLE)) AS zscore
            FROM c JOIN m ON c.user_id = m.user_id
            WHERE m.n*m.ssq - m.s*m.s > 0
        """,
        "orders_above_p99": """
            SELECT o_orderkey, o_custkey, ROUND(o_totalprice, 2)
                       AS o_totalprice
            FROM orders
            WHERE CAST(ROUND(o_totalprice * 100) AS BIGINT) >
                  (SELECT quantile_disc(CAST(ROUND(o_totalprice * 100)
                                             AS BIGINT), 0.99)
                   FROM orders)
        """,
        "doc_dup_spans": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t
                          FROM documents),
            wins AS (SELECT doc_id, i AS off,
                            array_to_string(t[i+1:i+6], ' ') AS gram
                     FROM toks, UNNEST(range(len(t) - 5)) AS u(i)),
            dup AS (SELECT gram FROM wins
                    GROUP BY gram HAVING COUNT(DISTINCT doc_id) > 1),
            dw AS (SELECT DISTINCT w.doc_id, w.off
                   FROM wins w JOIN dup USING (gram)),
            isl AS (SELECT doc_id, off,
                           off - ROW_NUMBER() OVER (PARTITION BY doc_id
                                                    ORDER BY off) AS grp
                    FROM dw)
            SELECT doc_id, MIN(off) AS span_start,
                   MAX(off) + 6 AS span_end
            FROM isl GROUP BY doc_id, grp
        """,
        "doc_decontaminate": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t
                          FROM documents),
            sh AS (SELECT doc_id, array_to_string(t[i+1:i+4], ' ') AS s
                   FROM toks, UNNEST(range(len(t) - 3)) AS u(i)),
            bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 10 = 0)
            SELECT doc_id, COUNT(DISTINCT s) AS n_hits
            FROM sh
            WHERE doc_id % 10 <> 0 AND s IN (SELECT s FROM bench)
            GROUP BY doc_id
        """,
        "doc_chunks": """
            SELECT doc_id, u.chunk_id,
                   LEAST(32, len(toks) - 32*u.chunk_id) AS n_tokens,
                   toks[32*u.chunk_id + 1] AS first_tok
            FROM (SELECT doc_id, string_split(text, ' ') AS toks
                  FROM documents),
                 UNNEST(range(CAST(CEIL(len(toks)/32.0) AS BIGINT)))
                     AS u(chunk_id)
        """,
        # TPC-H Q17 shape; the 0.2·avg threshold kept in exact integers
        # (5·qty·cnt < Σqty) so no division/rounding rule can diverge
        "small_qty_revenue": """
            SELECT CAST(COALESCE(SUM(CAST(ROUND(l_extendedprice * 100)
                                          AS BIGINT)), 0) AS BIGINT)
                   AS revenue_cents
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_brand = 'Brand#1'
              AND 5 * CAST(ROUND(l_quantity) AS BIGINT)
                  * (SELECT COUNT(*) FROM lineitem l2
                     WHERE l2.l_partkey = lineitem.l_partkey)
                < (SELECT SUM(CAST(ROUND(l2.l_quantity) AS BIGINT))
                   FROM lineitem l2
                   WHERE l2.l_partkey = lineitem.l_partkey)
        """,
        # TPC-H Q21 shape in DuckDB's literal EXISTS / NOT-EXISTS form
        # — the engine's per-order distinct-aggregate formulation and
        # this quantifier form check each other
        "late_sole_supplier": """
            SELECT l1.l_suppkey AS s_suppkey,
                   COUNT(DISTINCT l1.l_orderkey) AS numwait
            FROM lineitem l1 JOIN orders o
                 ON o.o_orderkey = l1.l_orderkey
            WHERE l1.l_shipdate > o.o_orderdate + INTERVAL 45 DAY
              AND EXISTS (SELECT 1 FROM lineitem l2
                          WHERE l2.l_orderkey = l1.l_orderkey
                            AND l2.l_suppkey <> l1.l_suppkey)
              AND NOT EXISTS (SELECT 1 FROM lineitem l3
                              WHERE l3.l_orderkey = l1.l_orderkey
                                AND l3.l_suppkey <> l1.l_suppkey
                                AND l3.l_shipdate >
                                    o.o_orderdate + INTERVAL 45 DAY)
            GROUP BY 1
        """,
        # TPC-H Q11 shape: HAVING against a global aggregate scalar,
        # all-integer compare (value·1000 > total ⇔ value > 0.1%·total)
        "stock_value_parts": """
            WITH v AS (SELECT l_partkey,
                              CAST(SUM(CAST(ROUND(l_extendedprice * 100)
                                            AS BIGINT)) AS BIGINT)
                              AS value_cents
                       FROM lineitem GROUP BY 1)
            SELECT l_partkey, value_cents FROM v
            WHERE value_cents * (SELECT COUNT(*) FROM v) * 10
                  > 11 * (SELECT SUM(value_cents) FROM v)
        """,
        "shuffle_corpus": """
            WITH h AS (SELECT doc_id,
                              ((doc_id * 2654435761) % 4294967296) % 8
                                  AS shard_id,
                              (doc_id * 2246822519) % 4294967296 AS h2
                       FROM documents)
            SELECT doc_id, shard_id,
                   ROW_NUMBER() OVER (PARTITION BY shard_id
                                      ORDER BY h2, doc_id) AS pos
            FROM h
        """,
        "pack_token_windows": """
            WITH t AS (SELECT doc_id,
                              len(string_split(text, ' ')) AS n_tokens
                       FROM documents),
            s AS (SELECT doc_id, n_tokens,
                         CAST(COALESCE(SUM(n_tokens) OVER (
                              ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING), 0) AS BIGINT)
                         AS start_tok
                  FROM t)
            SELECT doc_id, n_tokens, start_tok,
                   start_tok // 256 AS first_window,
                   (start_tok + n_tokens - 1) // 256 AS last_window
            FROM s
        """,
        # the same three argmin hops as the engine, unrolled; the
        # packed-int64 MIN (hash·2^31 + node, hash < 2^31, ids < 2^31)
        # keeps every product under 2^62 — exact on both engines
        "graph_walks": """
            WITH adj AS (SELECT DISTINCT o_custkey AS c, l_suppkey AS s
                         FROM orders JOIN lineitem
                              ON o_orderkey = l_orderkey),
            h1 AS (SELECT c AS walk,
                          MIN((((s + 1) * 1103515245 + 1 * 12345)
                               % 2147483647) * 2147483648 + s) AS pk
                   FROM adj GROUP BY 1),
            n1 AS (SELECT walk, pk % 2147483648 AS hop1 FROM h1),
            h2 AS (SELECT n1.walk,
                          MIN((((a.c + 1) * 1103515245 + 2 * 12345)
                               % 2147483647) * 2147483648 + a.c) AS pk
                   FROM n1 JOIN adj a ON a.s = n1.hop1 GROUP BY 1),
            n2 AS (SELECT walk, pk % 2147483648 AS hop2 FROM h2),
            h3 AS (SELECT n2.walk,
                          MIN((((a.s + 1) * 1103515245 + 3 * 12345)
                               % 2147483647) * 2147483648 + a.s) AS pk
                   FROM n2 JOIN adj a ON a.c = n2.hop2 GROUP BY 1),
            n3 AS (SELECT walk, pk % 2147483648 AS hop3 FROM h3)
            SELECT n1.walk, hop1, hop2, hop3
            FROM n1 JOIN n2 ON n1.walk = n2.walk
                 JOIN n3 ON n2.walk = n3.walk
        """,
        "top_suppliers_per_nation": """
            WITH rev AS (SELECT l_suppkey AS s_suppkey,
                                CAST(SUM(CAST(ROUND(l_extendedprice
                                                    * 100) AS BIGINT))
                                     AS BIGINT) AS revenue_cents
                         FROM lineitem GROUP BY 1)
            SELECT s_nationkey, s_suppkey, revenue_cents FROM (
                SELECT s_nationkey, rev.s_suppkey, revenue_cents,
                       ROW_NUMBER() OVER (
                           PARTITION BY s_nationkey
                           ORDER BY revenue_cents DESC,
                                    rev.s_suppkey) AS rn
                FROM rev JOIN supplier
                     ON supplier.s_suppkey = rev.s_suppkey)
            WHERE rn <= 3
        """,
        # 3 HITS iterations unrolled; sum-normalized each half-step;
        # round-6 on both engines (the pagerank float contract)
        "hits_suppliers": """
            WITH adj AS (SELECT DISTINCT o_custkey AS c,
                                l_suppkey AS s
                         FROM orders JOIN lineitem
                              ON o_orderkey = l_orderkey),
            a1r AS (SELECT s, CAST(COUNT(*) AS DOUBLE) AS v
                    FROM adj GROUP BY s),
            a1 AS (SELECT s, v / (SELECT SUM(v) FROM a1r) AS auth
                   FROM a1r),
            h1r AS (SELECT c, SUM(a1.auth) AS v
                    FROM adj JOIN a1 USING (s) GROUP BY c),
            h1 AS (SELECT c, v / (SELECT SUM(v) FROM h1r) AS hub
                   FROM h1r),
            a2r AS (SELECT s, SUM(h1.hub) AS v
                    FROM adj JOIN h1 USING (c) GROUP BY s),
            a2 AS (SELECT s, v / (SELECT SUM(v) FROM a2r) AS auth
                   FROM a2r),
            h2r AS (SELECT c, SUM(a2.auth) AS v
                    FROM adj JOIN a2 USING (s) GROUP BY c),
            h2 AS (SELECT c, v / (SELECT SUM(v) FROM h2r) AS hub
                   FROM h2r),
            a3r AS (SELECT s, SUM(h2.hub) AS v
                    FROM adj JOIN h2 USING (c) GROUP BY s),
            a3 AS (SELECT s, v / (SELECT SUM(v) FROM a3r) AS auth
                   FROM a3r)
            SELECT s AS s_suppkey, ROUND(auth, 6) AS authority
            FROM a3
        """,
        # TPC-H Q22 shape: strictly-above-average compare in exact
        # integers (cents·n > total), anti-join to orders
        "idle_rich_customers": """
            WITH pos AS (SELECT c_custkey,
                                CAST(ROUND(c_acctbal * 100) AS BIGINT)
                                AS cents
                         FROM customer
                         WHERE ROUND(c_acctbal * 100) > 0)
            SELECT c_custkey, cents FROM pos
            WHERE cents * (SELECT COUNT(*) FROM pos)
                  > (SELECT SUM(cents) FROM pos)
              AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderpriority = '1-URGENT')
        """,
        "winsorized_user_spend": """
            WITH p AS (SELECT event_id, user_id,
                              CAST(ROUND(value * 100) AS BIGINT)
                              AS cents
                       FROM events WHERE event_type = 'purchase'),
            q AS (SELECT user_id, quantile_disc(cents, 0.9) AS p90
                  FROM p GROUP BY 1)
            SELECT p.event_id, LEAST(p.cents, q.p90) AS clipped_cents
            FROM p JOIN q USING (user_id)
        """,
        "nation_trade_volume": """
            SELECT sn.n_name AS supp_nation,
                   cn.n_name AS cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_e4
            FROM lineitem
            JOIN orders   ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation sn ON s_nationkey = sn.n_nationkey
            JOIN nation cn ON c_nationkey = cn.n_nationkey
            WHERE sn.n_nationkey <> cn.n_nationkey
            GROUP BY 1, 2, 3
        """,
        "brand_year_profit": """
            SELECT p_brand,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l_discount * 100)
                                          AS BIGINT))
                            - CAST(ROUND(p_retailprice * 100) AS BIGINT)
                              * CAST(ROUND(l_quantity) AS BIGINT) * 100)
                        AS BIGINT) AS profit_e4
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY 1, 2
        """,
        # same exact integer moments + identical float expression as
        # grouped_regression's final() — keep in sync
        "price_qty_regression": """
            WITH s AS (
                SELECT l_returnflag,
                       CAST(COUNT(*) AS DOUBLE) AS nf,
                       CAST(SUM(x) AS DOUBLE) AS sx,
                       CAST(SUM(y) AS DOUBLE) AS sy,
                       CAST(SUM(x * y) AS DOUBLE) AS sxy,
                       CAST(SUM(x * x) AS DOUBLE) AS sxx
                FROM (SELECT l_returnflag,
                             CAST(ROUND(l_quantity) AS BIGINT) AS x,
                             CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                                 AS y
                      FROM lineitem)
                GROUP BY l_returnflag)
            SELECT l_returnflag,
                   (nf * sxy - sx * sy) / (nf * sxx - sx * sx) AS slope,
                   (sy - (nf * sxy - sx * sy) / (nf * sxx - sx * sx)
                         * sx) / nf AS icept
            FROM s
        """,
        # dominance: price <= AND size >= with at least one strict;
        # exact duplicates never dominate each other (both kept)
        "pareto_parts": """
            WITH p AS (SELECT p_partkey,
                              CAST(ROUND(p_retailprice * 100) AS BIGINT)
                                  AS price_cents,
                              p_size
                       FROM part)
            SELECT p_partkey, price_cents, p_size FROM p a
            WHERE NOT EXISTS (
                SELECT 1 FROM p b
                WHERE b.price_cents <= a.price_cents
                  AND b.p_size >= a.p_size
                  AND (b.price_cents < a.price_cents
                       OR b.p_size > a.p_size))
        """,
        # float expression mirrored verbatim from bm25_term_scores
        # (decimal literals 2.2 / 1.2 / 0.25 / 0.75); ln() is
        # transcendental -> round-6 contract on both sides
        "bm25_docs": """
            WITH d AS (SELECT doc_id,
                              len(string_split(text, ' ')) AS dl
                       FROM documents),
            s AS (SELECT COUNT(*) AS n, SUM(dl) AS tot FROM d),
            tok AS (SELECT doc_id, u.term AS term
                    FROM documents,
                         UNNEST(string_split(text, ' ')) AS u(term)
                    WHERE u.term IN ('join', 'sort', 'window',
                                     'vector')),
            tf AS (SELECT doc_id, term, COUNT(*) AS tf
                   FROM tok GROUP BY doc_id, term),
            df AS (SELECT term, COUNT(DISTINCT doc_id) AS df
                   FROM tok GROUP BY term)
            SELECT tf.doc_id, tf.term,
                   ROUND(ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                         * (tf.tf * 2.2)
                         / (tf.tf + 1.2 * (0.25 + 0.75 * d.dl
                            / (CAST(s.tot AS DOUBLE) / s.n))), 6)
                       AS bm25
            FROM tf CROSS JOIN s
            JOIN df ON tf.term = df.term
            JOIN d ON tf.doc_id = d.doc_id
        """,
        "similar_part_names": """
            SELECT a.p_partkey AS key_a, b.p_partkey AS key_b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT)
                       AS dist
            FROM part a JOIN part b
              ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
                 AND levenshtein(a.p_name, b.p_name) <= 2
        """,
        # Q2 shape: cheapest observed line price per size-15 part,
        # ROW_NUMBER ties to the smallest suppkey
        "cheapest_supplier_per_part": """
            WITH costs AS (
                SELECT l_partkey AS p_partkey,
                       CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                           AS min_cents,
                       l_suppkey AS s_suppkey
                FROM lineitem
                WHERE l_partkey IN
                    (SELECT p_partkey FROM part WHERE p_size = 15)),
            w AS (SELECT p_partkey, min_cents, s_suppkey,
                         ROW_NUMBER() OVER (PARTITION BY p_partkey
                             ORDER BY min_cents, s_suppkey) AS rn
                  FROM costs)
            SELECT p_partkey, min_cents, w.s_suppkey, s_name, n_name
            FROM w
            JOIN supplier ON w.s_suppkey = supplier.s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE rn = 1
        """,
        # Q8 shape: exact int64 e4 sums per year, ONE mirrored double
        # division (the promo_revenue_ratio contract)
        "nation_market_share": """
            WITH j AS (
                SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                       CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                           AS rev,
                       sn.n_name AS supp_nation
                FROM lineitem
                JOIN orders   ON l_orderkey = o_orderkey
                JOIN customer ON o_custkey = c_custkey
                JOIN nation cn ON c_nationkey = cn.n_nationkey
                JOIN region   ON cn.n_regionkey = r_regionkey
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation sn ON s_nationkey = sn.n_nationkey
                WHERE r_name = 'AMERICA')
            SELECT o_year,
                   CAST(SUM(CASE WHEN supp_nation = 'NATION_3'
                                 THEN rev ELSE 0 END) AS DOUBLE)
                       / CAST(SUM(rev) AS DOUBLE) AS mkt_share
            FROM j GROUP BY o_year
        """,
        # Q10 shape: top-20 by returned revenue, suppkey-deterministic
        "returned_item_revenue": """
            WITH agg AS (
                SELECT o_custkey,
                       CAST(SUM(CAST(ROUND(l_extendedprice * 100)
                                     AS BIGINT)
                                * (100 - CAST(ROUND(l_discount * 100)
                                              AS BIGINT))) AS BIGINT)
                           AS revenue_e4
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                WHERE l_returnflag = 'R'
                  AND o_orderdate >= DATE '1996-01-01'
                  AND o_orderdate <  DATE '1996-04-01'
                GROUP BY o_custkey)
            SELECT c_custkey, c_name, revenue_e4, c_acctbal, n_name
            FROM agg
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            ORDER BY revenue_e4 DESC, c_custkey
            LIMIT 20
        """,
        # Q15 shape: join-back on the global max, ties all kept
        "top_revenue_supplier": """
            WITH agg AS (
                SELECT l_suppkey AS s_suppkey,
                       CAST(SUM(CAST(ROUND(l_extendedprice * 100)
                                     AS BIGINT)
                                * (100 - CAST(ROUND(l_discount * 100)
                                              AS BIGINT))) AS BIGINT)
                           AS total_revenue_e4
                FROM lineitem
                WHERE l_shipdate >= DATE '1996-01-01'
                  AND l_shipdate <  DATE '1996-04-01'
                GROUP BY l_suppkey)
            SELECT a.s_suppkey, s_name, total_revenue_e4
            FROM agg a JOIN supplier ON a.s_suppkey = supplier.s_suppkey
            WHERE total_revenue_e4 =
                (SELECT MAX(total_revenue_e4) FROM agg)
        """,
        # Q20 shape: nested aggregate feeding an exact-integer
        # fair-share dominance filter (2*qty*n_suppliers > 3*total)
        "dominant_part_suppliers": """
            WITH ps AS (
                SELECT l_partkey, l_suppkey,
                       CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT))
                            AS BIGINT) AS qty
                FROM lineitem
                WHERE l_partkey IN
                    (SELECT p_partkey FROM part WHERE p_type = 'LARGE')
                GROUP BY l_partkey, l_suppkey),
            tot AS (SELECT l_partkey,
                           CAST(SUM(qty) AS BIGINT) AS part_total,
                           COUNT(*) AS ns
                    FROM ps GROUP BY l_partkey)
            SELECT ps.l_partkey AS p_partkey,
                   ps.l_suppkey AS s_suppkey,
                   s_name, qty, part_total
            FROM ps
            JOIN tot ON ps.l_partkey = tot.l_partkey
            JOIN supplier ON ps.l_suppkey = supplier.s_suppkey
            WHERE 2 * qty * ns > 3 * part_total
        """,
        # Markov transition matrix: LEAD over each user's stream
        "transition_entropy": """
            WITH s AS (
                SELECT event_type,
                       LEAD(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS next_type
                FROM events),
            c AS (SELECT event_type, next_type, COUNT(*) AS n
                  FROM s WHERE next_type IS NOT NULL
                  GROUP BY event_type, next_type),
            t AS (SELECT SUM(n) AS tot, COUNT(*) AS cells FROM c)
            SELECT ROUND(-SUM((CAST(n AS DOUBLE) / t.tot)
                              * LN(CAST(n AS DOUBLE) / t.tot)), 6)
                       AS entropy,
                   CAST(t.tot AS BIGINT) AS n_steps,
                   CAST(t.cells AS BIGINT) AS n_cells
            FROM c, t GROUP BY t.tot, t.cells
        """,
        "theil_customer_spend": """
            WITH sp AS (SELECT o_custkey,
                            CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                          AS BIGINT)) AS BIGINT) AS x
                        FROM orders GROUP BY 1),
            agg AS (SELECT SUM(x) AS s, COUNT(*) AS n,
                        SUM(x * CAST(ROUND(ROUND(LN(
                            CAST(x AS DOUBLE)), 6) * 1000000)
                            AS BIGINT)) AS xs
                    FROM sp)
            SELECT ROUND(
                (CAST(xs AS DOUBLE) / 1000000.0)
                / (CAST(n AS DOUBLE) * (CAST(s AS DOUBLE) / n))
                - LN(CAST(s AS DOUBLE) / n), 6) AS theil,
                CAST(n AS BIGINT) AS n_customers
            FROM agg
        """,
        "event_transitions": """
            WITH s AS (
                SELECT event_type,
                       LEAD(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS next_type
                FROM events)
            SELECT event_type, next_type, COUNT(*) AS n
            FROM s WHERE next_type IS NOT NULL
            GROUP BY event_type, next_type
        """,
        # window-over-aggregate: month revenue + MoM growth; the
        # corpus-first month (no prior) is dropped on both sides
        "monthly_revenue_growth": """
            WITH m AS (
                SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                       CAST(month(o_orderdate) AS BIGINT) AS o_month,
                       CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                     AS BIGINT)) AS BIGINT) AS cents
                FROM orders GROUP BY 1, 2),
            l AS (SELECT o_year, o_month, cents,
                         LAG(cents) OVER (ORDER BY o_year * 12 + o_month)
                             AS prev
                  FROM m)
            SELECT o_year, o_month, cents,
                   (CAST(cents AS DOUBLE) - CAST(prev AS DOUBLE))
                       / CAST(prev AS DOUBLE) AS growth
            FROM l WHERE prev IS NOT NULL
        """,
        # collocation PMI: exact int counts, ONE mirrored ln expression
        "bigram_pmi": """
            WITH toks AS (SELECT string_split(text, ' ') AS t
                          FROM documents),
            bg AS (SELECT w1, w2, COUNT(*) AS c_xy FROM (
                     SELECT unnest(t[1:len(t)-1]) AS w1,
                            unnest(t[2:len(t)]) AS w2
                     FROM toks WHERE len(t) >= 2)
                   GROUP BY w1, w2),
            u AS (SELECT term, COUNT(*) AS c FROM (
                    SELECT unnest(t) AS term FROM toks) GROUP BY term),
            tot AS (SELECT
                    CAST((SELECT SUM(c) FROM u) AS DOUBLE) AS nf,
                    CAST((SELECT SUM(c_xy) FROM bg) AS DOUBLE) AS mf)
            SELECT w1, w2, c_xy,
                   round(ln(CAST(c_xy AS DOUBLE) * nf * nf
                            / (mf * CAST(ux.c AS DOUBLE)
                               * CAST(uy.c AS DOUBLE))), 6) AS pmi
            FROM bg
            JOIN u ux ON bg.w1 = ux.term
            JOIN u uy ON bg.w2 = uy.term, tot
        """,
        # Zipf OLS fit: identical closed form over ln moments, round-6
        "zipf_slope": """
            WITH u AS (SELECT term, COUNT(*) AS c FROM (
                         SELECT unnest(string_split(text, ' ')) AS term
                         FROM documents) GROUP BY term),
            r AS (SELECT ln(CAST(row_number() OVER
                                 (ORDER BY c DESC, term) AS DOUBLE)) AS x,
                         ln(CAST(c AS DOUBLE)) AS y
                  FROM u ORDER BY c DESC, term LIMIT 1000),
            s AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nf,
                         SUM(x) AS sx, SUM(y) AS sy,
                         SUM(x * y) AS sxy, SUM(x * x) AS sxx
                  FROM r)
            SELECT round((nf * sxy - sx * sy)
                         / (nf * sxx - sx * sx), 6) AS slope,
                   round((sy - (nf * sxy - sx * sy)
                               / (nf * sxx - sx * sx) * sx) / nf, 6)
                       AS icept
            FROM s
        """,
        # hybrid retrieval RRF: ranks decided on round-4 scores with
        # vec_id tie-breaks (the knn contract), fused score round-6
        "hybrid_search_rrf": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id IN (0, 1, 2)),
            sims AS (
                SELECT q.query_id, e.vec_id,
                       round(list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]),
                           CAST(q.qe AS DOUBLE[])), 4) AS cos,
                       round(list_distance(
                           CAST(e.embedding AS DOUBLE[]),
                           CAST(q.qe AS DOUBLE[])), 4) AS l2
                FROM embeddings e CROSS JOIN q
                WHERE e.vec_id <> q.query_id),
            rc AS (SELECT query_id, vec_id, row_number() OVER (
                       PARTITION BY query_id ORDER BY cos DESC, vec_id)
                       AS r_cos FROM sims),
            rl AS (SELECT query_id, vec_id, row_number() OVER (
                       PARTITION BY query_id ORDER BY l2, vec_id)
                       AS r_l2 FROM sims),
            f AS (SELECT COALESCE(rc.query_id, rl.query_id) AS query_id,
                         COALESCE(rc.vec_id, rl.vec_id) AS vec_id,
                         round(COALESCE(1.0 / (60 + r_cos), 0)
                               + COALESCE(1.0 / (60 + r_l2), 0), 6)
                             AS rrf
                  FROM (SELECT * FROM rc WHERE r_cos <= 20) rc
                  FULL OUTER JOIN
                       (SELECT * FROM rl WHERE r_l2 <= 20) rl
                    ON rc.query_id = rl.query_id
                   AND rc.vec_id = rl.vec_id),
            ranked AS (SELECT *, row_number() OVER (
                           PARTITION BY query_id
                           ORDER BY rrf DESC, vec_id) AS rk FROM f)
            SELECT query_id, vec_id, rrf FROM ranked WHERE rk <= 10
        """,
        # TPC-H Q16 shape: NOT IN complaint suppliers, COUNT DISTINCT
        "parts_supplier_counts": f"""
            SELECT p_brand, p_size,
                   COUNT(DISTINCT l_suppkey) AS supplier_cnt
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_type <> 'PROMO'
              AND p_size IN {Q16_SIZES!r}
              AND l_suppkey NOT IN (
                  SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
            GROUP BY p_brand, p_size
        """,
        # TPC-H Q19 shape: three OR'd deal branches, exact-cents
        # revenue per branch (the house revenue_e4 contract)
        "special_deal_revenue": "\nUNION ALL\n".join(f"""
            SELECT '{name}' AS branch,
                   CAST(COALESCE(SUM(
                       CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                   ), 0) AS BIGINT) AS revenue_e4
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_brand = '{brand}'
              AND p_size BETWEEN {slo} AND {shi}
              AND l_quantity BETWEEN {qlo} AND {qhi}
        """ for name, brand, slo, shi, qlo, qhi in Q19_BRANCHES),
        # bigram-LM NLL: integer micro-nat sums (order-independent),
        # one mirrored round-6 ln expression per bigram type
        "doc_perplexity": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t
                          FROM documents),
            bgd AS (SELECT doc_id,
                           unnest(t[1:len(t)-1]) AS w1,
                           unnest(t[2:len(t)]) AS w2
                    FROM toks WHERE len(t) >= 2),
            bg AS (SELECT w1, w2, COUNT(*) AS c_xy FROM bgd
                   GROUP BY w1, w2),
            u AS (SELECT term, COUNT(*) AS c FROM (
                    SELECT unnest(t) AS term FROM toks) GROUP BY term),
            v AS (SELECT CAST(COUNT(*) AS DOUBLE) AS vocab FROM u)
            SELECT bgd.doc_id,
                   COUNT(*) AS n_bigrams,
                   -(CAST(SUM(CAST(round(round(ln(
                       (CAST(bg.c_xy AS DOUBLE) + 1.0)
                       / (CAST(ux.c AS DOUBLE) + vocab)), 6)
                       * 1000000) AS BIGINT)) AS DOUBLE) / 1000000.0)
                       / CAST(COUNT(*) AS DOUBLE) AS avg_nll
            FROM bgd
            JOIN bg ON bgd.w1 = bg.w1 AND bgd.w2 = bg.w2
            JOIN u ux ON bgd.w1 = ux.term, v
            GROUP BY bgd.doc_id
        """,
        # cross-set exact Jaccard: eval side × train side only
        "doc_decontaminate_neardup": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t
                          FROM documents),
            sh AS (SELECT doc_id,
                    CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                         ELSE list_distinct(list_transform(
                                generate_series(1, len(t) - 2),
                                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))
                    END AS s
                   FROM toks),
            p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         len(list_intersect(a.s, b.s)) AS i,
                         len(a.s) AS la, len(b.s) AS lb
                  FROM sh a JOIN sh b
                       ON a.doc_id % 10 = 0 AND b.doc_id % 10 <> 0)
            SELECT doc_a, doc_b, round(i / (la + lb - i), 6) AS jaccard
            FROM p WHERE round(i / (la + lb - i), 6) >= 0.5
        """,
        "orders_page": """
            SELECT cents, o_orderkey, pos FROM (
                SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT)
                           AS cents,
                       o_orderkey,
                       ROW_NUMBER() OVER (
                           ORDER BY ROUND(o_totalprice * 100),
                                    o_orderkey) AS pos
                FROM orders)
            WHERE pos BETWEEN 101 AND 120
        """,
        # keep rule mirrored in exact integers: hash·w_max < 2^32·w
        "weighted_sample_docs": """
            WITH t AS (SELECT doc_id,
                              len(string_split(text, ' ')) AS n_tokens
                       FROM documents)
            SELECT doc_id, n_tokens FROM t
            WHERE ((doc_id * 3266489917) % 4294967296)
                  * (SELECT MAX(n_tokens) FROM t)
                < n_tokens * 4294967296
        """,
        # H = ln(n) − Σ nᵢ·ln(nᵢ)/n, one mirrored float64 expression,
        # rounded 6 dp on both engines (the pagerank float contract)
        "user_event_entropy": """
            WITH c AS (SELECT user_id, event_type, COUNT(*) AS n_i
                       FROM events GROUP BY 1, 2)
            SELECT user_id,
                   ROUND(LN(SUM(n_i)) -
                         SUM(n_i * LN(n_i)) / SUM(n_i), 6) AS entropy
            FROM c GROUP BY user_id
        """,
        # the engine's 4 peel rounds unrolled; k = 10, customers offset
        # by 2^40 (the pagerank node-space contract)
        "kcore_fulfillment": """
            WITH e0 AS (SELECT DISTINCT l_suppkey AS a,
                               o_custkey + 1099511627776 AS b
                        FROM orders JOIN lineitem
                             ON o_orderkey = l_orderkey),
            d0 AS (SELECT node, COUNT(*) AS deg FROM
                   (SELECT a AS node FROM e0
                    UNION ALL SELECT b FROM e0) GROUP BY 1),
            x0 AS (SELECT node FROM d0 WHERE deg < 10),
            e1 AS (SELECT * FROM e0
                   WHERE a NOT IN (SELECT node FROM x0)
                     AND b NOT IN (SELECT node FROM x0)),
            d1 AS (SELECT node, COUNT(*) AS deg FROM
                   (SELECT a AS node FROM e1
                    UNION ALL SELECT b FROM e1) GROUP BY 1),
            x1 AS (SELECT node FROM d1 WHERE deg < 10),
            e2 AS (SELECT * FROM e1
                   WHERE a NOT IN (SELECT node FROM x1)
                     AND b NOT IN (SELECT node FROM x1)),
            d2 AS (SELECT node, COUNT(*) AS deg FROM
                   (SELECT a AS node FROM e2
                    UNION ALL SELECT b FROM e2) GROUP BY 1),
            x2 AS (SELECT node FROM d2 WHERE deg < 10),
            e3 AS (SELECT * FROM e2
                   WHERE a NOT IN (SELECT node FROM x2)
                     AND b NOT IN (SELECT node FROM x2)),
            d3 AS (SELECT node, COUNT(*) AS deg FROM
                   (SELECT a AS node FROM e3
                    UNION ALL SELECT b FROM e3) GROUP BY 1),
            x3 AS (SELECT node FROM d3 WHERE deg < 10),
            e4 AS (SELECT * FROM e3
                   WHERE a NOT IN (SELECT node FROM x3)
                     AND b NOT IN (SELECT node FROM x3)),
            d4 AS (SELECT node, COUNT(*) AS deg FROM
                   (SELECT a AS node FROM e4
                    UNION ALL SELECT b FROM e4) GROUP BY 1)
            SELECT node, deg FROM d4 WHERE deg >= 10
        """,
        "events_hourly_dense": """
            WITH b AS (SELECT epoch_us(ts) // 3600000000 AS h,
                              COUNT(*) AS n
                       FROM events GROUP BY 1),
                 r AS (SELECT UNNEST(range((SELECT MIN(h) FROM b),
                                           (SELECT MAX(h) FROM b) + 1))
                              AS h)
            SELECT r.h AS hour_id, COALESCE(b.n, 0) AS n_events
            FROM r LEFT JOIN b ON r.h = b.h
        """,
        # TPC-H Q5 shape; revenue in exact integer cents×percent so no
        # float rounding rule can diverge between engines
        "local_supplier_revenue": """
            SELECT n_name,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_e4
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey
              AND n_regionkey = r_regionkey AND r_name = 'ASIA'
              AND o_orderdate >= DATE '1996-01-01'
              AND o_orderdate < DATE '1997-01-01'
            GROUP BY n_name
        """,
        "events_nation_spend": """
            SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(ROUND(value * 100) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM events JOIN customer ON user_id = c_custkey
            GROUP BY c_nationkey
        """,
        "doc_repetition": """
            WITH s AS (SELECT doc_id, string_split(text, ' ') AS w
                       FROM documents),
                 g AS (SELECT doc_id,
                              CASE WHEN len(w) >= 3 THEN
                                list_transform(range(1, len(w) - 1),
                                  i -> w[i] || ' ' || w[i+1] || ' '
                                       || w[i+2])
                              ELSE [] END AS grams
                       FROM s)
            SELECT doc_id,
                   CASE WHEN len(grams) > 0 THEN
                     CAST(1000 * (len(grams) - len(list_distinct(grams)))
                          // len(grams) AS BIGINT)
                   ELSE 0 END AS rep_permille
            FROM g
        """,
        "inverted_index": """
            WITH t AS (SELECT DISTINCT d.doc_id, u.term
                       FROM documents d,
                            UNNEST(string_split(d.text, ' ')) AS u(term))
            SELECT term, COUNT(*) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ','
                              ORDER BY doc_id) AS postings
            FROM t GROUP BY term HAVING COUNT(*) >= 20
        """,
        "cohort_retention": """
            WITH w AS (SELECT DISTINCT user_id,
                              epoch_us(ts) // 604800000000 AS wk
                       FROM events),
                 c AS (SELECT user_id, MIN(wk) AS cohort_wk
                       FROM w GROUP BY user_id)
            SELECT c.cohort_wk, w.wk - c.cohort_wk AS week_offset,
                   COUNT(*) AS n_users
            FROM w JOIN c ON w.user_id = c.user_id
            GROUP BY c.cohort_wk, w.wk - c.cohort_wk
        """,
        # PageRank: the engine's 5 damped iterations unrolled as
        # chained CTEs — per iteration one dangling-mass anti-join sum
        # (dK) and one contribution aggregate (cK), exactly the
        # engine's update rule. round(6) absorbs cross-engine FP
        # summation-order noise (~1e-15).
        "pagerank_cust_supp": """
            WITH e AS (
                SELECT DISTINCT o_custkey AS src,
                       1099511627776 + l_suppkey AS dst
                FROM orders JOIN lineitem ON o_orderkey = l_orderkey),
            nodes AS (SELECT src AS node FROM e
                      UNION SELECT dst FROM e),
            nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM nodes),
            deg AS (SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS deg
                    FROM e GROUP BY src),
            r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS r
                   FROM nodes),
            d1 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r0 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c1 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r0 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r1 AS (SELECT nd.node,
                          (1.0 - 0.85) / (SELECT n FROM nn)
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d1)
                                      / (SELECT n FROM nn)) AS r
                   FROM nodes nd LEFT JOIN c1 c ON nd.node = c.node),
            d2 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r1 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c2 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r1 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r2 AS (SELECT nd.node,
                          (1.0 - 0.85) / (SELECT n FROM nn)
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d2)
                                      / (SELECT n FROM nn)) AS r
                   FROM nodes nd LEFT JOIN c2 c ON nd.node = c.node),
            d3 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r2 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c3 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r2 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r3 AS (SELECT nd.node,
                          (1.0 - 0.85) / (SELECT n FROM nn)
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d3)
                                      / (SELECT n FROM nn)) AS r
                   FROM nodes nd LEFT JOIN c3 c ON nd.node = c.node),
            d4 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r3 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c4 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r3 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r4 AS (SELECT nd.node,
                          (1.0 - 0.85) / (SELECT n FROM nn)
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d4)
                                      / (SELECT n FROM nn)) AS r
                   FROM nodes nd LEFT JOIN c4 c ON nd.node = c.node),
            d5 AS (SELECT COALESCE(SUM(r.r), 0) AS dang FROM r4 r
                   LEFT JOIN deg d ON r.node = d.node
                   WHERE d.node IS NULL),
            c5 AS (SELECT e.dst AS node, SUM(r.r / d.deg) AS contrib
                   FROM e JOIN r4 r ON e.src = r.node
                   JOIN deg d ON e.src = d.node GROUP BY e.dst),
            r5 AS (SELECT nd.node,
                          (1.0 - 0.85) / (SELECT n FROM nn)
                          + 0.85 * (COALESCE(c.contrib, 0)
                                    + (SELECT dang FROM d5)
                                      / (SELECT n FROM nn)) AS r
                   FROM nodes nd LEFT JOIN c5 c ON nd.node = c.node)
            SELECT node, round(r, 6) AS "rank" FROM r5
        """,
        "overlap_click_purchase": """
            WITH c AS (SELECT user_id, event_id AS click_id,
                              epoch_us(ts) AS cts
                       FROM events WHERE event_type = 'click'),
                 p AS (SELECT user_id, event_id AS purchase_id,
                              epoch_us(ts) AS pts
                       FROM events WHERE event_type = 'purchase')
            SELECT click_id, purchase_id
            FROM c JOIN p ON c.user_id = p.user_id
             AND p.pts <= c.cts + 7200000000
             AND c.cts <= p.pts + 1800000000
        """,
        "props_value_by_type": """
            SELECT event_type,
                   CAST(SUM(CAST(regexp_extract(props, '"k": (\\d+)', 1)
                                 AS BIGINT)) AS BIGINT) AS total_k,
                   COUNT(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "trailing_hour_spend": """
            SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                   CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY epoch_us(ts)
                       RANGE BETWEEN 3600000000 PRECEDING
                             AND CURRENT ROW) AS BIGINT) AS trail_cents
            FROM events WHERE event_type = 'purchase'
        """,
        "favorite_event_type": """
            WITH c AS (SELECT user_id, event_type, COUNT(*) AS n
                       FROM events GROUP BY user_id, event_type),
                 r AS (SELECT *, row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY n DESC, event_type) AS rk
                       FROM c)
            SELECT user_id, event_type, n FROM r WHERE rk = 1
        """,
        "pivot_event_counts": """
            SELECT user_id,
                   COUNT(*) FILTER (WHERE event_type = 'click')
                       AS n_click,
                   COUNT(*) FILTER (WHERE event_type = 'view')
                       AS n_view,
                   COUNT(*) FILTER (WHERE event_type = 'purchase')
                       AS n_purchase
            FROM events GROUP BY user_id
        """,
        "rollup_order_counts": """
            SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n_orders
            FROM orders GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
        """,
        "cube_order_counts": """
            SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n_orders
            FROM orders GROUP BY CUBE (o_orderstatus, o_orderpriority)
        """,
        "corr_qty_price": """
            WITH s AS (
                SELECT l_returnflag,
                       CAST(COUNT(*) AS DOUBLE) AS nf,
                       CAST(SUM(x) AS DOUBLE) AS sx,
                       CAST(SUM(y) AS DOUBLE) AS sy,
                       CAST(SUM(x * y) AS DOUBLE) AS sxy,
                       CAST(SUM(x * x) AS DOUBLE) AS sxx,
                       CAST(SUM(y * y) AS DOUBLE) AS syy
                FROM (SELECT l_returnflag,
                             CAST(ROUND(l_quantity) AS BIGINT) AS x,
                             CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                                 AS y
                      FROM lineitem)
                GROUP BY l_returnflag)
            SELECT l_returnflag,
                   (nf * sxy - sx * sy)
                   / sqrt((nf * sxx - sx * sx) * (nf * syy - sy * sy))
                       AS corr_qty_price
            FROM s
        """,
        "global_median_price": """
            SELECT quantile_disc(o_totalprice, 0.5) AS median_price
            FROM orders
        """,
        "funnel_click_purchase": """
            WITH p AS (SELECT user_id, epoch_us(ts) AS ts_us, event_id
                       FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT user_id, epoch_us(ts) AS click_ts_us
                       FROM events WHERE event_type = 'click')
            SELECT user_id, COUNT(*) AS n_converted
            FROM (SELECT p.user_id, p.ts_us, c.click_ts_us
                  FROM p ASOF JOIN c
                  ON p.user_id = c.user_id
                     AND p.ts_us >= c.click_ts_us)
            WHERE ts_us - click_ts_us <= 3600000000
            GROUP BY user_id
        """,
        "nation_customer_list": """
            SELECT c_nationkey, string_agg(c_name, '|' ORDER BY c_name)
                   AS names
            FROM customer GROUP BY c_nationkey
        """,
        "unpivot_order_flags": """
            SELECT o_orderkey, 'status' AS attr, o_orderstatus AS val
            FROM orders
            UNION ALL
            SELECT o_orderkey, 'priority' AS attr, o_orderpriority AS val
            FROM orders
        """,
        "first_event_per_user_day": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, event_id
                       FROM events),
                 d AS (SELECT user_id,
                              ts_us - ts_us % 86400000000 AS day_us,
                              ts_us, event_id
                       FROM e),
                 r AS (SELECT *, row_number() OVER (
                           PARTITION BY user_id, day_us
                           ORDER BY ts_us, event_id) AS rk
                       FROM d)
            SELECT user_id, day_us, ts_us, event_id FROM r WHERE rk = 1
        """,
        "rank_orders_per_cust": """
            SELECT o_custkey, o_orderkey, o_totalprice,
                   CAST(DENSE_RANK() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC) AS BIGINT)
                       AS price_rank
            FROM orders
        """,
        "ntile_order_quartiles": """
            SELECT o_custkey, o_orderkey, o_totalprice,
                   CAST(NTILE(4) OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_totalprice, o_orderkey) AS BIGINT)
                       AS quartile
            FROM orders
        """,
        "media_thumbnails": """
            WITH d AS (
                SELECT CAST(doc_id AS VARCHAR) AS content_id,
                       320 + (doc_id % 7) * 64 AS w,
                       200 + (doc_id % 5) * 80 AS h
                FROM documents),
            s AS (SELECT content_id, w, h,
                         LEAST(1.0, 128.0 / w, 128.0 / h) AS scale
                  FROM d),
            t AS (SELECT content_id,
                         GREATEST(1, CAST(FLOOR(w * scale) AS BIGINT))
                             AS thumb_w,
                         GREATEST(1, CAST(FLOOR(h * scale) AS BIGINT))
                             AS thumb_h
                  FROM s)
            SELECT content_id, thumb_w, thumb_h,
                   12 + GREATEST(1, (thumb_w * thumb_h) // 256) * 32
                       AS thumb_len
            FROM t
        """,
        "media_frame_sample": """
            SELECT CAST(doc_id AS VARCHAR) AS content_id,
                   LEAST(16, CAST(CEIL((16 + (doc_id % 6) * 16) / 8.0)
                                  AS BIGINT)) AS n_sampled,
                   LEAST(16, CAST(CEIL((16 + (doc_id % 6) * 16) / 8.0)
                                  AS BIGINT)) * 64 AS sampled_bytes
            FROM documents
        """,
        "top_terms": """
            SELECT term, COUNT(*) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS term
                  FROM documents)
            GROUP BY term ORDER BY n DESC, term LIMIT 50
        """,
        "cust_order_counts": """
            SELECT c_custkey, c_name, COALESCE(n_orders, 0) AS n_orders
            FROM customer LEFT JOIN (
                SELECT o_custkey, COUNT(*) AS n_orders
                FROM orders GROUP BY o_custkey) o
            ON c_custkey = o.o_custkey
        """,
        "sample_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            WHERE ((o_orderkey * 2654435761) & 4294967295) < 214748364
        """,
        "intersect_users": """
            SELECT user_id FROM events WHERE event_type = 'purchase'
            INTERSECT
            SELECT user_id FROM events WHERE event_type = 'click'
        """,
        "except_customers": """
            SELECT c_custkey FROM customer
            EXCEPT
            SELECT o_custkey FROM orders
            WHERE o_orderpriority = '1-URGENT'
        """,
        "distinct_parts_per_supplier": """
            SELECT l_suppkey, COUNT(DISTINCT l_partkey) AS n_parts
            FROM lineitem GROUP BY l_suppkey
        """,
        "tfidf_top_terms": """
            WITH tok AS (SELECT doc_id,
                                unnest(string_split(text, ' ')) AS term
                         FROM documents),
                 tf AS (SELECT doc_id, term, COUNT(*) AS tf
                        FROM tok GROUP BY doc_id, term),
                 df AS (SELECT term, COUNT(DISTINCT doc_id) AS df
                        FROM tok GROUP BY term),
                 nd AS (SELECT COUNT(*) AS n FROM documents),
                 sc AS (SELECT doc_id, tf.term,
                               tf * n // df AS score
                        FROM tf JOIN df ON tf.term = df.term
                        CROSS JOIN nd),
                 r AS (SELECT *, row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY score DESC, term) AS rk
                       FROM sc)
            SELECT doc_id, term, score FROM r WHERE rk <= 3
        """,
        "doc_rarity": """
            WITH tok AS (SELECT doc_id,
                                unnest(string_split(text, ' ')) AS term
                         FROM documents),
                 df AS (SELECT term, COUNT(DISTINCT doc_id) AS df
                        FROM tok GROUP BY term),
                 rare AS (SELECT term FROM df WHERE df <= 2),
                 per_doc AS (
                     SELECT t.doc_id,
                            COUNT(*) AS n_tokens,
                            COUNT(*) FILTER (
                                WHERE t.term IN (SELECT term FROM rare))
                                AS hits
                     FROM tok t GROUP BY t.doc_id)
            SELECT doc_id, n_tokens,
                   hits * 1000 // n_tokens AS rare_permille
            FROM per_doc
        """,
        "order_price_histogram": """
            SELECT (CAST(ROUND(o_totalprice * 100) AS BIGINT)
                    // 5000000) * 5000000 AS bucket_lo_cents,
                   COUNT(*) AS n_orders
            FROM orders GROUP BY bucket_lo_cents
        """,
        "doc_quality": """
            WITH f AS (
                SELECT doc_id,
                       array_length(string_split(text, ' ')) AS n_tokens,
                       (length(text)
                        - array_length(string_split(text, ' ')) + 1) * 1000
                           // array_length(string_split(text, ' '))
                           AS mean_len_milli,
                       len(list_filter(string_split(text, ' '),
                           t -> t IN ('the', 'a', 'value', 'table'))) * 1000
                           // array_length(string_split(text, ' '))
                           AS stop_permille
                FROM documents)
            SELECT doc_id, n_tokens, mean_len_milli, stop_permille,
                   CASE WHEN n_tokens BETWEEN 20 AND 80
                             AND mean_len_milli >= 4300
                             AND stop_permille <= 160
                        THEN CAST(1 AS BIGINT) ELSE 0 END AS keep
            FROM f
        """,
        # exact oracle: valid because the MG candidate pass is a
        # guaranteed superset of terms with freq > N/(k+1) and the
        # final counts come from an exact recount
        "heavy_hitter_terms": """
            SELECT term, COUNT(*) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS term
                  FROM documents)
            GROUP BY term ORDER BY n DESC, term LIMIT 20
        """,
        # the full curation composition: quality rules == doc_quality,
        # md5 exact dedup, 3-gram Jaccard >= 0.5 pairs over the
        # survivors, recursive-CTE transitive closure, canonical-only
        "curate_documents": """
            WITH RECURSIVE feats AS (
                SELECT doc_id, text,
                       array_length(string_split(text, ' ')) AS n_tokens,
                       (length(text)
                        - array_length(string_split(text, ' ')) + 1) * 1000
                           // array_length(string_split(text, ' '))
                           AS mean_len_milli,
                       len(list_filter(string_split(text, ' '),
                           t -> t IN ('the', 'a', 'value', 'table'))) * 1000
                           // array_length(string_split(text, ' '))
                           AS stop_permille
                FROM documents),
            kept AS (SELECT doc_id, text, n_tokens FROM feats
                     WHERE n_tokens BETWEEN 20 AND 80
                       AND mean_len_milli >= 4300
                       AND stop_permille <= 160),
            h AS (SELECT md5(text) AS ch, min(doc_id) AS rep
                  FROM kept GROUP BY md5(text)),
            uniq AS (SELECT k.doc_id, k.text, k.n_tokens
                     FROM kept k JOIN h ON k.doc_id = h.rep),
            toks AS (SELECT doc_id, string_split(text, ' ') AS t
                     FROM uniq),
            sh AS (SELECT doc_id,
                    CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                         ELSE list_distinct(list_transform(
                                generate_series(1, len(t) - 2),
                                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))
                    END AS s
                   FROM toks),
            p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
                  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
                  WHERE round(len(list_intersect(a.s, b.s))
                        / (len(a.s) + len(b.s)
                           - len(list_intersect(a.s, b.s))), 6) >= 0.5),
            edges AS (SELECT doc_a AS a, doc_b AS b FROM p
                      UNION SELECT doc_b, doc_a FROM p),
            walk(node, label) AS (
                SELECT a, a FROM edges
                UNION
                SELECT e.b, w.label FROM walk w
                JOIN edges e ON w.node = e.a),
            cc AS (SELECT node, min(label) AS cluster_id
                   FROM walk GROUP BY node),
            drops AS (SELECT node FROM cc WHERE cluster_id <> node)
            SELECT doc_id, n_tokens FROM uniq
            WHERE doc_id NOT IN (SELECT node FROM drops)
        """,
        # same pair predicate as dedup_ngram_jaccard, closed under
        # transitivity by a recursive CTE (min reachable label)
        "dedup_clusters": """
            WITH RECURSIVE toks AS (
                SELECT doc_id, string_split(text, ' ') AS t FROM documents),
            sh AS (SELECT doc_id,
                    CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                         ELSE list_distinct(list_transform(
                                generate_series(1, len(t) - 2),
                                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))
                    END AS s
                   FROM toks),
            p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
                  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
                  WHERE round(len(list_intersect(a.s, b.s))
                        / (len(a.s) + len(b.s)
                           - len(list_intersect(a.s, b.s))), 6) >= 0.5),
            edges AS (SELECT doc_a AS a, doc_b AS b FROM p
                      UNION SELECT doc_b, doc_a FROM p),
            walk(node, label) AS (
                SELECT a, a FROM edges
                UNION
                SELECT e.b, w.label FROM walk w
                JOIN edges e ON w.node = e.a)
            SELECT node AS doc_id, min(label) AS cluster_id
            FROM walk GROUP BY node
        """,
        "bloom_semi_join_lineitem": """
            SELECT l_orderkey, l_extendedprice FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
        """,
        "user_activity_full": """
            WITH c AS (SELECT user_id, COUNT(*) AS n_clicks
                       FROM events WHERE event_type = 'click'
                       GROUP BY user_id),
                 p AS (SELECT user_id, COUNT(*) AS n_purchases
                       FROM events WHERE event_type = 'purchase'
                       GROUP BY user_id)
            SELECT COALESCE(c.user_id, p.user_id) AS user_id,
                   COALESCE(n_clicks, 0) AS n_clicks,
                   COALESCE(n_purchases, 0) AS n_purchases
            FROM c FULL OUTER JOIN p ON c.user_id = p.user_id
        """,
        "events_hopping": """
            WITH e AS (SELECT event_type, epoch_us(ts) AS t,
                              CAST(ROUND(value * 100) AS BIGINT) AS cents
                       FROM events),
                 w AS (SELECT event_type, t - t % 1800000000
                                  AS win_start_us, cents
                       FROM e
                       UNION ALL
                       SELECT event_type,
                              t - t % 1800000000 - 1800000000, cents
                       FROM e)
            SELECT event_type, win_start_us,
                   CAST(SUM(cents) AS BIGINT) AS total_cents,
                   COUNT(*) AS n_events
            FROM w GROUP BY event_type, win_start_us
        """,
        "stratified_sample_events": """
            SELECT event_id, user_id, event_type FROM events
            WHERE ((event_id * 2654435761) & 4294967295) <
                  CASE event_type
                       WHEN 'click' THEN 214748364
                       WHEN 'view' THEN 85899345
                       WHEN 'purchase' THEN 2147483648
                       WHEN 'signup' THEN 1073741824
                       ELSE 0 END
        """,
        "price_quartiles": """
            SELECT quantile_cont(c, 0.25) AS q25,
                   quantile_cont(c, 0.5) AS q50,
                   quantile_cont(c, 0.75) AS q75
            FROM (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c
                  FROM orders)
        """,
        "asof_clicks": """
            WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                              value AS amount
                       FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT user_id, epoch_us(ts) AS ts_us,
                              event_id AS click_id, value AS click_value
                       FROM events WHERE event_type = 'click')
            SELECT p.event_id, p.user_id, p.ts_us, p.amount,
                   c.click_id, c.click_value
            FROM p ASOF JOIN c
              ON p.user_id = c.user_id AND p.ts_us >= c.ts_us
        """,
        "frequent_triples": """
            WITH items AS (SELECT DISTINCT l_orderkey, l_partkey
                           FROM lineitem)
            SELECT a.l_partkey AS i, b.l_partkey AS j,
                   c.l_partkey AS k,
                   CAST(COUNT(*) AS BIGINT) AS support
            FROM items a
            JOIN items b ON a.l_orderkey = b.l_orderkey
                        AND a.l_partkey < b.l_partkey
            JOIN items c ON a.l_orderkey = c.l_orderkey
                        AND b.l_partkey < c.l_partkey
            GROUP BY 1, 2, 3 HAVING COUNT(*) >= 2
        """,
        "asof_clicks_forward": """
            WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
                       FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT user_id, epoch_us(ts) AS click_ts_us,
                              event_id AS click_id
                       FROM events WHERE event_type = 'click')
            SELECT p.event_id, p.user_id, p.ts_us,
                   c.click_id, c.click_ts_us
            FROM p ASOF JOIN c
              ON p.user_id = c.user_id AND p.ts_us <= c.click_ts_us
        """,
        "range_join_clicks": """
            WITH s AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
                       FROM events WHERE event_type = 'signup'),
                 c AS (SELECT user_id, epoch_us(ts) AS ts_us
                       FROM events WHERE event_type = 'click')
            SELECT s.event_id, s.user_id, s.ts_us,
                   count(c.ts_us) AS n_clicks_1h
            FROM s LEFT JOIN c ON s.user_id = c.user_id
              AND c.ts_us > s.ts_us AND c.ts_us <= s.ts_us + 3600000000
            GROUP BY s.event_id, s.user_id, s.ts_us
        """,
        "cosine_near_dup_exact": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                CAST(a.embedding AS DOUBLE[]),
                CAST(b.embedding AS DOUBLE[])) >= 0.35
            ORDER BY vec_a, vec_b
        """,
    }
