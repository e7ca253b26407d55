"""Input preparation, keyed by (workload, seed) and cached on disk.

Everything the engine receives is generated here from the seed, and
everything the correctness gate compares against is computed here by
an independent path (the single-threaded reference oracle for the
crawl, DuckDB for the queries). Nothing in this module is timed: the
benchmark reports its cost as ``prep_s`` beside, not inside,
``setup_s``.

Layout of one prepared directory::

    inputs.json            workload parameters + oracle counts
    store/                 path-mode corpus (corpus/storage.write_corpus)
    seeds.parquet          crawl seeds
    fail_plan.json         url -> transient failures before success
    expected/              oracle catalog files + file-hashes.json
    sf/                    query tables (query_mix)
    expected_q/<name>.parquet   DuckDB oracle result per query
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# workload name -> kind
WORKLOADS = {"fresh_crawl": "crawl", "query_mix": "query"}

# fresh_crawl: bench_config's entity counts divided by CRAWL_DIV (its
# 1,000-episode series stays), FAIL_FRAC of the visited URLs failing
# transiently
CRAWL_DIV = 100
ENTITY_COUNTS = ("n_fasel_movies", "n_fasel_series", "n_fasel_anime",
                 "n_akwam_movies", "n_akwam_series", "n_wecima",
                 "n_cimanow", "n_hdw_movies", "n_hdw_series")
FAIL_FRAC = 0.02

QUERY_SF = 0.01

# The fixed query list of query_mix, by family. Every entry has a
# DuckDB twin in ``__ray_entry__.oracle_sql()``.
QUERY_FAMILIES = {
    "shuffle": ["nested_rollup", "sessionize", "top3_orders_per_cust",
                "user_similarity"],
    "stats": ["spearman_qty_price", "ks_urgent_price", "km_return_survival",
              "theil_sen_cust_trend"],
    "graph": ["triangle_parts"],
    "dedup": ["dedup_exact"],
}
QUERY_LIST = [q for fam in QUERY_FAMILIES.values() for q in fam]

SF_TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
             "lineitem", "events", "documents", "embeddings"]


def source_digest() -> str:
    """Hash of every source file the prepared inputs and oracles come
    from: this module, ``__ray_entry__.py`` (the DuckDB oracle SQL) and
    the engine package (corpus writer, synthetic web, reference oracle,
    catalog writer). A change to any of them prepares afresh, so two
    versions of the code measured in one checkout never share inputs."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    files = [os.path.join(here, "prep.py"),
             os.path.join(root, "__ray_entry__.py")]
    for d, _, names in sorted(os.walk(os.path.join(
            root, "no_fasel_scrapers_ray"))):
        files += [os.path.join(d, n) for n in sorted(names)
                  if n.endswith(".py")]
    h = hashlib.blake2b(digest_size=8)
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()


def prep_dir(cache_root: str, workload: str, seed: int) -> str:
    return os.path.join(cache_root,
                        f"{workload}-s{seed}-{source_digest()}")


def prepare(cache_root: str, workload: str, seed: int) -> tuple[str, float]:
    """Return (prepared dir, seconds spent preparing; 0 when cached)."""
    out = prep_dir(cache_root, workload, seed)
    if os.path.exists(os.path.join(out, "inputs.json")):
        return out, 0.0
    t0 = time.perf_counter()
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if WORKLOADS[workload] == "crawl":
        info = _prep_crawl(tmp, seed)
    else:
        info = _prep_queries(tmp, seed)
    info.update(workload=workload, seed=seed)
    with open(os.path.join(tmp, "inputs.json"), "w") as fp:
        json.dump(info, fp, indent=1)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return out, time.perf_counter() - t0


# -- crawl workloads ---------------------------------------------------------

def _synth_config(seed: int):
    from no_fasel_scrapers_ray.corpus.synth import bench_config
    full = bench_config()
    return bench_config(seed=seed, **{
        k: max(1, getattr(full, k) // CRAWL_DIV) for k in ENTITY_COUNTS})


def _prep_crawl(out: str, seed: int) -> dict:
    from no_fasel_scrapers_ray.corpus.storage import write_corpus
    from no_fasel_scrapers_ray.corpus.synth import CIMANOW_ROUTES, generate
    from no_fasel_scrapers_ray.oracle import Oracle
    from no_fasel_scrapers_ray.pipelines.assemble import write_catalogs

    corpus, seeds = generate(_synth_config(seed))
    oracle = Oracle(corpus)
    oracle.crawl_all(CIMANOW_ROUTES)
    write_corpus(corpus, os.path.join(out, "store"))
    pq.write_table(seeds, os.path.join(out, "seeds.parquet"))

    # transient failures on pages the crawl will visit; each recovers
    # within max_attempts=3 (1 or 2 failures before success)
    fail_plan: dict[str, int] = {}
    rng = random.Random(f"fail-{seed}")
    urls = sorted({v[0] for v in oracle.visits if v[0] in oracle.pages})
    for u in rng.sample(urls, int(len(urls) * FAIL_FRAC)):
        fail_plan[u] = rng.randint(1, 2)
    with open(os.path.join(out, "fail_plan.json"), "w") as fp:
        json.dump(fail_plan, fp)

    # the parallel writer emits the manifest in sorted catalog order
    catalogs = {k: v for k, v in sorted(oracle.catalogs.items()) if v}
    write_catalogs(catalogs, os.path.join(out, "expected"))
    return {"corpus_docs": corpus.num_rows,
            "oracle_visits": len(oracle.visits),
            "catalogs": len(catalogs),
            "catalog_entries": sum(len(v) for v in catalogs.values()),
            "fail_plan_urls": len(fail_plan)}


# -- query workload ----------------------------------------------------------

def _write(out: str, name: str, cols: dict) -> None:
    pq.write_table(pa.table(cols), os.path.join(out, f"{name}.parquet"))


def generate_tables(out: str, sf: float, seed: int) -> dict:
    """TPC-H-shaped star schema plus events/documents/embeddings, with
    the column names, dtypes and value domains the ``__ray_entry__``
    queries read. Row counts scale with ``sf`` (sf 0.01: 60k
    lineitems). Every shape the query mix depends on follows the sf0.01
    reference data that ``strict_check.py`` runs these queries on:
    uniform foreign keys (about 4 lines per order, 10 orders per
    customer, 30 lines per part), order and ship dates drawn
    independently, 66 events per user over 30 days, exponential event
    values (mean 50), 10-99 word documents of which 5% are an earlier
    document plus the word "dup" (no exact duplicates), and unit-length
    embeddings. README.md lists the measured comparison."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_cust = int(150_000 * sf)
    n_supp = int(10_000 * sf)
    n_part = int(200_000 * sf)
    n_ord = int(1_500_000 * sf)
    n_line = int(6_000_000 * sf)
    n_events = int(1_000_000 * sf)
    n_users = max(1, n_cust // 10)
    n_docs = n_vecs = 500

    def money(lo, hi, n):
        return np.round(rng.uniform(lo, hi, n), 2)

    def i32(a):
        return pa.array(np.asarray(a, dtype=np.int32))

    def i64(a):
        return pa.array(np.asarray(a, dtype=np.int64))

    def ts(base: str, seconds):
        us = (np.datetime64(base, "us")
              + (np.asarray(seconds) * 1e6).astype("timedelta64[us]"))
        return pa.array(us, type=pa.timestamp("us"))

    _write(out, "region", {
        "r_regionkey": i32(range(5)),
        "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]})
    _write(out, "nation", {
        "n_nationkey": i32(range(25)),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": i32([i % 5 for i in range(25)])})
    segs = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                     "MACHINERY"])
    _write(out, "customer", {
        "c_custkey": i64(range(n_cust)),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": i32(rng.integers(0, 25, n_cust)),
        "c_acctbal": money(-999.99, 9999.99, n_cust),
        "c_mktsegment": segs[rng.integers(0, 5, n_cust)]})
    _write(out, "supplier", {
        "s_suppkey": i64(range(n_supp)),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
        "s_nationkey": i32(rng.integers(0, 25, n_supp)),
        "s_acctbal": money(-999.99, 9999.99, n_supp)})
    adj = np.array(["small", "red", "blue", "hot", "old", "big", "green",
                    "cold"])
    noun = np.array(["ring", "widget", "bolt", "gear", "gizmo", "nut",
                     "panel", "spring"])
    types = np.array(["ECONOMY", "STANDARD", "LARGE", "PROMO", "SMALL",
                      "MEDIUM"])
    _write(out, "part", {
        "p_partkey": i64(range(n_part)),
        "p_name": np.char.add(np.char.add(adj[rng.integers(0, 8, n_part)],
                                          " "),
                              noun[rng.integers(0, 8, n_part)]),
        "p_brand": np.char.add("Brand#",
                               rng.integers(1, 26, n_part).astype(str)),
        "p_type": types[rng.integers(0, 6, n_part)],
        "p_size": i32(rng.integers(1, 51, n_part)),
        "p_retailprice": np.round(900 + (np.arange(n_part) % 1000) / 10, 2)})
    prios = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                      "5-LOW"])
    day = 86400
    _write(out, "orders", {
        "o_orderkey": i64(range(n_ord)),
        "o_custkey": i64(rng.integers(0, n_cust, n_ord)),
        "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)],
        "o_totalprice": money(1000, 500000, n_ord),
        "o_orderdate": ts("1995-01-01",
                          rng.integers(0, 2404, n_ord) * day),
        "o_orderpriority": prios[rng.integers(0, 5, n_ord)]})
    _write(out, "lineitem", {
        "l_orderkey": i64(rng.integers(0, n_ord, n_line)),
        "l_partkey": i64(rng.integers(0, n_part, n_line)),
        "l_suppkey": i64(rng.integers(0, n_supp, n_line)),
        "l_linenumber": i32(rng.integers(1, 8, n_line)),
        "l_quantity": rng.integers(1, 51, n_line).astype(np.float64),
        "l_extendedprice": money(900, 105000, n_line),
        "l_discount": rng.integers(0, 11, n_line) / 100.0,
        "l_tax": rng.integers(0, 9, n_line) / 100.0,
        "l_returnflag": np.array(["A", "N", "R"])[
            rng.integers(0, 3, n_line)],
        "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, n_line)],
        "l_shipdate": ts("1995-01-02",
                         rng.integers(0, 2498, n_line) * day)})
    ev_types = np.array(["click", "error", "purchase", "signup", "view"])
    _write(out, "events", {
        "event_id": i64(range(n_events)),
        "ts": ts("2024-01-01", np.sort(rng.uniform(0, 30 * day, n_events))),
        "user_id": i64(rng.integers(0, n_users, n_events)),
        "event_type": ev_types[rng.integers(0, 5, n_events)],
        "value": np.maximum(0.01, np.round(rng.exponential(50, n_events),
                                           2)),
        "props": [json.dumps({"k": int(k)})
                  for k in rng.integers(0, 100, n_events)]})
    words = np.array(["key", "agg", "row", "scan", "slow", "fast", "table",
                      "value", "part", "hash", "merge", "batch", "spark",
                      "the", "a", "line", "sort", "window", "order", "data",
                      "column", "join", "small", "big", "customer", "query",
                      "stream", "group", "filter", "vector"])
    texts: list[str] = []
    for i in range(n_docs):
        if i and rng.random() < 0.05:   # near-duplicate of an earlier doc
            t = texts[rng.integers(0, i)] + " dup"
            while t in texts:
                t += " dup"
        else:
            t = " ".join(words[rng.integers(0, len(words),
                                            rng.integers(10, 100))])
        texts.append(t)
    langs = np.array(["en", "de", "es", "fr", "zh"])
    _write(out, "documents", {
        "doc_id": i64(range(n_docs)),
        "text": texts,
        "lang": langs[rng.choice(5, n_docs, p=[.44, .14, .14, .14, .14])],
        "source": [f"src{i % 20}" for i in range(n_docs)],
        "n_chars": i64([len(t) for t in texts])})
    emb = rng.normal(0, 1, (n_vecs, 64))
    emb = (emb / np.linalg.norm(emb, axis=1, keepdims=True)).astype(
        np.float32)
    _write(out, "embeddings", {
        "vec_id": i64(range(n_vecs)),
        "embedding": pa.array(list(emb), type=pa.list_(pa.float32())),
        "label": i32(rng.integers(0, 10, n_vecs))})
    return {"lineitem_rows": n_line, "orders_rows": n_ord}


def _prep_queries(out: str, seed: int) -> dict:
    import duckdb

    sf_dir = os.path.join(out, "sf")
    info = generate_tables(sf_dir, QUERY_SF, seed)
    oracles = _oracle_sql()
    con = duckdb.connect()
    for t in SF_TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"'{os.path.join(sf_dir, t)}.parquet'")
    exp = os.path.join(out, "expected_q")
    os.makedirs(exp)
    for name in QUERY_LIST:
        df = con.sql(oracles[name]).df()
        df.to_parquet(os.path.join(exp, f"{name}.parquet"))
    con.close()
    info["queries"] = len(QUERY_LIST)
    return info


def _oracle_sql() -> dict[str, str]:
    # __ray_entry__ pulls in Ray Data; the SQL dict itself needs no
    # cluster, so importing it here starts none
    import __ray_entry__
    return __ray_entry__.oracle_sql()
