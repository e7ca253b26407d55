"""Catalog assembly: flat record rows → nested catalog entries with the
merge precedence + delta semantics applied DISTRIBUTED (SURVEY.md §2.7
A1-A5, D2) — no driver-side materialization of the record stream.

Shape: one hash-bucket shuffle on (catalog, unit) where unit is the
series key for nested rows (episode→season→series co-location) and the
entry key for flat rows (so a 600k-movie catalog spreads over all
buckets instead of landing in one group). Old-run catalogs enter the
same shuffle as rows (previous position = order rank), so per-catalog
merge precedence (old-wins `new | old` FaselSeriesScraper.py:217 vs
new-wins `old.update(new)` FaselMoviesScraper.py:100-101) and the D2
episode/season deltas are applied inside the per-bucket pass, worker-
side. The output is a Dataset of FINAL entries

    (catalog, key, rank0:int64, rank1:str, payload:json-str)

where sorting by (rank0, rank1) inside a catalog reproduces the
reference's dict insertion order exactly. One sink, plus its
small-scale reference:

- ``write_catalogs_parallel`` — the catalog sink: reference-shaped JSON
  files + file-hashes.json, rendered per-entry in workers and written
  by one worker task per catalog (the driver never touches payloads);
- ``build_catalogs`` + ``write_catalogs`` — the small-scale dict
  materializer and dict writer (tests, tiny runs, the trending/
  postprocess inputs); ``write_catalogs`` is the byte reference the
  sink is tested against.

Old-catalog size contract: the previous run's catalogs are the
reference's own output files (~15 MB committed snapshot) — dimension-
sized. They are re-emitted as entry rows through the same shuffle, so
even a much larger old side only costs its proportional share of the
bucket pass, not a driver loop.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import md5_of_json
from ..ops.util import stable_bucket

FLAT_CATALOGS = ("movies", "arabic-movies", "WeCima", "CimaNowMovies",
                 "hdwmovies")
NESTED_SEASONS = ("series", "tvshows", "asian-series", "hdwseries")
NESTED_FLAT_EPISODES = ("anime", "arabic-series")

# merge precedence per catalog (SURVEY.md A5, citations inline below)
OLD_WINS = {"series", "tvshows", "asian-series"}      # FaselSeriesScraper.py:217
NO_MERGE = {"arabic-movies", "hdwseries"}             # master_dict only

# catalogs whose reference writer uses the json.dump default
# ensure_ascii=True (the rest pass ensure_ascii=False:
# AkwamMoviesScaper.py:76-77, WeCimaScraper.py:74-75, ...)
ENSURE_ASCII_CATALOGS = ("movies", "series", "tvshows", "asian-series",
                         "anime")

_NEST_TYPES = ("series_head", "season", "episode")


def _distinct_catalogs(records: rd.Dataset) -> set[str]:
    """Tiny pre-pass: which catalogs received records this run (decides
    carry-forward vs merge for each old catalog). Column-pruned scan,
    per-batch uniques — the driver sees only catalog names."""
    import pyarrow.compute as pc

    def uniq(t: pa.Table) -> pa.Table:
        return pa.table({"catalog": pc.unique(t["catalog"])})

    part = records.select_columns(["catalog"]).map_batches(
        uniq, batch_format="pyarrow").to_pandas()
    return set(part["catalog"].unique())


def _old_entry_table(old_catalogs: dict, new_cats: set[str]) -> pa.Table:
    """Previous-run catalogs → entry rows for the assembly shuffle.
    record_type 'old' rows take part in precedence/deltas; 'carry' rows
    (catalog saw no new records this run) are re-emitted verbatim."""
    cols = {c: [] for c in ("catalog", "record_type", "key", "series_key",
                            "season_key", "order_key", "payload")}
    for catalog, data in old_catalogs.items():
        if catalog in NO_MERGE and catalog in new_cats:
            continue    # master_dict replaces the file wholesale
        rt = "old" if catalog in new_cats else "carry"
        for pos, (key, rec) in enumerate(data.items()):
            cols["catalog"].append(catalog)
            cols["record_type"].append(rt)
            cols["key"].append(key)
            cols["series_key"].append(key)
            cols["season_key"].append("")
            cols["order_key"].append(f"{pos:012d}")
            cols["payload"].append(json.dumps(rec, ensure_ascii=False))
    return pa.table({c: pa.array(v, type=pa.string())
                     for c, v in cols.items()})


def _nest_series(catalog: str, rows: list) -> tuple[str, str, str] | None:
    """episode→season→series nesting for one series' new rows (A1/A2).
    ``rows``: (record_type, key, season_key, order_key, payload) in
    order_key order. Returns (head_key, head_order_key, payload_json)."""
    head = None
    head_key = head_ok = None
    seasons: list[tuple[str, dict]] = []
    eps_by_season: dict[str, dict] = {}
    flat_eps: dict[str, dict] = {}
    for rt, key, season_key, ok, payload in rows:
        if rt == "series_head" and head is None:
            head = json.loads(payload)
            head_key, head_ok = key, ok
        elif rt == "season":
            sp = json.loads(payload)
            sp.pop("orphan", None)
            seasons.append((key, sp))
        elif rt == "episode":
            if catalog in NESTED_SEASONS:
                eps_by_season.setdefault(season_key, {})[key] = \
                    json.loads(payload)
            else:
                flat_eps[key] = json.loads(payload)
    if head is None:
        return None
    if catalog in NESTED_SEASONS:
        total = 0
        season_map = {}
        for skey, sp in seasons:
            # fasel: count = link count (set at season extract);
            # hdw: count = card count — both already in payload
            season_map[skey] = {
                "Season Number": sp["Season Number"],
                "Number Of Episodes": sp["Number Of Episodes"],
                "Episodes": eps_by_season.get(skey, {}),
            }
            total += sp["Number Of Episodes"]
        head["Seasons"] = season_map
        if "Number Of Episodes" in head:
            head["Number Of Episodes"] = total
    else:  # anime / arabic-series: flat Episodes
        head["Episodes"] = flat_eps
        if catalog == "arabic-series":
            # A3 fix-up: count = scraped episodes
            # (AkwamSeriesScraper.py:109-110)
            head["Number Of Episodes"] = len(flat_eps)
    return head_key, head_ok, json.dumps(head, ensure_ascii=False)


def _emit_unit(catalog: str, rows: list, out: dict) -> None:
    """Finalize one (catalog, unit): nesting + D2 deltas into the old
    record + A5 precedence → at most one output entry (plus verbatim
    carry rows). ``rows``: (record_type, key, season_key, order_key,
    payload) sorted by order_key."""

    old_payload = old_pos = old_key = None
    new_key = new_ok = new_payload = None
    nest_rows: list = []
    deltas: list = []
    for rt, key, season_key, ok, payload in rows:
        if rt == "carry":
            out["catalog"].append(catalog)
            out["key"].append(key)
            out["rank0"].append(0)
            out["rank1"].append(ok)
            out["payload"].append(payload)
        elif rt == "old":
            old_payload, old_pos, old_key = payload, ok, key
        elif rt in _NEST_TYPES:
            nest_rows.append((rt, key, season_key, ok, payload))
        elif rt in ("season_delta", "episode_delta"):
            deltas.append((rt, key, season_key, payload))
        elif rt == "record":
            # flat entry: first occurrence fixes the position, the last
            # (highest order_key) fixes the value — dict re-assignment
            if new_key is None:
                new_key, new_ok = key, ok
            new_payload = payload
        elif rt == "anime_delta":
            # vestigial adapter row (old_count payload; the flat-
            # episode delta path counts episode_delta rows instead) —
            # explicitly ignored, NOT silently dropped by fallthrough
            pass
        else:
            raise ValueError(
                f"_emit_unit: unknown record_type {rt!r} in catalog "
                f"{catalog!r} — an adapter emitted a type the "
                "assembler does not handle (silent drops corrupt "
                "catalogs)")
    if nest_rows:
        nested = _nest_series(catalog, nest_rows)
        if nested is not None:
            new_key, new_ok, new_payload = nested

    # D2 delta application into the OLD record. The delta rows carry the
    # owning series in series_key (= this unit), so no catalog-wide
    # season→series scan is needed (the reference's
    # find-series-with-season walk, FaselSeriesScraper.py:48-100, is a
    # unit-local lookup here).
    if deltas and old_payload is not None:
        old = json.loads(old_payload)
        if catalog in NESTED_SEASONS:
            for rt, key, season_key, payload in deltas:
                sid = key if rt == "season_delta" else season_key
                season = old.get("Seasons", {}).get(sid)
                if season is None:
                    continue
                if rt == "season_delta":
                    # count += n_links (link count, FaselSeriesScraper.py:79)
                    season["Number Of Episodes"] += \
                        json.loads(payload)["n_links"]
                else:
                    season["Episodes"][key] = json.loads(payload)
        elif catalog in NESTED_FLAT_EPISODES:
            eps = {key: json.loads(payload)
                   for rt, key, season_key, payload in deltas
                   if rt == "episode_delta"}
            # count += len(scraped dict) (FaselAnimeScraper.py:120)
            old["Number Of Episodes"] += len(eps)
            old["Episodes"].update(eps)
        old_payload = json.dumps(old, ensure_ascii=False)

    # A5 precedence + final insertion rank. rank0 separates the two
    # order classes of the reference's dict merge; rank1 orders within.
    if catalog in NO_MERGE:
        if new_payload is None:
            return
        entry = (new_key, 0, new_ok, new_payload)
    elif catalog in OLD_WINS:
        # merged = dict(new); merged.update(old) — new keys first in
        # new order (old value wins), old-only keys appended in old order
        if new_payload is not None:
            entry = (new_key, 0, new_ok,
                     old_payload if old_payload is not None else new_payload)
        elif old_payload is not None:
            entry = (old_key, 1, old_pos, old_payload)
        else:
            return
    else:
        # merged = dict(old); merged.update(new) — old keys keep old
        # positions (new value wins), new-only keys appended in new order
        if old_payload is not None:
            entry = (old_key, 0, old_pos,
                     new_payload if new_payload is not None else old_payload)
        elif new_payload is not None:
            entry = (new_key, 1, new_ok, new_payload)
        else:
            return
    key, rank0, rank1, payload = entry
    out["catalog"].append(catalog)
    out["key"].append(key)
    out["rank0"].append(rank0)
    out["rank1"].append(rank1)
    out["payload"].append(payload)


ENTRY_SCHEMA = pa.schema([
    ("catalog", pa.string()), ("key", pa.string()),
    ("rank0", pa.int64()), ("rank1", pa.string()),
    ("payload", pa.string()),
])


def assemble_records(records: rd.Dataset, old_catalogs: dict | None = None,
                     n_buckets: int = 64) -> rd.Dataset:
    """Distributed end-to-end assembly. Returns the FINAL entry Dataset
    (catalog, key, rank0, rank1, payload) with nesting, deltas and merge
    precedence already applied; (rank0, rank1) sorts a catalog into the
    reference's exact key order.

    The unit exchange is a RAW-TASK ref pass (the writer's / triangle
    BSP trick, not a Dataset groupby all-to-all): each record block
    buckets and SPLITS itself (num_returns = n_buckets object refs),
    each bucket task concats exactly its parts and runs the nesting
    pass — the per-bucket compute is ~0.5 s of spread wall-time while
    the groupby shuffle machinery alone measured ~6 s at the
    2.4M-page bench."""
    import ray

    if old_catalogs:
        new_cats = _distinct_catalogs(records)
        old_table = _old_entry_table(old_catalogs, new_cats)
        if old_table.num_rows:
            records = records.union(rd.from_arrow(old_table))

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # defensive: page-stat rows live under pages/ since r2, but a
        # pre-split run dir may still interleave them
        if (df["catalog"] == "__pages__").any():
            df = df[df["catalog"] != "__pages__"].copy()
        # unit: series for nested rows (co-locates a series' episodes,
        # seasons, deltas and old record), the entry key for flat rows
        # (spreads a flat catalog over every bucket — keying flats by
        # catalog alone measured as a single straggler group at sf0.1)
        unit = df["series_key"].where(df["series_key"] != "", df["key"])
        df["bucket"] = stable_bucket(df["catalog"] + "\x00" + unit, n_buckets)
        # shuffle-column pruning: drop the hive 'round' partition column
        # and do NOT carry 'unit' (recomputed per bucket from
        # series_key/key) — every byte here crosses the all-to-all
        return df[["catalog", "record_type", "key", "series_key",
                   "season_key", "order_key", "payload", "bucket"]]

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.assign(unit=g["series_key"].where(g["series_key"] != "",
                                                g["key"]))
        g = g.sort_values(["catalog", "unit", "order_key"], kind="stable")
        out = {"catalog": [], "key": [], "rank0": [], "rank1": [],
               "payload": []}
        current = None
        buf: list = []
        cols = (g["catalog"].tolist(), g["unit"].tolist(),
                g["record_type"].tolist(), g["key"].tolist(),
                g["season_key"].tolist(), g["order_key"].tolist(),
                g["payload"].tolist())
        for cat, unit, rt, key, season_key, ok, payload in zip(*cols):
            ident = (cat, unit)
            if ident != current:
                if current is not None:
                    _emit_unit(current[0], buf, out)
                current, buf = ident, []
            buf.append((rt, key, season_key, ok, payload))
        if current is not None:
            _emit_unit(current[0], buf, out)
        return pa.table({
            "catalog": pa.array(out["catalog"], type=pa.string()),
            "key": pa.array(out["key"], type=pa.string()),
            "rank0": pa.array(out["rank0"], type=pa.int64()),
            "rank1": pa.array(out["rank1"], type=pa.string()),
            "payload": pa.array(out["payload"], type=pa.string()),
        })

    SHUFFLE_COLS = ["catalog", "record_type", "key", "series_key",
                    "season_key", "order_key", "payload"]

    def split_block(tbl, nb: int):
        import numpy as np
        df = tbl if isinstance(tbl, pd.DataFrame) else tbl.to_pandas()
        if not len(df):
            empty = pa.table({c: pa.array([], pa.string())
                              for c in SHUFFLE_COLS})
            return [empty] * nb if nb > 1 else empty
        df = add_bucket(df)
        b = df["bucket"].to_numpy(np.int64)
        order = np.argsort(b, kind="stable")
        cuts = np.searchsorted(b[order], np.arange(nb + 1))
        t = pa.Table.from_pandas(df[SHUFFLE_COLS],
                                 preserve_index=False)
        parts = [t.take(order[cuts[k]:cuts[k + 1]]) for k in range(nb)]
        return parts if nb > 1 else parts[0]

    def emit_bucket(*parts) -> pa.Table:
        g = pa.concat_tables(
            [p for p in parts if p.num_rows]).to_pandas() \
            if any(p.num_rows for p in parts) else \
            pd.DataFrame({c: [] for c in SHUFFLE_COLS})
        return per_bucket(g)

    split_r = ray.remote(split_block)
    emit_r = ray.remote(emit_bucket)
    per_block = [split_r.options(num_returns=n_buckets).remote(
        ref, n_buckets) for ref in records.to_arrow_refs()]
    if n_buckets == 1:
        per_block = [[r] for r in per_block]
    return rd.from_arrow_refs(
        [emit_r.remote(*[blk[k] for blk in per_block])
         for k in range(n_buckets)])


# --------------------------------------------------------------------------
# Materializers / writers
# --------------------------------------------------------------------------

def build_catalogs(entries) -> dict[str, dict]:
    """Small-scale materializer: final entry rows → {catalog:
    dict-of-dicts} in the reference's key order. Driver-side by design —
    use only where a python dict is the consumer (tests, trending/
    postprocess inputs, tiny runs); the scale sink is
    ``write_catalogs_parallel``."""
    if isinstance(entries, rd.Dataset):
        entries = entries.to_pandas()
    entries = entries.sort_values(["rank0", "rank1"], kind="stable")
    catalogs: dict[str, dict] = {}
    for catalog, g in entries.groupby("catalog", sort=True):
        catalogs[catalog] = {
            k: json.loads(p)
            for k, p in zip(g["key"].tolist(), g["payload"].tolist())}
    return catalogs


def _fragment_lists(cats, keys, payloads) -> tuple[list, list]:
    """THE byte-critical fragment render, in exactly one place (a drift
    between the file and md5 renders would silently desync files from
    manifests): the pretty fragment (indent=4, the reference file
    body) and the compact fragment (default dumps, the md5_of_json
    stream). Dumping the single-entry dict and stripping the outer
    braces reproduces the whole-file json.dump byte-for-byte after a
    ",\\n" join."""
    pretty, compact = [], []
    for cat, key, payload in zip(cats, keys, payloads):
        v = json.loads(payload)
        ea = cat in ENSURE_ASCII_CATALOGS
        pretty.append(json.dumps({key: v}, indent=4,
                                 ensure_ascii=ea)[2:-2])
        compact.append(json.dumps({key: v})[1:-1])
    return pretty, compact


def write_catalogs_parallel(
        entries: rd.Dataset, out_dir: str, hashes: bool = True,
        chunk: int = 16384) -> tuple[dict[str, str], dict[str, int]]:
    """The catalog sink: fragments render in one task per entry block
    (``_fragment_lists``), then ONE worker task per catalog sorts its
    fragments, streams the JSON file and folds the md5 — the driver
    never touches payload bytes (the md5 byte stream is sequential per
    FILE, so per-catalog tasks are the maximum parallelism the manifest
    format admits). Byte-identical
    output to ``write_catalogs(build_catalogs(entries))``. On a
    multi-node cluster ``out_dir`` must be shared storage (the
    reference's sink is a working directory, ScrapeAll.py:5-39).

    A spill-rendered-parts-to-shared-storage variant (each entry task
    writes per-catalog parquet parts, one merge task per catalog; no
    fragment all-to-all) was measured SLOWER here (13-18 s vs 10-13 s
    e2e at the 2.4M-page bench): the single-box object store is shared
    memory, so the disk round-trip loses. Revisit on real multi-node
    clusters where out_dir bandwidth scales with nodes.

    The catalog exchange is a RAW-TASK ref pass, not a Dataset
    all-to-all (the triangle/BSP exchange trick): each entry block
    renders its fragments 32-way and SPLITS them per catalog
    (num_returns = n_catalogs object refs, zero extra copy); each
    catalog's writer task then concats exactly its parts. A
    render-inside-the-writer variant (shuffle raw payloads, render
    per catalog) was measured SLOWER (13.3-17 s vs 9.9-13.8 s same
    window): the biggest catalog's render serializes in one task —
    32-way render beats the shuffle saving."""
    import hashlib

    import ray

    os.makedirs(out_dir, exist_ok=True)

    # ONE execution of the (possibly lazy) entry plan: the catalog
    # discovery scan below and to_arrow_refs must see the SAME blocks
    # — running the upstream plan twice doubles assembly cost and a
    # nondeterministic upstream could desync `cats` from the blocks
    # actually split (review-caught)
    entries = entries.materialize()
    cat_tbl = entries.map_batches(
        lambda b: pd.DataFrame({"catalog": b["catalog"].unique()}),
        batch_format="pandas").to_pandas()
    cats = sorted(cat_tbl["catalog"].unique())
    if not cats:
        if hashes:
            with open(os.path.join(out_dir, "file-hashes.json"),
                      "w") as f:
                json.dump({}, f, indent=4)
        return {}, {}

    def render_split(tbl, cats: list[str]):
        import pyarrow.compute as pc
        # to_arrow_refs hands back the block verbatim — pandas-backed
        # blocks arrive as DataFrames; EMPTY blocks arrive with no
        # columns at all (the documented empty-pandas schema loss)
        df = tbl if isinstance(tbl, pd.DataFrame) else tbl.to_pandas()
        if not len(df):
            empty = pa.table({"catalog": pa.array([], pa.string()),
                              "rank0": pa.array([], pa.int64()),
                              "rank1": pa.array([], pa.string()),
                              "pretty": pa.array([], pa.string()),
                              "compact": pa.array([], pa.string())})
            return [empty] * len(cats) if len(cats) > 1 else empty
        pretty, compact = _fragment_lists(df["catalog"], df["key"],
                                          df["payload"])
        out = pa.table({"catalog": pa.array(df["catalog"]),
                        "rank0": pa.array(df["rank0"].to_numpy()),
                        "rank1": pa.array(df["rank1"]),
                        "pretty": pa.array(pretty),
                        "compact": pa.array(compact)})
        parts = [out.filter(pc.equal(out["catalog"], c)) for c in cats]
        return parts if len(cats) > 1 else parts[0]

    def write_catalog(out_path: str, cat: str, chunk: int, *parts):
        t = pa.concat_tables([p for p in parts if p.num_rows])
        g = t.select(["rank0", "rank1", "pretty", "compact"]).to_pandas()
        g = g.sort_values(["rank0", "rank1"], kind="stable")
        pretty = g["pretty"].tolist()
        compact = g["compact"].tolist()
        md5 = hashlib.md5(b"{")
        # chunked joins keep peak heap ~2 chunks, not 2 files; BINARY
        # writes of pre-encoded chunks — text-mode fp.write measured
        # ~60 MB/s (TextIOWrapper encodes in small internal steps),
        # encode-then-write runs at memory speed (75 MB file: 1.27 s
        # -> ~0.1 s)
        with open(out_path, "wb") as fp:
            fp.write(b"{\n")
            for lo in range(0, len(pretty), chunk):
                hi = min(lo + chunk, len(pretty))
                fp.write(("" if lo == 0 else ",\n").encode("utf-8")
                         + ",\n".join(pretty[lo:hi]).encode("utf-8"))
                md5.update(("" if lo == 0 else ", ").encode("utf-8")
                           + ", ".join(compact[lo:hi]).encode("utf-8"))
            fp.write(b"\n}")
        md5.update(b"}")
        return cat, md5.hexdigest(), len(pretty)

    split_r = ray.remote(render_split)
    write_r = ray.remote(write_catalog)
    per_block = [split_r.options(num_returns=len(cats)).remote(ref, cats)
                 for ref in entries.to_arrow_refs()]
    if len(cats) == 1:
        per_block = [[r] for r in per_block]
    outs = [write_r.remote(os.path.join(out_dir, f"{c}.json"), c, chunk,
                           *[blk[i] for blk in per_block])
            for i, c in enumerate(cats)]
    rows = ray.get(outs)
    res = pd.DataFrame({"catalog": [r[0] for r in rows],
                        "md5": [r[1] for r in rows],
                        "count": [r[2] for r in rows]})
    res = res.sort_values("catalog")  # manifest key order = catalog order
    file_hashes = dict(zip(res["catalog"], res["md5"]))
    counts = {c: int(n) for c, n in zip(res["catalog"], res["count"])}
    if hashes:
        with open(os.path.join(out_dir, "file-hashes.json"), "w") as f:
            json.dump(file_hashes, f, indent=4)
    return file_hashes, counts


def write_catalogs(catalogs: dict[str, dict], out_dir: str,
                   hashes: bool = True) -> dict[str, str]:
    """Dict-input writer (small scale): one pretty-printed JSON per
    catalog (S6) + the md5 manifest (S8, Postprocessing.py:98-110)."""
    os.makedirs(out_dir, exist_ok=True)
    file_hashes = {}
    for catalog, data in catalogs.items():
        path = os.path.join(out_dir, f"{catalog}.json")
        # Arabic preserved where the reference passes ensure_ascii=False
        # (AkwamMoviesScaper.py:76-77, WeCimaScraper.py:74-75, ...)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(data, fp, indent=4,
                      ensure_ascii=catalog in ENSURE_ASCII_CATALOGS)
        file_hashes[catalog] = md5_of_json(data)
    if hashes:
        with open(os.path.join(out_dir, "file-hashes.json"), "w") as fp:
            json.dump(file_hashes, fp, indent=4)
    return file_hashes
