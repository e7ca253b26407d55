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
side. The output is FINAL entries

    (catalog, key, rank0:int64, rank1:str, payload:json-str)

where sorting by (rank0, rank1) inside a catalog reproduces the
reference's dict insertion order exactly. One sink, plus its
small-scale reference:

- ``write_catalogs_parallel`` — the catalog sink: reference-shaped JSON
  files + file-hashes.json, rendered per-entry in workers and written
  by worker tasks that each own a sorted run of whole catalogs (the
  driver never touches payloads);
- ``build_catalogs`` + ``write_catalogs`` — the small-scale dict
  materializer and dict writer (tests, tiny runs, the trending/
  postprocess inputs); ``write_catalogs`` is the byte reference the
  sink is tested against.

Shape of the tail: from the crawl's part files to the catalog files no
``ray.data.Dataset`` exists. The reader, the assembly and the sink hand
each other a ``corpus/storage.py::BlockRefs`` — the block object refs
plus, after assembly, the entries' catalog names — and every step
(read, bucket split, per-bucket emit, render split, write) is a plain
Ray task wave over those refs, windowed to the free CPU slots
(``ops/util.py::submit_windowed``). A Dataset over the same refs
starts Ray Data's stats actor when it is built and its
autoscaling-requester actor on ``to_arrow_refs()``, and
``ray.data.from_arrow_refs`` runs a metadata task per block; on the
benchmark's one pinned core that cost more than the tail's own work.
The catalog names ride along with the bucket split, so no separate
discovery wave reads the blocks.

Sizing: the fan-out follows the input. The bucket count is the record
block count, which ``corpus/storage.py::read_parquet_sized`` derives
from bytes, rows and CPUs (1 on the 25k-page fresh_crawl benchmark, 64
at the 2.4M-page bench on 32 CPUs); the render fan-out is the entry
block count and the writer count ``min(entry blocks, catalogs)``. On
fresh_crawl the tail moves 24k record rows (5 MB) into 7.5k entries,
about 0.7 s of work in one process on one core of a 4-vCPU VM, and
runs as five tasks: read, split, emit, render, write.

Old-catalog size contract: the previous run's catalogs are the
reference's own output files (~15 MB committed snapshot) — dimension-
sized. They are re-emitted as entry rows through the same shuffle, so
even a much larger old side only costs its proportional share of the
bucket pass, not a driver loop.
"""

from __future__ import annotations

import functools
import json
import os

import pandas as pd
import pyarrow as pa

from ..corpus.storage import BlockRefs
from ..functions.hashing import md5_of_json
from ..ops.util import fanout, stable_bucket, submit_windowed

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


def assemble_records(records,
                     old_catalogs: dict | None = None) -> BlockRefs:
    """Distributed end-to-end assembly. ``records`` is a ``BlockRefs``
    (``records_dataset()``) or a ``ray.data.Dataset``; only its
    ``to_arrow_refs()`` is read. Returns the FINAL entries (catalog,
    key, rank0, rank1, payload) as a ``BlockRefs`` carrying their
    catalog names, with nesting, deltas and merge precedence already
    applied; (rank0, rank1) sorts a catalog into the reference's exact
    key order.

    The unit exchange is a RAW-TASK ref pass (the writer's / triangle
    BSP trick, not a Dataset groupby all-to-all): each record block
    buckets and SPLITS itself (num_returns = n_buckets object refs,
    plus one small return: the block's distinct catalog names), each
    bucket task concats exactly its parts and runs the nesting pass.
    There is one bucket per input block (plus one for the old
    catalogs), so the exchange is blocks² task returns sized by
    ``read_parquet_sized``'s data-proportional block count: 1 block on
    the 25k-page fresh_crawl benchmark at 2 CPUs, 64 at the 2.4M-page
    bench on 32 CPUs. Every bucket is a task and every (block, bucket)
    pair an object, so on a small run a count not tied to the input is
    paid in scheduling, not data.

    The split and emit waves each run through ``submit_windowed`` (no
    wider than the free CPU slots); the catalog names are read once the
    split wave has finished, and the call returns after the emit wave
    has finished. With ``old_catalogs``, the old entry rows are split
    after the record blocks, because whether an old catalog merges or
    is carried depends on the catalogs the records hold."""
    import ray

    refs = records.to_arrow_refs()
    n_buckets = max(len(refs) + bool(old_catalogs), 1)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # unit: series for nested rows (co-locates a series' episodes,
        # seasons, deltas and old record), the entry key for flat rows
        # (spreads a flat catalog over every bucket — keying flats by
        # catalog alone measured as a single straggler group at sf0.1)
        unit = df["series_key"].where(df["series_key"] != "", df["key"])
        df["bucket"] = stable_bucket(df["catalog"] + "\x00" + unit, n_buckets)
        # shuffle-column pruning: do NOT carry 'unit' (recomputed per
        # bucket from series_key/key) — every byte here crosses the
        # exchange
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

    def split_block(tbl, nb: int) -> list:
        import numpy as np
        # a Dataset's to_arrow_refs hands back blocks as stored: pandas-
        # backed ones as DataFrames, EMPTY ones with no columns at all
        df = tbl if isinstance(tbl, pd.DataFrame) else tbl.to_pandas()
        if not len(df):
            empty = pa.table({c: pa.array([], pa.string())
                              for c in SHUFFLE_COLS})
            return [empty] * nb + [[]]
        df = add_bucket(df)
        b = df["bucket"].to_numpy(np.int64)
        order = np.argsort(b, kind="stable")
        cuts = np.searchsorted(b[order], np.arange(nb + 1))
        t = pa.Table.from_pandas(df[SHUFFLE_COLS],
                                 preserve_index=False)
        return ([t.take(order[cuts[k]:cuts[k + 1]]) for k in range(nb)]
                + [df["catalog"].unique().tolist()])

    def emit_bucket(*parts) -> pa.Table:
        g = pa.concat_tables(
            [p for p in parts if p.num_rows]).to_pandas() \
            if any(p.num_rows for p in parts) else \
            pd.DataFrame({c: [] for c in SHUFFLE_COLS})
        return per_bucket(g)

    split_n = ray.remote(split_block).options(num_returns=n_buckets + 1)
    emit_r = ray.remote(emit_bucket)

    def split_wave(blocks: list) -> tuple[list, set[str]]:
        per_block = submit_windowed(
            functools.partial(split_n.remote, blk, n_buckets)
            for blk in blocks)
        return per_block, set().union(
            *ray.get([parts[-1] for parts in per_block]))

    per_block, cats = split_wave(refs)
    if old_catalogs:
        old_parts, old_cats = split_wave(
            [_old_entry_table(old_catalogs, cats)])
        per_block += old_parts
        cats |= old_cats
    return BlockRefs(submit_windowed(
        functools.partial(emit_r.remote, *[blk[k] for blk in per_block])
        for k in range(n_buckets)), sorted(cats))


# --------------------------------------------------------------------------
# Materializers / writers
# --------------------------------------------------------------------------

def build_catalogs(entries) -> dict[str, dict]:
    """Small-scale materializer: final entry rows → {catalog:
    dict-of-dicts} in the reference's key order. Driver-side by design —
    use only where a python dict is the consumer (tests, trending/
    postprocess inputs, tiny runs); the scale sink is
    ``write_catalogs_parallel``."""
    if not isinstance(entries, pd.DataFrame):
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
        entries: BlockRefs, out_dir: str, hashes: bool = True,
        chunk: int = 16384) -> tuple[dict[str, str], dict[str, int]]:
    """The catalog sink for ``assemble_records``' entries — only those:
    the sink needs the catalog names that handle carries
    (``entries.catalogs``), and any other input raises. Fragments
    render in one task per entry block (``_fragment_lists``), then each
    WRITER task takes a sorted run of whole catalogs and, per catalog,
    sorts its fragments, streams the JSON file and folds the md5 — the
    driver never touches payload bytes (the md5 byte stream is
    sequential per FILE, so one catalog never spans writers). Byte-
    identical output to ``write_catalogs(build_catalogs(entries))``; a
    catalog name with no entry rows writes no file. On a multi-node
    cluster ``out_dir`` must be shared storage (the reference's sink is
    a working directory, ScrapeAll.py:5-39).

    Sizing follows the data: the render fan-out is the entry block
    count (= ``assemble_records``' bucket count) and the writer count
    is ``min(entry blocks, catalogs)`` — one writer on fresh_crawl's
    single block, one per catalog at the 2.4M-page bench's 64 blocks.
    The catalog names come with the entries (``BlockRefs.catalogs``,
    gathered in the assembly's split wave), so no discovery wave runs.

    A spill-rendered-parts-to-shared-storage variant (each entry task
    writes per-catalog parquet parts, one merge task per catalog; no
    fragment all-to-all) was measured SLOWER here (13-18 s vs 10-13 s
    e2e at the 2.4M-page bench): the single-box object store is shared
    memory, so the disk round-trip loses. Revisit on real multi-node
    clusters where out_dir bandwidth scales with nodes.

    The catalog exchange is a RAW-TASK ref pass, not a Dataset
    all-to-all (the triangle/BSP exchange trick): each entry block
    renders its own fragments and SPLITS them per writer
    (num_returns = n_writers object refs); each writer task then
    concats exactly its parts. A render-inside-the-writer variant
    (shuffle raw payloads, render per catalog) was measured SLOWER
    (13.3-17 s vs 9.9-13.8 s same window at the 2.4M-page bench): the
    biggest catalog's render serializes in one task.

    Both task waves — render split (through ``ops/util.py::fanout``)
    and write — run through ``submit_windowed``, no wider than the free
    CPU slots, so neither makes Ray prestart workers."""
    import hashlib

    import pyarrow.compute as pc
    import ray

    cats = getattr(entries, "catalogs", None)
    if cats is None:
        raise TypeError("write_catalogs_parallel needs assemble_records' "
                        "entries (a BlockRefs carrying catalog names)")
    os.makedirs(out_dir, exist_ok=True)
    refs = entries.to_arrow_refs()
    n_writers = min(len(refs), len(cats))
    runs = [cats[k * len(cats) // n_writers:(k + 1) * len(cats) // n_writers]
            for k in range(n_writers)]

    def render_split(tbl: pa.Table, runs: list[list[str]]):
        pretty, compact = _fragment_lists(tbl["catalog"].to_pylist(),
                                          tbl["key"].to_pylist(),
                                          tbl["payload"].to_pylist())
        out = pa.table({"catalog": tbl["catalog"], "rank0": tbl["rank0"],
                        "rank1": tbl["rank1"],
                        "pretty": pa.array(pretty, pa.string()),
                        "compact": pa.array(compact, pa.string())})
        return [out.filter(pc.is_in(out["catalog"], pa.array(run)))
                for run in runs]

    def write_catalog(out_path: str, g: pd.DataFrame, chunk: int) -> str:
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
        return md5.hexdigest()

    def write_run(out_dir: str, chunk: int, *parts):
        df = pa.concat_tables(parts).to_pandas()
        return [(cat, write_catalog(os.path.join(out_dir, f"{cat}.json"),
                                    g, chunk), len(g))
                for cat, g in df.groupby("catalog", sort=True)]

    rows = []
    if n_writers:
        write_r = ray.remote(write_run)
        per_block = submit_windowed(
            functools.partial(fanout, render_split, n_writers, ref, runs)
            for ref in refs)
        for run_rows in ray.get(submit_windowed(
                functools.partial(write_r.remote, out_dir, chunk,
                                  *[blk[i] for blk in per_block])
                for i in range(n_writers))):
            rows += run_rows
    rows.sort()   # manifest key order = catalog order
    file_hashes = {cat: md5 for cat, md5, _ in rows}
    counts = {cat: n for cat, _, n in rows}
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
