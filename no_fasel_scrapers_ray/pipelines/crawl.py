"""The crawl round loop: frontier shards → groupby-host partitioning →
fetch actor pool → stateless extract → records sink + links back to the
frontier (SURVEY.md §7.0 stage layout).

Each round:
1. every shard pops its ready frontier rows (one politeness tick) and
   publishes the table straight to the object store; only compact
   planning columns — dictionary-encoded hosts + uint64 url hashes —
   and the ObjectRefs return to the driver (the full rows never transit
   driver memory; the merged (site, depth, order_key)-ordered pop log
   is materialized per round by the checkpoint task, not the driver);
2. rows are partitioned by (host, salt) — the groupby-host shuffle with
   explicit hot-host salting: a host holding more than ``1/hot_frac``
   of the round is split into ⌈share×salts⌉ sub-buckets so one hot site
   (fasel, ~80% of pages) cannot serialize the fetch pool;
3. ``_crawl_block`` tasks fetch each block against the corpus with a
   BOUNDED retry loop (the reference retries its GET in-process forever,
   Common.py:110-136; the engine caps at ``max_attempts`` and routes
   exhausted/missing rows to a per-round dead-letter parquet sink);
4. a stateless extract runs the site adapters; links are pushed to the
   frontier shards from INSIDE the tasks (batched per shard — no driver
   round-trip for discoveries), records stream to a per-round parquet
   partition (resumable layout);
5. the shards checkpoint (heap + spilled exact seen set) → exact resume.

The loop ends when every shard's heap is empty.
"""

from __future__ import annotations

import functools
import json
import os
import time
import uuid
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.util.scheduling_strategies import (
    NodeAffinitySchedulingStrategy)

from ..corpus.schema import FRONTIER_SCHEMA
from ..corpus.spans import pages_from_arrow
from ..corpus.storage import (CORPUS_SALTS, BlockRefs,
                               read_parquet_sized, write_corpus)
from ..functions.hashing import stable_hash64
from ..functions.urls import canonicalize_url
from ..ops.util import submit_windowed
from ..state.frontier import (
    _SORT_KEYS, PUSH_SCHEMA, FrontierShard, PolitenessConfig, push_table)
from ..stages.adapters import extract_page, seed_rows
# top-level (not inside the remote fns): workers resolve these through
# the by-value-pickled module globals — a runtime relative import inside
# a task body would re-import the package on the worker, which fails
# when /root/repo is not on the worker's sys.path
from ..stages.fetch import get_fetcher
from ..stages.parse import page_stats_record

RECORD_COLS = ["catalog", "record_type", "key", "series_key", "season_key",
               "order_key", "payload"]
RECORD_SCHEMA_FLAT = pa.schema([(c, pa.string()) for c in RECORD_COLS])

DEAD_COLS = ["url", "host", "site", "category", "depth"]
DEAD_SCHEMA = pa.schema([
    ("url", pa.string()), ("host", pa.string()), ("site", pa.string()),
    ("category", pa.string()), ("depth", pa.int64()),
    ("reason", pa.string()), ("attempts", pa.int32())])

# per-worker broadcast crawl state — bounded LRU: a run touches one
# pinned state ref, but warm workers outlive the run, and an UNBOUNDED
# cache would keep every past run's state (old-catalog digests, image
# sources, fail plan) pinned in the object store after
# CrawlEngine.release() (zero-copy views pin the object)
_BCAST: "OrderedDict[str, object]" = OrderedDict()
_BCAST_CAP = 4
# round-scoped per-worker cache (per-round shard tables): bounded LRU so
# long crawls don't accumulate every round's tables in worker heaps
_BCAST_LRU: "OrderedDict[str, object]" = OrderedDict()
_BCAST_LRU_CAP = 16


def _bget(ref, pin: bool = True):
    key = ref.hex()
    if pin:
        if key in _BCAST:
            _BCAST.move_to_end(key)
            return _BCAST[key]
        val = ray.get(ref)
        _BCAST[key] = val
        while len(_BCAST) > _BCAST_CAP:
            _BCAST.popitem(last=False)
        return val
    if key in _BCAST_LRU:
        _BCAST_LRU.move_to_end(key)
        return _BCAST_LRU[key]
    val = ray.get(ref)
    _BCAST_LRU[key] = val
    while len(_BCAST_LRU) > _BCAST_LRU_CAP:
        _BCAST_LRU.popitem(last=False)
    return val


def link_hashes(links: list[dict]) -> np.ndarray:
    """Canonical-URL hashes, computed ONCE in the (parallel) extract
    task and shipped with the push — the shard actors never re-hash."""
    out = np.empty(len(links), dtype=np.uint64)
    for i, lk in enumerate(links):
        out[i] = stable_hash64(canonicalize_url(lk["url"]))
    return out


def push_links(links: list[dict], shards, n_shards: int) -> None:
    """Route links to their shards by hash and push Arrow tables."""
    if not links:
        return
    hashes = link_hashes(links)
    table = push_table(links, hashes)
    owners = (hashes % np.uint64(n_shards)).astype(np.int64)
    refs = []
    for s in range(n_shards):
        idx = np.flatnonzero(owners == s)
        if len(idx):
            refs.append(shards[s].push.remote(table.take(pa.array(idx))))
    ray.get(refs)


def partition_blocks(codes: np.ndarray, h: np.ndarray,
                     n_salts: int) -> list[np.ndarray]:
    """The groupby-host shuffle with hot-host salting, over the compact
    planning columns (int host codes + uint64 url hashes): one
    ROW-INDEX array per (host, salt) bucket, sized so each bucket holds
    ~target rows (~2 blocks per fetch slot).

    Salt ALIGNMENT: the primary split inside a host follows
    ``h % CORPUS_SALTS`` — the same url hash that partitioned the
    on-disk corpus (corpus/storage.py::url_salts) — so a block's worker
    reads exactly the corpus partitions its rows live in. Oversized salt
    groups stripe-split WITHIN the salt (still one partition);
    undersized groups of the same host coalesce (a merged block touches
    the few partitions it carries, each loaded once per worker)."""
    n = len(codes)
    target = max(256, -(-n // (2 * n_salts)))
    out = []
    for code in np.unique(codes):
        rows = np.flatnonzero(codes == code)
        salts = (h[rows] % np.uint64(CORPUS_SALTS)).astype(np.int64)
        pending: list[np.ndarray] = []
        pend_n = 0
        for s in range(CORPUS_SALTS):
            grp = rows[salts == s]
            if not len(grp):
                continue
            if len(grp) >= target:
                splits = -(-len(grp) // target)
                for k in range(splits):
                    out.append(grp[k::splits])
            else:
                pending.append(grp)
                pend_n += len(grp)
                if pend_n >= target:
                    out.append(np.concatenate(pending))
                    pending, pend_n = [], 0
        if pending:
            out.append(np.concatenate(pending))
    return [ix for ix in out if len(ix)]


def _fetch_with_retry(fetcher, batch: pa.Table, fail_plan: dict | None,
                      max_attempts: int) -> tuple[pa.Table, list[dict]]:
    """Bounded in-task retry around the fetch (the reference's
    ``get_website_safe`` loops its GET forever, Common.py:110-136; the
    engine caps at ``max_attempts`` per SURVEY §4.1). Returns the
    fetched rows in ORIGINAL batch order (late retry successes are
    re-sorted back, so extraction order — and hence record/link
    ordering — is independent of the retry schedule) plus dead-letter
    rows: ``missing`` = URL not in the corpus (permanent, the 404
    analogue), ``transient`` = simulated failures that exhausted the
    budget. ``fail_plan`` (url → #transient failures before success) is
    the sandbox's deterministic stand-in for flaky HTTP."""
    dead: list[dict] = []
    pend = batch.append_column(
        "_ix", pa.array(np.arange(batch.num_rows, dtype=np.int64)))
    fetched_parts: list[pa.Table] = []
    for attempt in range(max_attempts):
        if fail_plan:
            urls = pend.column("url").to_pylist()
            fmask = np.fromiter(
                (attempt < fail_plan.get(u, 0) for u in urls),
                dtype=bool, count=len(urls))
        else:
            fmask = None
        trial = pend.filter(pa.array(~fmask)) if fmask is not None \
            and fmask.any() else pend
        if trial.num_rows:
            got = fetcher(trial)
            fetched_parts.append(got)
            if got.num_rows < trial.num_rows:   # permanent misses
                hit = set(got.column("url").to_pylist())
                for r in trial.select(DEAD_COLS).to_pylist():
                    if r["url"] not in hit:
                        dead.append({**r, "reason": "missing",
                                     "attempts": attempt + 1})
        if fmask is None or not fmask.any():
            pend = pend.slice(0, 0)
            break
        pend = pend.filter(pa.array(fmask))
    if pend.num_rows:
        for r in pend.select(DEAD_COLS).to_pylist():
            dead.append({**r, "reason": "transient",
                         "attempts": max_attempts})
    if not fetched_parts:
        return batch.slice(0, 0), dead
    fetched = pa.concat_tables(fetched_parts)
    # UNCONDITIONAL: the fetcher returns rows regrouped by (host,
    # salt) partition, so even the no-retry single-part case needs the
    # original-order restore (the retry-only sort made row order
    # depend on the retry schedule)
    fetched = fetched.sort_by([("_ix", "ascending")])
    return fetched.drop_columns(["_ix"]), dead


@ray.remote
def _split_pop_table(refs: list, *locs):
    """Slice one shard's popped table into per-block parts ON THE
    SHARD'S OWN NODE (scheduled with its node affinity): each block
    then gathers only its own slices, so every popped byte crosses a
    raylet boundary at most ONCE — without the pre-split, every node
    pulls every shard's WHOLE table (≈3× the bytes on a 4-node
    cluster). Uses direct ``num_returns`` task returns so the
    per-slice refs exist at SUBMISSION time — no driver ray.get
    barrier between the split wave and the block launches (a blocking
    resolve measured as a visible per-round latency tax)."""
    # plain ray.get: the popped table is consumed once per round by
    # this split — caching it would evict genuinely reusable LRU
    # entries on every round
    t = ray.get(refs[0])
    out = [t.take(pa.array(loc)) for loc in locs]
    return out[0] if len(out) == 1 else tuple(out)


@ray.remote
def _crawl_block(parts: list, refs: list, shards, n_shards: int,
                 out_path: str, pages_path: str, dead_path: str,
                 max_attempts: int,
                 presplit: bool = False) -> tuple[int, int, int, int]:
    """One (host, salt) block of a crawl round: fetch+extract every
    row, write this block's records parquet part, push discovered
    links once. ``parts`` is a list of (shard-slot, row-index array)
    pairs into the per-shard popped tables — the block gathers its rows
    worker-side from the shard-published objects (no driver funnel).
    Runs as a raw Ray task: a crawl round is a small, latency-sensitive
    barrier over shared mutable frontier state — the case the design
    brief reserves for raw tasks. Per-round Dataset executions measured
    8+ s of pure startup/teardown dead time across a 6-round crawl; the
    batch-level transform itself is unchanged.

    Catalog records and per-page parse stats go to SEPARATE parquet
    prefixes: assembly reads only catalog rows (never the ~3× larger
    page-stat stream), page analytics read only pages/; dead-letter
    rows (bounded-retry exhaustion / permanent misses) to a third.

    Returns (records + page rows written, dead-lettered rows, gather
    bytes that crossed a raylet, gather bytes read locally); the byte
    counts are measured in pre-split mode only (0 otherwise, -1 when
    the instrument is unavailable).
    """
    # refs wrapped in a list so Ray does NOT auto-dereference them —
    # the workers resolve them once via the per-process caches
    table_refs, corpus_path, state_ref = refs
    # mode is an EXPLICIT flag from the caller (ADVICE r04: the old
    # isinstance(parts[0], tuple) sniff would misroute exotic part
    # containers into the wrong gather branch)
    cross_bytes = local_bytes = 0
    if presplit and parts:
        # pre-split mode (multi-raylet): parts are refs to this
        # block's OWN slices, already cut on each shard's node —
        # gather moves exactly this block's bytes, once
        # plain ray.get: each slice is consumed by exactly this
        # block — LRU-caching single-use tables would only evict
        # reusable entries
        #
        # BYTE ACCOUNTING (VERDICT r04 #3): each slice is consumed
        # exactly once, so its plasma location BEFORE the gather says
        # definitively whether this get crosses a raylet boundary —
        # the measured number behind the multi-raylet efficiency
        # decomposition (on one box a "cross" transfer is a loopback
        # memcpy that a real separate node would not pay twice).
        try:
            import ray.experimental
            locs = ray.experimental.get_object_locations(
                list(parts), timeout_ms=2000)
            me = ray.get_runtime_context().get_node_id()
            for ref in parts:
                info = locs.get(ref) or {}
                sz = int(info.get("object_size") or 0)
                nodes = info.get("node_ids") or []
                # empty node list = inlined small object (rides the
                # owner RPC, never a plasma transfer) → local
                if not nodes or me in nodes:
                    local_bytes += sz
                else:
                    cross_bytes += sz
        except Exception:
            cross_bytes = local_bytes = -1   # instrument unavailable
        block = pa.concat_tables(ray.get(list(parts)))
    else:
        block = pa.concat_tables([
            _bget(table_refs[slot], pin=False).take(pa.array(loc))
            for slot, loc in parts])
    fetcher = get_fetcher(corpus_path)
    state = _bget(state_ref)
    fail_plan = state.get("fail_plan")
    records: list[dict] = []
    pages: list[dict] = []
    links: list[dict] = []
    dead: list[dict] = []
    for lo in range(0, block.num_rows, 2048):
        batch = block.slice(lo, 2048)
        fetched, dead_rows = _fetch_with_retry(
            fetcher, batch, fail_plan, max_attempts)
        dead.extend(dead_rows)
        if fetched.num_rows == 0:   # whole sub-batch dead-lettered
            continue
        frontier_cols = {c: fetched.column(c).to_pylist()
                         for c in FRONTIER_SCHEMA.names
                         if c in fetched.column_names}
        # columnar page views: three flat child to_pylist calls for the
        # whole batch instead of one python dict per span
        views = pages_from_arrow(fetched.column("spans"),
                                 fetched.num_rows)
        for i in range(fetched.num_rows):
            row = {c: frontier_cols[c][i] for c in frontier_cols}
            page = views[i]
            recs, lks = extract_page(row, page, state)
            records.extend(recs)
            links.extend(lks)
            pages.append(page_stats_record(row, page))
    push_links(links, shards, n_shards)
    for rows, path in ((records, out_path), (pages, pages_path)):
        arrays = {c: pa.array([r[c] for r in rows], type=pa.string())
                  for c in RECORD_COLS}
        pq.write_table(pa.table(arrays, schema=RECORD_SCHEMA_FLAT), path)
    if dead:
        pq.write_table(pa.table(
            {c.name: pa.array([r[c.name] for r in dead], type=c.type)
             for c in DEAD_SCHEMA}, schema=DEAD_SCHEMA), dead_path)
    return len(records) + len(pages), len(dead), cross_bytes, local_bytes


@ray.remote
def _write_popped(table: pa.Table, path: str) -> int:
    """One shard's popped slice of the round (already priority-sorted
    by pop_ready) → parquet. Runs as a plain task over the
    shard-published object — parallel across shards and OFF the shard
    actors, whose next pop would otherwise queue behind the write."""
    pq.write_table(table, path)
    return table.num_rows


@ray.remote
def _write_manifest(ckpt_dir: str, manifest: dict, *shard_ckpts) -> int:
    """MANIFEST.json is resume()'s completeness marker; passing the
    shard checkpoint results as args makes Ray schedule this AFTER
    every shard has written its heap / seen runs / popped slice, so a
    crash mid-round leaves an ignorable partial dir. (The round's
    merged pop log is NOT materialized here: each shard's popped slice
    is already priority-sorted, and re-sorting the whole round in one
    task every round measured as the loop's dominant cost.)"""
    with open(os.path.join(ckpt_dir, "MANIFEST.json"), "w") as fp:
        json.dump(manifest, fp)
    return len(shard_ckpts)


@ray.remote
def _warm_worker(corpus_path: str) -> int:
    """Spawns the fetch workers and registers each one's fetcher so
    the timed crawl measures steady-state throughput, not cluster
    warmup (corpus partitions still load on first contact). The 0.5 s
    hold keeps every task of the warm-up wave busy at once, so Ray
    leases one worker per task instead of reusing one warm process.
    The crawl's own waves never start workers: they are windowed to
    the free CPU slots (ops/util.py::submit_windowed), which these
    workers already cover."""
    get_fetcher(corpus_path)
    time.sleep(0.5)
    return os.getpid()


class CrawlEngine:
    def __init__(self, corpus: pa.Table | str, seeds: list[dict],
                 run_dir: str, n_shards: int = 4,
                 politeness: PolitenessConfig | None = None,
                 old_catalogs: dict | None = None,
                 image_sources: dict | None = None,
                 fetch_concurrency: int = 4,
                 max_pop_per_round: int = 1 << 30,
                 max_attempts: int = 3,
                 fail_plan: dict | None = None,
                 seen_buffer_cap: int = 1 << 20):
        self.run_dir = run_dir
        os.makedirs(os.path.join(run_dir, "records"), exist_ok=True)
        os.makedirs(os.path.join(run_dir, "ckpt"), exist_ok=True)
        self.n_shards = n_shards
        # SPREAD the shard actors across nodes: Ray's default actor
        # placement packs them onto the submitting node, which in
        # multi-node runs funnels every hash-routed push/pop RPC and
        # its plasma traffic through ONE raylet (no-op on one node).
        # Each shard spills its exact seen-set runs under the run dir
        # (shared storage in a real deployment, like the records sink).
        self.shards = [
            FrontierShard.options(scheduling_strategy="SPREAD")
            .remote(i, n_shards, politeness,
                    spill_dir=os.path.join(run_dir, "state", f"shard-{i}"),
                    seen_buffer_cap=seen_buffer_cap)
            for i in range(n_shards)
        ]
        # corpus: the (host, salt)-partitioned store workers read
        # themselves. An in-memory table is written once under run_dir,
        # in a directory unique to this engine: worker fetchers are
        # cached by path, so a reused run_dir must never alias a store
        # that another corpus was written to.
        if not isinstance(corpus, str):
            corpus = write_corpus(corpus, os.path.join(
                run_dir, "corpus", uuid.uuid4().hex))
        self.corpus_path = corpus
        self.state_ref = ray.put({
            "old": _old_digests(old_catalogs or {}),
            "images": image_sources or {},
            "fail_plan": fail_plan,
        })
        self.fetch_concurrency = fetch_concurrency
        # block→shard-node locality (VERDICT r03 #3): on multi-raylet
        # clusters, schedule each fetch block near the shard actor that
        # published the plurality of its rows — the popped-table gather
        # (the block's only cross-raylet plasma input) becomes
        # mostly-local. soft=True keeps work-stealing alive; on a
        # single node every shard reports the same id and the strategy
        # list stays empty (zero overhead).
        self._shard_nodes = ray.get([s.node_id.remote()
                                     for s in self.shards])
        self._use_affinity = len(set(self._shard_nodes)) > 1
        # pre-split popped tables into per-block slices on their
        # owning shard's node (each byte crosses a raylet once) — on
        # multi-raylet clusters only. On a single node the whole-table
        # gather is already zero-copy plasma-shared, and the extra task
        # wave measured slower (BASELINE.md, pre-split section).
        self._presplit = self._use_affinity
        self.max_pop = max_pop_per_round
        self.max_attempts = max_attempts
        self.metrics = {"rounds": 0, "popped": 0, "records": 0,
                        "dead_lettered": 0,
                        "round_secs": [], "driver_secs": []}
        self._push_rows(seed_rows(seeds))
        self.round_idx = 0

    def warmup(self) -> int:
        """Spawn ~one worker per CPU and register each worker's
        fetcher. Optional; bench.py calls it so throughput timing starts
        from a warm cluster. This is the only wave that starts workers
        on purpose: it runs before the timed part and submits every
        task at once. The round's block waves are at most the free CPU
        slots wide (CPUs minus the 0.25 each frontier shard holds), so
        they always find a warm worker."""
        refs = [_warm_worker.remote(self.corpus_path)
                for _ in range(int(ray.cluster_resources().get("CPU", 4)))]
        return len(set(ray.get(refs)))

    # -- frontier I/O ------------------------------------------------------

    def _push_rows(self, rows: list[dict]):
        push_links(rows, self.shards, self.n_shards)

    # -- the round ---------------------------------------------------------

    def run(self, start_round: int = 0, max_rounds: int | None = None) -> dict:
        """Drive rounds until the frontier drains (or ``max_rounds`` —
        used by the kill-and-resume test to simulate a crash)."""
        self.round_idx = start_round
        while True:
            if max_rounds is not None and \
                    self.round_idx - start_round >= max_rounds:
                # simulated crash AFTER the round's checkpoint settled
                # (no finalize) — the scenario kill-and-resume models
                if getattr(self, "_ckpt_refs", None):
                    ray.get(self._ckpt_refs)
                return self.metrics
            t0 = time.perf_counter()
            metas = ray.get([s.pop_ready_meta.remote(self.max_pop)
                             for s in self.shards])
            popped = sum(m["rows"] for m in metas)
            if popped == 0:
                break
            n_records, n_dead = self._execute_round(metas)
            # metrics BEFORE the checkpoint that snapshots them — the
            # old order wrote a manifest missing its own round's
            # counters, so every kill-and-resume under-counted by one
            # round (checkpoint launch is non-blocking; dt excludes
            # only its ~ms submit cost)
            dt = time.perf_counter() - t0
            self.metrics["rounds"] += 1
            self.metrics["popped"] += popped
            self.metrics["records"] += max(n_records, 0)
            self.metrics["dead_lettered"] += n_dead
            self.metrics["round_secs"].append(round(dt, 3))
            self._checkpoint_round(metas, popped)
            self.round_idx += 1
        self._finalize()
        return self.metrics

    def _plan_round(self, metas: list[dict]) -> tuple[list, list]:
        """(host, salt) block planning over the compact columns the
        shards returned; each block maps back to (shard-slot, local
        row-index) parts — the only per-row driver state this round is
        two int codes + one uint64 per URL."""
        live = [m for m in metas if m["rows"]]
        host_map: dict[str, int] = {}
        codes_p, h_p, slot_p, local_p = [], [], [], []
        for slot, m in enumerate(live):
            remap = np.array([host_map.setdefault(hn, len(host_map))
                              for hn in m["host_dict"]], dtype=np.int64)
            codes_p.append(remap[m["host_codes"]])
            h_p.append(np.asarray(m["h"], dtype=np.uint64))
            slot_p.append(np.full(m["rows"], slot, dtype=np.int64))
            local_p.append(np.arange(m["rows"], dtype=np.int64))
        codes = np.concatenate(codes_p)
        h = np.concatenate(h_p)
        slots = np.concatenate(slot_p)
        locs = np.concatenate(local_p)
        blocks = partition_blocks(codes, h, n_salts=self.fetch_concurrency)
        parts_blocks = []
        for idx in blocks:
            sl, lc = slots[idx], locs[idx]
            parts_blocks.append(
                [(int(s), lc[sl == s]) for s in np.unique(sl)])
        live_idx = [i for i, m in enumerate(metas) if m["rows"]]
        return parts_blocks, [m["ref"][0] for m in live], live_idx

    def _execute_round(self, metas: list[dict]) -> tuple[int, int]:
        """One round: host-partition the ready set (with hot-host
        salting) and run one raw _crawl_block task per block — the
        fused fetch+extract+sink+push transform. Fetch state (loaded
        corpus partitions and their URL indexes) is cached per worker
        process (stages/fetch.py:get_fetcher) so warm workers carry it
        across rounds with zero spin-up.

        Blocks are submitted through ``submit_windowed``: no more in
        flight than the CPU slots free when the round starts, the next
        block going out as one finishes. Submitting the whole round at
        once made the raylet prestart workers for the backlog: a
        fresh_crawl run (2 Ray CPUs, 4 shards at 0.25) started 4 that
        never ran a task, and its blocks alternated between two
        workers' partition caches. The window there is 1 block wide
        (2 CPUs - 1.0 held by the shards); at bench.py's 32-CPU shape
        (8 shards) it is 30. ``driver_secs`` counts planning and
        submit time only, not the window's waits."""
        t0 = time.perf_counter()
        out_dir = os.path.join(self.run_dir, "records",
                               f"round={self.round_idx:04d}")
        pages_dir = os.path.join(self.run_dir, "pages",
                                 f"round={self.round_idx:04d}")
        dead_dir = os.path.join(self.run_dir, "dead_letter",
                                f"round={self.round_idx:04d}")
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(pages_dir, exist_ok=True)
        os.makedirs(dead_dir, exist_ok=True)
        parts_blocks, table_refs, live_idx = self._plan_round(metas)
        block_parts: list | None = None
        if self._presplit and parts_blocks:
            # per-slot slice plan in BLOCK order; within a block the
            # slice order must match the legacy gather's sorted-slot
            # order exactly (row order feeds the fetch sequence)
            per_slot: dict[int, list] = {}
            for k, parts in enumerate(parts_blocks):
                for s, loc in parts:
                    per_slot.setdefault(int(s), []).append((k, loc))
            by_block: list[dict] = [dict() for _ in parts_blocks]
            for s, entries in per_slot.items():
                opts = {"num_returns": len(entries)}
                if self._use_affinity:
                    opts["scheduling_strategy"] = \
                        NodeAffinitySchedulingStrategy(
                            node_id=self._shard_nodes[live_idx[s]],
                            soft=True)
                task = _split_pop_table.options(**opts)
                slice_refs = task.remote(
                    [table_refs[s]], *[loc for _, loc in entries])
                if len(entries) == 1:
                    slice_refs = [slice_refs]
                for (k, _), r in zip(entries, slice_refs):
                    by_block[k][s] = r
            block_parts = [[d[s] for s in sorted(d)] for d in by_block]
        plan_s = time.perf_counter() - t0
        submit_s = 0.0

        def submit(k: int, parts: list):
            nonlocal submit_s
            t = time.perf_counter()
            task = _crawl_block
            if self._use_affinity:
                big = max(parts, key=lambda p: len(p[1]))[0]
                task = _crawl_block.options(
                    scheduling_strategy=NodeAffinitySchedulingStrategy(
                        node_id=self._shard_nodes[live_idx[big]],
                        soft=True))
            ref = task.remote(
                block_parts[k] if block_parts is not None else parts,
                [table_refs, self.corpus_path, self.state_ref],
                self.shards, self.n_shards,
                os.path.join(out_dir, f"part-{k:05d}.parquet"),
                os.path.join(pages_dir, f"part-{k:05d}.parquet"),
                os.path.join(dead_dir, f"part-{k:05d}.parquet"),
                self.max_attempts,
                presplit=block_parts is not None)
            submit_s += time.perf_counter() - t
            return ref

        refs = submit_windowed(functools.partial(submit, k, parts)
                               for k, parts in enumerate(parts_blocks))
        # planning + submit only: the window's waits are block run time
        self.metrics["driver_secs"].append(round(plan_s + submit_s, 3))
        results = ray.get(refs)
        # per-round gather-byte ledger (pre-split mode only, where a
        # slice's pre-get plasma location is an exact transfer oracle)
        if block_parts is not None and results and \
                all(r[2] >= 0 for r in results):
            self.metrics.setdefault("gather_cross_bytes", []).append(
                int(sum(r[2] for r in results)))
            self.metrics.setdefault("gather_local_bytes", []).append(
                int(sum(r[3] for r in results)))
        return (sum(r[0] for r in results), sum(r[1] for r in results))

    # -- checkpoint / resume (per-partition lineage, north_rule) -----------

    def _checkpoint_round(self, metas: list[dict], popped: int):
        ckpt = os.path.join(self.run_dir, "ckpt", f"round-{self.round_idx:04d}")
        os.makedirs(ckpt, exist_ok=True)
        # non-blocking: settle the previous round's checkpoint instead
        # of stalling this round on shard serialization
        if getattr(self, "_ckpt_refs", None):
            ray.get(self._ckpt_refs)
        ck_refs = [s.checkpoint.remote(ckpt) for s in self.shards]
        ck_refs += [
            _write_popped.remote(
                m["ref"][0],
                os.path.join(ckpt, f"popped-{i}.parquet"))
            for i, m in enumerate(metas) if m["rows"]]
        manifest = {"round": self.round_idx,
                    "popped": popped,
                    "n_shards": self.n_shards,
                    "metrics": json.loads(json.dumps(self.metrics))}
        self._ckpt_refs = ck_refs + [
            _write_manifest.remote(ckpt, manifest, *ck_refs)]

    def resume(self) -> int:
        """Restore frontier state from the latest complete checkpoint;
        returns the next round index. Records of completed rounds are
        already on disk (per-round partitions are skipped, not redone)."""
        ckpt_root = os.path.join(self.run_dir, "ckpt")
        # NUMERIC sort: lexicographic breaks at round 10000
        # ("round-10000" < "round-9999")
        rounds = sorted(
            (d for d in os.listdir(ckpt_root)
             if os.path.exists(os.path.join(ckpt_root, d,
                                            "MANIFEST.json"))),
            key=lambda d: int(d.rsplit("-", 1)[-1]))
        if not rounds:
            return 0
        last = os.path.join(ckpt_root, rounds[-1])
        ray.get([s.restore.remote(last) for s in self.shards])
        with open(os.path.join(last, "MANIFEST.json")) as fp:
            manifest = json.load(fp)
        self.metrics = manifest["metrics"]
        return manifest["round"] + 1

    def _settle(self):
        if getattr(self, "_ckpt_refs", None):
            ray.get(self._ckpt_refs)
            self._ckpt_refs = []

    def _finalize(self):
        self._settle()
        stats = ray.get([s.stats.remote() for s in self.shards])
        self.metrics["shards"] = stats
        with open(os.path.join(self.run_dir, "metrics.json"), "w") as fp:
            json.dump(self.metrics, fp, indent=2)

    # -- outputs -----------------------------------------------------------

    def records_dataset(self) -> BlockRefs:
        """Catalog record rows only (page stats live under pages/), as
        the block-ref handle ``read_parquet_sized`` returns."""
        return read_parquet_sized(os.path.join(self.run_dir, "records"))

    def pages_dataset(self) -> BlockRefs:
        """Per-page parse artifacts: span-sequence fingerprint + text
        stats for every fetched page (stages/parse.py)."""
        return read_parquet_sized(os.path.join(self.run_dir, "pages"))

    def dead_letter_dataset(self) -> BlockRefs:
        """Bounded-retry exhaustions + permanent fetch misses, with the
        frontier row, reason and attempt count (SURVEY §4.1; replaces
        the reference's infinite retry, Common.py:110-136). With none,
        one empty block of DEAD_SCHEMA."""
        root = os.path.join(self.run_dir, "dead_letter")
        has_rows = os.path.isdir(root) and any(
            f.endswith(".parquet")
            for _, _, fs in os.walk(root) for f in fs)
        if not has_rows:
            return BlockRefs([ray.put(DEAD_SCHEMA.empty_table())])
        return read_parquet_sized(root)

    def frontier_log_table(self) -> pa.Table:
        """The merged (site, depth, order_key)-ordered pop log,
        assembled at READ time from the per-round per-shard popped
        slices in the checkpoint dirs — the driver holds no round data
        during the crawl, and the crawl loop never merges or re-sorts a
        round (each shard slice is already priority-sorted; the r02
        loop kept every popped table in driver RAM, and an interim r3
        design that merge-sorted each round in a checkpoint task
        measured as the loop's dominant cost). Rounds concatenate in
        order; rows merge by sort key WITHIN each round only.
        Test/driver-gate API: materializes O(total popped) in the
        CALLER; at scale consume the popped slices as a Dataset."""
        self._settle()
        ckpt_root = os.path.join(self.run_dir, "ckpt")
        tables = []
        if os.path.isdir(ckpt_root):
            for r in sorted(os.listdir(ckpt_root),
                            key=lambda d: int(d.rsplit("-", 1)[-1])
                            if d.rsplit("-", 1)[-1].isdigit() else -1):
                mf = os.path.join(ckpt_root, r, "MANIFEST.json")
                if not os.path.exists(mf):
                    continue
                slices = sorted(
                    f for f in os.listdir(os.path.join(ckpt_root, r))
                    if f.startswith("popped-"))
                parts = [pq.read_table(os.path.join(ckpt_root, r, f))
                         for f in slices]
                parts = [t for t in parts if t.num_rows]
                if parts:
                    tables.append(
                        pa.concat_tables(parts).sort_by(_SORT_KEYS))
        return (pa.concat_tables(tables) if tables
                else PUSH_SCHEMA.empty_table())

    def release(self) -> None:
        """Free crawl-session cluster state once the crawl is done: the
        frontier shard actors and the broadcast crawl-state object.
        Downstream stages (assembly reads parquet from run_dir) need
        neither. The engine is unusable for further rounds after
        release; resume via a fresh engine + ``resume()``."""
        self._settle()
        for s in self.shards:
            ray.kill(s)
        self.shards = []
        self.state_ref = None


def _old_digests(old_catalogs: dict) -> dict:
    """Previous-run catalogs → the per-site digests the adapters probe
    (D1 id sets, D2 count watermarks)."""
    out: dict = {}
    for cat, data in old_catalogs.items():
        if cat in ("movies", "WeCima", "hdwmovies", "CimaNowMovies"):
            out[cat] = set(data.keys())
        elif cat in ("series", "tvshows", "asian-series"):
            out[cat] = {
                sid: {s: sv["Number Of Episodes"]
                      for s, sv in rec.get("Seasons", {}).items()}
                for sid, rec in data.items()
            }
        elif cat in ("anime", "arabic-series"):
            out[cat] = {k: rec["Number Of Episodes"]
                        for k, rec in data.items()}
    return out
