"""Sharded URL frontier: priority ordering + cuckoo/exact seen-set +
per-host politeness token buckets + robots gating (north_rule).

One logical ``FrontierShard`` owns the slice of URL-hash space
``url_hash64(url) % n_shards == shard_id``. A shard is plain state, not
a process: ``FrontierHost`` actors each hold the shards
``i ≡ k (mod n_hosts)`` and serialize them (one actor call at a time),
so the racy seen-sets of the reference become per-shard state behind
an actor without one OS process per shard. ``n_frontier_hosts`` sizes
the pool from the cluster. State per shard:

- **seen**: a CuckooFilter (vectorized fast path — one
  ``contains_many`` per push batch) + the exact uint64 key set (the
  truth: the rare cuckoo positives are verified against it, so
  membership answers are exact);
- **pending**: Arrow tables of frontier rows; priority
  ``(site, depth, order_key)`` is applied with one vectorized
  ``sort_by`` per pop — ``order_key`` is the deterministic structural
  discovery clock ("{category_rank}.{shard_rank}.{page}.{card}...",
  lexicographic), which reproduces the reference scrapers' crawl order
  (SURVEY.md §1.3/§7.3) regardless of the nondeterministic arrival
  order of pushes from parallel extract tasks;
- **politeness**: per-host fetch budget per pop round (one pop = one
  logical tick; vectorized per-host cumcount), plus robots.txt-style
  disallow prefixes.

Everything is Arrow/numpy-vectorized — no per-row Python in push/pop
hot paths (per-row loops at 100k links/round serialized through the
frontier actors measured as the crawl bottleneck). Pushes arrive with a
precomputed canonical-URL hash column ``h`` (computed in the parallel
extract tasks). Checkpoint/restore dump pending + exact seen set to
parquet per logical shard for exact resume.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..corpus.schema import FRONTIER_SCHEMA
from .cuckoo import CuckooFilter
from .spillset import SpilledKeySet

FRONTIER_COLS = [f.name for f in FRONTIER_SCHEMA]

# CPU each logical shard reserves on its host actor
SHARD_CPUS = 0.25
# cluster CPUs per frontier host (n_frontier_hosts)
CPUS_PER_HOST = 4

# push/pop table schema = frontier rows + the canonical-URL hash
PUSH_SCHEMA = pa.schema(list(FRONTIER_SCHEMA) + [("h", pa.uint64())])

_SORT_KEYS = [("site", "ascending"), ("depth", "ascending"),
              ("order_key", "ascending"), ("url", "ascending")]


def frontier_table(rows: list[dict]) -> pa.Table:
    arrays = {c: [r.get(c) for r in rows] for c in FRONTIER_COLS}
    return pa.table(arrays, schema=FRONTIER_SCHEMA)


def push_table(rows: list[dict], hashes: np.ndarray) -> pa.Table:
    t = frontier_table(rows)
    return t.append_column("h", pa.array(hashes, type=pa.uint64()))


def rows_where(table: pa.Table, mask: np.ndarray) -> pa.Table:
    """``table``'s rows where ``mask`` holds, in order; the table itself
    (no copy) when every row does."""
    return table if mask.all() else table.take(pa.array(np.flatnonzero(mask)))


class PolitenessConfig:
    """Per-host fetches allowed per round + robots disallow prefixes.

    The reference has NO rate limiting (SURVEY.md §4.1) — politeness is
    a north_rule engine addition; crawl-order equivalence tests use the
    permissive default (rate=None → unlimited)."""

    def __init__(self, default_rate: int | None = None,
                 host_rates: dict[str, int] | None = None,
                 disallow: dict[str, list[str]] | None = None):
        self.default_rate = default_rate
        self.host_rates = host_rates or {}
        self.disallow = disallow or {}

    def unlimited(self) -> bool:
        return self.default_rate is None and not self.host_rates

    def rate(self, host: str) -> int | None:
        return self.host_rates.get(host, self.default_rate)

    def allowed(self, url: str, host: str) -> bool:
        # scheme-agnostic path extraction: "https://"-only stripping
        # let http:// (or host:port) URLs bypass the disallow rules
        rest = url.split("://", 1)[-1]
        path = rest[len(host):] if rest.startswith(host) else rest
        for prefix in self.disallow.get(host, ()):
            if url.startswith(prefix) or path.startswith(prefix):
                return False
        return True


def n_frontier_hosts(n_nodes: int, n_cpus: int, n_shards: int) -> int:
    """How many ``FrontierHost`` actors carry ``n_shards`` shards on a
    cluster of ``n_nodes`` CPU nodes and ``n_cpus`` CPUs, never more
    than one per shard. At least:

    - one per node, so SPREAD placement, block affinity and the
      pre-split still see a frontier actor on every raylet;
    - enough to keep each host's reservation (``SHARD_CPUS`` per shard)
      within one CPU;
    - one per ``CPUS_PER_HOST`` CPUs. A host serves the pushes of the
      blocks in flight, and the block window is about as wide as the
      free CPUs. One host against a 3-wide window at 4 CPUs measured
      no slower than one process per shard (BASELINE.md §frontier
      hosts); wider windows per host are unmeasured, so larger
      clusters keep more hosts, up to one per shard.

    A process start costs ~1 s of CPU whatever the actor holds, and one
    host carrying four shards starts about as fast as one shard alone,
    so small clusters save most of their setup here."""
    per_host = int(round(1 / SHARD_CPUS))
    return max(1, min(n_shards, max(n_nodes, -(-n_shards // per_host),
                                    -(-n_cpus // CPUS_PER_HOST))))


def hosted_shards(host: int, n_hosts: int, n_shards: int) -> list[int]:
    """The logical shards host ``host`` of ``n_hosts`` carries: those
    ``≡ host (mod n_hosts)``, the inverse of ``host_of``."""
    return list(range(host, n_shards, n_hosts))


def host_of(h: np.ndarray, n_shards: int, n_hosts: int) -> np.ndarray:
    """The host carrying each url hash's shard (``h % n_shards``)."""
    return h % np.uint64(n_shards) % np.uint64(n_hosts)


class FrontierShard:
    """One logical shard's state; a ``FrontierHost`` actor serializes
    every call to it."""

    def __init__(self, shard_id: int, n_shards: int,
                 politeness: PolitenessConfig | None = None,
                 capacity: int = 1 << 23,
                 spill_dir: str | None = None,
                 seen_buffer_cap: int = 1 << 20):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.politeness = politeness or PolitenessConfig()
        self.capacity = capacity
        self.filter = CuckooFilter(capacity=capacity)
        # exact seen-set: bounded-memory (cuckoo is the hot path; the
        # exact tier spills sorted uint64 runs to disk — state/spillset)
        self._spill_dir = spill_dir
        self._seen_buffer_cap = seen_buffer_cap
        self.exact = SpilledKeySet(spill_dir=spill_dir,
                                   buffer_cap=seen_buffer_cap)
        self.pending: list[pa.Table] = []
        self.n_pending = 0
        self.robots_blocked = 0
        self.stats_pushed = 0
        self.stats_popped = 0

    # -- ingest ------------------------------------------------------------

    def push(self, table: pa.Table) -> int:
        """Dedup + enqueue a PUSH_SCHEMA table. Vectorized: one cuckoo
        probe for the batch; exact-set verification only for the rare
        filter positives; first-occurrence-wins for within-batch dups."""
        if table.num_rows == 0:
            return 0
        h = table.column("h").to_numpy()
        # robots gate (python loop only when configured)
        if self.politeness.disallow:
            urls = table.column("url").to_pylist()
            hosts = table.column("host").to_pylist()
            ok = np.fromiter(
                (self.politeness.allowed(u, ho)
                 for u, ho in zip(urls, hosts)),
                dtype=bool, count=len(urls))
            self.robots_blocked += int((~ok).sum())
            if not ok.all():
                table = table.filter(pa.array(ok))
                h = h[ok]
            if table.num_rows == 0:
                return 0
        contains = self.filter.contains_many(h)
        new_mask = ~contains
        pos = np.flatnonzero(contains)
        if len(pos):
            # verify the (rare) cuckoo positives against the exact tier
            truly = self.exact.contains_many(h[pos])
            new_mask[pos[~truly]] = True
        # within-batch dedup: first occurrence of each hash wins
        idx_new = np.flatnonzero(new_mask)
        if len(idx_new) == 0:
            return 0
        _, first = np.unique(h[idx_new], return_index=True)
        keep = idx_new[np.sort(first)]
        accepted = table.take(pa.array(keep))
        h_kept = h[keep]
        # ordering fails SAFE toward duplicates, never loss: if the
        # filter add raises (filter full), nothing is registered seen
        # and nothing enqueued; if the exact add raises, the rows ARE
        # enqueued and a future re-push of the same keys probes the
        # filter positive, misses the exact tier, and re-admits —
        # duplicates, not silently dropped URLs. (The old exact-first
        # order left keys seen-but-never-enqueued on a filter error.)
        self.filter.add_many(h_kept)
        self.pending.append(accepted)
        self.n_pending += accepted.num_rows
        self.stats_pushed += accepted.num_rows
        self.exact.add_many(h_kept)
        return accepted.num_rows

    # -- scheduling --------------------------------------------------------

    def pop_ready(self, max_rows: int = 1 << 30) -> pa.Table:
        """Pop ready rows in (site, depth, order_key) order, respecting
        per-host budgets for this round (one call = one politeness
        tick). Over-budget rows stay queued."""
        if self.n_pending == 0:
            return PUSH_SCHEMA.empty_table()
        t = pa.concat_tables(self.pending).sort_by(_SORT_KEYS)
        self.pending, self.n_pending = [], 0
        if self.politeness.unlimited() and t.num_rows <= max_rows:
            ready = t
        else:
            hosts = t.column("host").to_pandas()
            seq_in_host = hosts.groupby(hosts, sort=False).cumcount().values
            budgets = np.array(
                [r if (r := self.politeness.rate(hv)) is not None else 1 << 31
                 for hv in hosts], dtype=np.int64)
            ok = seq_in_host < budgets
            # global cap
            ok &= np.cumsum(ok) <= max_rows
            ready = t.filter(pa.array(ok))
            deferred = t.filter(pa.array(~ok))
            if deferred.num_rows:
                self.pending.append(deferred)
                self.n_pending = deferred.num_rows
        self.stats_popped += ready.num_rows
        return ready

    def pop_ready_meta(self, max_rows: int = 1 << 30) -> dict:
        """Pop + publish: the ready table goes straight to the object
        store (owned by the calling process, the shard's host actor in
        a crawl); only the compact planning
        columns — dictionary-encoded hosts + the uint64 url hashes —
        and the ObjectRef return to the driver, so the round's full
        rows never transit driver memory (the r02 whole-round driver
        funnel). The ref is wrapped in a list so Ray does not inline
        the table into the reply."""
        t = self.pop_ready(max_rows)
        if t.num_rows == 0:
            return {"rows": 0}
        d = pc.dictionary_encode(t.column("host")).combine_chunks()
        return {
            "rows": t.num_rows,
            "ref": [ray.put(t)],
            "host_codes": d.indices.to_numpy().astype(np.int64),
            "host_dict": d.dictionary.to_pylist(),
            "h": t.column("h").to_numpy(),
        }

    def pending_count(self) -> int:
        return self.n_pending

    def seen_hashes(self) -> np.ndarray:
        """TEST-ONLY: materializes the full exact set (O(n))."""
        return self.exact.to_array()

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "pushed": self.stats_pushed,
            "popped": self.stats_popped,
            "pending": self.n_pending,
            "seen": len(self.exact),
            "robots_blocked": self.robots_blocked,
            "cuckoo_size": self.filter.size,
            "cuckoo_capacity_slots": int(self.filter.buckets.size),
        }

    # -- checkpoint (per-partition lineage, north_rule) --------------------

    def checkpoint(self, ckpt_dir: str) -> str:
        """Heap → parquet; exact seen-set → hardlinked immutable run
        files + buffer + manifest (spillset.checkpoint) — never
        materializes the full key set. The shard's popped slice of the
        round is written by a SEPARATE task from the shard-published
        object (pipelines/crawl.py::_write_popped) so this actor-serial
        call stays off the next pop's critical path. A host carrying
        several shards still runs all their checkpoints before its next
        pop."""
        os.makedirs(ckpt_dir, exist_ok=True)
        t = (pa.concat_tables(self.pending).sort_by(_SORT_KEYS)
             if self.pending else PUSH_SCHEMA.empty_table())
        pq.write_table(t, os.path.join(
            ckpt_dir, f"heap-{self.shard_id}.parquet"))
        self.exact.checkpoint(ckpt_dir, str(self.shard_id))
        return ckpt_dir

    def restore(self, ckpt_dir: str) -> int:
        heap_t = pq.read_table(os.path.join(
            ckpt_dir, f"heap-{self.shard_id}.parquet"))
        # restore into a fresh generation subdir — never collide with
        # run files a previous life of this shard left in spill_dir
        self._restore_gen = getattr(self, "_restore_gen", 0) + 1
        sdir = (os.path.join(self._spill_dir, f"gen-{self._restore_gen}")
                if self._spill_dir else None)
        self.exact = SpilledKeySet.restore(
            ckpt_dir, str(self.shard_id), spill_dir=sdir,
            buffer_cap=self._seen_buffer_cap)
        # rebuild the filter UNCONDITIONALLY at no less than the
        # CONFIGURED capacity (an early-crawl resume used to shrink it
        # to 2x the small restored set -> unrecoverable filter-full
        # later; an empty restore used to keep stale pre-resume
        # fingerprints)
        self.filter = CuckooFilter(
            capacity=max(self.capacity, 2 * len(self.exact)))
        for chunk in self.exact.iter_chunks():
            self.filter.add_many(chunk)
        self.pending = [heap_t] if heap_t.num_rows else []
        self.n_pending = heap_t.num_rows
        return self.n_pending


@ray.remote(num_cpus=SHARD_CPUS)
class FrontierHost:
    """The actor process carrying the logical shards ``shard_ids``. Its
    calls run one at a time, which is what serializes each shard; the
    crawl reserves ``SHARD_CPUS`` per hosted shard on it. Per-shard
    results come back as lists in ``shard_ids`` order, and checkpoint
    files stay per logical shard (``heap-{i}.parquet``, seen runs
    tagged ``i``), so a checkpoint restores under any host layout of
    the same ``n_shards``."""

    def __init__(self, shard_ids: list[int], n_shards: int,
                 politeness: PolitenessConfig | None = None,
                 capacity: int = 1 << 23,
                 spill_root: str | None = None,
                 seen_buffer_cap: int = 1 << 20):
        self.n_shards = n_shards
        self.shards = [
            FrontierShard(i, n_shards, politeness, capacity,
                          spill_dir=(os.path.join(spill_root, f"shard-{i}")
                                     if spill_root else None),
                          seen_buffer_cap=seen_buffer_cap)
            for i in shard_ids]

    def push(self, table: pa.Table) -> int:
        """Route rows to the hosted shards by ``h % n_shards``; each
        shard gets its rows in table order, so what a shard holds does
        not depend on the host layout. Returns the rows accepted."""
        owners = table.column("h").to_numpy() % np.uint64(self.n_shards)
        accepted = 0
        for s in self.shards:
            mine = owners == s.shard_id
            if mine.any():
                accepted += s.push(rows_where(table, mine))
        return accepted

    def pop_ready_meta(self, max_rows: int = 1 << 30) -> list[dict]:
        return [s.pop_ready_meta(max_rows) for s in self.shards]

    def stats(self) -> list[dict]:
        return [s.stats() for s in self.shards]

    def seen_hashes(self) -> np.ndarray:
        """TEST-ONLY: every hosted shard's exact set (O(n))."""
        return np.concatenate([s.seen_hashes() for s in self.shards])

    def checkpoint(self, ckpt_dir: str) -> str:
        for s in self.shards:
            s.checkpoint(ckpt_dir)
        return ckpt_dir

    def restore(self, ckpt_dir: str) -> int:
        return sum(s.restore(ckpt_dir) for s in self.shards)

    def node_id(self) -> str:
        """The raylet this host lives on — the crawl schedules each
        block near the host of the shard holding the plurality of its
        rows (NodeAffinity locality; no-op on one node)."""
        return ray.get_runtime_context().get_node_id()
