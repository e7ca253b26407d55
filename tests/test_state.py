"""Unit + property tests for the frontier state layer: cuckoo filter
(no false negatives, bounded FP rate, delete), politeness token bucket,
robots gating, priority ordering, checkpoint round-trip, and the host
layout that carries logical shards in shared actor processes. Shards
run in-process; the host tests run them inside a FrontierHost actor."""

import os

import numpy as np
import pyarrow as pa
import pytest
import ray

from no_fasel_scrapers_ray.state.cuckoo import CuckooFilter
from no_fasel_scrapers_ray.state.frontier import (
    FrontierHost, FrontierShard, PolitenessConfig, hosted_shards,
    n_frontier_hosts, push_table)
from no_fasel_scrapers_ray.pipelines.crawl import link_hashes


def _push(shard, rows):
    return shard.push(push_table(rows, link_hashes(rows)))


def _pop(shard, **kw):
    return shard.pop_ready(**kw).to_pylist()


def _row(url, host="h.test", site="s", depth=0, ok="00", cat="c"):
    return {"url": url, "host": host, "site": site, "category": cat,
            "page_type": "listing", "depth": depth, "seq": 0,
            "order_key": ok, "meta": "{}"}


# ---------------------------------------------------------------------------
# cuckoo filter
# ---------------------------------------------------------------------------

def test_cuckoo_no_false_negatives():
    rng = np.random.RandomState(7)
    keys = rng.randint(0, 2**63, size=20000, dtype=np.int64).astype(np.uint64)
    f = CuckooFilter(capacity=64000)
    f.add_many(keys)
    assert f.contains_many(keys).all()


def test_cuckoo_fp_rate_bounded():
    rng = np.random.RandomState(11)
    keys = rng.randint(0, 2**63, size=20000, dtype=np.int64).astype(np.uint64)
    other = rng.randint(0, 2**63, size=20000, dtype=np.int64).astype(np.uint64)
    other = other[~np.isin(other, keys)]
    f = CuckooFilter(capacity=64000)
    f.add_many(keys)
    fp = f.contains_many(other).mean()
    # 2 * bucket_size / 2^16 ≈ 0.00012; allow 10x slack
    assert fp < 0.002, fp


def test_cuckoo_delete():
    keys = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
    f = CuckooFilter(capacity=4096)
    f.add_many(keys)
    removed = f.delete_many(keys[:500])
    assert removed == 500
    assert f.contains_many(keys[500:]).all()  # survivors intact


def test_cuckoo_dump_load():
    keys = np.arange(5000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    f = CuckooFilter(capacity=16384)
    f.add_many(keys)
    g = CuckooFilter.load(f.dump())
    assert g.contains_many(keys).all()
    assert g.size == f.size


# ---------------------------------------------------------------------------
# frontier shard: politeness, robots, priority, checkpoint
# ---------------------------------------------------------------------------

def test_politeness_budget_enforced():
    pol = PolitenessConfig(default_rate=None, host_rates={"slow.test": 2})
    s = FrontierShard(0, 1, pol)
    rows = [_row(f"https://slow.test/p{i}", "slow.test", ok=f"{i:03d}")
            for i in range(7)]
    rows += [_row(f"https://fast.test/p{i}", "fast.test", ok=f"{i:03d}")
             for i in range(3)]
    assert _push(s, rows) == 10
    r1 = _pop(s)
    # 2 slow + all 3 fast in the first round-tick
    assert sum(r["host"] == "slow.test" for r in r1) == 2
    assert sum(r["host"] == "fast.test" for r in r1) == 3
    r2 = _pop(s)
    assert sum(r["host"] == "slow.test" for r in r2) == 2
    r3 = _pop(s)
    r4 = _pop(s)
    assert len(r3) == 2 and len(r4) == 1
    assert s.pending_count() == 0


def test_robots_disallow():
    pol = PolitenessConfig(disallow={"h.test": ["/private"]})
    s = FrontierShard(0, 1, pol)
    rows = [_row("https://h.test/private/x"), _row("https://h.test/public/y")]
    assert _push(s, rows) == 1
    stats = s.stats()
    assert stats["robots_blocked"] == 1


def test_priority_order_site_depth_orderkey():
    s = FrontierShard(0, 1)
    rows = [
        _row("https://b.test/1", site="bsite", depth=0, ok="00"),
        _row("https://a.test/2", site="asite", depth=1, ok="00"),
        _row("https://a.test/1", site="asite", depth=0, ok="01"),
        _row("https://a.test/0", site="asite", depth=0, ok="00"),
    ]
    _push(s, rows)
    popped = _pop(s)
    assert [r["url"] for r in popped] == [
        "https://a.test/0", "https://a.test/1", "https://a.test/2",
        "https://b.test/1"]


def test_checkpoint_restore_roundtrip(tmp_path):
    s = FrontierShard(0, 1)
    rows = [_row(f"https://h.test/{i}", ok=f"{i:03d}") for i in range(10)]
    _push(s, rows)
    _pop(s, max_rows=4)
    s.checkpoint(str(tmp_path))

    s2 = FrontierShard(0, 1)
    restored = s2.restore(str(tmp_path))
    assert restored == 6
    # seen set survives: re-pushing the same URLs is a no-op
    assert _push(s2, rows) == 0
    popped = _pop(s2)
    assert [r["url"] for r in popped] == \
        [f"https://h.test/{i}" for i in range(4, 10)]


def test_duplicate_within_one_push_batch():
    s = FrontierShard(0, 1)
    rows = [_row("https://h.test/same"), _row("https://h.test/same")]
    assert _push(s, rows) == 1


def test_cuckoo_stash_no_false_negatives_at_overload():
    """Past MAX_KICKS the victim fingerprint moves to the stash, never
    silently dropped — every inserted key still probes positive right
    up to the loud filter-full error."""
    from no_fasel_scrapers_ray.state.cuckoo import CuckooFilter
    f = CuckooFilter(capacity=64, bucket_size=2)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**63, 600, dtype=np.int64).astype(np.uint64)
    inserted = []
    try:
        for k in keys:
            f.add_many(np.array([k], dtype=np.uint64))
            inserted.append(k)
    except RuntimeError:
        pass   # loud full — fine; everything inserted BEFORE must probe
    arr = np.array(inserted[:-1] if len(inserted) else [],
                   dtype=np.uint64)
    assert f.contains_many(arr).all()
    assert len(f.stash) > 0   # the overload actually exercised the stash


def test_frontier_restore_keeps_configured_capacity(tmp_path):
    """An early-crawl resume must NOT shrink the cuckoo filter below
    the configured capacity (the old 2x-restored-size rebuild made
    later filter-full unrecoverable). Runs the shard inside a host
    actor, as the crawl does."""
    import ray as _ray
    import pyarrow as pa
    from no_fasel_scrapers_ray.pipelines.crawl import PUSH_SCHEMA
    shard = FrontierHost.options(num_cpus=0).remote(
        [0], 1, capacity=1 << 18, spill_root=str(tmp_path / "spill"))
    t = pa.table({
        "url": ["https://a.test/1"], "host": ["a.test"],
        "site": ["a"], "category": ["x"], "page_type": ["listing"],
        "depth": pa.array([0], pa.int32()), "seq": [0],
        "order_key": ["0"], "meta": [""],
        "h": pa.array(np.array([123], dtype=np.uint64))},
        schema=PUSH_SCHEMA)
    _ray.get(shard.push.remote(t))
    ck = str(tmp_path / "ck")
    _ray.get(shard.checkpoint.remote(ck))
    _ray.get(shard.restore.remote(ck))
    stats = _ray.get(shard.stats.remote())[0]
    assert stats["cuckoo_capacity_slots"] >= (1 << 18)


def _brute_pop(rows, pol, max_rows):
    """Per-row reference for one politeness tick over ``rows`` in
    priority order: (ready urls, deferred rows)."""
    taken: dict = {}
    ready, deferred, n_ok = [], [], 0
    for r in rows:
        k = taken.get(r["host"], 0)
        taken[r["host"]] = k + 1
        rate = pol.rate(r["host"])
        if rate is None or k < rate:
            n_ok += 1
            if n_ok <= max_rows:
                ready.append(r["url"])
                continue
        deferred.append(r)
    return ready, deferred


def test_pop_ready_budget_matches_per_row_reference():
    """The politeness branch of ``pop_ready`` pops exactly what a
    per-row loop does, tick after tick, under per-host rates, an
    explicitly unlimited host and a global ``max_rows`` cap."""
    rng = np.random.default_rng(5)
    hosts = ["a.test", "b.test", "c.test", "d.test", "e.test"]
    pol = PolitenessConfig(default_rate=3,
                           host_rates={"a.test": 1, "b.test": 7,
                                       "e.test": None})
    rows = [_row(f"https://{h}/p{i}", h, site=f"s{rng.integers(3)}",
                 depth=int(rng.integers(3)), ok=f"{rng.integers(50):03d}")
            for i, h in enumerate(rng.choice(hosts, 400))]
    s = FrontierShard(0, 1, pol)
    assert _push(s, rows) == len(rows)
    key = ("site", "depth", "order_key", "url")
    left = sorted(rows, key=lambda r: tuple(r[k] for k in key))
    ticks = 0
    while left:
        want, left = _brute_pop(left, pol, max_rows=40)
        assert [r["url"] for r in _pop(s, max_rows=40)] == want
        assert s.pending_count() == len(left)
        ticks += 1
    assert ticks > 10            # budgets and the cap both deferred rows
    assert _pop(s) == []


@pytest.mark.parametrize("nodes,cpus,shards,hosts", [
    (1, 2, 2, 1), (1, 2, 4, 1), (1, 4, 4, 1), (1, 4, 8, 2), (1, 4, 5, 2),
    (1, 8, 4, 2), (1, 32, 8, 8), (1, 16, 4, 4), (4, 16, 4, 4),
    (2, 4, 5, 2), (1, 1, 1, 1)])
def test_host_count_rule(nodes, cpus, shards, hosts):
    """At least one host per CPU node and per 4 CPUs, and enough that
    no host reserves more than one CPU (0.25 per shard); never more
    hosts than shards."""
    assert n_frontier_hosts(nodes, cpus, shards) == hosts
    layout = [hosted_shards(k, hosts, shards) for k in range(hosts)]
    assert sorted(i for ids in layout for i in ids) == list(range(shards))
    assert max(map(len, layout)) <= 4


def test_host_routes_pushes_to_its_shards(tmp_path):
    """A host carrying shards 0 and 2 of 3 behaves like those two shards
    run on their own, each fed its own rows in table order: the same
    accepted counts, pops, stats and per-shard checkpoint files."""
    rows = [_row(f"https://h{i % 4}.test/p{i}", f"h{i % 4}.test",
                 ok=f"{i:03d}") for i in range(120)]
    t = push_table(rows, link_hashes(rows))
    owner = t.column("h").to_numpy() % np.uint64(3)
    t = t.filter(pa.array(owner != 1))
    host = FrontierHost.options(num_cpus=0).remote([0, 2], 3)
    solo = [FrontierShard(0, 3), FrontierShard(2, 3)]
    owner = t.column("h").to_numpy() % np.uint64(3)
    want = sum(s.push(t.filter(pa.array(owner == s.shard_id)))
               for s in solo)
    assert ray.get(host.push.remote(t)) == want == t.num_rows
    assert ray.get(host.push.remote(t)) == 0          # all seen
    metas = ray.get(host.pop_ready_meta.remote())
    assert len(metas) == 2
    for m, s in zip(metas, solo):
        assert ray.get(m["ref"][0]).equals(s.pop_ready())
    assert ray.get(host.stats.remote()) == [s.stats() for s in solo]
    ray.get(host.checkpoint.remote(str(tmp_path)))
    assert sorted(f for f in os.listdir(tmp_path)
                  if f.startswith("heap-")) == \
        ["heap-0.parquet", "heap-2.parquet"]
    ray.kill(host)
