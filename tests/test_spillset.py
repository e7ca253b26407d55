"""Spilled exact seen-set (state/spillset.py): membership equivalence
under spills + compaction, bounded resident buffer, checkpoint/restore
round-trip, and the frontier shard running with a tiny buffer (every
push spills) matching the in-memory-equivalent behavior."""

import os

import numpy as np
import ray

from no_fasel_scrapers_ray.pipelines.crawl import link_hashes
from no_fasel_scrapers_ray.state.frontier import FrontierShard, push_table
from no_fasel_scrapers_ray.state.spillset import SpilledKeySet

from conftest import seen_urls


def _keys(seed, n):
    rng = np.random.RandomState(seed)
    return rng.randint(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)


def test_membership_across_spills(tmp_path):
    s = SpilledKeySet(str(tmp_path / "spill"), buffer_cap=100, max_runs=3)
    keys = np.unique(_keys(3, 5000))
    for lo in range(0, len(keys), 333):     # many spills + compactions
        s.add_many(keys[lo:lo + 333])
    assert len(s) == len(keys)
    assert s.contains_many(keys).all()
    other = _keys(4, 5000)
    other = other[~np.isin(other, keys)]
    assert not s.contains_many(other).any()
    # buffer stayed bounded; runs were compacted below the cap
    assert len(s.buf) < 100
    assert len(s.runs) <= 4


def test_checkpoint_restore_equivalence(tmp_path):
    s = SpilledKeySet(str(tmp_path / "spill"), buffer_cap=64, max_runs=4)
    keys = np.unique(_keys(7, 1500))
    s.add_many(keys[:1000])
    ck = str(tmp_path / "ckpt")
    s.checkpoint(ck, "0")
    # post-checkpoint mutation (spill + compaction deletes spill-dir
    # run files) must not corrupt the checkpoint's hardlinked copies
    s.add_many(keys[1000:])
    r = SpilledKeySet.restore(ck, "0", str(tmp_path / "spill2"),
                              buffer_cap=64)
    assert len(r) == 1000
    assert r.contains_many(keys[:1000]).all()
    assert not r.contains_many(keys[1000:]).any()
    assert sorted(r.to_array().tolist()) == sorted(keys[:1000].tolist())


def test_iter_chunks_streams_everything(tmp_path):
    s = SpilledKeySet(str(tmp_path / "sp"), buffer_cap=50, max_runs=2)
    keys = np.unique(_keys(9, 400))
    s.add_many(keys)
    got = np.sort(np.concatenate(list(s.iter_chunks(chunk=37))))
    assert np.array_equal(got, np.sort(keys))


def _row(url, host="h.test"):
    return {"url": url, "host": host, "site": "s", "category": "c",
            "page_type": "listing", "depth": 0, "seq": 0,
            "order_key": "00", "meta": "{}"}


def test_shard_with_tiny_buffer_spills_and_dedups(tmp_path):
    """A shard whose seen buffer spills every ~16 keys must dedup and
    checkpoint/restore exactly like the default: membership is exact
    even when every probe goes through the mmap'd runs."""
    s = FrontierShard.remote(0, 1, spill_dir=str(tmp_path / "sh0"),
                             seen_buffer_cap=16)
    rows = [_row(f"https://h.test/p{i}") for i in range(200)]
    t = push_table(rows, link_hashes(rows))
    assert ray.get(s.push.remote(t)) == 200
    # re-push: every key must be recognized through the spilled runs
    assert ray.get(s.push.remote(t)) == 0
    # spill files actually exist on disk
    runs = [f for f in os.listdir(tmp_path / "sh0") if f.endswith(".npy")]
    assert runs, "tiny buffer must have spilled runs to disk"
    ck = str(tmp_path / "ck")
    ray.get(s.checkpoint.remote(ck))
    s2 = FrontierShard.remote(0, 1, spill_dir=str(tmp_path / "sh0b"),
                              seen_buffer_cap=16)
    ray.get(s2.restore.remote(ck))
    assert ray.get(s2.push.remote(t)) == 0          # seen set survived
    more = [_row(f"https://h.test/q{i}") for i in range(50)]
    t2 = push_table(more, link_hashes(more))
    assert ray.get(s2.push.remote(t2)) == 50        # fresh keys still pass


def test_crawl_with_spilling_seen_set(tmp_path_factory):
    """Full crawl with a 32-key buffer (spills constantly) must be
    byte-identical to the default run: pop log + seen set."""
    from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
    from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine
    corpus, seeds = generate(tiny_config())
    a = CrawlEngine(corpus, seeds.to_pylist(),
                    str(tmp_path_factory.mktemp("sp_a")), n_shards=2)
    a.run()
    b = CrawlEngine(corpus, seeds.to_pylist(),
                    str(tmp_path_factory.mktemp("sp_b")), n_shards=2,
                    seen_buffer_cap=32)
    b.run()
    assert b.frontier_log_table().to_pylist() == \
        a.frontier_log_table().to_pylist()
    assert seen_urls(b) == seen_urls(a)
