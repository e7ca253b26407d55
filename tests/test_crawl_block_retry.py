"""Crawl fault injection: a ``_crawl_block`` worker dies mid-round, after
it has pushed its links and before it returns. Ray retries the task,
which re-pushes the same links (the frontier's seen set absorbs them)
and rewrites the same part file, so the run must end exactly like an
uninterrupted one: byte-equal catalogs and md5 manifest, the same seen
set, nothing dead-lettered."""

import os

import pytest
import ray

from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
from no_fasel_scrapers_ray.pipelines import crawl as C
from no_fasel_scrapers_ray.pipelines.assemble import (
    assemble_records, write_catalogs_parallel)

from conftest import seen_urls

# the block whose first attempt dies: round 0 pops the seed pages, whose
# links seed every later round
VICTIM = os.path.join("round=0000", "part-00000.parquet")


@pytest.fixture(scope="module")
def tiny():
    return generate(tiny_config())


def _crawl(corpus, seeds, root) -> tuple[dict, set, dict[str, bytes]]:
    eng = C.CrawlEngine(corpus, seeds, os.path.join(root, "run"),
                        n_shards=3)
    m = eng.run()
    seen = seen_urls(eng)
    eng.release()
    out = os.path.join(root, "out")
    write_catalogs_parallel(assemble_records(eng.records_dataset()), out)
    files = {}
    for f in sorted(os.listdir(out)):
        with open(os.path.join(out, f), "rb") as fp:
            files[f] = fp.read()
    return m, seen, files


def test_block_worker_killed_after_push(tiny, tmp_path, monkeypatch):
    corpus, seeds = tiny
    seeds = seeds.to_pylist()
    want_m, want_seen, want_files = _crawl(corpus, seeds,
                                           str(tmp_path / "clean"))

    marker = str(tmp_path / "killed-once")
    block = C._crawl_block._function

    def dying_block(*args, **kwargs):
        # args[4] is the block's records part path
        if not args[4].endswith(VICTIM) or os.path.exists(marker):
            return block(*args, **kwargs)
        g = block.__globals__
        push = g["push_links"]

        def push_then_die(links, shards, n_shards):
            push(links, shards, n_shards)
            with open(marker, "w") as fp:
                fp.write(str(len(links)))
            os._exit(1)
        g["push_links"] = push_then_die
        return block(*args, **kwargs)

    monkeypatch.setattr(C, "_crawl_block", ray.remote(dying_block))
    got_m, got_seen, got_files = _crawl(corpus, seeds,
                                        str(tmp_path / "killed"))

    with open(marker) as fp:
        assert int(fp.read()) > 0, "the victim block pushed no links"
    assert "file-hashes.json" in got_files
    assert got_files == want_files
    assert got_seen == want_seen
    assert got_m["dead_lettered"] == want_m["dead_lettered"] == 0
    assert got_m["popped"] == want_m["popped"]
