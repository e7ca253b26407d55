"""E2E equivalence for the post-crawl pipelines (trending, postprocess,
all-content), the incremental crawl (D1/D2 deltas across generator
epochs) and kill-and-resume."""

import pytest
import ray

from no_fasel_scrapers_ray.corpus.synth import (
    CIMANOW_ROUTES, generate, tiny_config)
from no_fasel_scrapers_ray.oracle import Oracle
from no_fasel_scrapers_ray.pipelines.assemble import (
    assemble_records, build_catalogs, write_catalogs,
    write_catalogs_parallel)
from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine
from no_fasel_scrapers_ray.pipelines.postprocess import (
    all_content_index, postprocess_catalogs)
from no_fasel_scrapers_ray.pipelines.trending import run_trending

from conftest import read_dir, seen_urls


@pytest.fixture(scope="module")
def corpus_seeds():
    return generate(tiny_config())


@pytest.fixture(scope="module")
def oracle_full(corpus_seeds):
    corpus, _ = corpus_seeds
    o = Oracle(corpus)
    o.crawl_all(CIMANOW_ROUTES)
    o.crawl_trending()
    return o


@pytest.fixture(scope="module")
def engine_catalogs(corpus_seeds, tmp_path_factory):
    corpus, seeds = corpus_seeds
    run_dir = str(tmp_path_factory.mktemp("ppl_run"))
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=2)
    eng.run()
    return build_catalogs(assemble_records(eng.records_dataset()))


def test_trending_equivalence(corpus_seeds, oracle_full, engine_catalogs):
    corpus, _ = corpus_seeds
    content, featured, log = run_trending(corpus, engine_catalogs)
    assert content == oracle_full.catalogs["trending-content"]
    assert featured == oracle_full.catalogs["featured-content"]
    oracle_trending_visits = [
        v for v in oracle_full.visits if v[2] == "trending"]
    assert log == oracle_trending_visits


def test_postprocess_equivalence(corpus_seeds, oracle_full, engine_catalogs):
    # oracle.postprocess mutates its catalogs in place — run on a
    # fresh oracle clone of the crawl state
    corpus, _ = corpus_seeds
    o2 = Oracle(corpus)
    o2.crawl_all(CIMANOW_ROUTES)
    oracle_images = o2.postprocess({"preexisting-fasel": "https://x/p.jpg"})
    got_catalogs, got_images = postprocess_catalogs(
        engine_catalogs, {"preexisting-fasel": "https://x/p.jpg"})
    for name in ("movies", "anime", "asian-series", "series", "tvshows",
                 "arabic-series", "arabic-movies"):
        assert list(got_catalogs[name]) == list(o2.catalogs[name]), name
        assert got_catalogs[name] == o2.catalogs[name], name
    assert got_images == oracle_images


def test_all_content_equivalence(corpus_seeds, oracle_full, engine_catalogs):
    corpus, _ = corpus_seeds
    o2 = Oracle(corpus)
    o2.crawl_all(CIMANOW_ROUTES)
    o2.postprocess()
    exp = o2.all_content()
    got_catalogs, _ = postprocess_catalogs(engine_catalogs)
    got = all_content_index(got_catalogs)
    assert got == exp


def test_incremental_crawl(tmp_path_factory):
    """Epoch 0 crawl → prior catalogs; epoch 1 incremental run must
    match the oracle's incremental semantics (seen-skip D1, episode
    deltas D2, per-catalog merge precedence A5)."""
    corpus0, _ = generate(tiny_config(epoch=0))
    o0 = Oracle(corpus0)
    old = {k: v for k, v in o0.crawl_all(CIMANOW_ROUTES).items()}

    corpus1, seeds1 = generate(tiny_config(epoch=1))
    o1 = Oracle(corpus1, old_catalogs=old)
    o1.crawl_all(CIMANOW_ROUTES)

    run_dir = str(tmp_path_factory.mktemp("incr_run"))
    eng = CrawlEngine(corpus1, seeds1.to_pylist(), run_dir, n_shards=2,
                      old_catalogs=old)
    eng.run()
    got = build_catalogs(assemble_records(eng.records_dataset(),
                                          old_catalogs=old))

    for name in o1.catalogs:
        assert list(got[name]) == list(o1.catalogs[name]), (
            f"{name}: key order {list(got[name])[:4]} vs "
            f"{list(o1.catalogs[name])[:4]}")
        for k in o1.catalogs[name]:
            assert got[name][k] == o1.catalogs[name][k], (name, k)

    # visit-order equivalence under incremental state
    log = eng.frontier_log_table().to_pylist()
    es, osq = {}, {}
    for r in log:
        es.setdefault((r["site"], r["category"], r["depth"]),
                      []).append(r["url"])
    for (u, s, c, d) in o1.visits:
        osq.setdefault((s, c, d), []).append(u)
    assert es == osq


def test_kill_and_resume(tmp_path_factory):
    """Crash after round 2 — the crawl's frontier shard processes die
    with it — then resume from checkpoint in fresh shards → identical
    records, frontier log, seen set and written catalogs as the
    uninterrupted run."""
    corpus, seeds = generate(tiny_config())
    full_dir = str(tmp_path_factory.mktemp("full_run"))
    eng_full = CrawlEngine(corpus, seeds.to_pylist(), full_dir, n_shards=2)
    eng_full.run()
    full_log = eng_full.frontier_log_table().to_pylist()
    full_entries = assemble_records(eng_full.records_dataset())
    full_out = str(tmp_path_factory.mktemp("full_out"))
    write_catalogs_parallel(full_entries, full_out)

    crash_dir = str(tmp_path_factory.mktemp("crash_run"))
    eng_a = CrawlEngine(corpus, seeds.to_pylist(), crash_dir, n_shards=2)
    eng_a.run(max_rounds=2)  # simulated crash, no finalize
    for shard in eng_a.shards:
        ray.kill(shard)

    eng_b = CrawlEngine(corpus, [], crash_dir, n_shards=2)
    next_round = eng_b.resume()
    assert next_round == 2
    eng_b.run(start_round=next_round)

    assert eng_b.frontier_log_table().to_pylist() == full_log
    assert seen_urls(eng_b) == seen_urls(eng_full)
    resumed_entries = assemble_records(eng_b.records_dataset())
    assert build_catalogs(resumed_entries) == build_catalogs(full_entries)
    resumed_out = str(tmp_path_factory.mktemp("resumed_out"))
    write_catalogs_parallel(resumed_entries, resumed_out)
    assert read_dir(resumed_out) == read_dir(full_out)


def test_incremental_recrawl_golden(tmp_path_factory):
    """VERDICT r03 #7 — the reference's daily-delta shape as one e2e
    golden: crawl epoch 0, GROW the synthetic web (epoch 1 adds new
    titles and new episodes on existing series), re-crawl against the
    epoch-0 catalogs; assert the incremental run fetches ONLY the
    delta (pop-log is a strict subset of the fresh run's and equals
    the incremental oracle's visit set) and the WRITTEN merged
    catalogs are byte-equal — files AND md5 manifest — to the
    incremental oracle's."""
    # day 0: crawl the epoch-0 web with the ENGINE; its own catalogs
    # are the prior state for day 1 (no oracle hand-off)
    corpus0, seeds0 = generate(tiny_config(epoch=0))
    run0 = str(tmp_path_factory.mktemp("incr_day0"))
    eng0 = CrawlEngine(corpus0, seeds0.to_pylist(), run0, n_shards=2)
    eng0.run()
    old = build_catalogs(assemble_records(eng0.records_dataset()))

    # day 1: the web grew
    corpus1, seeds1 = generate(tiny_config(epoch=1))
    o1 = Oracle(corpus1, old_catalogs=old)
    o1.crawl_all(CIMANOW_ROUTES)

    # fresh (non-incremental) epoch-1 run — the delta baseline
    runf = str(tmp_path_factory.mktemp("incr_fresh"))
    engf = CrawlEngine(corpus1, seeds1.to_pylist(), runf, n_shards=2)
    mf = engf.run()

    runi = str(tmp_path_factory.mktemp("incr_day1"))
    engi = CrawlEngine(corpus1, seeds1.to_pylist(), runi, n_shards=2,
                       old_catalogs=old)
    mi = engi.run()

    # only-delta fetches: strictly fewer pops than the fresh run, the
    # popped URL set is a strict subset, and it equals the incremental
    # oracle's visit set exactly
    assert mi["popped"] < mf["popped"]
    inc_urls = {r["url"] for r in engi.frontier_log_table().to_pylist()}
    full_urls = {r["url"] for r in engf.frontier_log_table().to_pylist()}
    assert inc_urls < full_urls
    assert inc_urls == {u for (u, _s, _c, _d) in o1.visits}

    # byte-equal merged catalogs + md5 manifest vs the oracle's; the
    # merge appends keys of one side after the other's (rank0 = 1)
    records = engi.records_dataset()
    entries = assemble_records(records, old_catalogs=old)
    assert (entries.to_pandas()["rank0"] == 1).any()
    got = build_catalogs(entries)
    out_got = str(tmp_path_factory.mktemp("incr_out_got"))
    out_exp = str(tmp_path_factory.mktemp("incr_out_exp"))
    # catalog-map iteration order differs (engine build order vs oracle
    # crawl order) and neither is reference-canonical — each reference
    # scraper writes its own file; pin both to sorted order so the md5
    # manifest is byte-comparable too
    write_catalogs(dict(sorted(got.items())), out_got)
    write_catalogs(dict(sorted(o1.catalogs.items())), out_exp)
    want = read_dir(out_exp)
    assert read_dir(out_got) == want
    # the same old-catalog merge through the catalog sink
    out_sink = str(tmp_path_factory.mktemp("incr_out_sink"))
    write_catalogs_parallel(entries, out_sink)
    assert read_dir(out_sink) == want

    # an old catalog that got no new records is carried verbatim, in
    # its old key order, through the sink as through the dict writer
    legacy = {"legacy": old["movies"]}
    carried = assemble_records(records, old_catalogs={**old, **legacy})
    out_carry = str(tmp_path_factory.mktemp("incr_out_carry"))
    out_carry_exp = str(tmp_path_factory.mktemp("incr_out_carry_exp"))
    write_catalogs_parallel(carried, out_carry)
    write_catalogs(dict(sorted({**got, **legacy}.items())), out_carry_exp)
    assert read_dir(out_carry) == read_dir(out_carry_exp)
