"""E2E crawl equivalence: the Ray engine vs the reference-semantics
oracle on the same synthetic corpus (SURVEY.md §5.2):

- catalog equality (exact nested dicts, including key order);
- frontier-order equivalence: within every (site, category, depth) the
  engine's pop sequence equals the oracle's canonical visit sequence;
- URL-seen-set equivalence (canonical-URL hashes).
"""

import json

import pytest

from no_fasel_scrapers_ray.corpus.synth import (
    CIMANOW_ROUTES, generate, tiny_config)
from no_fasel_scrapers_ray.functions.urls import canonicalize_url
from no_fasel_scrapers_ray.functions.hashing import stable_hash64
from no_fasel_scrapers_ray.oracle import Oracle
from no_fasel_scrapers_ray.pipelines.assemble import (
    assemble_records, build_catalogs)
from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine

from conftest import seen_urls


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate(tiny_config())


@pytest.fixture(scope="module")
def oracle_run(tiny_corpus):
    corpus, _ = tiny_corpus
    o = Oracle(corpus)
    o.crawl_all(CIMANOW_ROUTES)
    return o


@pytest.fixture(scope="module")
def engine_run(tiny_corpus, tmp_path_factory):
    corpus, seeds = tiny_corpus
    run_dir = str(tmp_path_factory.mktemp("crawl_run"))
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=3)
    eng.run()
    entries = assemble_records(eng.records_dataset())
    catalogs = build_catalogs(entries)
    return eng, catalogs


def test_catalog_equality(oracle_run, engine_run):
    _, catalogs = engine_run
    assert set(catalogs) == set(oracle_run.catalogs)
    for name in oracle_run.catalogs:
        exp = oracle_run.catalogs[name]
        got = catalogs[name]
        assert set(got) == set(exp), (
            f"{name}: keys differ; missing={set(exp) - set(got)} "
            f"extra={set(got) - set(exp)}")
        for k in exp:
            assert got[k] == exp[k], (
                f"{name}[{k}]:\n got={json.dumps(got[k], ensure_ascii=False)}"
                f"\n exp={json.dumps(exp[k], ensure_ascii=False)}")
        # key ORDER must match too (dict insertion order == file order)
        assert list(got) == list(exp), f"{name}: key order differs"


def test_frontier_order_equivalence(oracle_run, engine_run):
    eng, _ = engine_run
    log = eng.frontier_log_table().to_pylist()
    engine_seqs: dict[tuple, list[str]] = {}
    for row in log:
        engine_seqs.setdefault(
            (row["site"], row["category"], row["depth"]), []).append(row["url"])
    oracle_seqs: dict[tuple, list[str]] = {}
    for (url, site, cat, depth) in oracle_run.visits:
        oracle_seqs.setdefault((site, cat, depth), []).append(url)
    assert set(engine_seqs) == set(oracle_seqs)
    for key in oracle_seqs:
        assert engine_seqs[key] == oracle_seqs[key], (
            f"order differs at {key}:\n eng={engine_seqs[key][:5]}...\n "
            f"ora={oracle_seqs[key][:5]}...")


def test_seen_set_equivalence(oracle_run, engine_run):
    eng, _ = engine_run
    oracle_hashes = {stable_hash64(canonicalize_url(u))
                     for u in oracle_run.seen_set()}
    assert seen_urls(eng) == oracle_hashes


def test_span_sequence_invariant(tiny_corpus):
    """Per-row span-sequence equality (kind, text, media_ref, order):
    the engine's parse of each fetched page is byte-identical to the
    corpus row the oracle reads (the parse stage is zero-copy decode —
    any divergence means the fetch/extract path corrupted spans)."""
    from no_fasel_scrapers_ray.stages.fetch import Fetcher
    from no_fasel_scrapers_ray.corpus.spans import PageView
    corpus, _ = tiny_corpus
    f = Fetcher(corpus)
    import pyarrow as pa
    sample = corpus.slice(0, 50)
    batch = pa.table({
        "url": sample.column("doc_id"),
        "host": sample.column("host"),
    })
    out = f(batch)
    assert out.num_rows == 50
    for i in range(50):
        got = PageView(out.column("spans")[i].as_py()).sequence()
        exp = PageView(sample.column("spans")[i].as_py()).sequence()
        assert got == exp


def test_presplit_gather_equivalence(tiny_corpus, engine_run,
                                     tmp_path_factory):
    """The shard-local pre-split gather (the multi-raylet transfer
    optimization, forced on here; a single node auto-selects the
    whole-table gather) must produce IDENTICAL catalogs to the
    whole-table gather, on the same corpus."""
    corpus, seeds = tiny_corpus
    run_dir = str(tmp_path_factory.mktemp("crawl_presplit"))
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=3)
    assert not eng._presplit
    eng._presplit = True
    eng.run()
    got = build_catalogs(assemble_records(eng.records_dataset()))
    _, want = engine_run
    assert got == want
