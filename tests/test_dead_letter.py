"""Bounded retries + dead-letter rows (SURVEY §4.1: the engine's
replacement for the reference's infinite in-process retry,
Common.py:110-136).

- transient failures below the retry budget recover: byte-identical
  catalogs / frontier log / seen set, empty dead letter;
- failures exhausting the budget land in the dead-letter dataset with
  reason='transient' and attempts=max_attempts; the pop log and seen
  set are unchanged (dead-lettering happens post-pop), the page's own
  records are simply absent;
- URLs missing from the corpus (the permanent-404 analogue) land with
  reason='missing'.
"""

import pytest

from no_fasel_scrapers_ray.corpus.storage import BlockRefs
from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
from no_fasel_scrapers_ray.pipelines.assemble import (
    assemble_records, build_catalogs)
from no_fasel_scrapers_ray.pipelines.crawl import DEAD_SCHEMA, CrawlEngine

from conftest import seen_urls

RECOVER_URL = "https://fasel.test/movies/m3"
DEAD_URL = "https://fasel.test/movies/m5"
MISSING_URL = "https://fasel.test/movies/not-a-real-page"


@pytest.fixture(scope="module")
def corpus_seeds():
    return generate(tiny_config())


def _run(corpus_seeds, tmp_path_factory, name, **kw):
    corpus, seeds = corpus_seeds
    run_dir = str(tmp_path_factory.mktemp(name))
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=2, **kw)
    eng.run()
    catalogs = build_catalogs(assemble_records(eng.records_dataset()))
    return eng, catalogs


@pytest.fixture(scope="module")
def baseline(corpus_seeds, tmp_path_factory):
    return _run(corpus_seeds, tmp_path_factory, "dl_base")


def test_transient_below_budget_recovers(corpus_seeds, tmp_path_factory,
                                         baseline):
    eng0, cat0 = baseline
    eng, cat = _run(corpus_seeds, tmp_path_factory, "dl_recover",
                    max_attempts=3, fail_plan={RECOVER_URL: 2})
    assert cat == cat0
    assert eng.frontier_log_table().to_pylist() == \
        eng0.frontier_log_table().to_pylist()
    assert seen_urls(eng) == seen_urls(eng0)
    assert eng.dead_letter_dataset().count() == 0
    assert eng.metrics["dead_lettered"] == 0


def test_clean_crawl_dead_letter_is_empty(baseline):
    """No failures: round dirs exist but hold no part files, and the
    dead letter is empty with exactly the DEAD_SCHEMA columns, in the
    same block-ref handle as a non-empty read."""
    eng0, _ = baseline
    ds = eng0.dead_letter_dataset()
    assert type(ds) is BlockRefs
    assert ds.count() == 0
    assert list(ds.to_pandas().columns) == DEAD_SCHEMA.names


def test_exhausted_budget_dead_letters(corpus_seeds, tmp_path_factory,
                                       baseline):
    eng0, cat0 = baseline
    eng, cat = _run(corpus_seeds, tmp_path_factory, "dl_dead",
                    max_attempts=3, fail_plan={DEAD_URL: 99})
    dead = eng.dead_letter_dataset().to_pandas()
    assert list(dead.columns) == DEAD_SCHEMA.names   # no hive 'round'
    assert list(dead["url"]) == [DEAD_URL]
    assert list(dead["reason"]) == ["transient"]
    assert list(dead["attempts"]) == [3]
    assert eng.metrics["dead_lettered"] == 1
    # pop log + seen set unchanged (the row was still admitted/popped)
    assert eng.frontier_log_table().to_pylist() == \
        eng0.frontier_log_table().to_pylist()
    assert seen_urls(eng) == seen_urls(eng0)
    # exactly the dead page's catalog entry is missing; all else equal
    assert set(cat) == set(cat0)
    for name in cat0:
        if name == "movies":
            missing = set(cat0[name]) - set(cat[name])
            assert len(missing) == 1
            for k in cat[name]:
                assert cat[name][k] == cat0[name][k]
        else:
            assert cat[name] == cat0[name], name


def test_missing_url_dead_letters(corpus_seeds, tmp_path_factory, baseline):
    _, cat0 = baseline
    corpus, seeds = corpus_seeds
    import tempfile
    run_dir = tempfile.mkdtemp(prefix="dl_missing_")
    extra = seeds.to_pylist() + [{
        "url": MISSING_URL, "site": "fasel", "category": "movies"}]
    eng = CrawlEngine(corpus, extra, run_dir, n_shards=2)
    eng.run()
    dead = eng.dead_letter_dataset().to_pandas()
    assert list(dead["url"]) == [MISSING_URL]
    assert list(dead["reason"]) == ["missing"]
    assert list(dead["attempts"]) == [1]
    cat = build_catalogs(assemble_records(eng.records_dataset()))
    assert cat == cat0
