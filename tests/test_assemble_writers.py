"""Catalog sink equivalence (S6/S8):

- the catalog sink (``write_catalogs_parallel``) produces
  byte-identical JSON files and identical md5s to the dict writer
  (``write_catalogs`` over ``build_catalogs``);
- file-hashes.json matches the reference checksum semantics
  ``md5(json.dumps(content))`` (Postprocessing.py:98-110) computed over
  the ORACLE's catalogs — the engine's file hash is the oracle's.
"""

import json
import os

import pytest

from no_fasel_scrapers_ray.corpus.synth import (
    CIMANOW_ROUTES, generate, tiny_config)
from no_fasel_scrapers_ray.functions.hashing import md5_of_json
from no_fasel_scrapers_ray.oracle import Oracle
from no_fasel_scrapers_ray.pipelines.assemble import (
    assemble_records, build_catalogs, write_catalogs,
    write_catalogs_parallel)
from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine


@pytest.fixture(scope="module")
def entries_and_oracle(tmp_path_factory):
    corpus, seeds = generate(tiny_config())
    run_dir = str(tmp_path_factory.mktemp("writer_run"))
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=2)
    eng.run()
    entries = assemble_records(eng.records_dataset()).materialize()
    o = Oracle(corpus)
    o.crawl_all(CIMANOW_ROUTES)
    return entries, o


def test_parallel_writer_byte_equality(entries_and_oracle, tmp_path):
    """The per-catalog worker sink (one task per catalog writes the
    file + folds its md5) is byte-identical to the dict writer, and
    its chunked md5 stream reproduces md5(json.dumps(content))."""
    entries, _ = entries_and_oracle
    dict_dir = str(tmp_path / "dict_out")
    par_dir = str(tmp_path / "par_out")
    dict_hashes = write_catalogs(build_catalogs(entries), dict_dir)
    # chunk=3 forces multi-chunk md5 folds + file appends per catalog
    par_hashes, counts = write_catalogs_parallel(entries, par_dir, chunk=3)
    assert par_hashes == dict_hashes
    files = sorted(os.listdir(dict_dir))
    assert sorted(os.listdir(par_dir)) == files
    for name in files:
        with open(os.path.join(dict_dir, name), "rb") as fa, \
                open(os.path.join(par_dir, name), "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs"
    for cat, n in counts.items():
        with open(os.path.join(par_dir, f"{cat}.json"),
                  encoding="utf-8") as fp:
            assert len(json.load(fp)) == n


def test_file_hashes_match_oracle(entries_and_oracle, tmp_path):
    """S8: engine file-hashes.json == md5(json.dumps(oracle catalog))
    for every crawl catalog (Postprocessing.py:98-110 semantics)."""
    entries, oracle = entries_and_oracle
    out = str(tmp_path / "out")
    got, _ = write_catalogs_parallel(entries, out)
    with open(os.path.join(out, "file-hashes.json")) as fp:
        manifest = json.load(fp)
    assert manifest == got
    for name, data in oracle.catalogs.items():
        assert got[name] == md5_of_json(data), name
