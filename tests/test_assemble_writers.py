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

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from no_fasel_scrapers_ray.corpus.synth import (
    CIMANOW_ROUTES, generate, tiny_config)
from no_fasel_scrapers_ray.functions.hashing import md5_of_json
from no_fasel_scrapers_ray.oracle import Oracle
from no_fasel_scrapers_ray.pipelines.assemble import (
    assemble_records, build_catalogs, write_catalogs,
    write_catalogs_parallel)
from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine


@pytest.fixture(scope="module")
def crawl_and_oracle(tmp_path_factory):
    corpus, seeds = generate(tiny_config())
    run_dir = str(tmp_path_factory.mktemp("writer_run"))
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=2)
    eng.run()
    o = Oracle(corpus)
    o.crawl_all(CIMANOW_ROUTES)
    return eng, o


@pytest.fixture(scope="module")
def entries_and_oracle(crawl_and_oracle):
    eng, o = crawl_and_oracle
    return assemble_records(eng.records_dataset()).materialize(), o


def _records_table(eng) -> pa.Table:
    return pa.concat_tables(ray.get(eng.records_dataset().to_arrow_refs()))


def _one_block_one_catalog(eng):
    # one record block -> one assembly bucket (split_block's
    # num_returns=1 path); one catalog -> render_split's num_returns=1
    t = _records_table(eng)
    return rd.from_arrow(t.filter(pc.equal(t["catalog"], "movies")))


def _several_blocks(eng):
    # contiguous slices keep row order, so the catalogs must equal the
    # one-block run's exactly
    t = _records_table(eng)
    step = -(-t.num_rows // 5)
    return rd.from_arrow([t.slice(lo, step)
                          for lo in range(0, t.num_rows, step)])


FANOUTS = {
    "one_block": lambda eng: eng.records_dataset(),
    "one_block_one_catalog": _one_block_one_catalog,
    "several_blocks": _several_blocks,
}


@pytest.mark.parametrize("fanout", sorted(FANOUTS))
def test_parallel_writer_byte_equality(crawl_and_oracle, entries_and_oracle,
                                       fanout, tmp_path):
    """The per-catalog worker sink (one task per catalog writes the
    file + folds its md5) is byte-identical to the dict writer, and
    its chunked md5 stream reproduces md5(json.dumps(content)) — with
    the assembly and render fan-outs at 1 and at several blocks."""
    eng, _ = crawl_and_oracle
    records = FANOUTS[fanout](eng)
    n_blocks = len(records.to_arrow_refs())
    assert (n_blocks == 1) == fanout.startswith("one_block")
    entries = assemble_records(records).materialize()
    if fanout == "several_blocks":
        assert build_catalogs(entries) == \
            build_catalogs(entries_and_oracle[0])
    dict_dir = str(tmp_path / "dict_out")
    par_dir = str(tmp_path / "par_out")
    dict_hashes = write_catalogs(build_catalogs(entries), dict_dir)
    # chunk=3 forces multi-chunk md5 folds + file appends per catalog
    par_hashes, counts = write_catalogs_parallel(entries, par_dir, chunk=3)
    assert counts
    assert (len(counts) == 1) == fanout.endswith("one_catalog")
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
