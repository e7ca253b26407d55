"""Catalog sink equivalence (S6/S8):

- the catalog sink (``write_catalogs_parallel``) produces
  byte-identical JSON files and identical md5s to the dict writer
  (``write_catalogs`` over ``build_catalogs``);
- file-hashes.json matches the reference checksum semantics
  ``md5(json.dumps(content))`` (Postprocessing.py:98-110) computed over
  the ORACLE's catalogs — the engine's file hash is the oracle's;
- the crawl-to-catalog tail (``records_dataset()`` → ``assemble_records``
  → ``write_catalogs_parallel``) constructs no ``ray.data.Dataset``.
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

from conftest import read_dir


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
    # one record block -> one assembly bucket; one catalog -> one
    # writer, so the render split runs fanout's num_returns=1 path
    t = _records_table(eng)
    return rd.from_arrow(t.filter(pc.equal(t["catalog"], "movies")))


def _blocks(eng, n: int):
    # contiguous slices keep row order, so the catalogs must equal the
    # one-block run's exactly
    t = _records_table(eng)
    step = -(-t.num_rows // n)
    return rd.from_arrow([t.slice(lo, step)
                          for lo in range(0, t.num_rows, step)])


# record blocks -> assembly buckets -> entry blocks; the sink runs
# min(entry blocks, catalogs) writers, each over a sorted run of whole
# catalogs: one writer for everything, several writers with several
# catalogs each (5 blocks), or one writer per catalog (32 blocks)
FANOUTS = {
    "one_block": lambda eng: eng.records_dataset(),
    "one_block_one_catalog": _one_block_one_catalog,
    "several_blocks": lambda eng: _blocks(eng, 5),
    "writer_per_catalog": lambda eng: _blocks(eng, 32),
}


@pytest.mark.parametrize("fanout", sorted(FANOUTS))
def test_parallel_writer_byte_equality(crawl_and_oracle, entries_and_oracle,
                                       fanout, tmp_path):
    """The catalog sink (writer tasks over sorted runs of whole
    catalogs write the files + fold their md5s) is byte-identical to
    the dict writer, and its chunked md5 stream reproduces
    md5(json.dumps(content)) — with the assembly and render fan-outs
    at 1 and at several blocks, and the writer count at 1, between 1
    and the catalog count, and at the catalog count."""
    eng, _ = crawl_and_oracle
    records = FANOUTS[fanout](eng)
    n_blocks = len(records.to_arrow_refs())
    assert (n_blocks == 1) == fanout.startswith("one_block")
    entries = assemble_records(records).materialize()
    n_writers = min(len(entries.to_arrow_refs()), len(entries.catalogs))
    if fanout == "several_blocks":
        assert 1 < n_writers < len(entries.catalogs)
    if fanout == "writer_per_catalog":
        assert n_writers == len(entries.catalogs) > 1
    if not fanout.startswith("one_block"):
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
    assert read_dir(par_dir) == read_dir(dict_dir)
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


def test_sink_rejects_entries_without_catalog_names(crawl_and_oracle,
                                                    tmp_path):
    """The sink sizes its writers by the catalog names only
    ``assemble_records``' handle carries; any other input fails with a
    clear error, not deep inside the writer wave."""
    eng, _ = crawl_and_oracle
    for records in (eng.records_dataset(), _blocks(eng, 2)):
        with pytest.raises(TypeError, match="assemble_records"):
            write_catalogs_parallel(records, str(tmp_path / "out"))


def test_tail_builds_no_dataset(crawl_and_oracle, monkeypatch, tmp_path):
    """The crawl-to-catalog tail passes block refs, never a Ray Data
    Dataset (whose first construction starts Ray Data's actors), and
    still writes the dict writer's bytes."""
    eng, _ = crawl_and_oracle

    def no_dataset(*args, **kwargs):
        raise AssertionError("ray.data.Dataset built on the catalog tail")

    sink, ref = str(tmp_path / "sink"), str(tmp_path / "dict")
    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "__init__", no_dataset)
        entries = assemble_records(eng.records_dataset())
        write_catalogs_parallel(entries, sink)
        write_catalogs(build_catalogs(entries), ref)
    assert read_dir(sink) == read_dir(ref)
