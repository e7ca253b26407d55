"""(host, salt)-partitioned corpus storage + partition-pruned fetch:

- write_corpus lays out hive ``host=H/salt=S`` partitions;
  read_corpus_table round-trips the exact rows;
- PartitionedFetcher loads ONLY the (host, salt) partitions its rows
  live in, and a (host, salt) with no partition loads nothing.

Every crawl fetches through this path, so the crawl e2e suites
(tests/test_crawl_e2e.py, ...) cover its end-to-end equivalence.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from no_fasel_scrapers_ray.corpus.storage import (
    CORPUS_SALTS, corpus_hosts, is_host_partitioned, read_corpus_table,
    url_salts, write_corpus)
from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
from no_fasel_scrapers_ray.functions.hashing import stable_hash64
from no_fasel_scrapers_ray.functions.urls import canonicalize_url
from no_fasel_scrapers_ray.stages.fetch import PartitionedFetcher


def _probe(urls, hosts) -> pa.Table:
    """A frontier-shaped fetch batch: url, host and the url hash ``h``."""
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "host": pa.array(hosts, pa.string()),
        "h": pa.array([stable_hash64(canonicalize_url(u)) for u in urls],
                      pa.uint64())})


@pytest.fixture(scope="module")
def corpus_on_disk(tmp_path_factory):
    corpus, seeds = generate(tiny_config())
    root = str(tmp_path_factory.mktemp("corpus_store"))
    path = write_corpus(corpus, root)
    return corpus, seeds, path


def test_partitioned_roundtrip(corpus_on_disk):
    corpus, _, path = corpus_on_disk
    assert is_host_partitioned(path)
    hosts = corpus_hosts(path)
    assert set(hosts) == set(corpus.column("host").to_pylist())
    back = read_corpus_table(path)
    assert back.num_rows == corpus.num_rows
    got = {r["doc_id"]: r["spans"] for r in back.to_pylist()}
    for row in corpus.to_pylist():
        assert got[row["doc_id"]] == row["spans"]


def test_partition_pruned_fetch(corpus_on_disk):
    corpus, _, path = corpus_on_disk
    f = PartitionedFetcher(path)
    host = corpus.column("host")[0].as_py()
    sample = corpus.filter(pc.equal(corpus.column("host"), host)).slice(0, 5)
    out = f(_probe(sample.column("doc_id").to_pylist(),
                   sample.column("host").to_pylist()))
    assert out.num_rows == 5
    # ONLY the touched host's partitions are resident, and only the
    # SALT slices the probe urls live in (not all CORPUS_SALTS)
    assert f.hosts_loaded == [host]
    probe_salts = set(url_salts(sample.column("doc_id").to_pylist())
                      .tolist())
    assert {s for h, s in f.partitions_loaded} == probe_salts
    # span sequences survive the partitioned path byte-exactly (rows
    # come back grouped by salt partition → compare keyed by url)
    got = dict(zip(out.column("url").to_pylist(),
                   out.column("spans").to_pylist()))
    want = dict(zip(sample.column("doc_id").to_pylist(),
                    sample.column("spans").to_pylist()))
    assert got == want
    # unknown host → no partition load beyond the probe, no rows
    miss = f(_probe(["http://nowhere.test/x"], ["nowhere.test"]))
    assert miss.num_rows == 0
    # known host, absent salt partition → no rows, and nothing loaded
    # in its place (no fallback to reading the whole host)
    hosts = corpus.column("host").to_pylist()
    salts = url_salts(corpus.column("doc_id").to_pylist())
    present: dict[str, set] = {}
    for h, s in zip(hosts, salts.tolist()):
        present.setdefault(h, set()).add(s)
    sparse = next(h for h in sorted(present)
                  if len(present[h]) < CORPUS_SALTS)
    url = next(u for u in (f"https://{sparse}/absent-{i}"
                           for i in range(10_000))
               if int(url_salts([u])[0]) not in present[sparse])
    salt = int(url_salts([url])[0])
    loaded = {k for k, v in f.parts.items() if v is not None}
    gap = f(_probe([url], [sparse]))
    assert gap.num_rows == 0
    assert f.parts[(sparse, salt)] is None
    assert {k for k, v in f.parts.items() if v is not None} == loaded
