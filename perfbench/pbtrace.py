"""Span tracing for the traced benchmark run, from outside the engine.

``install()`` replaces the crawl module's references to the public
layer functions with timing wrappers; no engine file changes. It must
run before the first ``_crawl_block.remote`` call: the package is
pickled by value (``enable_portable_pickling``), so the wrappers reach
the workers through the pickled function's globals, and this module is
registered for by-value pickling too.

Per-page wrappers only add to an in-memory accumulator in the worker.
The block wrapper resets it when a block starts and, when the block
ends, appends one span record (block id, start, end, per-layer busy
seconds and counts) to ``<trace dir>/blocks-<pid>.jsonl``. Timestamps
are ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by every process
on the host), so worker spans line up with the driver's round spans.
"""

from __future__ import annotations

import json
import os
import time

_CFG: dict = {"dir": None}
_ACC: dict = {}

_COUNTERS = ("fetch_s", "fetch_rows", "fetch_calls", "retry_rows",
             "corpus_load_s", "partitions_loaded", "decode_s", "extract_s",
             "records", "links", "parse_s", "linkhash_s", "push_total_s",
             "links_offered", "pages")


def _reset() -> None:
    _ACC.clear()
    _ACC.update({k: 0 for k in _COUNTERS})
    _ACC["attempt"] = 0


def _busy(key: str, fn):
    def wrapped(*a, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            _ACC[key] += time.perf_counter() - t0
    return wrapped


def _extract(fn):
    def wrapped(row, page, state):
        t0 = time.perf_counter()
        recs, links = fn(row, page, state)
        _ACC["extract_s"] += time.perf_counter() - t0
        _ACC["records"] += len(recs)
        _ACC["links"] += len(links)
        _ACC["pages"] += 1
        return recs, links
    return wrapped


def _push(fn):
    def wrapped(links, shards, n_shards):
        t0 = time.perf_counter()
        try:
            return fn(links, shards, n_shards)
        finally:
            _ACC["push_total_s"] += time.perf_counter() - t0
            _ACC["links_offered"] += len(links)
    return wrapped


class _TimedFetcher:
    """Proxy around the per-worker fetcher: times every fetch call and
    counts rows; calls after the first within one retry loop are
    retries."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, batch):
        t0 = time.perf_counter()
        out = self.inner(batch)
        _ACC["fetch_s"] += time.perf_counter() - t0
        _ACC["fetch_rows"] += out.num_rows
        _ACC["fetch_calls"] += 1
        if _ACC["attempt"] > 0:
            _ACC["retry_rows"] += batch.num_rows
        _ACC["attempt"] += 1
        return out


def _get_fetcher(fn):
    def wrapped(*a, **kw):
        return _TimedFetcher(fn(*a, **kw))
    return wrapped


def _fetch_with_retry(fn):
    def wrapped(*a, **kw):
        _ACC["attempt"] = 0
        return fn(*a, **kw)
    return wrapped


def _part_fetcher(fn):
    def wrapped(self, host, salt):
        if (host, salt) in self.parts:
            return fn(self, host, salt)
        t0 = time.perf_counter()
        out = fn(self, host, salt)
        _ACC["corpus_load_s"] += time.perf_counter() - t0
        _ACC["partitions_loaded"] += 1
        return out
    return wrapped


def _block(orig):
    def traced_block(*args, **kwargs):
        _reset()
        t0 = time.perf_counter()
        out = orig(*args, **kwargs)
        t1 = time.perf_counter()
        # args[5] is the block's records part path: .../round=R/part-K
        path = args[5]
        rec = dict(_ACC, name="block", start=t0, end=t1, pid=os.getpid(),
                   round=int(path.split("round=")[-1].split("/")[0]),
                   block=os.path.basename(path).split(".")[0],
                   parent="round")
        del rec["attempt"]
        with open(os.path.join(_CFG["dir"],
                               f"blocks-{os.getpid()}.jsonl"), "a") as fp:
            fp.write(json.dumps(rec) + "\n")
        return out
    return traced_block


def install(trace_dir: str, engine_cls) -> list[dict]:
    """Wrap the crawl path's layer functions; returns the list the
    driver-side round spans are appended to."""
    import sys

    import ray
    from ray import cloudpickle

    from no_fasel_scrapers_ray.pipelines import crawl as C
    from no_fasel_scrapers_ray.stages import fetch as F

    os.makedirs(trace_dir, exist_ok=True)
    _CFG["dir"] = trace_dir
    _reset()
    cloudpickle.register_pickle_by_value(sys.modules[__name__])

    C.pages_from_arrow = _busy("decode_s", C.pages_from_arrow)
    C.extract_page = _extract(C.extract_page)
    C.page_stats_record = _busy("parse_s", C.page_stats_record)
    C.link_hashes = _busy("linkhash_s", C.link_hashes)
    C.push_links = _push(C.push_links)
    C.get_fetcher = _get_fetcher(C.get_fetcher)
    C._fetch_with_retry = _fetch_with_retry(C._fetch_with_retry)
    F.PartitionedFetcher._part_fetcher = _part_fetcher(
        F.PartitionedFetcher._part_fetcher)
    C._crawl_block = ray.remote(_block(C._crawl_block._function))

    rounds: list[dict] = []
    orig_round = engine_cls._execute_round

    def execute_round(self, metas):
        t0 = time.perf_counter()
        out = orig_round(self, metas)
        rounds.append({"name": "round", "round": self.round_idx,
                       "start": t0, "end": time.perf_counter(),
                       "parent": "crawl"})
        return out
    engine_cls._execute_round = execute_round
    return rounds


def read_blocks(trace_dir: str) -> list[dict]:
    out = []
    for f in sorted(os.listdir(trace_dir)):
        if f.startswith("blocks-"):
            with open(os.path.join(trace_dir, f)) as fp:
                out.extend(json.loads(line) for line in fp if line.strip())
    return out
