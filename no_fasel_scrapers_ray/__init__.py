"""no_fasel_scrapers_ray — a Ray-Data-native crawl/catalog engine.

A brand-new engine (not a port) with the query and data-processing
capabilities of ``N0-0NE-Dev/no-fasel-scrapers``: a URL-frontier + fetch
scheduler over a Lance/Parquet table of interleaved text+media documents.
Queries and the crawl-to-catalog tail run on Arrow blocks held as object
refs (``corpus/storage.py::BlockRefs``): raw-task waves per block and one
key exchange (``ops/util.py::key_shuffle``) for the wide steps, with no
Ray Data execution; the stateful media stages and the ingest pipeline
stay ``ray.data.Dataset`` actor pools and pipelines.

Layout:
  corpus/     span schema, Lance-or-Parquet storage, synthetic-web generator
  functions/  pure scalar/vector functions (reference string quirks, hashing,
              URL canonicalization, text analysis)
  state/      cuckoo filter, frontier shards in host actors (seen-set,
              politeness, priority heap), checkpointing
  stages/     fetch (actor pool) and extract (stateless) map_batches stages,
              per-site adapters
  ops/        generic operators over block refs (joins, aggregation, dedup,
              ANN, text analysis) used by the driver correctness gate
  pipelines/  crawl round loop, catalog assembly, postprocess, indexer,
              trending
  oracle/     single-threaded reimplementation of the reference scraper
              semantics, used as the equality oracle in tests

Never calls ``ray.init``/``ray.shutdown`` — sessions are owned by the
caller (bench.py, CLI, test fixtures).
"""

__version__ = "0.1.0"


def enable_portable_pickling() -> None:
    """Register the whole package with Ray's cloudpickle for by-value
    pickling, so map_batches callables defined here run on workers even
    when the package directory is not on the workers' import path (the
    driver may ray.init() before /root/repo is importable — sys.path
    changes after init do NOT propagate to workers). Idempotent; call
    before building any Dataset pipeline from an external entry point
    (__ray_entry__, bench.py)."""
    import importlib
    import pkgutil
    import sys

    from ray import cloudpickle as rcp

    pkg = sys.modules[__name__]
    for info in pkgutil.walk_packages(pkg.__path__, __name__ + "."):
        try:
            rcp.register_pickle_by_value(importlib.import_module(info.name))
        except Exception:
            pass
    rcp.register_pickle_by_value(pkg)
