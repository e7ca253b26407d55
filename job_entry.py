"""`ray job submit` entrypoint rehearsal (VERDICT r04 #8; north rule:
"run via ray job submit on fixed-size clusters"). Everything else in
the repo runs with `ray.init(address="local")` inside the driver
process; this script is the job-shaped twin: submitted to a running
`ray start --head` cluster, it attaches with address="auto", runs the
tiny-corpus crawl end-to-end plus an oracle-checked query subset, and
prints one JSON line. Transcript recorded in BASELINE.md.

    ray start --head --num-cpus=8 --include-dashboard=true
    ray job submit --working-dir /root/repo -- python job_entry.py
"""

import json
import os
import sys
import tempfile
import time


def main() -> None:
    import ray
    ray.init(address="auto", logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as M   # registers portable pickling
    out: dict = {"job": "nfs-ray-smoke"}

    # 1. crawl e2e on the tiny synthetic web
    from no_fasel_scrapers_ray.corpus.synth import generate, tiny_config
    from no_fasel_scrapers_ray.pipelines.assemble import (
        assemble_records, write_catalogs_parallel)
    from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine
    run_dir = tempfile.mkdtemp(prefix="job_crawl_")
    corpus, seeds = generate(tiny_config())
    t0 = time.perf_counter()
    eng = CrawlEngine(corpus, seeds.to_pylist(), run_dir, n_shards=2)
    stats = eng.run()
    entries = assemble_records(eng.records_dataset())
    write_catalogs_parallel(entries, os.path.join(run_dir, "out"))
    out["crawl_pages"] = stats["popped"]
    out["crawl_records"] = stats["records"]
    out["crawl_sec"] = round(time.perf_counter() - t0, 2)

    # 2. oracle-checked query subset at sf0.001
    import duckdb
    import pandas as pd
    sf = os.environ.get("JOB_SF_DIR", "/root/testdata/sf0.001")
    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents",
              "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    qmap, omap = M.queries(), M.oracle_sql()
    checked = []
    for name in ("pricing_summary", "region_rollup", "doc_stats",
                 "user_similarity"):
        res = qmap[name](sf)
        got = res.to_pandas() if hasattr(res, "to_pandas") else res
        want = con.sql(omap[name]).df()
        cols = sorted(got.columns)
        pd.testing.assert_frame_equal(
            got.sort_values(cols)[cols].reset_index(drop=True),
            want.sort_values(cols)[cols].reset_index(drop=True),
            check_dtype=False)
        checked.append(name)
    out["oracle_checked"] = checked
    out["ok"] = True
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
