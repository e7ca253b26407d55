"""One-shot sf1 scale-posture smoke (VERDICT r04 #6): run the
heavyweight families once at 10× the bench scale (the /tmp/sf1
inflation from tools/make_sf1.py) in a single fresh Ray session and
record wall-times + driver peak RSS to BENCH_SF1.json. The pass/fail
posture read: no driver-memory growth across the tier-3 block, and no
query wildly super-linear vs its sf0.1 time (sub-linear families
documented in BASELINE.md).

Usage: python tools/bench_sf1.py [sf1_dir]
"""

import json
import os
import resource
import sys
import time

SF1_QUERIES = [
    # dedup pair family (documents now contain exact 10-way dup groups)
    "dedup_exact", "dedup_minhash_lsh", "dedup_ngram_jaccard",
    "dedup_simhash", "dedup_containment", "tfidf_cosine_pairs",
    "doc_dup_spans", "doc_decontaminate_neardup",
    # set-similarity + LM families
    "user_similarity", "doc_perplexity",
    # forced fully-distributed graph paths (run LAST: the RSS delta
    # across them isolates tier-3 driver growth)
    "pagerank_tier3", "dedup_clusters_tier3", "triangle_parts_tier3",
    "bfs_tier3", "lpa_tier3", "local_clustering_tier3", "msf_tier3",
]
TIER3_START = SF1_QUERIES.index("pagerank_tier3")


def main(sf_dir: str) -> None:
    import ray
    ray.init(address="local", num_cpus=int(os.environ.get(
        "RAY_GRAFT_CPUS", "32")), include_dashboard=False,
        logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as M
    qmap = M.queries()
    out = {"sf_dir": sf_dir, "num_cpus": int(os.environ.get(
        "RAY_GRAFT_CPUS", "32")), "queries": {}, "rows": {}}
    rss_t3_start = None
    for i, name in enumerate(SF1_QUERIES):
        if i == TIER3_START:
            rss_t3_start = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        t0 = time.perf_counter()
        res = qmap[name](sf_dir)
        # Dataset.count() executes the plan without pulling the rows
        # into this process (to_pandas here set the peak-RSS reading)
        n = res.count() if isinstance(res, ray.data.Dataset) \
            else len(res)
        dt = round(time.perf_counter() - t0, 3)
        out["queries"][name] = dt
        out["rows"][name] = int(n)
        print(f"{name}: {dt}s rows={n}", flush=True)
    rss_end = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["driver_peak_rss_mb"] = round(rss_end / 1024, 1)
    out["tier3_driver_rss_growth_mb"] = round(
        (rss_end - rss_t3_start) / 1024, 1)
    out["total_sec"] = round(sum(out["queries"].values()), 3)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "BENCH_SF1.json"), "w") as fp:
        json.dump(out, fp, indent=2)
    print(json.dumps({k: out[k] for k in
                      ("total_sec", "driver_peak_rss_mb",
                       "tier3_driver_rss_growth_mb")}))
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "/tmp/sf1")
