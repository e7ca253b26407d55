"""One repetition of a workload in a fresh process and Ray session.

Invoked by run.py as ``python rep.py <args.json>``; writes one JSON
result file and exits. Each repetition owns its whole Ray session,
from ``ray.init`` until run.py kills the process group, so no worker,
actor or object survives from one repetition into the next, and the
peak resident set is this repetition's driver peak alone.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NUM_CPUS = 2          # 4 shards x 0.25 CPU + one task slot, on one core
N_SHARDS = 4
FETCH_CONCURRENCY = 4  # bench.py's max(4, 2 x CPUs) at 2 CPUs
MAX_ATTEMPTS = 3


def host_calib_s() -> float:
    """A fixed workload independent of the engine: a pure-Python loop
    and passes over a 32 MiB array, larger than the last-level cache.
    Its time tracks the host's CPU and memory speed in this window."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    a = np.ones(4 << 20)
    for _ in range(16):
        a = a * 1.0000001
    return time.perf_counter() - t0


def ray_start(ray_tmp: str) -> None:
    """``ray.init`` + Ray Data settings + ``warm_workers``. The worker
    soft limit covers the shard actors' processes as well as the task
    slots: at its default (= CPUs) the four actors alone exceed it, so
    Ray kills every task worker after 1 s idle and re-spawns it in the
    next round, a churn a cluster with more CPUs than shards never
    sees."""
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20,
             _temp_dir=ray_tmp,
             _system_config={"num_workers_soft_limit": NUM_CPUS + N_SHARDS})
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    import no_fasel_scrapers_ray
    no_fasel_scrapers_ray.enable_portable_pickling()
    cpus = ray.cluster_resources().get("CPU", 0)
    need = 0.25 * N_SHARDS + 1
    if cpus < need:
        raise SystemExit(
            f"Ray has {cpus} CPUs; the crawl needs >= {need} "
            f"(0.25 per frontier shard x {N_SHARDS} + one task slot), "
            "otherwise no _crawl_block can be scheduled and it hangs")
    from no_fasel_scrapers_ray.ops.util import warm_workers
    warm_workers()


def peak_rss_mb() -> float:
    """This process's peak resident set since it started, from
    ``VmHWM``. ``ru_maxrss`` is not used: Linux carries the parent's
    resident set into it across fork and exec, so a run that prepared
    its inputs in the parent first would report the parent's size."""
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def session_cpu_s() -> float:
    """CPU seconds used so far by every process of this repetition's
    session: the driver, Ray's GCS, raylet and agents, and its workers,
    each with the finished children it has reaped. Time the hypervisor
    or a neighbour took from the session's cores is not in it."""
    sid = os.getsid(0)
    ticks = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fp:
                stat = fp.read()
        except OSError:
            continue
        # fields after the command: state ppid pgrp session ...;
        # utime stime cutime cstime are the 12th to 15th
        f = stat[stat.rfind(")") + 2:].split()
        if int(f[3]) == sid:
            ticks += sum(int(x) for x in f[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def percentile(xs: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(xs, q)) if xs else 0.0


# -- crawl -------------------------------------------------------------------

def run_crawl(a: dict) -> dict:
    import pyarrow.parquet as pq

    prep, work, trace = a["prep"], a["work"], a["trace"]
    with open(os.path.join(prep, "inputs.json")) as fp:
        info = json.load(fp)
    seeds = pq.read_table(os.path.join(prep, "seeds.parquet")).to_pylist()
    with open(os.path.join(prep, "fail_plan.json")) as fp:
        fail_plan = json.load(fp)
    from no_fasel_scrapers_ray.corpus.storage import corpus_path
    store = corpus_path(os.path.join(prep, "store"))

    from no_fasel_scrapers_ray.pipelines.assemble import (
        assemble_records, write_catalogs_parallel)
    from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine
    rounds = None
    if trace:
        import pbtrace
        rounds = pbtrace.install(os.path.join(work, "trace"), CrawlEngine)

    run_dir = os.path.join(work, "run")
    out_dir = os.path.join(work, "out")
    t0 = time.perf_counter()
    ray_start(a["ray_tmp"])
    eng = CrawlEngine(store, seeds, run_dir, n_shards=N_SHARDS,
                      fetch_concurrency=FETCH_CONCURRENCY,
                      max_attempts=MAX_ATTEMPTS, fail_plan=fail_plan)
    eng.warmup()
    setup_s = time.perf_counter() - t0

    c1 = session_cpu_s()
    t1 = time.perf_counter()
    m = eng.run()
    crawl_s = time.perf_counter() - t1
    eng.release()
    t2 = time.perf_counter()
    entries = assemble_records(eng.records_dataset())
    if trace:
        entries = entries.materialize()
    t3 = time.perf_counter()
    _, counts = write_catalogs_parallel(entries, out_dir)
    t4 = time.perf_counter()
    catalog_s = t4 - t1
    catalog_cpu_s = session_cpu_s() - c1
    rss_mb = peak_rss_mb()

    # -- correctness gate (untimed) --
    exp_dir = os.path.join(prep, "expected")
    expected = sorted(os.listdir(exp_dir))
    failed = 0
    problems = []
    for f in expected:
        got = os.path.join(out_dir, f)
        with open(os.path.join(exp_dir, f), "rb") as fp:
            want = fp.read()
        if not os.path.exists(got):
            failed += 1
            problems.append(f"missing {f}")
            continue
        with open(got, "rb") as fp:
            if fp.read() != want:
                failed += 1
                problems.append(f"differs {f}")
    extra = sorted(set(os.listdir(out_dir)) - set(expected))
    if extra:
        failed += 1
        problems.append(f"unexpected files {extra}")
    if m["dead_lettered"] != 0 or m["popped"] != info["oracle_visits"]:
        failed += 1
        problems.append(f"popped {m['popped']} vs oracle "
                        f"{info['oracle_visits']}, dead_lettered "
                        f"{m['dead_lettered']}")
    res = {
        "setup_s": setup_s, "wall_s": catalog_s,
        "rate_per_s": m["popped"] / crawl_s,
        "driver_peak_rss_mb": rss_mb,
        "attempted": len(expected) + 1, "failed": failed,
        "problems": problems,
        "crawl_s": crawl_s, "pages": m["popped"], "rounds": m["rounds"],
        "cpu_s": catalog_cpu_s,
    }
    if trace:
        res["layers"] = crawl_layers(m, rounds, crawl_s, len(seeds),
                                     os.path.join(work, "trace"),
                                     t3 - t2, t4 - t3, counts, out_dir)
    return res


def crawl_layers(m: dict, rounds: list, crawl_s: float, n_seeds: int,
                 trace_dir: str, assemble_s: float, write_s: float,
                 counts: dict, out_dir: str) -> dict:
    import pbtrace
    blocks = pbtrace.read_blocks(trace_dir)

    def tot(k):
        return float(sum(b[k] for b in blocks))

    shards = m["shards"]
    offered = tot("links_offered") + n_seeds
    pushed = sum(s["pushed"] for s in shards)
    straggler = 0.0
    by_round: dict[int, list[float]] = {}
    for b in blocks:
        by_round.setdefault(b["round"], []).append(b["end"])
    for ends in by_round.values():
        straggler += max(ends) - statistics.median(ends)
    block_wall = float(sum(b["end"] - b["start"] for b in blocks))
    fetch, decode, extract = tot("fetch_s"), tot("decode_s"), \
        tot("extract_s")
    parse, push_total, linkhash = tot("parse_s"), tot("push_total_s"), \
        tot("linkhash_s")
    rs = m["round_secs"]
    return {
        "frontier.pushed": pushed,
        "frontier.popped": sum(s["popped"] for s in shards),
        "frontier.seen": sum(s["seen"] for s in shards),
        "frontier.cuckoo_load": sum(s["cuckoo_size"] for s in shards)
        / max(1, sum(s["cuckoo_capacity_slots"] for s in shards)),
        "frontier.accept_ratio": pushed / offered if offered else 0.0,
        "crawl.rounds": m["rounds"],
        "crawl.round_s.p50": percentile(rs, 50),
        "crawl.round_s.p90": percentile(rs, 90),
        "crawl.round_s.max": max(rs) if rs else 0.0,
        "crawl.driver_s": float(sum(m["driver_secs"])),
        "crawl.ckpt_wait_s": crawl_s - float(sum(rs)),
        "crawl.straggler_s": straggler,
        "crawl.round_span_s": float(sum(r["end"] - r["start"]
                                        for r in rounds)),
        "fetch.busy_s": fetch,
        "fetch.rows": tot("fetch_rows"),
        "fetch.retries": tot("retry_rows"),
        "fetch.corpus_load_s": tot("corpus_load_s"),
        "fetch.partitions_loaded": tot("partitions_loaded"),
        "decode.busy_s": decode,
        "extract.busy_s": extract,
        "extract.records": tot("records"),
        "extract.links": tot("links"),
        "parse.busy_s": parse,
        "linkhash.busy_s": linkhash,
        "push.busy_s": push_total - linkhash,
        "block.count": len(blocks),
        "block.busy_s": block_wall,
        "block.self_s": block_wall - (fetch + decode + extract + parse
                                      + push_total),
        "assemble.busy_s": assemble_s,
        "write.busy_s": write_s,
        "assemble.entries": sum(counts.values()),
        "write.bytes": sum(os.path.getsize(os.path.join(out_dir, f))
                           for f in os.listdir(out_dir)),
    }


# -- queries -----------------------------------------------------------------

def run_queries(a: dict) -> dict:
    import pandas as pd

    import prep as P
    from strict_check import canonical

    prep_d, trace = a["prep"], a["trace"]
    sf_dir = os.path.join(prep_d, "sf")
    t0 = time.perf_counter()
    ray_start(a["ray_tmp"])
    import __ray_entry__ as entry
    qmap = entry.queries()
    # warm-up: one query outside the mix spins up Ray Data's executor
    # and the task workers
    qmap["pricing_summary"](sf_dir).to_pandas()
    setup_s = time.perf_counter() - t0

    c1 = session_cpu_s()
    times: dict[str, float] = {}
    results: dict = {}
    op_s: dict[str, float] = {}
    for name in P.QUERY_LIST:
        t1 = time.perf_counter()
        out = None
        try:
            out = qmap[name](sf_dir)
            df = out.to_pandas() if hasattr(out, "to_pandas") else out
        except Exception as e:        # a raising query is a failed op
            df = e
        times[name] = time.perf_counter() - t1
        results[name] = df
        if trace and hasattr(out, "stats"):
            for k, v in operator_seconds(out.stats()).items():
                op_s[k] = op_s.get(k, 0.0) + v
    wall_s = sum(times.values())
    cpu_s = session_cpu_s() - c1
    rss_mb = peak_rss_mb()

    failed = 0
    problems = []
    for name, df in results.items():
        if isinstance(df, Exception):
            failed += 1
            problems.append(f"{name} raised {df!r}"[:300])
            continue
        want = pd.read_parquet(os.path.join(prep_d, "expected_q",
                                            f"{name}.parquet"))
        try:
            pd.testing.assert_frame_equal(canonical(df), canonical(want),
                                          check_dtype=True)
        except AssertionError as e:
            failed += 1
            problems.append(f"{name}: {e}"[:300])
    res = {"setup_s": setup_s, "wall_s": wall_s,
           "rate_per_s": len(times) / wall_s,
           "driver_peak_rss_mb": rss_mb,
           "attempted": len(times), "failed": failed,
           "problems": problems, "cpu_s": cpu_s}
    if trace:
        layers = {f"q.{n}_s": t for n, t in times.items()}
        for fam, names in P.QUERY_FAMILIES.items():
            layers[f"ops.{fam}_family_s"] = sum(times[n] for n in names)
        layers.update(op_s)
        res["layers"] = layers
    return res


OPERATOR_KINDS = ("read", "map", "shuffle", "other")


def operator_seconds(stats: str) -> dict[str, float]:
    """Wall seconds per operator kind from ``Dataset.stats()`` text
    ("Operator N <name>: ... executed in <t>s")."""
    import re
    out = {f"ops.op_{k}_s": 0.0 for k in OPERATOR_KINDS}
    for name, secs in re.findall(
            r"^Operator \d+ ([^:]+):.* in ([0-9.]+)s$", stats, re.M):
        low = name.lower()
        if "read" in low:
            kind = "read"
        elif any(w in low for w in ("sort", "aggregate", "repartition",
                                    "shuffle", "join", "groupby")):
            kind = "shuffle"
        elif any(w in low for w in ("map", "filter", "project")):
            kind = "map"
        else:
            kind = "other"
        out[f"ops.op_{kind}_s"] += float(secs)
    return out


def main() -> None:
    with open(sys.argv[1]) as fp:
        a = json.load(fp)
    # Ray's processes start from this one and keep its CPU
    os.sched_setaffinity(0, {a["cpu"]})
    sys.path[:0] = [HERE, ROOT]
    # timed before set-up and after the measured part, so a host that
    # slows or speeds up during the repetition shows
    before = host_calib_s()
    res = (run_crawl(a) if a["kind"] == "crawl" else run_queries(a))
    res["host_calib_s"] = (before + host_calib_s()) / 2
    with open(a["out"], "w") as fp:
        json.dump(res, fp)
    # no ray.shutdown() (about 2 s): run.py kills this process group,
    # Ray's processes included, as soon as this process has exited
    os._exit(0)


if __name__ == "__main__":
    main()
