"""How much each query_mix query raises the driver's peak resident set.

    python3 tools/query_rss_probe.py [--seed 1]

Run from the root of a checkout. Prepares (or reuses) the perfbench
query_mix inputs, then runs the mix once the way ``perfbench/rep.py``
does (same ``ray_start``, warm-up query and pinned core, Ray
``num_cpus=2``) in a child process with its own session
(``tools/pinned_run.py``), and prints for each query of
``prep.QUERY_LIST`` its seconds, the driver's ``VmHWM`` (peak
resident set) before and after it, and the ``ray::`` processes started
while it ran (a worker prestarted for a lease backlog, or an actor Ray
Data starts), from the same session scan as
``tools/crawl_cpu_probe.py``.

After the report the probe prints a ``check:`` line and exits 1 if any
query raised the peak by more than ``RISE_LIMIT_MB`` or if any result
differs from its DuckDB oracle; the started processes are reported,
not checked. A query's own driver-side working set
is what raises the peak: a kernel that materializes an unbounded
temporary on the driver shows as one large step. Nothing under
``perfbench/`` is changed; its modules are only imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from pinned_run import PERFBENCH, ROOT, run_pinned, session_procs

RISE_LIMIT_MB = 64


def child(a: dict) -> None:
    os.sched_setaffinity(0, {a["cpu"]})
    sys.path[:0] = [PERFBENCH, ROOT]
    import pandas as pd
    import ray

    import prep as P
    import rep
    from strict_check import canonical

    sf_dir = os.path.join(a["prep"], "sf")
    rep.ray_start(a["ray_tmp"])
    import __ray_entry__ as entry
    qmap = entry.queries()
    qmap["pricing_summary"](sf_dir).to_pandas()   # rep.py's warm-up

    rows, sid = [], os.getsid(0)
    for name in P.QUERY_LIST:
        procs = session_procs(sid)
        before = rep.peak_rss_mb()
        t0 = time.perf_counter()
        error = None
        try:
            out = qmap[name](sf_dir)
            df = out.to_pandas() if hasattr(out, "to_pandas") else out
        except Exception as e:        # a raising query is a wrong result
            error = repr(e)[:300]
        secs = time.perf_counter() - t0
        after = rep.peak_rss_mb()
        started = sorted(title for pid, (title, _) in
                         session_procs(sid).items()
                         if pid not in procs and title.startswith("ray::"))
        if error is None:
            want = pd.read_parquet(os.path.join(
                a["prep"], "expected_q", f"{name}.parquet"))
            try:
                pd.testing.assert_frame_equal(canonical(df), canonical(want),
                                              check_dtype=True)
            except AssertionError as e:
                error = str(e)[:300]
        rows.append({"query": name, "s": round(secs, 3),
                     "hwm_before_mb": round(before, 1),
                     "hwm_after_mb": round(after, 1),
                     "ray_started": started, "error": error})
    with open(a["out"], "w") as fp:
        json.dump({"seed": a["seed"], "cpu": a["cpu"],
                   "ray_cpus": ray.cluster_resources().get("CPU"),
                   "rows": rows}, fp)
    os._exit(0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        with open(args.child) as fp:
            child(json.load(fp))
    report = run_pinned(__file__, "query_mix", args.seed)
    if report is None:
        return 1
    print(f"query_mix seed {report['seed']}, pinned core {report['cpu']}, "
          f"Ray CPUs {report['ray_cpus']}")
    print(f"{'query':<24} {'s':>7} {'VmHWM before':>13} {'after':>8} "
          f"{'rise':>7}  (MB)  ray:: started")
    problems = []
    for r in report["rows"]:
        r["rise_mb"] = rise = round(r["hwm_after_mb"] - r["hwm_before_mb"], 1)
        print(f"{r['query']:<24} {r['s']:7.2f} {r['hwm_before_mb']:13.1f} "
              f"{r['hwm_after_mb']:8.1f} {rise:7.1f}"
              f"  {len(r['ray_started'])} {' '.join(r['ray_started'])}"
              + (f"  WRONG: {r['error']}" if r["error"] else ""))
        if rise > RISE_LIMIT_MB:
            problems.append(f"{r['query']} raised the driver peak by "
                            f"{rise} MB (limit {RISE_LIMIT_MB})")
        if r["error"]:
            problems.append(f"{r['query']} differs from its oracle")
    print(json.dumps({r["query"]: {"s": r["s"], "rise_mb": r["rise_mb"],
                                   "ray_started": len(r["ray_started"])}
                      for r in report["rows"]}))
    print("check: " + ("; ".join(problems) or "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
