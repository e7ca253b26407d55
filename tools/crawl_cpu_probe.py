"""Where the CPU of one seeded fresh_crawl repetition goes, per process.

    python3 tools/crawl_cpu_probe.py [--seed 1]

Run from the root of a checkout. Prepares (or reuses) the perfbench
fresh_crawl inputs with ``perfbench/prep.py``, then runs one repetition
the way ``perfbench/rep.py`` does (same ``ray_start``, engine settings
and pinned core) in a child process with its own session, and prints
for each of two phases, ``run()`` and the catalog tail (``release()``
+ ``assemble_records`` + ``write_catalogs_parallel``):

- the CPU seconds of every process of the session during the phase
  (a process that exits inside the phase is missing from it);
- the ``ray::`` worker processes started during the phase;
- the pinned core's busy share over the phase, from ``/proc/stat``.

A worker started during ``run()`` that never shows a task name in its
title is the prestart waste ``ops/util.py::submit_windowed`` exists to
avoid. After the report the probe prints a ``check:`` line and exits 1
if any ``ray::`` process started in either phase (a prestarted worker,
or an actor Ray Data starts once a ``ray.data.Dataset`` exists) or if
the catalogs differ from the oracle's. Nothing under ``perfbench/`` is
changed; its modules are only imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
CLK = os.sysconf("SC_CLK_TCK")


def session_procs(sid: int) -> dict[int, tuple[str, float]]:
    """pid → (title, CPU seconds) for every process of session ``sid``."""
    out = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fp:
                stat = fp.read()
            with open(f"/proc/{pid}/cmdline", "rb") as fp:
                cmd = fp.read().replace(b"\0", b" ").decode(
                    errors="replace").strip()
        except OSError:
            continue
        f = stat[stat.rfind(")") + 2:].split()
        if int(f[3]) != sid:
            continue
        words = cmd.split(" ")
        title = words[0] if cmd.startswith("ray::") else " ".join(
            os.path.basename(w) for w in words[:2])
        out[int(pid)] = (title[:60], (int(f[11]) + int(f[12])) / CLK)
    return out


def core_times(cpu: int) -> list[int]:
    with open("/proc/stat") as fp:
        for line in fp:
            if line.startswith(f"cpu{cpu} "):
                return [int(x) for x in line.split()[1:]]
    return []


def phase(name: str, before: tuple, after: tuple) -> dict:
    (p0, c0, t0), (p1, c1, t1) = before, after
    procs = []
    for pid, (title, cpu) in sorted(p1.items()):
        used = cpu - p0.get(pid, (title, 0.0))[1]
        procs.append({"pid": pid, "title": title, "cpu_s": round(used, 2),
                      "new": pid not in p0})
    d = [b - a for a, b in zip(c0, c1)]
    # user nice system idle iowait irq softirq steal ...
    busy = sum(d[i] for i in (0, 1, 2, 5, 6)) if d else 0
    return {"phase": name, "wall_s": round(t1 - t0, 2),
            "core_busy_s": round(busy / CLK, 2),
            "core_busy_share": round(busy / max(1, sum(d[:8])), 3),
            "cpu_s": round(sum(p["cpu_s"] for p in procs), 2),
            "ray_started": [p for p in procs
                            if p["new"] and p["title"].startswith("ray::")],
            "procs": procs}


def child(a: dict) -> None:
    os.sched_setaffinity(0, {a["cpu"]})
    sys.path[:0] = [PERFBENCH, ROOT]
    import pyarrow.parquet as pq
    import ray

    import rep
    from no_fasel_scrapers_ray.corpus.storage import corpus_path
    from no_fasel_scrapers_ray.pipelines.assemble import (
        assemble_records, write_catalogs_parallel)
    from no_fasel_scrapers_ray.pipelines.crawl import CrawlEngine

    prep, work, sid = a["prep"], a["work"], os.getsid(0)
    seeds = pq.read_table(os.path.join(prep, "seeds.parquet")).to_pylist()
    with open(os.path.join(prep, "fail_plan.json")) as fp:
        fail_plan = json.load(fp)
    rep.ray_start(a["ray_tmp"])
    eng = CrawlEngine(corpus_path(os.path.join(prep, "store")), seeds,
                      os.path.join(work, "run"), n_shards=rep.N_SHARDS,
                      fetch_concurrency=rep.FETCH_CONCURRENCY,
                      max_attempts=rep.MAX_ATTEMPTS, fail_plan=fail_plan)
    eng.warmup()

    def snap():
        return session_procs(sid), core_times(a["cpu"]), time.perf_counter()

    s0 = snap()
    m = eng.run()
    s1 = snap()
    eng.release()
    out_dir = os.path.join(work, "out")
    write_catalogs_parallel(assemble_records(eng.records_dataset()), out_dir)
    s2 = snap()

    exp_dir = os.path.join(prep, "expected")
    same = sorted(os.listdir(exp_dir)) == sorted(os.listdir(out_dir)) and all(
        open(os.path.join(exp_dir, f), "rb").read()
        == open(os.path.join(out_dir, f), "rb").read()
        for f in os.listdir(exp_dir))
    report = {"seed": a["seed"], "cpu": a["cpu"],
              "ray_cpus": ray.cluster_resources().get("CPU"),
              "pages": m["popped"], "rounds": m["rounds"],
              "driver_s": round(sum(m["driver_secs"]), 3),
              "catalogs_equal_oracle": same,
              "phases": [phase("run", s0, s1), phase("tail", s1, s2)]}
    with open(a["out"], "w") as fp:
        json.dump(report, fp)
    os._exit(0)


def show(r: dict) -> None:
    print(f"fresh_crawl seed {r['seed']}: {r['pages']} pages, "
          f"{r['rounds']} rounds, Ray CPUs {r['ray_cpus']}, pinned core "
          f"{r['cpu']}, driver_secs {r['driver_s']} s, catalogs equal "
          f"oracle: {r['catalogs_equal_oracle']}")
    for p in r["phases"]:
        print(f"\n== {p['phase']}: wall {p['wall_s']} s, core busy "
              f"{p['core_busy_s']} s ({100 * p['core_busy_share']:.1f}%), "
              f"session CPU {p['cpu_s']} s, ray:: processes started: "
              f"{len(p['ray_started'])}")
        for q in sorted(p["procs"], key=lambda q: -q["cpu_s"]):
            if q["cpu_s"] >= 0.01 or q["new"]:
                print(f"  {q['pid']:>8} {q['cpu_s']:7.2f} s "
                      f"{'NEW ' if q['new'] else '    '}{q['title']}")
    print(json.dumps({p["phase"]: {"wall_s": p["wall_s"],
                                   "cpu_s": p["cpu_s"],
                                   "core_busy_share": p["core_busy_share"],
                                   "ray_started": len(p["ray_started"])}
                      for p in r["phases"]}))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        with open(args.child) as fp:
            child(json.load(fp))
    sys.path[:0] = [PERFBENCH, ROOT]
    import prep as P
    import run as R

    prep_dir, _ = P.prepare(R.CACHE, "fresh_crawl", args.seed)
    work = tempfile.mkdtemp(prefix="crawl-probe-")
    ray_tmp = R.ray_temp_dir(work)
    try:
        a = {"prep": prep_dir, "work": work, "ray_tmp": ray_tmp,
             "seed": args.seed, "cpu": R.bench_cpu(),
             "out": os.path.join(work, "report.json")}
        with open(os.path.join(work, "args.json"), "w") as fp:
            json.dump(a, fp)
        env = dict(os.environ, OMP_NUM_THREADS="1",
                   TMPDIR=os.path.join(work, "tmp"))
        os.makedirs(env["TMPDIR"])
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child",
             os.path.join(work, "args.json")], cwd=ROOT, env=env,
            start_new_session=True)
        try:
            proc.wait(timeout=R.REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            R.stop_group(proc)
        if not os.path.exists(a["out"]):
            print(f"probe repetition failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        with open(a["out"]) as fp:
            report = json.load(fp)
        show(report)
        problems = [f"{len(p['ray_started'])} ray:: processes started in "
                    f"{p['phase']}" for p in report["phases"]
                    if p["ray_started"]]
        if not report["catalogs_equal_oracle"]:
            problems.append("catalogs differ from the oracle")
        print("check: " + ("; ".join(problems) or "ok"))
        return 1 if problems else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp != os.path.join(work, "ray"):
            shutil.rmtree(ray_tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
