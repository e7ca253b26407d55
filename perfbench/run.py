"""Crawl-to-catalog benchmark: one command, two workloads.

    python3 perfbench/run.py --workload fresh_crawl --seed 1 \\
        --seconds 60 --trace 0

Run from the root of a checkout. Prepares the workload's inputs from
the seed (cached under ``.perfbench_cache/``), then runs repetitions of
the workload, each in a fresh process and Ray session pinned to one
CPU, as many as fit in ``--seconds`` (at least one), and prints as
its last line

    {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}

with the end-to-end metrics (medians over repetitions) for
``--trace 0``, or the per-layer metrics of one traced repetition, plus
the tracing overhead against an untraced one, for ``--trace 1``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench_cache")
WORK = os.path.join(ROOT, ".perfbench_work")

RUN_DEADLINE_S = 170      # the whole run, prep included
REP_TIMEOUT_S = 120       # one repetition; expiry is a failed repetition

END_TO_END = {"setup_s": "s", "wall_s": "s", "rate_per_s": "1/s",
              "driver_peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return {m["name"]: m["unit"]
                for m in json.load(fp)["per_layer"]}


def ray_temp_dir(work: str) -> str:
    """Ray's session dir: inside the checkout when its unix socket paths
    fit the 107-byte limit, else a short private dir under /tmp that
    the caller removes after the repetition."""
    d = os.path.join(work, "ray")
    if len(d) + len("/session_2026-01-01_00-00-00_000000_0000000"
                    "/sockets/plasma_store") <= 107:
        return d
    return tempfile.mkdtemp(prefix="pb-", dir="/tmp")


def bench_cpu() -> int:
    """The one CPU every repetition's processes are pinned to: the last
    this process may run on. On one core the engine's processes take
    turns instead of spreading over whichever cores a shared host has
    free at the moment, so a run's time does not follow that number."""
    return max(os.sched_getaffinity(0))


def cpu_times() -> list[int] | None:
    """The host's cumulative CPU times (``/proc/stat``), or None."""
    try:
        with open("/proc/stat") as fp:
            return [int(x) for x in fp.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before: list[int] | None, after: list[int] | None) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    ``cpu_times()`` readings: the slow windows of a shared host."""
    if not before or not after or len(before) < 8:
        return 0.0
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / max(1, sum(d))


def stop_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's process group (Ray's raylet, GCS and workers
    included) and wait until none of its processes is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(kind: str, prep: str, work: str, trace: bool,
            timeout: float) -> dict | None:
    """One repetition in a child process (own session/process group, so
    a timeout kills Ray's processes with it). None on failure."""
    os.makedirs(work, exist_ok=True)
    ray_tmp = ray_temp_dir(work)
    try:
        return _run_child(kind, prep, work, trace, timeout, ray_tmp)
    finally:
        if not ray_tmp.startswith(work):
            shutil.rmtree(ray_tmp, ignore_errors=True)


def _run_child(kind: str, prep: str, work: str, trace: bool,
               timeout: float, ray_tmp: str) -> dict | None:
    args = os.path.join(work, "args.json")
    out = os.path.join(work, "result.json")
    with open(args, "w") as fp:
        json.dump({"kind": kind, "prep": prep, "work": work,
                   "ray_tmp": ray_tmp, "trace": trace, "out": out,
                   "cpu": bench_cpu()}, fp)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # one thread per native pool (Arrow, BLAS) on the one pinned core
    env = dict(os.environ, TMPDIR=tmp, RAY_DEDUP_LOGS="0",
               OMP_NUM_THREADS="1")
    log_path = os.path.join(work, "rep.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"), args],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            print(f"repetition timed out after {timeout:.0f} s",
                  file=sys.stderr)
        finally:
            stop_group(proc)
    if proc.returncode != 0 or not os.path.exists(out):
        with open(log_path, errors="replace") as fp:
            tail = fp.read()[-3000:]
        print(f"repetition failed (exit {proc.returncode}):\n{tail}",
              file=sys.stderr)
        return None
    with open(out) as fp:
        return json.load(fp)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()
    # SIGTERM unwinds like an exception, so run_rep's finally kills the
    # repetition's process group instead of leaving Ray running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "no_fasel_scrapers_ray")):
        print(f"engine package not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, ROOT]
    import prep as P
    if args.workload not in P.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"one of {sorted(P.WORKLOADS)}", file=sys.stderr)
        return 2
    kind = P.WORKLOADS[args.workload]

    prep_dir, prep_s = P.prepare(CACHE, args.workload, args.seed)
    with open(os.path.join(prep_dir, "inputs.json")) as fp:
        info = json.load(fp)
    ops_per_rep = (len(os.listdir(os.path.join(prep_dir, "expected"))) + 1
                   if kind == "crawl" else info["queries"])

    # short: Ray's unix socket paths live under it (107-byte limit)
    run_work = os.path.join(WORK, str(os.getpid()))
    deadline = t_start + RUN_DEADLINE_S
    reps: list[dict] = []
    attempted = failed = started = 0
    problems: list[str] = []

    def one(trace: bool) -> dict | None:
        nonlocal attempted, failed, started
        k, started = started, started + 1
        timeout = min(REP_TIMEOUT_S, deadline - time.perf_counter())
        before = cpu_times()
        r = run_rep(kind, prep_dir, os.path.join(run_work, str(k)),
                    trace, timeout)
        shutil.rmtree(os.path.join(run_work, str(k)), ignore_errors=True)
        if r is None:
            attempted += ops_per_rep
            failed += ops_per_rep
            return None
        r["host_steal_pct"] = steal_pct(before, cpu_times())
        attempted += r["attempted"]
        failed += r["failed"]
        problems.extend(r["problems"])
        reps.append(r)
        return r

    try:
        t_measure = time.perf_counter()
        if args.trace:
            plain, traced = one(False), one(True)
        else:
            # repetitions while the next one, at the slowest pace so
            # far, ends within --seconds of the start: on a slow host a
            # run measures fewer of them instead of running longer
            rep_s = 0.0
            while True:
                t0 = time.perf_counter()
                one(False)
                rep_s = max(rep_s, time.perf_counter() - t0)
                now = time.perf_counter()
                if (now + rep_s - t_measure > args.seconds
                        or now + 1.3 * rep_s > deadline):
                    break
    finally:
        shutil.rmtree(run_work, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed,
              "prep_s": prep_s, "repetitions": len(reps),
              "host_calib_s": [r["host_calib_s"] for r in reps],
              "host_steal_pct": [r["host_steal_pct"] for r in reps],
              "per_rep": [{k: r[k] for k in (*END_TO_END, "cpu_s", "crawl_s",
                                            "pages", "rounds") if k in r}
                          for r in reps],
              "problems": problems[:20]}
    if args.trace:
        if plain is None or traced is None:
            print(json.dumps(detail), file=sys.stderr)
            return 1
        units = per_layer_units()
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / \
            plain["wall_s"]
        # from the untraced repetition: on the one pinned core, wall
        # time the session's processes did not use is time they waited
        layers["session.cpu_s"] = plain["cpu_s"]
        layers["session.idle_s"] = plain["wall_s"] - plain["cpu_s"]
        layers["host.calib_s"] = traced["host_calib_s"]
        layers["host.steal_pct"] = traced["host_steal_pct"]
        metrics = {n: {"value": float(layers.get(n, 0.0)), "unit": u}
                   for n, u in units.items()}
    else:
        if not reps:
            print(json.dumps(detail), file=sys.stderr)
            return 1
        metrics = {n: {"value": statistics.median(r[n] for r in reps),
                       "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
