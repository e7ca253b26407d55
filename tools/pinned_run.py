"""Run a probe's measured part the way ``perfbench/run.py`` runs a
repetition, for the probes in this directory.

A probe's ``main`` calls ``run_pinned(__file__, workload, seed)``. It
prepares (or reuses) the workload's inputs with ``perfbench/prep.py``
and re-runs the probe as ``<probe> --child <args.json>`` in a child
process with its own session, pinned to perfbench's core, with
``OMP_NUM_THREADS=1`` and a private ``TMPDIR``; the whole process
group is stopped afterwards. The child reads ``args.json`` (``prep``,
``work``, ``ray_tmp``, ``seed``, ``cpu``, ``out``), writes its report
as JSON to ``out`` and exits. Nothing under ``perfbench/`` is changed;
its modules are only imported. ``session_procs`` is the probes' scan of
the child session's processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

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


def run_pinned(probe: str, workload: str, seed: int) -> dict | None:
    """The child's report, or None (with a message) if it wrote none."""
    sys.path[:0] = [PERFBENCH, ROOT]
    import prep as P
    import run as R

    prep_dir, _ = P.prepare(R.CACHE, workload, seed)
    work = tempfile.mkdtemp(prefix="probe-")
    ray_tmp = R.ray_temp_dir(work)
    try:
        a = {"prep": prep_dir, "work": work, "ray_tmp": ray_tmp,
             "seed": seed, "cpu": R.bench_cpu(),
             "out": os.path.join(work, "report.json")}
        with open(os.path.join(work, "args.json"), "w") as fp:
            json.dump(a, fp)
        env = dict(os.environ, OMP_NUM_THREADS="1",
                   TMPDIR=os.path.join(work, "tmp"))
        os.makedirs(env["TMPDIR"])
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(probe), "--child",
             os.path.join(work, "args.json")], cwd=ROOT, env=env,
            start_new_session=True)
        try:
            proc.wait(timeout=R.REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            R.stop_group(proc)
        if not os.path.exists(a["out"]):
            print(f"probe run failed (exit {proc.returncode})",
                  file=sys.stderr)
            return None
        with open(a["out"]) as fp:
            return json.load(fp)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp != os.path.join(work, "ray"):
            shutil.rmtree(ray_tmp, ignore_errors=True)
