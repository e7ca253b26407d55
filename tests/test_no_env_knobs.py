"""The engine package and the driver entry take their settings as
arguments, never from the environment: a hidden env knob selects a
code path no caller can see and no test pins. Harness scripts
(bench.py, job_entry.py) may read the environment; the package and
``__ray_entry__.py`` may not."""

import os
import re

import no_fasel_scrapers_ray

PKG = os.path.dirname(no_fasel_scrapers_ray.__file__)
ENTRY = os.path.join(os.path.dirname(PKG), "__ray_entry__.py")
ENV_READ = re.compile(r"\bos\.environ\b|\bos\.getenv\b|\bgetenv\(")


def _env_reads(path: str, root: str) -> list[str]:
    with open(path, encoding="utf-8") as fp:
        return [f"{os.path.relpath(path, root)}:{lineno}: {line.strip()}"
                for lineno, line in enumerate(fp, 1)
                if ENV_READ.search(line)]


def test_package_reads_no_environment():
    hits = []
    for base, _dirs, names in os.walk(PKG):
        for name in names:
            if name.endswith(".py"):
                hits += _env_reads(os.path.join(base, name), PKG)
    assert not hits, "environment reads in the package:\n" + "\n".join(hits)


def test_entry_reads_no_environment():
    hits = _env_reads(ENTRY, os.path.dirname(ENTRY))
    assert not hits, ("environment reads in the driver entry:\n"
                      + "\n".join(hits))
