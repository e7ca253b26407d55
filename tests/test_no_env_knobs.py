"""The engine package takes its settings as arguments, never from the
environment: a hidden env knob selects a code path no caller can see
and no test pins. Harness scripts (bench.py, job_entry.py) may read
the environment; the package may not."""

import os
import re

import no_fasel_scrapers_ray

PKG = os.path.dirname(no_fasel_scrapers_ray.__file__)
ENV_READ = re.compile(r"\bos\.environ\b|\bos\.getenv\b|\bgetenv\(")


def test_package_reads_no_environment():
    hits = []
    for base, _dirs, names in os.walk(PKG):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(base, name)
            with open(path, encoding="utf-8") as fp:
                for lineno, line in enumerate(fp, 1):
                    if ENV_READ.search(line):
                        hits.append(f"{os.path.relpath(path, PKG)}:"
                                    f"{lineno}: {line.strip()}")
    assert not hits, "environment reads in the package:\n" + "\n".join(hits)
