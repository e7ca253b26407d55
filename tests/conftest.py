import os
import sys

import numpy as np
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


SF_SMOKE = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


def seen_urls(eng) -> set[int]:
    """A crawl engine's exact seen set: every frontier shard's key
    hashes, gathered (O(n)); the shards must still be live."""
    hashes = ray.get([s.seen_hashes.remote() for s in eng.shards])
    return set(np.concatenate(hashes).tolist()) if hashes else set()


def read_dir(path: str) -> dict[str, bytes]:
    """Every file directly under ``path``: name → bytes (catalog
    outputs are compared byte for byte, manifest included)."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fp:
            out[name] = fp.read()
    return out


@pytest.fixture
def set_buckets(monkeypatch):
    """Pin the derived key-shuffle bucket count: ``set_buckets(n)``
    makes ``ops.util.shuffle_buckets()`` return ``n`` in every module
    that imported it (the count is read on the driver and shipped to
    workers, so patching the driver is enough)."""
    from no_fasel_scrapers_ray.ops import util

    mods = [m for m in list(sys.modules.values())
            if getattr(m, "shuffle_buckets", None) is util.shuffle_buckets]

    def pin(n: int) -> None:
        for mod in mods:
            monkeypatch.setattr(mod, "shuffle_buckets", lambda: n)
    return pin
