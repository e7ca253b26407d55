import os

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
