"""The one size-tier rule (``ops/util.py::plan_tier``), its budget
override (``tier_budgets``), and the operators that lean on it: the
tier-3 twin queries must really take their distributed tiers, and an
operator without a distributed tier warns past the broadcast budget."""

import os
import sys

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops import util
from no_fasel_scrapers_ray.ops.util import plan_tier, tier_budgets

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
import __ray_entry__ as entrymod  # noqa: E402
from tests.conftest import SF_SMOKE  # noqa: E402


def test_bytes_equal_to_a_budget_take_the_lower_tier():
    d, b = util.DRIVER_LIMIT_BYTES, util.BROADCAST_LIMIT_BYTES
    assert plan_tier("op", d, b) == "driver"
    assert plan_tier("op", d + 1, b) == "broadcast"
    assert plan_tier("op", d + 1, b + 1) == "distributed"
    with tier_budgets(100, 1000):
        assert plan_tier("op", 100, 1000) == "driver"
        assert plan_tier("op", 101, 1000) == "broadcast"
        assert plan_tier("op", 101, 1001) == "distributed"


def test_empty_input_fits_even_a_zero_budget():
    with tier_budgets(0, 0):
        assert plan_tier("op", 0, 0) == "driver"
        assert plan_tier("op", broadcast_bytes=0) == "broadcast"
        assert plan_tier("op", 1, 1) == "distributed"


def test_an_operator_without_a_tier_takes_the_nearest_it_has():
    over_driver = util.DRIVER_LIMIT_BYTES + 1      # fits a broadcast
    # no broadcast tier: straight to the distributed tier
    assert plan_tier("op", driver_bytes=over_driver) == "distributed"
    # no driver tier: the broadcast tier, however small the input
    assert plan_tier("op", broadcast_bytes=1) == "broadcast"
    assert plan_tier("op", broadcast_bytes=util.BROADCAST_LIMIT_BYTES
                     + 1) == "distributed"


def test_the_override_is_restored_after_an_exception_and_when_nested():
    default = util.DRIVER_LIMIT_BYTES, util.BROADCAST_LIMIT_BYTES
    with pytest.raises(RuntimeError), tier_budgets(1, 2):
        raise RuntimeError
    assert (util.DRIVER_LIMIT_BYTES, util.BROADCAST_LIMIT_BYTES) == default
    with tier_budgets(1, 2):
        with tier_budgets(broadcast=3):
            assert (util.DRIVER_LIMIT_BYTES,
                    util.BROADCAST_LIMIT_BYTES) == (1, 3)
        assert (util.DRIVER_LIMIT_BYTES,
                util.BROADCAST_LIMIT_BYTES) == (1, 2)
    assert (util.DRIVER_LIMIT_BYTES, util.BROADCAST_LIMIT_BYTES) == default


def test_personalized_pagerank_warns_past_the_broadcast_budget(
        record_tiers):
    """Past its driver tier the operator broadcasts its node arrays; it
    has no distributed tier, so over the budget it broadcasts anyway
    and the one over-budget check warns."""
    from no_fasel_scrapers_ray.ops.graph import personalized_pagerank
    ds = rd.from_pandas(pd.DataFrame({
        "src": np.array([1, 1, 2, 3, 4, 5], dtype=np.int64),
        "dst": np.array([2, 3, 4, 4, 5, 1], dtype=np.int64)}))
    ref = personalized_pagerank(ds, [1], iters=3).to_pandas()
    with tier_budgets(0, 0), \
            pytest.warns(UserWarning, match="personalized_pagerank"):
        got = personalized_pagerank(ds, [1], iters=3).to_pandas()
    # the second call's driver tier is out; broadcast is all that is left
    assert record_tiers == [("personalized_pagerank", "driver"),
                            ("personalized_pagerank", "distributed")]
    got, ref = (x.sort_values("node", ignore_index=True)
                for x in (got, ref))
    assert got["node"].tolist() == ref["node"].tolist()
    np.testing.assert_allclose(got["rank"], ref["rank"], rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("twin, op", [
    ("triangle_parts_tier3", "triangle_count"),
    ("pagerank_tier3", "pagerank"),
    ("bfs_tier3", "bfs_hops"),
    ("lpa_tier3", "label_propagation"),
    ("dedup_clusters_tier3", "connected_components"),
    ("local_clustering_tier3", "local_clustering"),
    ("msf_tier3", "minimum_spanning_forest"),
])
def test_tier3_twin_takes_the_distributed_tier(twin, op, record_tiers):
    """A twin that fell back to the driver tier would still match its
    oracle; the recorded tiers show it did not."""
    res = entrymod.queries()[twin](SF_SMOKE)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    assert len(res.columns) > 0
    assert op in [o for o, _ in record_tiers], record_tiers
    assert {t for _, t in record_tiers} == {"distributed"}, record_tiers
