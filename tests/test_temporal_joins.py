"""Boundary semantics of the temporal join operators (asof_join,
range_count_join) on a handcrafted frame — the DuckDB parity tests in
test_queries_vs_duckdb cover the bulk statistics; these pin the edges:

- asof: exact-instant match included (allow_exact), latest-not-first
  wins, unmatched left rows dropped (inner), keys never cross;
- range: lower bound strict, upper bound inclusive, zero counts kept.
"""

import numpy as np
import pandas as pd
import ray.data as rd

from no_fasel_scrapers_ray.ops.relational import asof_join, range_count_join


def _ds(rows: list[dict]) -> rd.Dataset:
    return rd.from_pandas(pd.DataFrame(rows))


def test_asof_join_edges():
    left = _ds([
        {"user_id": 1, "ts_us": 100, "event_id": 10},   # exact match
        {"user_id": 1, "ts_us": 250, "event_id": 11},   # picks latest
        {"user_id": 1, "ts_us": 50, "event_id": 12},    # before all → drop
        {"user_id": 2, "ts_us": 300, "event_id": 13},   # other key
        {"user_id": 3, "ts_us": 300, "event_id": 14},   # keyless → drop
    ])
    right = _ds([
        {"user_id": 1, "ts_us": 100, "click_id": 900},
        {"user_id": 1, "ts_us": 200, "click_id": 901},
        {"user_id": 2, "ts_us": 100, "click_id": 902},
    ])
    got = (asof_join(left, right, by="user_id", on="ts_us")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert got["event_id"].tolist() == [10, 11, 13]
    assert got["click_id"].tolist() == [900, 901, 902]
    assert got["click_id"].dtype == np.int64


def test_range_count_join_edges():
    left = _ds([
        {"user_id": 1, "ts_us": 100, "event_id": 10},
        {"user_id": 2, "ts_us": 100, "event_id": 11},   # zero matches
    ])
    right = _ds([
        {"user_id": 1, "ts_us": 100},   # at lower bound: EXCLUDED
        {"user_id": 1, "ts_us": 101},
        {"user_id": 1, "ts_us": 150},   # at upper bound: INCLUDED
        {"user_id": 1, "ts_us": 151},   # past window
        {"user_id": 2, "ts_us": 99},    # before window
    ])
    got = (range_count_join(left, right, by="user_id", on="ts_us",
                            window=50, out_col="n")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert got["event_id"].tolist() == [10, 11]
    assert got["n"].tolist() == [2, 0]
    assert got["n"].dtype == np.int64


def test_interval_join_bin_boundaries_exactly_once():
    """Pairs spanning multiple shared bins must appear ONCE; closed
    intervals touching at a single point DO overlap; disjoint
    intervals and different keys never pair."""
    import pandas as pd
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.relational import interval_join

    left = pd.DataFrame({   # intervals [s, e]
        "k": [1, 1, 1, 2],
        "lid": [10, 11, 12, 13],
        "s": [0, 250, 400, 0],
        "e": [120, 380, 410, 50],
    })
    right = pd.DataFrame({
        "k": [1, 1, 1, 1],
        "rid": [20, 21, 22, 23],
        "s": [120, 0, 381, 500],
        "e": [360, 5, 399, 600],
    })
    out = interval_join(
        rd.from_pandas(left).repartition(2),
        rd.from_pandas(right).repartition(2),
        "k", "lid", "s", "e", "rid", "s", "e",
        bin_width=100, l_alias="lid", r_alias="rid").to_pandas()
    got = set(zip(out["lid"], out["rid"]))
    # lid=10 [0,120]: touches rid=20 [120,360] at 120 (closed → pair),
    #                 overlaps rid=21 [0,5]
    # lid=11 [250,380]: inside rid=20's span (shares bins 2 and 3 —
    #                 exactly-once check), disjoint from 22 [381,399]
    # lid=12 [400,410]: disjoint from all (399 < 400, 500 > 410)
    # lid=13 key 2: never pairs
    assert sorted(out.columns) == ["lid", "rid"]
    assert len(out) == len(got), "duplicate pair emitted across bins"
    assert got == {(10, 20), (10, 21), (11, 20)}
