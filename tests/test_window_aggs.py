"""Boundary-case unit tests for the window / aggregate operators added
in round 2 (running_total, windowed_lag, grouped_quantile_disc,
pivot_counts, rollup_counts, grouped_corr, top_terms). The sf-level
DuckDB comparison in test_queries_vs_duckdb.py checks these on real
tables; here we pin the EDGE semantics on tiny crafted inputs —
tie-breaks, leading-NULL fills, the quantile element rule at the
positions where pandas' own interpolation picks a different element,
big-int overflow resistance, and top-k ties at the k boundary."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops.relational import (
    grouped_corr,
    grouped_quantile_disc,
    pivot_counts,
    rollup_counts,
    running_total,
    windowed_lag,
)
from no_fasel_scrapers_ray.ops.textops import top_terms


def _ds(df: pd.DataFrame, blocks: int = 3) -> rd.Dataset:
    return rd.from_pandas(df).repartition(blocks)


def test_running_total_tie_break_and_split_blocks():
    # same (key, ts) twice — the tie column decides cumulative order;
    # rows for one key deliberately land in different input blocks
    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 1],
        "ts": [10, 10, 5, 10, 20],
        "tie": [2, 1, 0, 0, 0],
        "v": [100, 10, 1, 7, 1000],
    })
    out = (running_total(_ds(df), ["k"], "ts", "v", alias="cum",
                         tie_cols=["tie"])
           .to_pandas().sort_values(["k", "ts", "tie"], ignore_index=True))
    assert out["cum"].tolist() == [1, 11, 111, 1111, 7]


def test_rolling_sum_frame_boundaries():
    from no_fasel_scrapers_ray.ops.relational import rolling_sum
    df = pd.DataFrame({
        "k": [1, 1, 1, 1, 1, 2],
        "ts": [1, 2, 3, 4, 5, 1],
        "v": [1, 10, 100, 1000, 10000, 7],
    })
    out = (rolling_sum(_ds(df), ["k"], "ts", "v", alias="w",
                       preceding=2)
           .to_pandas().sort_values(["k", "ts"], ignore_index=True))
    # window of 3 rows: rows before the frame fills, then values roll OUT
    assert out["w"].tolist() == [1, 11, 111, 1110, 11100, 7]
    assert out["w"].dtype == np.int64


def test_windowed_lag_default_fill_keeps_dtype():
    df = pd.DataFrame({"k": [1, 1, 2], "ts": [1, 2, 1], "v": [5, 6, 7]})
    out = (windowed_lag(_ds(df, 2), ["k"], "ts", "v", alias="prev",
                        default=-1)
           .to_pandas().sort_values(["k", "ts"], ignore_index=True))
    assert out["prev"].tolist() == [-1, 5, -1]
    assert out["prev"].dtype == np.int64


def test_quantile_disc_element_rule_not_pandas_interpolation():
    # n=3, q=0.9: DuckDB quantile_disc → element ceil(0.9*3)=3 (the MAX);
    # pandas quantile(interpolation='lower') would pick element 2.
    df = pd.DataFrame({"k": [1, 1, 1], "v": [10.0, 20.0, 30.0]})
    out = grouped_quantile_disc(_ds(df, 2), ["k"], "v", q=0.9,
                                alias="q90").to_pandas()
    assert out["q90"].tolist() == [30.0]
    # q=0.5, even n → lower-middle element (ceil(0.5*4)=2), never a mean
    df2 = pd.DataFrame({"k": [1] * 4, "v": [1.0, 2.0, 3.0, 4.0]})
    out2 = grouped_quantile_disc(_ds(df2, 2), ["k"], "v", q=0.5,
                                 alias="med").to_pandas()
    assert out2["med"].tolist() == [2.0]


def test_pivot_counts_ignores_unlisted_values():
    df = pd.DataFrame({"k": [1, 1, 2, 2, 2],
                       "t": ["a", "b", "a", "zzz", "a"]})
    out = (pivot_counts(_ds(df, 2), ["k"], "t", values=["a", "b"])
           .to_pandas().sort_values("k", ignore_index=True))
    assert out["n_a"].tolist() == [1, 2]
    assert out["n_b"].tolist() == [1, 0]


def test_rollup_counts_levels_and_grand_total():
    df = pd.DataFrame({"c": ["x", "x", "y"], "f": ["p", "q", "p"]})
    out = rollup_counts(_ds(df, 2), "c", "f", alias="n").to_pandas()
    total = out[out["c"].isna() & out["f"].isna()]
    assert total["n"].tolist() == [3]
    sub_x = out[(out["c"] == "x") & out["f"].isna()]
    assert sub_x["n"].tolist() == [2]
    fine = out[out["c"].notna() & out["f"].notna()]
    assert len(fine) == 3 and fine["n"].sum() == 3


def test_grouped_corr_matches_numpy_and_survives_big_sums():
    rng = np.random.RandomState(7)
    # y ≈ 2e8 → a 100-row block's Σy² ≈ 4e18 (fits int64) but the
    # GROUP total ≈ 8e19 overflows int64: only the big-int combine
    # of the 20 block partials gets this right
    y = rng.randint(10 ** 8, 3 * 10 ** 8, size=2000).astype(np.int64)
    x = (y // 10 ** 5 + rng.randint(0, 500, size=2000)).astype(np.int64)
    df = pd.DataFrame({"k": np.repeat([1, 2], 1000), "x": x, "y": y})
    out = (grouped_corr(_ds(df, 20), ["k"], "x", "y", alias="r")
           .to_pandas().sort_values("k", ignore_index=True))
    for i, k in enumerate([1, 2]):
        g = df[df["k"] == k]
        expect = np.corrcoef(g["x"].astype(float), g["y"].astype(float))[0, 1]
        assert out["r"][i] == pytest.approx(expect, rel=1e-9)


def test_global_quantile_disc_selection():
    from no_fasel_scrapers_ray.ops.relational import global_quantile_disc
    rng = np.random.RandomState(3)
    # heavy duplicates so range boundaries land INSIDE runs of equal
    # values — the searchsorted side must agree between the counting
    # and collection passes
    vals = np.repeat(rng.randint(0, 200, size=500), 7).astype(np.float64)
    df = pd.DataFrame({"v": rng.permutation(vals)})
    ds = _ds(df, 4)
    for q in (0.1, 0.5, 0.9, 1.0):
        expect = np.sort(vals)[int(np.ceil(q * len(vals))) - 1]
        got = global_quantile_disc(ds, "v", q, n_ranges=16)
        assert got == expect, (q, got, expect)


def test_quantile_q_zero_returns_min():
    from no_fasel_scrapers_ray.ops.relational import global_quantile_disc
    df = pd.DataFrame({"k": [1, 1, 1], "v": [30.0, 10.0, 20.0]})
    out = grouped_quantile_disc(_ds(df, 2), ["k"], "v", q=0.0,
                                alias="q0").to_pandas()
    assert out["q0"].tolist() == [10.0]
    assert global_quantile_disc(_ds(df, 2), "v", q=0.0, n_ranges=4) == 10.0


def test_string_agg_skips_nulls_like_sql():
    from no_fasel_scrapers_ray.ops.relational import grouped_string_agg
    df = pd.DataFrame({"k": [1, 1, 1, 2], "s": ["b", None, "a", None]})
    out = (grouped_string_agg(_ds(df, 2), ["k"], "s", alias="j")
           .to_pandas().sort_values("k", ignore_index=True))
    # NULL-only group collapses to empty string (DuckDB returns NULL
    # for it — callers on nullable columns should pre-filter); mixed
    # group must skip the NULL instead of raising TypeError
    assert out[out["k"] == 1]["j"].tolist() == ["a,b"]


def test_cube_counts_schema_unifies():
    from no_fasel_scrapers_ray.ops.relational import cube_counts
    df = pd.DataFrame({"c": ["x", "y"], "f": ["p", "p"]})
    ds = cube_counts(_ds(df, 2), "c", "f", alias="n")
    schema = ds.schema()          # Arrow-level unification must not fail
    assert set(schema.names) == {"c", "f", "n"}
    assert str(schema.types[schema.names.index("c")]) == "string"


def test_grouped_hll_null_key_does_not_corrupt_neighbors():
    from no_fasel_scrapers_ray.ops.sketch import (
        grouped_approx_count_distinct)
    df = pd.DataFrame({
        "k": [1.0, 1.0, np.nan, np.nan, 2.0],
        "v": np.arange(5, dtype=np.int64),
    })
    out = grouped_approx_count_distinct(
        rd.from_pandas(df), ["k"], "v", alias="nd", p=10).to_pandas()
    by_key = {(None if pd.isna(r["k"]) else r["k"]): r["nd"]
              for _, r in out.iterrows()}
    assert round(by_key[1.0]) == 2       # not inflated by the NaN rows
    assert round(by_key[2.0]) == 1
    assert round(by_key[None]) == 2      # NULL keys form their own group


def test_top_terms_tie_break_at_k_boundary():
    docs = pd.DataFrame({"text": ["b c", "c b", "a a", "d"]})
    # counts: a=2, b=2, c=2, d=1 → k=2 keeps (a, b) by term ASC tie-break
    out = (top_terms(_ds(docs, 2), k=2)
           .to_pandas().sort_values("term", ignore_index=True))
    assert out["term"].tolist() == ["a", "b"]
    assert out["n"].tolist() == [2, 2]


def test_rolling_time_sum_inclusive_boundary_and_tie_peers():
    """RANGE BETWEEN W PRECEDING AND CURRENT ROW: the row at exactly
    t-W is INSIDE the frame, and equal-ts peers AFTER the current row
    are included too (RANGE-mode current-row semantics)."""
    import pandas as pd
    import numpy as np
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.relational import rolling_time_sum

    df = pd.DataFrame({
        "uid": np.ones(5, dtype=np.int64),
        "ts": np.array([0, 100, 100, 150, 201], dtype=np.int64),
        "v": np.array([1, 10, 100, 1000, 10000], dtype=np.int64),
    })
    out = rolling_time_sum(rd.from_pandas(df).repartition(2),
                           ["uid"], "ts", "v", window=100,
                           alias="trail").to_pandas()
    got = dict(zip(zip(out["ts"], out["v"]), out["trail"]))
    assert got[(0, 1)] == 1
    # both ts=100 rows: frame [0,100] = 1+10+100 (tie peer included)
    assert got[(100, 10)] == 111
    assert got[(100, 100)] == 111
    # ts=150: frame [50,150] = 10+100+1000
    assert got[(150, 1000)] == 1110
    # ts=201: frame [101,201] = 1000+10000 (ts=100 < 101 excluded)
    assert got[(201, 10000)] == 11000


def test_windowed_lead_trailing_default_and_single_row_group():
    from no_fasel_scrapers_ray.ops.relational import windowed_lead
    df = pd.DataFrame({
        "k": [1, 1, 1, 2],
        "ts": [1, 2, 3, 9],
        "v": [10, 20, 30, 7],
    })
    out = (windowed_lead(_ds(df), ["k"], "ts", "v", alias="nxt",
                         default=-1)
           .to_pandas().sort_values(["k", "ts"], ignore_index=True))
    # last row of each partition gets the default; dtype stays int64
    assert out["nxt"].tolist() == [20, 30, -1, -1]
    assert out["nxt"].dtype == np.int64


def test_windowed_rank_stats_ties_and_singleton():
    """PERCENT_RANK: ties share rank_min; singleton partitions get 0
    (the SQL n==1 rule). CUME_DIST: ties share rank_max / n."""
    from no_fasel_scrapers_ray.ops.relational import windowed_rank_stats
    df = pd.DataFrame({
        "k": [1, 1, 1, 1, 2],
        "v": [5, 5, 7, 9, 3],
    })
    out = (windowed_rank_stats(_ds(df), ["k"], "v",
                               pct_alias="pr", cume_alias="cd")
           .to_pandas().sort_values(["k", "v"], ignore_index=True))
    # k=1: values 5,5,7,9 → rank_min 1,1,3,4; pr = (r-1)/3
    assert out["pr"].tolist() == [0.0, 0.0, 2 / 3, 1.0, 0.0]
    # cume_dist = rank_max/n: 5s → 2/4, 7 → 3/4, 9 → 1; singleton → 1
    assert out["cd"].tolist() == [0.5, 0.5, 0.75, 1.0, 1.0]


def test_grouped_first_last_combines_partials_across_batches():
    """Force 1-row batches so every row is its own partial — the final
    combine must still find the global first/last by (order, tie)."""
    from no_fasel_scrapers_ray.ops.relational import grouped_first_last
    df = pd.DataFrame({
        "k": [1, 1, 1, 1, 2],
        "ts": [10, 5, 10, 7, 1],
        "tie": [0, 9, 1, 2, 0],
        "v": [111, 222, 333, 444, 7],
    })
    out = (grouped_first_last(_ds(df, blocks=5), ["k"], "ts", "v",
                              first_alias="f", last_alias="l",
                              tie_cols=["tie"], batch_size=1)
           .to_pandas().sort_values("k", ignore_index=True))
    # k=1: first by (ts,tie) is (5,9)→222; last is (10,1)→333
    assert out["f"].tolist() == [222, 7]
    assert out["l"].tolist() == [333, 7]


def test_skew_aware_join_hot_path_exact():
    """A zipf-hot key (half of all left rows) must be detected,
    broadcast-joined, and the combined output must equal the plain
    bucketed join row-for-row — for inner AND left."""
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, detect_hot_keys, skew_aware_join)
    rng = np.random.RandomState(5)
    keys = np.concatenate([np.zeros(5000, dtype=np.int64),      # hot
                           rng.randint(1, 200, 5000)])          # cold
    rng.shuffle(keys)
    left = pd.DataFrame({"k": keys, "x": np.arange(10000, dtype=np.int64)})
    # dim side: keys 0..149 only -> some left keys (150..199) dangle
    right = pd.DataFrame({"k": np.arange(150, dtype=np.int64),
                          "y": np.arange(150, dtype=np.int64) * 10})
    lds = rd.from_pandas(left).repartition(8)
    rds = rd.from_pandas(right).repartition(2)
    hot = detect_hot_keys(lds, "k", hot_threshold=2500)
    assert hot.tolist() == [0]
    for how in ("inner", "left"):
        got = skew_aware_join(lds, rds, on="k", how=how).to_pandas()
        ref = bucketed_join(lds, rds, on="k", how=how).to_pandas()
        cols = sorted(got.columns)
        assert cols == sorted(ref.columns)
        a = got[cols].sort_values(cols, ignore_index=True)
        b = ref[cols].sort_values(cols, ignore_index=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_skew_aware_join_hot_key_absent_from_right():
    """A hot key with NO right-side match under how='left': the hot
    branch merges against an EMPTY broadcast frame; its output schema
    must stay union-compatible with the cold bucketed branch and the
    result must equal the plain bucketed join (r02 emitted mismatched
    right-column dtypes here and the union failed at execution)."""
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.relational import (
        bucketed_join, skew_aware_join)
    rng = np.random.RandomState(8)
    keys = np.concatenate([np.full(5000, 999, dtype=np.int64),   # hot
                           rng.randint(1, 100, 3000)])           # cold
    rng.shuffle(keys)
    left = pd.DataFrame({"k": keys, "x": np.arange(8000, dtype=np.int64)})
    # right side: string + int payloads, hot key 999 ABSENT
    right = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                          "y": np.arange(100, dtype=np.int64) * 10,
                          "s": [f"v{i}" for i in range(100)]})
    lds = rd.from_pandas(left).repartition(8)
    rds = rd.from_pandas(right).repartition(2)
    for how in ("left", "inner"):
        got = skew_aware_join(lds, rds, on="k", how=how).to_pandas()
        ref = bucketed_join(lds, rds, on="k", how=how).to_pandas()
        cols = sorted(ref.columns)
        assert sorted(got.columns) == cols
        a = got[cols].sort_values(cols, ignore_index=True)
        b = ref[cols].sort_values(cols, ignore_index=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_grouped_moments_multibatch_bigint_combine():
    from no_fasel_scrapers_ray.ops.relational import grouped_moments
    rng = np.random.RandomState(11)
    # x ≈ 9e3 → a 40-row block's Σx⁴ ≈ 2.6e17 (fits int64), but the
    # GROUP total ≈ 1.3e19 overflows int64: only the big-int combine
    # across MANY block partials gets the closed form right (the
    # sf0.001/0.01 oracle runs are single-block, so this path is
    # otherwise unexercised)
    x = rng.randint(8 * 10 ** 3, 10 ** 4, size=2000).astype(np.int64)
    df = pd.DataFrame({"k": np.repeat(["a", "b"], 1000), "x": x})
    out = (grouped_moments(_ds(df, 50), ["k"], "x",
                           skew_alias="sk", kurt_alias="ku")
           .to_pandas().sort_values("k", ignore_index=True))
    for i, k in enumerate(["a", "b"]):
        g = df.loc[df["k"] == k, "x"].to_numpy(np.float64)
        m = g.mean()
        m2 = ((g - m) ** 2).mean()
        m3 = ((g - m) ** 3).mean()
        m4 = ((g - m) ** 4).mean()
        assert out["sk"][i] == pytest.approx(m3 / m2 ** 1.5, rel=1e-9)
        assert out["ku"][i] == pytest.approx(m4 / m2 ** 2 - 3.0, rel=1e-9)
