"""Property-based tests (hypothesis) for the core primitives whose
contracts are algebraic: the distributed scan vs the sequential cumsum,
digest compression invariants, shingle hashing, pagination vs a full
sort, and the cuckoo filter's no-false-negative guarantee. Example
counts are kept small where an example spins a Ray Dataset op; pure
functions get the full default budget."""

import numpy as np
import pandas as pd
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from no_fasel_scrapers_ray.ops.dedup import _token_hashes
from no_fasel_scrapers_ray.ops.relational import (global_order_page,
                                                  ordered_prefix_sum)
from no_fasel_scrapers_ray.ops.sketch import _compress_centroids
from no_fasel_scrapers_ray.state.cuckoo import CuckooFilter

RAY_SETTINGS = settings(max_examples=8, deadline=None,
                        derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow])


@st.composite
def id_val_arrays(draw, max_n=300):
    n = draw(st.integers(1, max_n))
    ids = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n,
                        unique=True))
    vals = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    return (np.array(ids, dtype=np.int64),
            np.array(vals, dtype=np.int64))


@RAY_SETTINGS
@given(id_val_arrays())
def test_prefix_sum_matches_sequential_cumsum(arrs):
    ids, vals = arrs
    ds = rd.from_pandas(pd.DataFrame({"k": ids, "v": vals}))
    out = ordered_prefix_sum(ds, "k", "v", "off").to_pandas()
    got = dict(zip(out["k"], out["off"]))
    order = np.argsort(ids, kind="stable")
    cs = np.cumsum(vals[order])
    want = {int(ids[i]): int(cs[j] - vals[i])
            for j, i in enumerate(order)}
    assert got == want


@RAY_SETTINGS
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
       st.integers(0, 50), st.integers(1, 10))
def test_order_page_matches_full_sort_slice(vals, offset, limit):
    df = pd.DataFrame({"cents": np.array(vals, dtype=np.int64),
                       "id": np.arange(len(vals), dtype=np.int64)})
    ds = rd.from_pandas(df)
    page = global_order_page(ds, "cents", "id", offset, limit)
    want = (df.sort_values(["cents", "id"], ignore_index=True)
            .iloc[offset:offset + limit])
    assert page["cents"].tolist() == want["cents"].tolist()
    assert page["id"].tolist() == want["id"].tolist()
    if len(page):
        assert page["pos"].tolist() == list(
            range(offset + 1, offset + 1 + len(page)))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=500),
       st.integers(2, 64))
@settings(deadline=None)
def test_compress_centroids_preserves_mass_and_bounds(vals, k):
    v = np.sort(np.array(vals, dtype=np.float64))
    w = np.ones(len(v))
    cv, cw = _compress_centroids(v, w, k)
    assert len(cv) <= max(k, 1)
    # total weight is conserved exactly (sums of ones)
    assert cw.sum() == len(v)
    # centroids are weighted means of slices: bounded by the extremes
    # and non-decreasing (slices are contiguous in rank space)
    assert (cv >= v[0] - 1e-9).all() and (cv <= v[-1] + 1e-9).all()
    assert (np.diff(cv) >= -1e-9).all()


@given(st.text(alphabet="ab ", min_size=1, max_size=80),
       st.integers(1, 4))
@settings(deadline=None)
def test_token_hashes_deterministic_and_bounded(text, shingle):
    a = _token_hashes(text, shingle)
    b = _token_hashes(text, shingle)
    assert np.array_equal(a, b)
    n_tok = len(text.split(" "))
    # distinct shingles of a doc with n tokens: at most
    # max(1, n - shingle + 1), sorted unique
    assert len(a) <= max(1, n_tok - shingle + 1)
    assert np.array_equal(a, np.unique(a))


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=2000,
                unique=True))
@settings(deadline=None, max_examples=30)
def test_cuckoo_filter_never_false_negative(keys):
    f = CuckooFilter(capacity=4096)
    h = np.array(keys, dtype=np.uint64)
    f.add_many(h)
    # the filter may say yes for absent keys (false positives) but must
    # NEVER say no for an inserted key — the property the frontier's
    # seen-set fast path relies on (misses fall through to the exact
    # spill probe)
    assert f.contains_many(h).all()


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(-50, 50)),
                min_size=5, max_size=120))
@RAY_SETTINGS
def test_spearman_matches_pandas(pairs):
    from no_fasel_scrapers_ray.ops.relational import spearman_corr
    df = pd.DataFrame(pairs, columns=["x", "y"])
    if df["x"].nunique() < 2 or df["y"].nunique() < 2:
        return
    rx = df["x"].rank(method="average").to_numpy()
    ry = df["y"].rank(method="average").to_numpy()
    expected = np.corrcoef(rx, ry)[0, 1]
    ds = rd.from_pandas(df).repartition(3)
    got = float(spearman_corr(ds, "x", "y", "rho")["rho"][0])
    np.testing.assert_allclose(got, expected, atol=1e-9)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                min_size=4, max_size=120))
@RAY_SETTINGS
def test_percent_rank_matches_pandas(rows):
    from no_fasel_scrapers_ray.ops.relational import \
        percent_rank_in_group
    df = pd.DataFrame(rows, columns=["k", "v"])
    df["rid"] = np.arange(len(df), dtype=np.int64)
    ds = rd.from_pandas(df).repartition(3)
    out = percent_rank_in_group(ds, "k", "v", "pr").to_pandas() \
        .sort_values("rid", ignore_index=True)
    grp = df.groupby("k")["v"]
    n_g = grp.transform("size")
    expected = np.where(
        n_g > 1,
        (grp.rank(method="min") - 1) / np.maximum(n_g - 1, 1), 0.0)
    np.testing.assert_allclose(out["pr"].to_numpy(), expected,
                               atol=1e-12)


@given(st.lists(st.integers(1, 10**7), min_size=1, max_size=300))
@RAY_SETTINGS
def test_benford_counts_match_string_digits(vals):
    from no_fasel_scrapers_ray.ops.relational import benford_digits
    df = pd.DataFrame({"c": np.array(vals, dtype=np.int64)})
    out = benford_digits(rd.from_pandas(df).repartition(2), "c")
    # observed-support convention: absent leading digits emit no row
    ref = pd.Series([int(str(v)[0]) for v in vals]) \
        .value_counts().sort_index()
    assert list(out["digit"]) == list(ref.index)
    assert list(out["n"]) == list(ref)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-9, 9)),
                min_size=6, max_size=40))
@RAY_SETTINGS
def test_kendall_tau_matches_bruteforce(pairs):
    from no_fasel_scrapers_ray.ops.relational import kendall_tau_grouped
    df = pd.DataFrame(pairs, columns=["x", "y"])
    df["k"] = "g"
    x = df["x"].to_numpy()
    y = df["y"].to_numpy()
    c = d = tx = ty = 0
    n = len(df)
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[j] - x[i], y[j] - y[i]
            if dx == 0:
                tx += 1
            if dy == 0:
                ty += 1
            if dx * dy > 0:
                c += 1
            elif dx * dy < 0:
                d += 1
    n0 = n * (n - 1) // 2
    ds = rd.from_pandas(df).repartition(2)
    out = kendall_tau_grouped(ds, "k", "x", "y", "tau",
                              min_points=3).to_pandas()
    if n0 == tx or n0 == ty:          # constant side → dropped
        assert len(out) == 0
        return
    want = (float(c) - float(d)) / np.sqrt(
        float(n0 - tx) * float(n0 - ty))
    np.testing.assert_allclose(out["tau"].to_numpy(), [want],
                               atol=1e-12)
