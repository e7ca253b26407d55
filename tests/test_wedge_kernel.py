"""The one wedge kernel behind every triangle tier
(``ops/graph.py::_wedge_slices``): its slices against a brute-force
wedge set, the counts it closes against brute-force triangle counts,
the three tiers of ``triangle_count`` and ``local_clustering`` against
each other, and the driver tier's memory bound."""

import tracemalloc

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops import graph
from no_fasel_scrapers_ray.ops.util import tier_budgets


def _zipf_graph(seed: int, n: int = 150, m: int = 900):
    """Distinct canonical edges (a < b) with zipf-skewed degrees."""
    rng = np.random.default_rng(seed)
    a = (rng.zipf(1.6, m) - 1) % n
    b = (rng.zipf(1.6, m) - 1 + rng.integers(0, n, m)) % n
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    e = np.unique(lo * n + hi)
    return (e // n).astype(np.int64), (e % n).astype(np.int64)


def _gnp(seed: int, n: int, p: float):
    rng = np.random.default_rng(seed)
    a, b = np.nonzero(np.triu(rng.random((n, n)) < p, 1))
    return a.astype(np.int64), b.astype(np.int64)


def _brute_triangles(a, b):
    """(total, {node: participation}) from the dense adjacency cube."""
    ids, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = len(ids)
    adj = np.zeros((n, n), dtype=np.int64)
    adj[inv[:len(a)], inv[len(a):]] = 1
    adj |= adj.T
    per = np.einsum("ij,jk,ki->i", adj, adj, adj) // 2
    return int(per.sum()) // 3, dict(zip(ids.tolist(), per.tolist()))


def _brute_wedges(u, v):
    out = []
    for c in np.unique(u):
        nb = v[u == c]
        out += [(int(c), int(nb[i]), int(nb[j]))
                for i in range(len(nb)) for j in range(i + 1, len(nb))]
    return sorted(out)


def _slices(u, v):
    return list(graph._wedge_slices(u, v))


@pytest.fixture(params=[1, 7, graph.WEDGE_SLICE],
                ids=["slice1", "slice7", "default"])
def wedge_slice(request, monkeypatch):
    monkeypatch.setattr(graph, "WEDGE_SLICE", request.param)
    return request.param


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_slices_equal_brute_force_wedges(seed, wedge_slice):
    _ids, _deg, u, v, _keys = graph._driver_orient(*_zipf_graph(seed))
    sl = _slices(u, v)
    assert sl, "the graph has wedges"
    assert all(len(c) == wedge_slice for c, _x, _y in sl[:-1])
    assert 0 < len(sl[-1][0]) <= wedge_slice
    got = sorted(zip(*[np.concatenate(col).tolist()
                       for col in zip(*sl)]))
    assert got == _brute_wedges(u, v)
    assert all((x < y).all() for _c, x, y in sl)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_counts_equal_brute_force(seed, wedge_slice):
    a, b = _zipf_graph(seed)
    ids, _deg, u, v, keys = graph._driver_orient(a, b)
    total, per = _brute_triangles(a, b)
    assert total > 0
    assert graph._count_closed(u, v, keys, len(ids)) == total
    tri = graph._tri_participation(u, v, keys, len(ids))
    assert dict(zip(ids.tolist(), tri.tolist())) == per
    assert graph._driver_triangle_count(a, b) == total


def test_one_run_longer_than_a_slice():
    # one center with 400 out-neighbors: C(400, 2) pairs > one slice
    v = np.arange(1, 401, dtype=np.int64)
    u = np.zeros(len(v), dtype=np.int64)
    sl = _slices(u, v)
    assert 400 * 399 // 2 > graph.WEDGE_SLICE
    assert len(sl) == -(-(400 * 399 // 2) // graph.WEDGE_SLICE)
    x = np.concatenate([s[1] for s in sl])
    y = np.concatenate([s[2] for s in sl])
    iu, iv = np.nonzero(np.triu(np.ones((400, 400), dtype=bool), 1))
    np.testing.assert_array_equal(x, v[iu])
    np.testing.assert_array_equal(y, v[iv])
    assert all((s[0] == 0).all() for s in sl)


def test_empty_and_one_edge_inputs(wedge_slice):
    z = np.array([], dtype=np.int64)
    assert _slices(z, z) == []
    one = np.array([3], dtype=np.int64)
    assert _slices(one, one + 1) == []
    assert graph._tri_participation(z, z, z, 4).tolist() == [0] * 4
    assert graph._driver_triangle_count(one, one + 1) == 0
    assert graph._count_closed(z, z, z, 0) == 0


def test_three_tiers_agree_over_several_slices():
    a, b = _gnp(5, 700, 0.1)
    ids, _deg, u, v, _keys = graph._driver_orient(a, b)
    out = np.bincount(u)
    assert int((out * (out - 1) // 2).sum()) > 3 * graph.WEDGE_SLICE
    total, per = _brute_triangles(a, b)
    ds = rd.from_pandas(pd.DataFrame({"a": a, "b": b})).repartition(4)
    tiers = [(None, None), (0, None), (0, 0)]   # driver, broadcast, BSP
    counts, lcc = [], []
    for budgets in tiers:
        with tier_budgets(*budgets):
            counts.append(graph.triangle_count(ds))
            lcc.append(graph.local_clustering(ds)
                       .sort_values("node", ignore_index=True))
    assert counts == [total] * 3
    assert dict(zip(lcc[0]["node"].tolist(),
                    lcc[0]["n_tri"].tolist())) == per
    for other in lcc[1:]:
        pd.testing.assert_frame_equal(lcc[0], other)


def test_driver_tier_memory_is_bounded_by_the_slice():
    """Over 4 M wedges the driver tier's traced peak stays at the
    O(edges + slice) working set; a tier that holds every wedge at once
    needs ~200 MB of int64 temporaries here."""
    a, b = _gnp(7, 2000, 0.07)
    _ids, _deg, u, _v, _keys = graph._driver_orient(a, b)
    out = np.bincount(u)
    assert int((out * (out - 1) // 2).sum()) >= 4_000_000
    adj = np.zeros((2000, 2000), dtype=np.float32)
    adj[a, b] = 1
    adj += adj.T
    want = int(round(float(((adj @ adj) * adj).sum(dtype=np.float64)) / 6))
    del adj, u, _v, _keys, _ids, _deg
    tracemalloc.start()
    try:
        got = graph._driver_triangle_count(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 64 << 20, f"driver tier traced peak {peak / 2**20:.1f} MB"
