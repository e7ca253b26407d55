"""Both tiers of ``ops/dedup.py::set_similarity_top1``.

The broadcast tier (one index task, one wave of owner-range tasks) is
checked against the O(n²) reference and against the distributed tier
(forced with a zero broadcast budget) on a skewed input with jaccard-1
twins and hot-only users, users without a co-user, an empty input,
owner ranges cut into many slices, and ties between equal doubles
from different (intersection, size) pairs. Sets of identical shingle
bytes in the near-dup collapse are keyed on 128 bits, and each doc is
joined to the representative of its own 128-bit group."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from no_fasel_scrapers_ray.ops import dedup
from no_fasel_scrapers_ray.ops.util import tier_budgets
from test_round6_ops import _brute_top1, _zipf_ui

NAMES = ("u", "similar_u", "jaccard")


@pytest.fixture
def shuffles(monkeypatch):
    """The key shuffles ``set_similarity_top1`` starts (the distributed
    tier runs at least one, the broadcast tier none)."""
    calls = []

    def counted(*args, **kw):
        calls.append(args[2])
        return key_shuffle(*args, **kw)

    key_shuffle = dedup.key_shuffle
    monkeypatch.setattr(dedup, "key_shuffle", counted)
    return calls


def _run(ui: pd.DataFrame, hot_threshold: int = 1 << 30) -> pd.DataFrame:
    out = dedup.set_similarity_top1(
        rd.from_pandas(ui).repartition(3), hot_threshold=hot_threshold,
        out_names=NAMES).to_pandas()
    return out.sort_values("u", ignore_index=True)


def _distributed(ui: pd.DataFrame, **kw) -> pd.DataFrame:
    with tier_budgets(broadcast=0):
        return _run(ui, **kw)


def _ties_ui() -> pd.DataFrame:
    """Owners whose best candidates tie on equal doubles built from
    different (intersection, size) pairs:
    - owner 10 {1, 2}: user 5 {1, 2, 3, 4} scores 2/4, user 20 {1}
      scores 1/2 — the smaller id has the LARGER intersection;
    - owner 11 {7, 8}: user 3 {7} scores 1/2, user 30 {7, 8, 9, 10}
      scores 2/4 — the smaller id has the SMALLER intersection;
    - owner 12 {40, 41}: user 45 {40, 41, 42, 43, 44, 46} scores 2/6,
      user 50 {40, 47} scores 1/3 (2/6 == 1/3 as doubles)."""
    sets = {10: (1, 2), 5: (1, 2, 3, 4), 20: (1,),
            11: (7, 8), 3: (7,), 30: (7, 8, 9, 10),
            12: (40, 41), 45: (40, 41, 42, 43, 44, 46), 50: (40, 47)}
    return pd.DataFrame([(u, i) for u, items in sets.items() for i in items],
                        columns=["u", "item"]).astype(np.int64)


def test_broadcast_tier_matches_brute_and_distributed(shuffles):
    ui = _zipf_ui()
    got = _run(ui)
    assert shuffles == []
    pd.testing.assert_frame_equal(got, _brute_top1(ui), check_dtype=True)
    dist = _distributed(ui)
    assert shuffles
    pd.testing.assert_frame_equal(got, dist, check_dtype=True)
    twins = got.set_index("u")
    assert twins.loc[241, "similar_u"] == 240
    assert twins.loc[241, "jaccard"] == 1.0


def test_hot_item_takes_the_distributed_tier(shuffles):
    """An item at ``hot_threshold`` users (exact fan-out, from the
    index) sends the call to the distributed tier."""
    ui = _zipf_ui()
    got = _run(ui, hot_threshold=60)
    assert shuffles
    pd.testing.assert_frame_equal(got, _brute_top1(ui), check_dtype=True)


def test_users_without_co_user_have_no_row(shuffles):
    ui = pd.DataFrame({"u": [1, 1, 2, 2, 3, 4, 5, 5, 6],
                       "item": [1, 2, 2, 3, 3, 100, 101, 102, 103]},
                      dtype=np.int64)
    got = _run(ui)
    assert shuffles == []
    assert list(got["u"]) == [1, 2, 3]
    pd.testing.assert_frame_equal(got, _brute_top1(ui), check_dtype=True)
    pd.testing.assert_frame_equal(got, _distributed(ui),
                                  check_dtype=True)


def test_empty_input(shuffles):
    ui = pd.DataFrame({"u": np.zeros(0, np.int64),
                       "item": np.zeros(0, np.int64)})
    out = dedup.set_similarity_top1(rd.from_pandas(ui), out_names=NAMES)
    assert out.count() == 0
    assert list(out.schema().names) == list(NAMES)
    assert shuffles == []


@pytest.mark.parametrize("instances", [1, 7])
def test_many_slices(instances, shuffles, monkeypatch):
    """Owner ranges cut into many slices (1 or 7 instances each)."""
    monkeypatch.setattr(dedup, "SIM_SLICE_INSTANCES", instances)
    ui = _zipf_ui()
    got = _run(ui)
    assert shuffles == []
    pd.testing.assert_frame_equal(got, _brute_top1(ui), check_dtype=True)


def test_ties_between_equal_doubles(shuffles):
    """Equal doubles from different (intersection, size) pairs tie, and
    the smaller id wins, in both tiers."""
    ui = _ties_ui()
    got = _run(ui)
    assert shuffles == []
    best = got.set_index("u")
    assert best.loc[10, "similar_u"] == 5 and best.loc[10, "jaccard"] == 0.5
    assert best.loc[11, "similar_u"] == 3 and best.loc[11, "jaccard"] == 0.5
    assert best.loc[12, "similar_u"] == 45
    assert best.loc[12, "jaccard"] == 1 / 3
    pd.testing.assert_frame_equal(got, _brute_top1(ui), check_dtype=True)
    pd.testing.assert_frame_equal(got, _distributed(ui),
                                  check_dtype=True)


def test_distributed_size_table_is_checked(force_distributed):
    """Above the budget the distributed tier broadcasts every user's set
    size, and warns when that table passes the budget."""
    with pytest.warns(UserWarning, match="set_similarity_top1 user sizes"):
        got = _run(_ties_ui())
    pd.testing.assert_frame_equal(got, _brute_top1(_ties_ui()),
                                  check_dtype=True)


def test_set_keys_separate_a_64_bit_collision(monkeypatch):
    """Two different shingle sets whose first 64-bit hash collides keep
    different 128-bit keys, so the collapse never groups them and emits
    no score-1.0 pair between them; identical sets still pair."""
    real = pd.util.hash_array

    def first_half_collides(vals, *args, **kw):
        h = real(vals, *args, **kw)
        if "hash_key" not in kw:
            h[:] = 12345
        return h

    docs = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                         "text": ["the quick brown fox jumps",
                                  "a wholly different sentence here",
                                  "the quick brown fox jumps"]})
    sets = dedup.TokenSetter(3)(docs)
    monkeypatch.setattr(pd.util, "hash_array", first_half_collides)
    key, key2 = dedup._set_keys(sets["hset"])
    assert key[0] == key[1] == key[2]
    assert key2[0] != key2[1] and key2[0] == key2[2]
    members = pd.DataFrame({
        "doc_id": sets["doc_id"].to_numpy(np.int64), "setkey": key,
        "setkey2": key2, "n_sh": np.full(3, 3, np.int64)})
    pairs = dedup._intra_pairs(members, "jaccard", directed=False)
    assert list(zip(pairs["doc_a"], pairs["doc_b"])) == [(0, 2)]


def test_join_set_groups_keeps_each_row_with_its_own_rep():
    """Two groups whose keys share the first half (k1) but not the
    second (k2) meet in the join on k1; each sig row comes back once,
    with the rep of its own (k1, k2) group."""
    sig = pd.DataFrame({"doc_id": [0, 1, 2, 3, 4],
                        "setkey": [7, 7, 7, 7, 8],
                        "setkey2": [100, 100, 200, 200, 100],
                        "n_sh": [3, 3, 5, 5, 3]}, dtype=np.int64)
    reps = pd.DataFrame({"setkey": [7, 7, 8], "setkey2": [100, 200, 100],
                         "rep": [0, 2, 4]}, dtype=np.int64)
    got = dedup._join_set_groups(
        rd.from_pandas(sig).repartition(2), rd.from_pandas(reps),
        "setkey", "setkey2").to_pandas().sort_values(
        "doc_id", ignore_index=True)
    assert list(got["doc_id"]) == [0, 1, 2, 3, 4]
    assert list(got["rep"]) == [0, 0, 2, 2, 4]
    assert list(got["setkey2"]) == [100, 100, 200, 200, 100]
