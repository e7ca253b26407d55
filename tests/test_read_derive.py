"""``__ray_entry__.py``'s column-derivation vocabulary and the
``derive=``/``where=`` spec of its ``_read``: each helper against the
numpy spelling the query closures used before, on adversarial values;
the spec's output shape through a real Ray read; a guard that keeps
the money and time conversion rule inside the vocabulary; and one that
keeps float literals out of the specs."""

import ast
import math
import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
import __ray_entry__ as M  # noqa: E402

DAY_US = 86_400_000_000


def _eval(table: pa.Table, derive: dict) -> pa.Table:
    """Arrow's evaluation of ``derive`` over ``table`` (what each read
    block runs)."""
    return pads.dataset(table).to_table(columns=derive, use_threads=False)


def test_cents_rounds_half_to_even_like_numpy():
    v = np.array([1.005, 2.675, -0.125, 0.5, -0.5, 1.5, 2.5, 0.015,
                  -2.675, 123456.785, 0.0, 1e12 + 0.125])
    got = _eval(pa.table({"v": v}), {"c": M.cents("v")})["c"]
    assert got.type == pa.int64()
    np.testing.assert_array_equal(got.to_numpy(),
                                  np.round(v * 100).astype(np.int64))
    np.testing.assert_array_equal(
        got.to_numpy(), (pd.Series(v) * 100).round().astype("int64"))


def test_rint_matches_np_round():
    v = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 23.5, 24.0, 49.999999])
    got = _eval(pa.table({"v": v}), {"q": M.rint("v")})["q"]
    assert got.type == pa.int64()
    np.testing.assert_array_equal(got.to_numpy(),
                                  np.round(v).astype(np.int64))


def test_epoch_us_floor_div_and_mod_before_1970():
    ts = pd.DatetimeIndex(np.array(
        ["1969-12-31T23:59:59.999999", "1969-07-20T20:17", "1900-01-01",
         "1970-01-01", "1970-01-01T00:00:01", "1996-03-01T12:34:56.789012"],
        dtype="datetime64[us]"))
    us = ts.to_numpy().astype("datetime64[us]").astype(np.int64)
    t = pa.table({"ts": pa.array(ts, pa.timestamp("us")),
                  "d": pa.array(ts.date, pa.date32())})
    for unit in (DAY_US, 3_600_000_000, 7 * DAY_US, 1):
        got = _eval(t, {"us": M.epoch_us("ts"),
                        "day": M.floor_div(M.epoch_us("ts"), unit),
                        "rem": M.mod(M.epoch_us("ts"), unit)})
        np.testing.assert_array_equal(got["us"].to_numpy(), us)
        np.testing.assert_array_equal(got["day"].to_numpy(), us // unit)
        np.testing.assert_array_equal(got["rem"].to_numpy(), us % unit)
    # a date column reads as midnight µs, like datetime64[us] of a date
    np.testing.assert_array_equal(
        _eval(t, {"d": M.epoch_us("d")})["d"].to_numpy(),
        pd.Series(ts.date).astype("datetime64[us]").astype(np.int64))


def test_floor_div_of_negative_differences():
    a = np.array([0, 5, -1, -DAY_US, -DAY_US - 1, 7, -7], dtype=np.int64)
    b = np.array([1, 6, 0, 0, 0, 0, 0], dtype=np.int64)
    got = _eval(pa.table({"a": a, "b": b}),
                {"q": M.floor_div(M.col("a") - M.col("b"), 3),
                 "r": M.mod(M.col("a") - M.col("b"), 3)})
    np.testing.assert_array_equal(got["q"].to_numpy(), (a - b) // 3)
    np.testing.assert_array_equal(got["r"].to_numpy(), (a - b) % 3)


def test_flag_is_int64_zero_one():
    t = pa.table({"f": ["R", "A", "N", "R"]})
    got = _eval(t, {"r": M.flag(M.col("f") == "R")})["r"]
    assert got.type == pa.int64()
    assert got.to_pylist() == [1, 0, 0, 1]


def test_nan_raises_instead_of_wrapping():
    t = pa.table({"v": [1.25, float("nan")]})
    for expr in (M.cents("v"), M.rint("v")):
        with pytest.raises(pa.ArrowInvalid):
            _eval(t, {"x": expr})


@pytest.fixture(scope="module")
def sf_dir(tmp_path_factory):
    """One 3,000-row table written from pandas (so the file carries
    pandas schema metadata) with the int32 columns the queries read."""
    d = tmp_path_factory.mktemp("derive_sf")
    n = 3000
    df = pd.DataFrame({
        "k": np.arange(n, dtype=np.int64),
        "l_linenumber": (np.arange(n) % 7 + 1).astype(np.int32),
        "p_size": (np.arange(n) % 50).astype(np.int32),
        "price": np.round(np.linspace(-5, 5, n), 3),
        "ts": pd.date_range("1969-12-25", periods=n, freq="37min")
              .as_unit("us"),
        "flag": np.where(np.arange(n) % 3 == 0, "R", "N")})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   d / "t.parquet")
    return str(d), df


def _blocks(ds):
    return ray.get(ds.to_arrow_refs())


def test_derive_output_is_its_columns_in_order(sf_dir):
    path, df = sf_dir
    ds = M._read(path, "t", ["k", "l_linenumber", "p_size", "price", "ts"],
                 derive={"cents": M.cents("price"), "p_size": M.col("p_size"),
                         "ln": M.int64("l_linenumber"),
                         "day": M.floor_div(M.epoch_us("ts"), DAY_US),
                         "k": M.col("k")})
    blocks = _blocks(ds)
    want = pa.schema([("cents", pa.int64()), ("p_size", pa.int32()),
                      ("ln", pa.int64()), ("day", pa.int64()),
                      ("k", pa.int64())])
    for b in blocks:
        assert b.schema.equals(want)          # int32 kept, pandas meta gone
        assert b.schema.metadata is None
    # compare rows sorted by key
    got = pa.concat_tables(blocks).to_pandas().sort_values("k")
    us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    np.testing.assert_array_equal(got["cents"],
                                  np.round(df["price"] * 100).astype("int64"))
    np.testing.assert_array_equal(got["p_size"], df["p_size"])
    assert got["p_size"].dtype == np.int32 and got["ln"].dtype == np.int64
    np.testing.assert_array_equal(got["ln"], df["l_linenumber"])
    np.testing.assert_array_equal(got["day"], us // DAY_US)


def test_where_filters_rows_and_keeps_read_columns(sf_dir):
    path, df = sf_dir
    ds = M._read(path, "t", ["k", "flag"], where=M.col("flag") == "R")
    got = pa.concat_tables(_blocks(ds))
    assert got.column_names == ["k", "flag"]
    assert sorted(got["k"].to_pylist()) == \
        df.loc[df["flag"] == "R", "k"].tolist()


def test_where_that_empties_a_block_keeps_the_typed_schema(sf_dir,
                                                           monkeypatch):
    from no_fasel_scrapers_ray.corpus import storage
    path, _ = sf_dir
    # a 512-row floor reads the 3,000-row table as several blocks
    monkeypatch.setattr(storage, "ROWS_PER_BLOCK", 512)
    derive = {"k": M.col("k"), "cents": M.cents("price")}
    want = pa.schema([("k", pa.int64()), ("cents", pa.int64())])
    # rows ≥ 2,000 survive: the first block(s) go empty
    some = _blocks(M._read(path, "t", ["k", "price"], derive=derive,
                           where=M.col("k") >= 2000))
    assert len(some) > 1 and any(b.num_rows == 0 for b in some)
    assert sum(b.num_rows for b in some) == 1000
    assert all(b.schema.equals(want) for b in some)
    none = M._read(path, "t", ["k", "price"], derive=derive,
                   where=M.col("k") < 0)
    blocks = _blocks(none)
    assert blocks and all(b.num_rows == 0 and b.schema.equals(want)
                          for b in blocks)


def test_block_count_follows_the_shared_rule(sf_dir, monkeypatch):
    from no_fasel_scrapers_ray.corpus import storage
    path, _ = sf_dir
    f = os.path.join(path, "t.parquet")
    rows, nbytes = pq.ParquetFile(f).metadata.num_rows, os.path.getsize(f)
    cpus = int(ray.cluster_resources()["CPU"])
    for floor in (storage.ROWS_PER_BLOCK, 512):
        monkeypatch.setattr(storage, "ROWS_PER_BLOCK", floor)
        want = max(math.ceil(nbytes / (32 << 20)),
                   min(2 * cpus, math.ceil(rows / floor)), 1)
        assert len(_blocks(M._read(path, "t", ["k"]))) == want
        derived = M._read(path, "t", ["k"], derive={"k": M.col("k")})
        assert len(_blocks(derived)) == want


def test_cluster_cpus_raises_without_a_cpu(monkeypatch):
    from no_fasel_scrapers_ray.ops import util
    assert util.cluster_cpus() == int(ray.cluster_resources()["CPU"])
    monkeypatch.setattr(util.ray, "cluster_resources", lambda: {})
    with pytest.raises(RuntimeError):
        util.cluster_cpus()


# Guard: the money and time conversion rule lives in the vocabulary.
# Functions allowed a datetime64 cast or a ``round(x * 100)`` outside
# it, one reason each; none of these derives a read column.
ALLOWED = {
    "q_rolling_distinct_users":
        "renders the aggregated µs hour keys as a timestamp column",
    "q_rolling_approx_users":
        "renders the aggregated µs hour keys as a timestamp column",
    "q_interpolate_hourly":
        "renders the driver-side hour grid as a timestamp column",
    "q_scd2_user_events":
        "renders the windowed µs validity bounds as timestamp columns",
}


def _times_100(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
        and any(isinstance(x, ast.Constant) and x.value == 100
                for x in (node.left, node.right))


def conversion_idioms(source: str) -> dict[str, list[str]]:
    """Per top-level function: the lines holding a ``datetime64`` cast
    or a ``round``/``rint`` of ``… * 100``. Only code is scanned, so the
    oracle SQL strings never match."""
    hits: dict[str, list[str]] = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            first = node.args[0] if node.args else None
            if name == "astype" and isinstance(first, ast.Constant) and \
                    str(first.value).startswith("datetime64"):
                hits.setdefault(fn.name, []).append(
                    f"{node.lineno}: datetime64 cast")
            if name in ("round", "rint", "around") and (
                    _times_100(node.func.value) or _times_100(first)):
                hits.setdefault(fn.name, []).append(
                    f"{node.lineno}: cents idiom")
    return hits


def test_conversions_only_in_the_vocabulary():
    with open(os.path.join(ROOT, "__ray_entry__.py"), encoding="utf-8") as fp:
        hits = conversion_idioms(fp.read())
    stray = {f: h for f, h in hits.items() if f not in ALLOWED}
    assert not stray, "conversion outside the vocabulary:\n" + "\n".join(
        f"{f}: {h}" for f, h in sorted(stray.items()))
    stale = sorted(set(ALLOWED) - set(hits))
    assert not stale, f"allowlisted without a conversion: {stale}"


def spec_float_literals(source: str) -> list[str]:
    """Float literals inside a ``where=``/``derive=`` spec (or
    ``_derive``'s spec arguments), following names bound at module
    level or in the calling function. pyarrow 16 compares an int64
    Expression with a float literal within float32's exact range, so
    a value past ±2^24 raises ``ArrowInvalid``."""
    tree = ast.parse(source)

    def bindings(body) -> dict[str, list]:
        out: dict[str, list] = {}
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    t = t.value if isinstance(t, ast.Subscript) else t
                    if isinstance(t, ast.Name):
                        out.setdefault(t.id, []).append(node.value)
        return out

    def nodes(node):
        # an ``int(...)`` is an integer whatever its arguments hold
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "int":
            return
        yield node
        for child in ast.iter_child_nodes(node):
            yield from nodes(child)

    module = bindings([s for s in tree.body
                       if not isinstance(s, ast.FunctionDef)])
    hits = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        scope = {**module, **bindings(fn.body)}
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            todo = [kw.value for kw in call.keywords
                    if kw.arg in ("where", "derive")]
            if getattr(call.func, "id", None) == "_derive":
                todo += call.args[1:]
            seen: set[str] = set()
            while todo:
                for n in nodes(todo.pop()):
                    if isinstance(n, ast.Constant) and \
                            isinstance(n.value, float):
                        hits.append(f"{fn.name}:{call.lineno}: {n.value}")
                    elif isinstance(n, ast.Name) and n.id in scope and \
                            n.id not in seen:
                        seen.add(n.id)
                        todo += scope[n.id]
    return hits


def test_spec_literals_are_integers():
    with open(os.path.join(ROOT, "__ray_entry__.py"), encoding="utf-8") as fp:
        hits = spec_float_literals(fp.read())
    assert not hits, "float literal in a read spec:\n" + "\n".join(hits)


def test_spec_float_guard_sees_names_and_inline_literals():
    src = ("_F = flag(col('d') >= 0.05)\n"
           "def q(sf):\n"
           "    d = {'f': _F}\n"
           "    a = _read(sf, 't', derive=d)\n"
           "    b = _read(sf, 't', where=cents('p') > 3.5)\n"
           "    p = int(quantile(b, 0.99))\n"
           "    return _derive(a, {'k': col('k') * 2}, where=col('c') > p)\n")
    assert spec_float_literals(src) == ["q:4: 0.05", "q:5: 3.5"]
