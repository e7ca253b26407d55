"""Overflow-path pins for the one exact integer-sum operator
(``ops/relational.py::exact_sums`` and ``grouped_exact_sums``), checked
against DuckDB's HUGEINT arithmetic at magnitudes where a plain int64
reduction WRAPS — the failure the sf0.01 oracle gate can never see
because TPC-H cents at small scale stay far below 2^63."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from no_fasel_scrapers_ray.ops.relational import (_sum_partial,
                                                  exact_sums,
                                                  grouped_moments)


def _hugeint_sums(df: pd.DataFrame, keys: list[str],
                  terms: dict[str, tuple]) -> pd.DataFrame:
    """The same sums in DuckDB, every factor cast to HUGEINT; a term
    with no factors is COUNT(*). Sorted by ``keys``."""
    def sql_term(fs):
        if not fs:
            return "COUNT(*)"
        return "SUM(" + " * ".join(f"CAST({c} AS HUGEINT)" for c in fs) + ")"
    sel = ", ".join(keys + [f"{sql_term(fs)} AS {m}"
                            for m, fs in terms.items()])
    group = f" GROUP BY {', '.join(keys)} ORDER BY {', '.join(keys)}" \
        if keys else ""
    con = duckdb.connect()
    con.register("t", df)
    rows = con.sql(f"SELECT {sel} FROM t{group}").fetchall()
    return pd.DataFrame(rows, columns=keys + list(terms))


def _assert_same(got: pd.DataFrame, want: pd.DataFrame) -> None:
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for c in want.columns:
        assert [int(v) for v in got[c]] == [int(v) for v in want[c]], c


def _big_values(n: int) -> np.ndarray:
    """Deterministic positive int64 values ~6·10⁷ whose squares sum far
    past 2^63 at n ≈ 2M (Σx² ≈ n·3.6e15 ≈ 7e21 ≫ int64)."""
    x = (np.arange(n, dtype=np.int64) * 2654435761) % 10_000_000
    return x + 50_000_000


def test_moment_sums_match_hugeint_oracle_past_int64():
    n = 2_000_000
    df = pd.DataFrame({"side": (np.arange(n) % 2).astype(np.int64),
                       "x": _big_values(n)})
    ds = rd.from_pandas(df).repartition(4)
    terms = {"n": (), "sx": ("x",), "sxx": ("x", "x")}
    for keys in (["side"], []):
        want = _hugeint_sums(df, keys, terms)
        assert int(want["sxx"].max()) > 2 ** 63        # the wrap regime
        _assert_same(exact_sums(ds, keys, terms), want)


def _hot_pairs() -> pd.DataFrame:
    """A hot pair whose single product c·rx·ry ≈ 9·10²¹ exceeds 2^63,
    plus bulk rows whose sums cross 2^63 only together."""
    rng_c = (np.arange(5000, dtype=np.int64) * 48271) % 997 + 1
    return pd.DataFrame({
        "k": np.arange(5001, dtype=np.int64) % 3,
        "c": np.concatenate([[4_000_000_000], rng_c]),
        "rx": np.concatenate([[1_500_000], (rng_c * 7) % 100_000 + 1]),
        "ry": np.concatenate([[1_499_999], (rng_c * 13) % 100_000 + 1])})


_RANK_TERMS = {"n": ("c",), "sx": ("c", "rx"), "sy": ("c", "ry"),
               "sxy": ("c", "rx", "ry"), "sxx": ("c", "rx", "rx"),
               "syy": ("c", "ry", "ry")}


def test_exact_sums_hot_row_product_past_int64():
    df = _hot_pairs()
    assert float(df["c"][0]) * df["rx"][0] * df["ry"][0] > 2.0 ** 63
    ds = rd.from_pandas(df).repartition(3)
    for keys in ([], ["k"]):
        _assert_same(exact_sums(ds, keys, _RANK_TERMS),
                     _hugeint_sums(df, keys, _RANK_TERMS))


def test_exact_sum_partial_cells_are_int64():
    # rank-sum shape: a hot distinct value whose tie mass cnt³ and
    # Σ cnt_a·rank2 both exceed int64 on their own
    df = pd.DataFrame({"k": [1, 1, 2],
                       "cnt": np.array([3_000_000, 7, 11], np.int64),
                       "ca": np.array([2_999_999, 3, 11], np.int64),
                       "r2": np.array([4_000_000_000_001, 9, 31],
                                      np.int64)})
    terms = {"s2ra": ("ca", "r2"), "t3": ("cnt",) * 3, "na": ("ca",),
             "n": ("cnt",)}
    for keys in ([], ["k"]):
        part = _sum_partial(keys, terms)(df)
        for m in ["__shift", *terms]:
            assert part.schema.field(m).type == pa.int64(), m
        want = _hugeint_sums(df, keys, terms)
        assert int(want["t3"].max()) > 2 ** 63         # the wrap regime
        assert int(want["s2ra"].max()) > 2 ** 63
        _assert_same(exact_sums(rd.from_pandas(df), keys, terms), want)


def test_grouped_moments_past_int64_matches_hugeint_closed_form():
    # x ≈ 10⁵: a single row's x⁴ ≈ 10²⁰ already wraps int64, so only
    # an exact Σx⁴ gives the closed form its operands
    rng = np.random.RandomState(5)
    x = rng.randint(90_000, 110_000, size=3000).astype(np.int64)
    df = pd.DataFrame({"k": np.repeat([1, 2, 3], 1000), "x": x})
    out = (grouped_moments(rd.from_pandas(df).repartition(4), ["k"], "x",
                           skew_alias="sk", kurt_alias="ku")
           .to_pandas().sort_values("k", ignore_index=True))
    sums = _hugeint_sums(df, ["k"], {"n": (), "s1": ("x",),
                                     "s2": ("x",) * 2, "s3": ("x",) * 3,
                                     "s4": ("x",) * 4})
    assert int(sums["s4"].min()) > 2 ** 63             # the wrap regime
    for i, row in sums.iterrows():
        nf, s1, s2, s3, s4 = (float(int(row[c])) for c in
                              ("n", "s1", "s2", "s3", "s4"))
        # the operator's closed form, evaluated on the HUGEINT sums
        m2 = s2 - s1 * s1 / nf
        m3 = s3 - 3.0 * s2 * s1 / nf + 2.0 * s1 * s1 * s1 / (nf * nf)
        m4 = (s4 - 4.0 * s3 * s1 / nf + 6.0 * s2 * s1 * s1 / (nf * nf)
              - 3.0 * s1 * s1 * s1 * s1 / (nf * nf * nf))
        assert out["k"][i] == row["k"]
        assert out["sk"][i] == np.sqrt(nf) * m3 / np.power(m2, 1.5)
        assert out["ku"][i] == nf * m4 / (m2 * m2) - 3.0
