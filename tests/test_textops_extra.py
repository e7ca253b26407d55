"""Edge cases for the round-2 text additions (doc_repetition,
inverted_index, approx quantile digest happy path is in test_sketch).
The sf-corpus happy paths are oracle-gated in test_queries_vs_duckdb."""

import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, "/root/repo")
import __ray_entry__ as entrymod  # noqa: E402
from no_fasel_scrapers_ray.ops.util import tier_budgets  # noqa: E402


def _write_docs(tmp_path, texts):
    pq.write_table(pa.table({"doc_id": list(range(len(texts))),
                             "text": texts}),
                   str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_doc_repetition_boundaries(tmp_path):
    sf = _write_docs(tmp_path, [
        "a a a a a",        # grams "a a a" x3 -> 1000*2//3 = 666
        "x y",              # <3 tokens -> 0
        "p q r",            # single gram -> 0
        "u v u v u v u v",  # grams: 6 total, 2 distinct -> 666
        "m n o m n o q",    # 5 grams, "m n o" twice -> 1000*1//5=200
    ])
    out = (entrymod.q_doc_repetition(sf).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert out["rep_permille"].tolist() == [666, 0, 0, 666, 200]
    assert out["rep_permille"].dtype == np.int64


def test_inverted_index_distinct_and_order(tmp_path):
    # 'hot' is in 25 docs (>= 20 gate), duplicated within each doc
    # (postings must still list each doc once); 'cold' is in 3 docs
    texts = [f"hot hot filler{i}" for i in range(25)] + \
            ["cold only here"] * 3
    sf = _write_docs(tmp_path, texts)
    out = entrymod.q_inverted_index(sf).to_pandas()
    row = out[out["term"] == "hot"]
    assert len(row) == 1 and int(row["df"].iloc[0]) == 25
    assert row["postings"].iloc[0] == ",".join(str(i) for i in range(25))
    assert "cold" not in set(out["term"])


def test_decontaminate_short_docs_and_hits(tmp_path):
    # benchmark doc 0 ("w1 w2 w3 w4 w5"); doc 1 shares shingle
    # "w2 w3 w4 w5"; doc 2 shares none; doc 3 too short (<4 tokens);
    # doc 11 repeats a contaminated shingle -> still counted ONCE
    texts = ["w1 w2 w3 w4 w5",
             "zz w2 w3 w4 w5 yy",
             "a b c d e f",
             "x y",
             "q r s t u v w",  # padding so ids line up (doc 4..9)
             "k l m n o p",
             "f g h i j k2",
             "aa bb cc dd",
             "ee ff gg hh",
             "ii jj kk ll",
             "mm nn oo pp",   # doc 10: benchmark (10 % 10 == 0)
             "w1 w2 w3 w4 w1 w2 w3 w4"]  # doc 11: shingle twice
    sf = _write_docs(tmp_path, texts)
    out = (entrymod.q_doc_decontaminate(sf).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    got = dict(zip(out["doc_id"], out["n_hits"]))
    # doc 1 hits "w2 w3 w4 w5"; doc 11 hits "w1 w2 w3 w4" (distinct=1)
    assert got == {1: 1, 11: 1}


def test_doc_chunks_window_edges(tmp_path):
    # exactly 32 tokens -> one full chunk; 33 -> second chunk of 1;
    # 1 token -> single 1-token chunk
    t32 = " ".join(f"t{i}" for i in range(32))
    t33 = " ".join(f"s{i}" for i in range(33))
    sf = _write_docs(tmp_path, [t32, t33, "solo"])
    out = (entrymod.q_doc_chunks(sf).to_pandas()
           .sort_values(["doc_id", "chunk_id"], ignore_index=True))
    d0 = out[out["doc_id"] == 0]
    assert d0["n_tokens"].tolist() == [32]
    assert d0["first_tok"].tolist() == ["t0"]
    d1 = out[out["doc_id"] == 1]
    assert d1["n_tokens"].tolist() == [32, 1]
    assert d1["first_tok"].tolist() == ["s0", "s32"]
    d2 = out[out["doc_id"] == 2]
    assert d2["n_tokens"].tolist() == [1]
    assert d2["first_tok"].tolist() == ["solo"]


def test_tfidf_tiers_identical(tmp_path):
    """The distributed term-join tier (broadcast budget 0) must emit
    row-identical top terms to the broadcast tier."""
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.textops import tfidf_top_terms
    rng = np.random.RandomState(4)
    vocab = [f"w{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(5, 25)))
             for _ in range(300)]
    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(300, dtype=np.int64),
         "text": texts})).repartition(6)
    cols = ["doc_id", "term", "score"]
    a = (tfidf_top_terms(docs, topn=3).to_pandas()[cols]
         .sort_values(cols, ignore_index=True))
    with tier_budgets(broadcast=0):
        b = (tfidf_top_terms(docs, topn=3).to_pandas()[cols]
             .sort_values(cols, ignore_index=True))
    pd.testing.assert_frame_equal(a, b)


def test_rare_term_tiers_identical(tmp_path, record_tiers):
    """The distributed rare-term join tier — taken at a broadcast
    budget of 1 byte, decided from the rare-term count before any pull
    — must match the broadcast tier, including zero-hit documents (the
    left-join fill)."""
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.textops import rare_term_permille
    texts = (["common common words here"] * 40           # zero rare hits
             + [f"common unique{i} words" for i in range(25)])
    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64),
         "text": texts})).repartition(5)
    cols = ["doc_id", "n_tokens", "rare_permille"]
    a = (rare_term_permille(docs, max_df=2)
         .to_pandas()[cols].sort_values("doc_id", ignore_index=True))
    with tier_budgets(broadcast=1):
        b = (rare_term_permille(docs, max_df=2)
             .to_pandas()[cols].sort_values("doc_id", ignore_index=True))
    assert record_tiers == [("rare_term_permille", "broadcast"),
                            ("rare_term_permille", "distributed")]
    pd.testing.assert_frame_equal(a, b)
    assert (a.loc[a["doc_id"] < 40, "rare_permille"] == 0).all()
    assert (a.loc[a["doc_id"] >= 40, "rare_permille"] > 0).all()


def test_empty_corpus_text_entry_points():
    """An upstream filter can empty the corpus — bigram_pmi /
    zipf_slope / bm25 must return typed empties, not crash on
    int(None) / 0.0-division (review-caught)."""
    import pandas as pd
    import ray.data as rd
    from no_fasel_scrapers_ray.ops.textops import (bigram_pmi,
                                                   bm25_term_scores,
                                                   zipf_slope)
    empty = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "text": pd.Series([], dtype=object)}))
    assert len(bigram_pmi(empty).to_pandas()) == 0
    z = zipf_slope(empty)
    z = z.to_pandas() if hasattr(z, "to_pandas") else z
    assert list(z["slope"]) == [0.0]
    assert len(bm25_term_scores(empty, ("table",)).to_pandas()) == 0
