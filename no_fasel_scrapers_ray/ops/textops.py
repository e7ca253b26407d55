"""Text-analysis operators over the ``documents`` table: token counting,
quality scoring, language-ID heuristics, document fingerprinting.

These are the engine additions a large-scale training-data pipeline
needs (brief: "Text analysis"); each has an exact DuckDB-SQL oracle in
__ray_entry__.py so they sit under the same correctness gate as the
relational operators. All kernels are vectorized (pandas .str / numpy)
— no per-row Python in the hot path; regexes are compiled once per
actor in ``__init__`` (the T4 actor-pool pattern, SURVEY.md §2.5).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..corpus.storage import BlockRefs, one_block
from .util import plan_tier, sort_rows

# Tiny deterministic stopword set used by the quality score; chosen from
# the synthetic documents' vocabulary so ratios are non-trivial.
STOPWORDS = ("the", "a", "value", "table")

# Worker-heap bytes per broadcast term (a Python dict term → df or set
# entry): tracemalloc measured 93-128 B per 8-10 char term, CPython 3.11.
TERM_HEAP_BYTES = 128

TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+"


def _pad_doubled(text_col):
    """``' ' + text.replace(' ', '  ') + ' '`` — every token boundary
    becomes a DOUBLE space, so a non-overlapping
    ``count_substring(' w ')`` counts whole-token occurrences exactly,
    including adjacent repeats (' the the '). Replaces the pandas
    zero-width-lookaround trick: Arrow's re2 has no lookarounds, and
    these kernels run zero-copy on the Arrow string buffers instead of
    copying every batch into python-object pandas Series."""
    doubled = pc.replace_substring(text_col, pattern=" ",
                                   replacement="  ")
    return pc.binary_join_element_wise(
        pa.scalar(" "), doubled, pa.scalar(" "), pa.scalar(""))


def _stop_token_counts(text_col, words) -> np.ndarray:
    """Exact whole-token hit counts for each word, summed — one Arrow
    substring-count pass per stopword over the doubled padding."""
    padded = _pad_doubled(text_col)
    out = np.zeros(len(padded), dtype=np.int64)
    for w in words:
        out += pc.count_substring(
            padded, f" {w} ").to_numpy(zero_copy_only=False).astype(np.int64)
    return out


def doc_stats(docs: rd.Dataset) -> rd.Dataset:
    """Per-document: whitespace token count, char count, stopword ratio.

    SQL-mirrorable: tokens = single-space split (documents are
    single-space separated); ratio rounded to 6 decimals. Arrow-native
    (zero-copy string kernels; the pandas version copied every text
    batch into object Series — measured conversion tax on doc streams).
    """

    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_tokens = pc.count_substring(text, " ").to_numpy(
            zero_copy_only=False).astype(np.int64) + 1
        stop = _stop_token_counts(text, STOPWORDS)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens),
            "n_chars": pa.array(pc.utf8_length(text).to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "stopword_ratio": pa.array(np.round(stop / n_tokens, 6)),
        })

    return docs.map_batches(stats, batch_format="pyarrow")


def token_counts(docs: rd.Dataset) -> rd.Dataset:
    """Token counting with a regex (BPE-ish word/number splits) via
    Arrow's ``count_substring_regex`` (re2, zero-copy over the string
    buffers). Stateless → task-based stage."""

    def count(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            batch.column("text"), TOKEN_PATTERN).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_regex_tokens": pa.array(n),
        })

    return docs.map_batches(count, batch_format="pyarrow")


def lang_score(docs: rd.Dataset) -> rd.Dataset:
    """Rule-based language signal: marker-token hit counts per doc.

    A deterministic n-gram/stopword heuristic (the shape of real lang-ID
    at crawl scale) that is exactly expressible in SQL: counts of the
    ' the ' and ' data ' markers (single-padding, non-overlapping —
    the SQL oracle mirrors this exact scan), and the predicted class.
    Arrow-native string kernels throughout."""

    def score(batch: pa.Table) -> pa.Table:
        padded = pc.binary_join_element_wise(
            pa.scalar(" "), batch.column("text"), pa.scalar(" "),
            pa.scalar(""))
        the_hits = pc.count_substring(padded, " the ").to_numpy(
            zero_copy_only=False).astype(np.int64)
        data_hits = pc.count_substring(padded, " data ").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pred = np.where(the_hits > data_hits, "en-like", "other")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "the_hits": pa.array(the_hits),
            "data_hits": pa.array(data_hits),
            "lang_pred": pa.array(pred),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def top_terms(docs: rd.Dataset, k: int = 50) -> rd.Dataset:
    """Corpus-wide top-k terms by occurrence — the canonical wordcount
    as a decomposable pipeline: per-batch ``value_counts`` partials
    (one row per DISTINCT term per batch, so the shuffle never moves
    exploded tokens), a term-bucket shuffle with a final sum + local
    top-k per bucket, then a global sort/limit over the tiny
    buckets × k survivor set. Ties break (count DESC, term ASC)
    — mirrored in the oracle's ORDER BY so the k-boundary is
    deterministic on both engines."""
    import pyarrow as pa

    from .util import key_shuffle

    def partial(batch: pd.DataFrame) -> pa.Table:
        vc = batch["text"].str.split(" ").explode().value_counts()
        g = pd.DataFrame({"term": vc.index.to_numpy(dtype=object),
                          "n": vc.to_numpy(dtype=np.int64)})
        return pa.Table.from_pandas(g, preserve_index=False)

    def local_topk(g: pd.DataFrame) -> pa.Table:
        r = g.groupby("term", as_index=False, sort=False)["n"].sum()
        r = r.sort_values(["n", "term"], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(r, preserve_index=False)

    survivors = key_shuffle(docs.map_batches(partial, batch_format="pandas"),
                            local_topk, ["term"], batch_format="pandas")
    return sort_rows(survivors, ["n", "term"], [True, False], k)


def _df_dataset(docs: rd.Dataset) -> rd.Dataset:
    """Corpus document frequencies as a DATASET: per-batch per-doc-
    DISTINCT term partials → one bucketed sum. The shuffle moves
    (term, df) partials only, never exploded tokens. Shared by
    tfidf_top_terms and rare_term_permille so the tokenization/dedup
    rules can't drift. Stays distributed — callers choose whether to
    broadcast it (small vocab) or join against it (the scale tier)."""
    from .relational import aggregate

    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        tok = batch[["doc_id", "text"]].copy()
        tok["term"] = tok["text"].str.split(" ")
        ex = tok[["doc_id", "term"]].explode("term")
        vc = ex.drop_duplicates()["term"].value_counts()
        return pd.DataFrame({"term": vc.index.to_numpy(dtype=object),
                             "df": vc.to_numpy(dtype=np.int64)})

    return aggregate(
        docs.map_batches(df_partial, batch_format="pandas"),
        ["term"], {"df": ("sum", "df")})


def _tf_rows(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-document term frequencies (doc_id, term, tf) of one batch —
    exact, because a document never spans batches."""
    tok = batch[["doc_id", "text"]].copy()
    tok["term"] = tok["text"].str.split(" ")
    ex = tok[["doc_id", "term"]].explode("term")
    tf = (ex.groupby(["doc_id", "term"], as_index=False, sort=False)
          .size().rename(columns={"size": "tf"}))
    tf["tf"] = tf["tf"].astype(np.int64)
    return tf


def _tf_dataset(docs: rd.Dataset) -> rd.Dataset:
    return docs.map_batches(_tf_rows, batch_format="pandas")


def _top_terms(tf: pd.DataFrame, topn: int) -> pd.DataFrame:
    """Each document's top-``topn`` (doc_id, term, score) rows, ties
    broken (score DESC, term ASC) — both tfidf_top_terms tiers."""
    tf = tf.sort_values(["doc_id", "score", "term"],
                        ascending=[True, False, True], kind="stable")
    out = tf.groupby("doc_id", sort=False).head(topn)
    return pd.DataFrame({
        "doc_id": out["doc_id"].to_numpy(),
        "term": out["term"].to_numpy(dtype=object),
        "score": out["score"].to_numpy(dtype=np.int64)})


def quality_features_arrow(text) -> dict:
    """The Gopher-style integer feature set (token count, mean token
    length in milli-chars, stopword permille) over an Arrow string
    array/chunked-array — ONE implementation shared by ``doc_quality``
    and the curation pipeline's inline gate so thresholds and stopwords
    can never diverge between them. Returns int64 numpy arrays."""
    n_tokens = pc.count_substring(text, " ").to_numpy(
        zero_copy_only=False).astype(np.int64) + 1
    # single-space-separated corpus: token chars = chars - spaces
    token_chars = pc.utf8_length(text).to_numpy(
        zero_copy_only=False).astype(np.int64) - (n_tokens - 1)
    stop = _stop_token_counts(text, STOPWORDS)
    return {
        "n_tokens": n_tokens,
        "mean_len_milli": token_chars * 1000 // n_tokens,
        "stop_permille": stop * 1000 // n_tokens,
    }


def quality_features(text: pd.Series) -> dict:
    """pandas-batch shim over :func:`quality_features_arrow` (the one
    kernel) for callers in pandas stages (the curation gate)."""
    return quality_features_arrow(pa.array(text, type=pa.string()))


def quality_keep_mask(text: pd.Series,
                      min_tokens: int = 20, max_tokens: int = 80,
                      min_mean_len_milli: int = 4300,
                      max_stop_permille: int = 160) -> pd.Series:
    f = quality_features(text)
    mask = ((f["n_tokens"] >= min_tokens) & (f["n_tokens"] <= max_tokens)
            & (f["mean_len_milli"] >= min_mean_len_milli)
            & (f["stop_permille"] <= max_stop_permille))
    return pd.Series(mask, index=text.index)


def tfidf_top_terms(docs: rd.Dataset, topn: int = 3) -> rd.Dataset:
    """Per-document top-``topn`` TF-IDF terms — the keyword-extraction
    stage of a curation pipeline. Document frequencies come from ONE
    bucketed sum over per-batch per-doc-DISTINCT partials (the shuffle
    moves (term, df) partials only, never tokens); scoring then runs in
    one of two tiers, cut over on the DF map's worker-heap bytes
    (``TERM_HEAP_BYTES`` per term):

    1. **broadcast** (the map fits the broadcast budget,
       ``util.plan_tier``): DF table
       broadcast once (``ray.put``); scoring is purely doc-local — tf
       from a per-batch groupby, per-doc top-n with no further shuffle.
    2. **distributed** (beyond): the per-doc (doc_id, term, tf) stream
       goes through a term-bucketed join onto the DF dataset (the
       ``heavy_hitter_terms``-recount shape; the r02 full-vocab
       ``to_pandas``+broadcast was unbounded on a 100-TB corpus), then
       a doc-bucketed group pass takes each document's top-n. Two
       shuffles, both over (doc, term, int) rows — never document text.

    The score is the INTEGER surrogate ``tf * N_docs // df`` (floor
    division) — monotone in tf/idf, and bit-exact in SQL, so the whole
    ranking sits under the DuckDB oracle gate. Ties break (score DESC,
    term ASC); both tiers produce identical rows."""
    import ray

    from .relational import broadcast_get, bucketed_join
    from .util import key_shuffle

    n_docs = docs.count()
    df_ds = _df_dataset(docs).materialize()

    if plan_tier("tfidf_top_terms",
                 broadcast_bytes=TERM_HEAP_BYTES * df_ds.count()
                 ) == "broadcast":
        df_tbl = df_ds.to_pandas()
        df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["df"])))

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            tf = _tf_rows(batch)
            dfv = tf["term"].map(broadcast_get(df_ref))
            tf["score"] = (tf["tf"].to_numpy(dtype=np.int64)
                           * n_docs) // dfv.to_numpy(dtype=np.int64)
            return _top_terms(tf, topn)

        return docs.map_batches(score, batch_format="pandas")

    joined = bucketed_join(_tf_dataset(docs), df_ds, on="term", how="inner")

    def score_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "term": b["term"].to_numpy(dtype=object),
            "score": (b["tf"].to_numpy(dtype=np.int64) * n_docs)
            // b["df"].to_numpy(dtype=np.int64)})

    return key_shuffle(joined.map_batches(score_rows, batch_format="pandas"),
                       lambda g: _top_terms(g, topn), ["doc_id"],
                       batch_format="pandas")


def rare_term_permille(docs: rd.Dataset, max_df: int = 2) -> rd.Dataset:
    """Per-document OOV/rarity signal: the permille of a doc's tokens
    whose corpus document frequency is ≤ ``max_df`` — the standard
    'too many never-seen words' quality flag. Integer permille so the
    SQL oracle is bit-exact. Two tiers, cut over on the RARE set's
    worker-heap bytes (``TERM_HEAP_BYTES`` per term; on a Zipfian
    vocabulary the DF ≤ max_df set is most of the vocabulary — the hard
    case):

    1. **broadcast** (the set fits the broadcast budget,
       ``util.plan_tier``): rare-term set broadcast
       once, counting purely doc-local;
    2. **distributed**: the per-doc (doc_id, term, tf) stream joins the
       rare-term dataset term-bucketed (inner — only rare occurrences
       survive), per-doc hits come from one doc-keyed sum, and a final
       doc-bucketed left join onto the per-doc token counts fills
       zero-hit docs. Three shuffles over int rows, no text movement,
       no vocabulary-sized driver state."""
    import ray

    from .relational import aggregate, broadcast_get, bucketed_join

    rare_ds = _df_dataset(docs).map_batches(
        lambda t: t.filter(pc.field("df") <= int(max_df)),
        batch_format="pyarrow")

    def base(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_tokens": (batch["text"].str.count(" ") + 1)
            .astype(np.int64)})

    if plan_tier("rare_term_permille",
                 broadcast_bytes=TERM_HEAP_BYTES * rare_ds.count()
                 ) == "broadcast":
        rare = rare_ds.to_pandas()
        rare_ref = ray.put(set(rare["term"]) if len(rare) else set())

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            rset = broadcast_get(rare_ref)
            toks = batch["text"].str.split(" ")
            n_tokens = toks.str.len().to_numpy(dtype=np.int64)
            hits = toks.map(
                lambda ts: sum(1 for t in ts if t in rset)).to_numpy(
                dtype=np.int64)
            return pd.DataFrame({
                "doc_id": batch["doc_id"],
                "n_tokens": n_tokens,
                "rare_permille": hits * 1000 // n_tokens,
            })

        return docs.map_batches(score, batch_format="pandas")

    rare_tf = bucketed_join(_tf_dataset(docs),
                            rare_ds.map_batches(
                                lambda t: t.drop_columns(["df"]),
                                batch_format="pyarrow"), on="term",
                            how="inner")
    hits_ds = aggregate(rare_tf, ["doc_id"],
                        {"hits": ("sum", "tf")}).materialize()
    joined = bucketed_join(docs.map_batches(base, batch_format="pandas"),
                           hits_ds, on="doc_id", how="left")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        hits = b["hits"].fillna(0).to_numpy(dtype=np.int64)
        n_tokens = b["n_tokens"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "n_tokens": n_tokens,
            "rare_permille": hits * 1000 // n_tokens,
        })

    return joined.map_batches(finish, batch_format="pandas")


def doc_quality(docs: rd.Dataset,
                min_tokens: int = 20, max_tokens: int = 80,
                min_mean_len_milli: int = 4300,
                max_stop_permille: int = 160) -> rd.Dataset:
    """Gopher-style rule-based quality filter (Rae et al. 2021 §A1.1
    shape: token-count band, mean-word-length band, stopword-density
    cap), emitting per-doc integer features and the keep verdict — the
    filter stage every curation pipeline runs before dedup.

    All features are INTEGER (length milliunits, density permille via
    floor division) so the SQL oracle reproduces them bit-exactly —
    no float rounding at the decision boundary. Pure per-batch map
    over zero-copy Arrow string buffers, no shuffle."""

    def score(batch: pa.Table) -> pa.Table:
        f = quality_features_arrow(batch.column("text"))
        keep = ((f["n_tokens"] >= min_tokens)
                & (f["n_tokens"] <= max_tokens)
                & (f["mean_len_milli"] >= min_mean_len_milli)
                & (f["stop_permille"] <= max_stop_permille))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(f["n_tokens"]),
            "mean_len_milli": pa.array(f["mean_len_milli"]),
            "stop_permille": pa.array(f["stop_permille"]),
            "keep": pa.array(keep.astype(np.int64)),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def fingerprint(docs: rd.Dataset) -> rd.Dataset:
    """Bag-of-words document fingerprint: md5 of the sorted distinct
    token set. Near-identical docs that only reorder/repeat words share a
    fingerprint. SQL oracle: md5(array_to_string(list_sort(list_distinct(
    string_split(text,' '))),' ')).
    """

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch["text"].map(
            lambda t: hashlib.md5(" ".join(sorted(set(t.split(" ")))).encode()).hexdigest()
        )
        return pd.DataFrame({"doc_id": batch["doc_id"], "fingerprint": keys})

    return docs.map_batches(fp, batch_format="pandas")


def decontaminate(docs: rd.Dataset, bench_mod: int = 10,
                  shingle: int = 4) -> rd.Dataset:
    """Benchmark decontamination (§ LLM training-data prep): flag every
    training document sharing at least one ``shingle``-token window
    with the held-out benchmark set (here: docs with
    ``doc_id % bench_mod == 0``), returning (doc_id, n_hits) where
    n_hits counts the doc's DISTINCT contaminated shingles.

    Scale contract: the BENCHMARK side is small by definition (eval
    suites are MBs even when the corpus is 100 TB), so its distinct
    shingle set is collected once and broadcast via ``ray.put``; the
    training corpus STREAMS through one map_batches with NO Python
    inner loop: window gram strings are built from shifted exploded
    token columns (the ``doc_repetition`` gram shape), hashed once per
    batch (``pd.util.hash_array``), and probed with ``searchsorted``
    against the sorted broadcast bench-hash array. Exact-string
    verification runs only on the (rare) hash candidates against the
    broadcast bench string set, so hash collisions can't inflate
    counts and the result stays oracle-exact. Shingles are raw token
    strings (single-space split) so the SQL oracle (string_split +
    UNNEST(range) + array_to_string) evaluates the identical windows.
    """
    import ray

    from .relational import broadcast_get

    def _shingles(text: str) -> np.ndarray:
        toks = text.split(" ")
        n = len(toks) - shingle + 1
        if n <= 0:
            return np.array([], dtype=object)
        return np.array([" ".join(toks[i:i + shingle]) for i in range(n)],
                        dtype=object)

    def bench_partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[(batch["doc_id"] % bench_mod) == 0]
        if not len(b):
            return pd.DataFrame({"s": pd.array([], dtype="string")})
        sh = np.concatenate([_shingles(t) for t in b["text"]])
        return pd.DataFrame({"s": pd.unique(sh)})

    bench = docs.map_batches(bench_partial, batch_format="pandas")
    bench_strings = pd.unique(bench.to_pandas()["s"].to_numpy(dtype=object))
    bench_hashes = np.sort(pd.util.hash_array(bench_strings))
    # (sorted uint64 hashes for the vectorized probe, string set for
    # exact verification of hash candidates)
    bench_ref = ray.put((bench_hashes, frozenset(bench_strings)))

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        bhash, bset = broadcast_get(bench_ref)
        doc_ids = batch["doc_id"].to_numpy()
        b = batch[(doc_ids % bench_mod) != 0].reset_index(drop=True)
        empty = pd.DataFrame({"doc_id": np.array([], dtype=np.int64),
                              "n_hits": np.array([], dtype=np.int64)})
        if not len(b):
            return empty
        flat = b["text"].str.split(" ").explode()
        dd = pd.Series(flat.index.to_numpy())
        toks = pd.Series(flat.to_numpy())
        # gram strings from shifted token columns (vectorized)
        gram = toks.copy()
        same = np.ones(len(gram), dtype=bool)
        for k in range(1, shingle):
            gram = gram + " " + toks.shift(-k)
            same &= dd.eq(dd.shift(-k)).to_numpy()
        grams = gram.to_numpy()[same]
        gdocs = dd.to_numpy()[same]
        if not len(grams):
            return empty
        h = pd.util.hash_array(grams.astype(object))
        pos = np.searchsorted(bhash, h)
        pos[pos == len(bhash)] = len(bhash) - 1 if len(bhash) else 0
        hit = len(bhash) > 0 and (bhash[pos] == h)
        if not np.any(hit):
            return empty
        # exact-string verify the few hash candidates, then count
        # DISTINCT matched shingles per doc
        cand = pd.DataFrame({"doc": gdocs[hit], "gram": grams[hit]})
        cand = cand[[g in bset for g in cand["gram"]]]
        if not len(cand):
            return empty
        counts = (cand.drop_duplicates().groupby("doc").size())
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy()[counts.index.to_numpy()],
            "n_hits": counts.to_numpy(dtype=np.int64)})

    return docs.map_batches(probe, batch_format="pandas")


def bm25_term_scores(docs: rd.Dataset, terms: tuple[str, ...],
                     round_dp: int = 6) -> rd.Dataset:
    """BM25 relevance of every document against a fixed query-term set,
    emitted per (doc_id, term) so no cross-term float summation order
    exists to drift from the oracle (Okapi BM25, k1=1.2, b=0.75 —
    Robertson & Zaragoza 2009). Engine addition: the relevance-scoring
    primitive a curation pipeline uses for quality-targeted sampling.

    Two passes, both streaming:
    1. constant-size corpus stats — N, Σdl, per-term document
       frequency — as one tiny partial row per batch, summed on the
       driver (bounded by n_batches × (2 + |terms|) ints);
    2. per-batch zero-copy Arrow scoring: dl from a whitespace count,
       tf per term from the doubled-padding whole-token substring
       count (`_pad_doubled`), one long-format emit of tf>0 rows.

    The float expression is mirrored VERBATIM in the SQL oracle with
    decimal literals (2.2, 1.2, 0.25, 0.75) so both engines parse the
    same doubles; ln() is transcendental, so both sides round to
    ``round_dp`` (the established round-6 contract, BASELINE.md)."""

    def stats_partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        padded = _pad_doubled(text)
        dl = pc.add(pc.count_substring(text, " "), 1)
        row = {"__n": [len(text)], "__tok": [pc.sum(dl).as_py() or 0]}
        for i, t in enumerate(terms):
            hits = pc.greater(pc.count_substring(padded, f" {t} "), 0)
            row[f"__df{i}"] = [pc.sum(pc.cast(hits, pa.int64())).as_py()
                               or 0]
        return pa.table(row)

    st = (docs.select_columns(["text"])
          .map_batches(stats_partial, batch_format="pyarrow")
          .to_pandas().sum())
    n_docs = float(st["__n"]) if "__n" in st else 0.0
    if n_docs == 0:   # empty corpus: typed empty, not 0/0
        return one_block(pd.DataFrame({
            "doc_id": pd.Series([], dtype=np.int64),
            "term": pd.Series([], dtype=object),
            "bm25": pd.Series([], dtype=np.float64)}))
    total = float(st["__tok"])
    avgdl = total / n_docs
    idf = {t: float(np.log((n_docs - float(st[f"__df{i}"]) + 0.5)
                           / (float(st[f"__df{i}"]) + 0.5) + 1.0))
           for i, t in enumerate(terms)}

    def score(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        padded = _pad_doubled(text)
        doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        dl = pc.add(pc.count_substring(text, " "), 1).to_numpy(
            zero_copy_only=False).astype(np.float64)
        # expression order mirrored in the oracle SQL — keep in sync
        norm = 1.2 * (0.25 + 0.75 * dl / avgdl)
        ids, out_t, out_s = [], [], []
        for t in terms:
            tf = pc.count_substring(padded, f" {t} ").to_numpy(
                zero_copy_only=False).astype(np.float64)
            m = tf > 0
            if not m.any():
                continue
            s = idf[t] * (tf[m] * 2.2) / (tf[m] + norm[m])
            ids.append(doc_id[m])
            out_t.append(np.full(int(m.sum()), t, dtype=object))
            out_s.append(np.round(s, round_dp))
        if not ids:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "bm25": pa.array([], pa.float64())})
        return pa.table({"doc_id": np.concatenate(ids),
                         "term": pa.array(np.concatenate(out_t)),
                         "bm25": np.concatenate(out_s)})

    return (docs.select_columns(["doc_id", "text"])
            .map_batches(score, batch_format="pyarrow"))


def _unigram_counts(docs: rd.Dataset) -> rd.Dataset:
    """Corpus unigram counts (term, c) — per-batch ``value_counts``
    partials, one term-bucket shuffle; exploded tokens never move.
    Arrow-native (r5): split + value_counts run as C++ kernels on the
    zero-copy block — the old pandas partial paid block→pandas object
    conversion plus a Python-level explode (measured A/B in
    BASELINE.md)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .relational import aggregate

    def partial(batch: pa.Table) -> pa.Table:
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vc = pc.value_counts(pc.list_flatten(
            pc.split_pattern(col, " ")))
        return pa.table({"term": vc.field("values"),
                         "c": pc.cast(vc.field("counts"), pa.int64())})

    return aggregate(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["term"], {"c": ("sum", "c")})


def _bigram_partial(batch) -> pd.DataFrame:
    """Per-batch adjacent-pair counts via the shifted-column gram
    build (doc_repetition's shape — no Python token loop); pairs that
    straddle a document boundary are masked out. Arrow-native (r5):
    tokens stay in one Arrow buffer; pair identity reduces through
    the module's standing 64-bit hash contract (np.unique over mixed
    pair keys), and ONLY the distinct-pair representatives are taken
    back as strings — the old pandas partial materialized every token
    as a PyObject and group-by'd object pairs.

    Collision budget: the pair key is 64 bits (two 64-bit token hashes
    mixed by odd multipliers), not the strings. Two distinct pairs that
    share a key merge: their counts add under one representative's
    (w1, w2) and the other pair vanishes. Over n distinct pairs the
    expected number of colliding key pairs is about n²/2^65: ~3e-8 at
    10^6 pairs, ~3e-4 at 10^8, ~0.03 at 10^9, and one expected
    collision near 6·10^9. Distinct tokens whose 64-bit hashes collide
    have the same budget over the vocabulary. That is far below any
    test or benchmark corpus, but it is a budget, not exactness; a web
    corpus with more than ~10^9 distinct bigrams needs a 128-bit key
    (as ``pipelines/ingest.py`` uses) or a string check per group."""
    import pyarrow as pa

    lens, flat = _flat_tokens_arrow(batch["text"])
    empty = pd.DataFrame({"w1": np.array([], dtype=object),
                          "w2": np.array([], dtype=object),
                          "c_xy": np.array([], dtype=np.int64)})
    if len(flat) < 2:
        return empty
    th = pd.util.hash_array(flat.to_numpy(zero_copy_only=False))
    keep = np.ones(len(th) - 1, dtype=bool)
    ends = np.cumsum(lens)[:-1] - 1  # last token index per doc
    keep[ends] = False
    pk = ((th[:-1] * _BG_M0) ^ (th[1:] * _BG_M1))[keep]
    if not len(pk):
        return empty
    idx = np.flatnonzero(keep)        # position of w1 in flat
    _, first, cnts = np.unique(pk, return_index=True,
                               return_counts=True)
    rep = idx[first]
    w1 = flat.take(pa.array(rep)).to_numpy(zero_copy_only=False)
    w2 = flat.take(pa.array(rep + 1)).to_numpy(zero_copy_only=False)
    return pd.DataFrame({"w1": w1, "w2": w2,
                         "c_xy": cnts.astype(np.int64)})


def _bigram_counts(docs: rd.Dataset) -> rd.Dataset:
    """Corpus bigram counts (w1, w2, c_xy) — per-batch shifted-column
    partials, one (w1,w2)-bucket shuffle."""
    from .relational import aggregate
    return aggregate(
        docs.map_batches(_bigram_partial, batch_format="pyarrow"),
        ["w1", "w2"], {"c_xy": ("sum", "c_xy")})


def bigram_pmi(docs: rd.Dataset, min_count: int = 1) -> rd.Dataset:
    """Collocation mining (brief: "Text analysis"): pointwise mutual
    information of every adjacent token pair across the corpus —
    PMI(x,y) = ln(P(xy) / (P(x)·P(y))) with P(xy) = c_xy/M (bigram
    count over total bigrams) and P(x) = c_x/N (unigram count over
    total tokens). Fully distributed shape: per-batch shifted-column
    bigram partials (the doc_repetition gram build — no Python token
    loop), one (w1,w2)-bucket preagg, then TWO term-bucketed joins
    attach the unigram counts (the rare_term_permille scale tier: no
    vocabulary-sized driver or broadcast state — at 100 TB the vocab
    of a web corpus does not fit one node). N and M are exact int
    totals reduced from the count datasets (constant-size pulls); the
    PMI itself is ONE mirrored float expression rounded to 6 (ln is
    transcendental — the bm25 contract)."""
    from .relational import bucketed_join

    bg = _bigram_counts(docs)
    uni = _unigram_counts(docs).materialize()

    # exact int totals: constant-size reductions over the count sets
    # (Dataset.sum returns None on empty input — empty corpus guard)
    n_tokens = int(uni.sum("c") or 0)
    if n_tokens == 0:
        return one_block(pd.DataFrame({
            "w1": pd.Series([], dtype=object),
            "w2": pd.Series([], dtype=object),
            "c_xy": pd.Series([], dtype=np.int64),
            "pmi": pd.Series([], dtype=np.float64)}))
    bgm = bg.materialize()
    m_bigrams = int(bgm.sum("c_xy") or 0)
    if min_count > 1:
        bgm = bgm.map_batches(
            lambda t: t.filter(pc.field("c_xy") >= int(min_count)),
            batch_format="pyarrow")

    j1 = bucketed_join(
        bgm, uni.map_batches(
            lambda b: b.rename(columns={"term": "w1", "c": "c_x"}),
            batch_format="pandas"),
        on="w1", how="inner")
    j2 = bucketed_join(
        j1, uni.map_batches(
            lambda b: b.rename(columns={"term": "w2", "c": "c_y"}),
            batch_format="pandas"),
        on="w2", how="inner")

    nf, mf = float(n_tokens), float(m_bigrams)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        cxy = b["c_xy"].to_numpy(np.float64)
        cx = b["c_x"].to_numpy(np.float64)
        cy = b["c_y"].to_numpy(np.float64)
        # mirrored left-assoc float expression (oracle keeps the order)
        pmi = np.round(np.log(cxy * nf * nf / (mf * cx * cy)), 6)
        return pd.DataFrame({"w1": b["w1"].to_numpy(),
                             "w2": b["w2"].to_numpy(),
                             "c_xy": b["c_xy"].to_numpy(),
                             "pmi": pmi})

    return j2.map_batches(score, batch_format="pandas")


def zipf_slope(docs: rd.Dataset, topn: int = 1000) -> pd.DataFrame:
    """Zipf's-law fit (brief: "Text analysis" — corpus health check):
    OLS slope/intercept of ln(count) on ln(rank) over the top-``topn``
    terms. The term counts are the distributed unigram preagg; the
    rank/fit runs on the ≤ topn survivor set (constant-size by
    construction — the Q15-view contract), ranked (count DESC, term
    ASC) so the boundary is deterministic. ln sums are transcendental
    → round-6 contract, with the identical closed-form expression
    mirrored in the oracle."""
    uni = _unigram_counts(docs)
    top = sort_rows(uni, ["c", "term"], [True, False], topn).to_pandas()
    if len(top) < 2:   # a slope needs two points — empty/1-term
        # corpus (an empty Dataset's to_pandas also loses columns)
        return pd.DataFrame({"slope": [0.0], "icept": [0.0]})
    x = np.log(np.arange(1, len(top) + 1, dtype=np.float64))
    y = np.log(top["c"].to_numpy(np.float64))
    nf = float(len(top))
    sx, sy = float(np.sum(x)), float(np.sum(y))
    sxy, sxx = float(np.sum(x * y)), float(np.sum(x * x))
    slope = (nf * sxy - sx * sy) / (nf * sxx - sx * sx)
    icept = (sy - slope * sx) / nf
    return pd.DataFrame({"slope": [round(slope, 6)],
                         "icept": [round(icept, 6)]})


def _flat_token_hashes(texts):
    """(lens, flat_hashes): per-doc token-hash SEQUENCES (not unique)
    — the dedup batch-hash fast path in sequence form: ONE
    split_pattern + ONE hash_array per batch instead of a per-doc
    loop. Accepts a pandas Series OR an Arrow (Chunked)Array — the
    Arrow path (r5, VERDICT r04 #7) skips the block→pandas→Arrow
    round-trip the pandas-format stages paid."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(texts, type=pa.string())
    lst = pc.split_pattern(arr, " ")
    lens = pc.list_value_length(lst).to_numpy().astype(np.int64)
    flat = lst.flatten().to_numpy(zero_copy_only=False)
    th = (pd.util.hash_array(flat) if len(flat)
          else np.zeros(0, dtype=np.uint64))
    return lens, th


def _flat_tokens_arrow(texts):
    """(lens, flat_tokens: pa.Array): Arrow-native split — token
    strings stay in ONE Arrow buffer (no per-token PyObject until a
    consumer explicitly takes representatives)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lst = pc.split_pattern(texts, " ")
    lens = pc.list_value_length(lst).to_numpy().astype(np.int64)
    return lens, lst.flatten()


# order-sensitive bigram key mix (odd multipliers → permutations)
_BG_M0 = np.uint64(0x9E3779B97F4A7C15)
_BG_M1 = np.uint64(0xC2B2AE3D27D4EB4F)


def doc_perplexity(docs: rd.Dataset) -> rd.Dataset:
    """Bigram-LM negative log-likelihood per document (brief: "Text
    analysis" — the CCNet/Gopher-style LM-quality signal: docs with
    high perplexity under a corpus-trained LM are noise candidates).
    Model: add-one-smoothed bigram LM trained on the corpus itself,
    P(y|x) = (c_xy + 1) / (c_x + V) with V the vocabulary size.

    Fully distributed shape (the rare_term_permille scale tier — at
    100 TB neither the unigram nor the bigram table fits one node):
    per-batch doc-bigram multisets from ONE flat tokenize-and-hash
    pass per batch; ONE bigram-key bucket join attaches c_xy, one
    unigram-key join attaches c_x; V is a constant-size count over
    the unigram set. ALL join keys are int64 token/bigram hashes —
    strings never enter a shuffle (the r4 rewrite: string keys were
    the stage's wall-time; the module's standing 64-bit
    collision-free contract applies, and the oracle compares the
    doc-level OUTPUT, not internal keys). Per-bigram ln probabilities
    follow the round-6 transcendental contract, then are summed as
    integer micro-nats (round-6 value × 1e6 → int64) so the per-doc
    reduction is order-independent and bit-exact vs the oracle\'s
    mirrored expression. Docs with < 2 tokens have no bigrams and
    drop out (the oracle\'s inner join does the same)."""
    from .relational import aggregate, bucketed_join

    def uni_partial(batch) -> pd.DataFrame:
        # pyarrow batch (r5, VERDICT r04 #7): the text column feeds
        # split_pattern zero-copy instead of round-tripping pandas
        _, th = _flat_token_hashes(batch["text"])
        if not len(th):
            return pd.DataFrame({"w1": np.zeros(0, np.int64),
                                 "c_x": np.zeros(0, np.int64)})
        vals, cnts = np.unique(th, return_counts=True)
        return pd.DataFrame({"w1": vals.view(np.int64),
                             "c_x": cnts.astype(np.int64)})

    def bg_keys(lens, th):
        keep = np.ones(len(th) - 1, dtype=bool)
        ends = np.cumsum(lens)[:-1] - 1   # last token index per doc
        keep[ends] = False
        bk = (th[:-1] * _BG_M0) ^ (th[1:] * _BG_M1)
        return keep, bk

    def bg_partial(batch) -> pd.DataFrame:
        empty = pd.DataFrame({"bkey": np.zeros(0, np.int64),
                              "c_xy": np.zeros(0, np.int64)})
        lens, th = _flat_token_hashes(batch["text"])
        if len(th) < 2:
            return empty
        keep, bk = bg_keys(lens, th)
        vals, cnts = np.unique(bk[keep], return_counts=True)
        return pd.DataFrame({"bkey": vals.view(np.int64),
                             "c_xy": cnts.astype(np.int64)})

    def doc_bigrams(batch) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_id": np.zeros(0, np.int64),
                              "bkey": np.zeros(0, np.int64),
                              "w1": np.zeros(0, np.int64),
                              "k": np.zeros(0, np.int64)})
        lens, th = _flat_token_hashes(batch["text"])
        if len(th) < 2:
            return empty
        keep, bk = bg_keys(lens, th)
        dids = np.repeat(np.asarray(batch["doc_id"]).astype(np.int64),
                         lens)[:-1][keep]
        rows = np.stack([dids, bk[keep].view(np.int64),
                         th[:-1][keep].view(np.int64)], axis=1)
        uniq, k = np.unique(rows, axis=0, return_counts=True)
        return pd.DataFrame({"doc_id": uniq[:, 0], "bkey": uniq[:, 1],
                             "w1": uniq[:, 2],
                             "k": k.astype(np.int64)})

    uni = aggregate(
        docs.map_batches(uni_partial, batch_format="pyarrow"),
        ["w1"], {"c_x": ("sum", "c_x")}).materialize()
    vocab = float(uni.count())
    bg = aggregate(
        docs.map_batches(bg_partial, batch_format="pyarrow"),
        ["bkey"], {"c_xy": ("sum", "c_xy")})

    dbg = docs.map_batches(doc_bigrams, batch_format="pyarrow")
    j1 = bucketed_join(dbg, bg, on="bkey", how="inner")
    j2 = bucketed_join(j1, uni, on="w1", how="inner")

    def micro_nll(b: pd.DataFrame) -> pd.DataFrame:
        cxy = b["c_xy"].to_numpy(np.float64)
        cx = b["c_x"].to_numpy(np.float64)
        k = b["k"].to_numpy(np.int64)
        # round-6 ln, then integer micro-nats (mirrored in the oracle)
        lnp = np.round(np.log((cxy + 1.0) / (cx + vocab)), 6)
        micro = np.round(lnp * 1e6).astype(np.int64)
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                             "s": micro * k, "n": k})

    sums = aggregate(
        j2.map_batches(micro_nll, batch_format="pandas"),
        ["doc_id"], {"s": ("sum", "s"), "n": ("sum", "n")})

    def final(b: pd.DataFrame) -> pd.DataFrame:
        s = b["s"].to_numpy(np.float64)
        n = b["n"].to_numpy(np.int64)
        # both divisions are single IEEE ops on exactly-representable
        # ints → bit-exact without a final round (no half-way
        # ambiguity between numpy\'s half-even and SQL\'s half-away)
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "n_bigrams": n,
            "avg_nll": -(s / 1e6) / n.astype(np.float64)})

    return sums.map_batches(final, batch_format="pandas")


def regex_scrub(docs: rd.Dataset, pattern: str,
                replacement: str = "<scrubbed>") -> rd.Dataset:
    """Vectorized pattern scrubbing — the PII-redaction stage of a
    curation pipeline (emails, phone numbers, ids), expressed as two
    zero-copy Arrow RE2 kernels per batch: count_substring_regex for
    the redaction count, replace_substring_regex for the rewrite. No
    per-row Python; DuckDB's regexp_* are RE2 too, so a SQL oracle
    mirrors bit-for-bit. Returns (doc_id, text_clean, n_redactions).
    Engine addition (the reference's nearest analogue is
    remove_arabic_chars / clean_iframe_source, Common.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def scrub(b: pa.Table) -> pa.Table:
        txt = b["text"]
        return pa.table({
            "doc_id": b["doc_id"],
            "text_clean": pc.replace_substring_regex(
                txt, pattern=pattern, replacement=replacement),
            "n_redactions": pc.cast(pc.count_substring_regex(
                txt, pattern=pattern), pa.int64()),
        })

    return docs.map_batches(scrub, batch_format="pyarrow")


def train_bpe_merges(docs: rd.Dataset, n_merges: int,
                     text_col: str = "text",
                     min_count: int = 2) -> pd.DataFrame:
    """Distributed byte-pair-encoding merge training (Sennrich et al.
    2016 — the tokenizer-training stage of an LLM data pipeline).
    Returns the merge table as a driver frame: (rank, left, right,
    freq), rank in merge order.

    Scale shape — the standard BPE-on-vocabulary reduction: the corpus
    collapses ONCE to the distinct-word frequency table (a (word,
    count) preagg; vocabulary grows ~Heaps-law sublinearly in corpus
    size), and all ``n_merges`` iterations run over the VOCAB dataset,
    never re-touching the corpus. Per iteration: one vectorized
    adjacent-pair count pass (flattened symbol arrays + shifted-column
    compare, weighted by word count — the doc_repetition gram trick),
    one (left,right)-bucket preagg, a block-top-1 argmax pull (few
    rows), then a merge-apply pass that pre-filters to the words
    actually CONTAINING the winning pair (vectorized flat scan) and
    rewrites only those with the canonical left-to-right
    non-overlapping merge loop. Pair counting matches the reference
    definition: every adjacent occurrence counts (overlaps included),
    weighted by word frequency; argmax ties break (freq desc, left
    asc, right asc). Training stops early when the best pair's
    frequency drops below ``min_count``.

    Two tiers (the graph-ops contract): a vocab whose materialized
    bytes (``size_bytes()``, the symbol lists included) fit the driver
    budget (``util.plan_tier``) pulls to the driver and iterates
    locally on the same vectorized kernels
    (per-iteration Ray execution overhead — ~0.4 s × 2 × n_merges —
    dwarfs the compute for the vocab sizes every tested corpus
    produces); beyond, the iterations run over the vocab DATASET.
    Tier equality is pinned in tests/test_round5_ops.py alongside
    exact merge-table equality vs a single-process reference."""
    from .relational import aggregate

    def word_counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].str.split()
        flat = [t for row in toks for t in row]
        if not flat:
            return pd.DataFrame({"word": pd.Series([], dtype=object),
                                 "count": pd.Series([], dtype=np.int64)})
        s = pd.Series(flat, dtype=object)
        g = s.groupby(s).size()
        return pd.DataFrame({"word": g.index.to_numpy(object),
                             "count": g.to_numpy(np.int64)})

    vocab_wc = aggregate(docs.map_batches(word_counts,
                                          batch_format="pandas"),
                         ["word"], {"count": ("sum", "count")})

    def init_syms(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "syms": [list(w) for w in b["word"]],
            "count": b["count"].to_numpy(np.int64)})

    vocab = vocab_wc.map_batches(init_syms,
                                 batch_format="pandas").materialize()

    def _flat(b: pd.DataFrame):
        syms = list(b["syms"])
        cnt = b["count"].to_numpy(np.int64)
        lens = np.fromiter((len(s) for s in syms), np.int64,
                           count=len(syms))
        if not len(syms) or int(lens.sum()) == 0:
            return None
        flat = np.concatenate(
            [np.asarray(list(s), dtype=object) for s in syms])
        return flat, lens, cnt

    def count_pairs(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"left": pd.Series([], dtype=object),
                              "right": pd.Series([], dtype=object),
                              "freq": pd.Series([], dtype=np.int64)})
        f = _flat(b)
        if f is None:
            return empty
        flat, lens, cnt = f
        n = len(flat)
        if n < 2:
            return empty
        same = np.ones(n - 1, dtype=bool)
        ends = np.cumsum(lens)
        same[ends[:-1] - 1] = False   # word boundaries pair nothing
        w = np.repeat(cnt, lens)[:-1][same]
        df = pd.DataFrame({"left": flat[:-1][same],
                           "right": flat[1:][same], "freq": w})
        return df.groupby(["left", "right"], as_index=False)["freq"].sum()

    def apply_merge(b: pd.DataFrame, x: str, y: str,
                    xy: str) -> pd.DataFrame:
        fl = _flat(b)
        if fl is None:
            return b
        flat, lens, _ = fl
        n = len(flat)
        hit_words = np.array([], dtype=np.int64)
        if n >= 2:
            same = np.ones(n - 1, dtype=bool)
            ends = np.cumsum(lens)
            same[ends[:-1] - 1] = False
            m = same & (flat[:-1] == x) & (flat[1:] == y)
            if m.any():
                widx = np.repeat(np.arange(len(lens)), lens)
                hit_words = np.unique(widx[:-1][m])
        if not len(hit_words):
            return b
        syms = list(b["syms"])
        for wi in hit_words:     # ONLY words containing the pair
            s = syms[wi]
            out = []
            i = 0
            L = len(s)
            while i < L:
                if i + 1 < L and s[i] == x and s[i + 1] == y:
                    out.append(xy)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            syms[wi] = out
        return pd.DataFrame({"syms": syms,
                             "count": b["count"].to_numpy(np.int64)})

    def pick_best(pc_df: pd.DataFrame):
        if not len(pc_df):
            return None
        pc_df = pc_df.sort_values(["freq", "left", "right"],
                                  ascending=[False, True, True])
        return (str(pc_df.iloc[0]["left"]), str(pc_df.iloc[0]["right"]),
                int(pc_df.iloc[0]["freq"]))

    merges = []
    if plan_tier("train_bpe_merges",
                 driver_bytes=vocab.size_bytes()) == "driver":
        # driver tier: same kernels, one local frame, no per-iteration
        # Ray execution round-trips
        vdf = vocab.to_pandas()
        for rank in range(1, n_merges + 1):
            best = pick_best(count_pairs(vdf))
            if best is None or best[2] < min_count:
                break
            x, y, f = best
            merges.append((rank, x, y, f))
            vdf = apply_merge(vdf, x, y, x + y)
    else:
        for rank in range(1, n_merges + 1):
            pc_ds = aggregate(
                vocab.map_batches(count_pairs, batch_format="pandas"),
                ["left", "right"], {"freq": ("sum", "freq")})
            survivors = pc_ds.map_batches(
                lambda b: b.sort_values(["freq", "left", "right"],
                                        ascending=[False, True, True]
                                        ).head(1),
                batch_format="pandas").to_pandas()
            best = pick_best(survivors)
            if best is None or best[2] < min_count:
                break
            x, y, f = best
            merges.append((rank, x, y, f))
            vocab = vocab.map_batches(
                lambda b, x=x, y=y, xy=x + y: apply_merge(b, x, y, xy),
                batch_format="pandas").materialize()

    return pd.DataFrame({
        "rank": pd.array([m[0] for m in merges], dtype=np.int64),
        "left": pd.array([m[1] for m in merges], dtype=object),
        "right": pd.array([m[2] for m in merges], dtype=object),
        "freq": pd.array([m[3] for m in merges], dtype=np.int64)})


def bpe_encode_counts(docs: rd.Dataset, merges: list[tuple[str, str]],
                      text_col: str = "text") -> rd.Dataset:
    """Apply a learned BPE merge table to the corpus: per doc, the BPE
    token count after whitespace pre-tokenization + in-rank-order
    merge application — the tokenize-and-count pass that sizes a
    training mixture (the 100-TB-side consumer of
    ``train_bpe_merges``). The merge list is tiny and captured by
    value (serialized once per worker). Per batch the encoder runs
    once per DISTINCT word (the vocab trick again — batch-local
    dedup, then counts fan back through inverse indices), so the
    per-word merge loop is bounded by batch vocabulary, not row
    count. Pinned vs the single-process reference encoder in
    tests/test_round5_ops.py."""
    mseq = [(x, y, x + y) for x, y in merges]

    def encode_len(word: str) -> int:
        syms = list(word)
        for x, y, xy in mseq:
            if len(syms) < 2:
                break
            i, out = 0, []
            L = len(syms)
            while i < L:
                if i + 1 < L and syms[i] == x and syms[i + 1] == y:
                    out.append(xy)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return len(syms)

    def per_batch(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].str.split()
        lens = np.fromiter((len(t) for t in toks), np.int64,
                           count=len(toks))
        flat = np.array([w for row in toks for w in row], dtype=object)
        if not len(flat):
            return pd.DataFrame({
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "n_tokens_bpe": np.zeros(len(b), np.int64)})
        uniq, inv = np.unique(flat, return_inverse=True)
        per_word = np.fromiter((encode_len(w) for w in uniq), np.int64,
                               count=len(uniq))
        per_tok = per_word[inv]
        ends = np.cumsum(lens)
        cs = np.concatenate([[0], np.cumsum(per_tok)])
        n = cs[ends] - cs[ends - lens]
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                             "n_tokens_bpe": n.astype(np.int64)})

    return docs.map_batches(per_batch, batch_format="pandas")
