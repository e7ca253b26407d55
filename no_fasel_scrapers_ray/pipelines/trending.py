"""Trending/featured pipeline — the engine's TrendingScraper.py.

Homepage fetch → content-page fetch+extract over Ray Data → the
normalized-title first-match-wins join (J3), the akwam id semi-joins
(J4) and the featured projection (J5) against the crawled catalogs.

Join shape: the catalogs are the small side (broadcast); content pages
stream through map_batches. First-match-wins with the reference's
``seen`` list (TrendingScraper.py:64,89-90) is order-dependent, so the
probe side carries its div index and the final match resolution runs
over the collected (tiny) probe set in div order against a precomputed
norm-title → ordered-keys index (O(n+m) for the reference's O(n·m)
scan, same result)."""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data as rd

from ..corpus.spans import PageView
from ..functions.text import (
    content_id_from_text, normalize_title, remove_arabic_chars, remove_year)
from ..stages.fetch import Fetcher

FASEL = "https://fasel.test"
AKWAM = "https://akwam.test"


def _classify(link: str) -> str:
    """TrendingScraper.py:74-81."""
    if "%d9%81%d9%8a%d9%84%d9%85" in link:
        return "movies"
    if "asian-episodes" in link:
        return "asian-series"
    if "anime-episodes" in link:
        return "anime"
    return "series"


def run_trending(corpus_table: pa.Table, catalogs: dict[str, dict]):
    """Returns (content_dict, featured_dict, visit_log)."""
    corpus_ref = ray.put(corpus_table)
    fetcher = Fetcher(corpus_table)
    visit_log: list[tuple[str, str, str, int]] = []

    def fetch_one(url, site, cat, depth) -> PageView | None:
        visit_log.append((url, site, cat, depth))
        t = fetcher(pa.table({"url": [url], "host": [url.split("/")[2]]}))
        if t.num_rows == 0:
            return None
        return PageView(t.column("spans")[0].as_py())

    home = fetch_one(f"{FASEL}/", "fasel", "trending", 0)
    trending_links = [h for _, h in home.marked_links("blockMovie-mark")]
    featured_links = [h for _, h in home.marked_links("h1mb1-mark")]

    # distributed content-page fetch+extract (stateless map_batches over
    # the link set — one homepage's links, a single small block; order
    # restored via idx)
    def extract_titles(batch: pa.Table) -> pa.Table:
        fetched = Fetcher(ray.get(corpus_ref))(batch)
        raw_titles, ids = [], []
        for i in range(fetched.num_rows):
            page = PageView(fetched.column("spans")[i].as_py())
            h1 = page.first_text("h1-title")
            if h1 is not None:
                raw_titles.append(remove_year(remove_arabic_chars(
                    h1.split("\n")[1].strip())))
                ids.append("")
            else:
                raw_titles.append("")
                ids.append("")
        out = fetched.select(["url", "idx"])
        return out.append_column("content_title", pa.array(raw_titles))

    probe_t = pa.table({
        "url": pa.array(trending_links),
        "host": pa.array([l.split("/")[2] for l in trending_links]),
        "idx": pa.array(range(len(trending_links)), type=pa.int64()),
    })
    if probe_t.num_rows:
        probes = (rd.from_arrow(probe_t)
                  .map_batches(extract_titles, batch_format="pyarrow")
                  .to_pandas().sort_values("idx"))
    else:
        import pandas as pd
        probes = pd.DataFrame({"url": [], "idx": [], "content_title": []})
    for link in trending_links:
        visit_log.append((link, "fasel", "trending", 1))

    content_dict = {"movies": {}, "asian-series": {}, "anime": {},
                    "series": {}, "arabic-series": {}, "arabic-movies": {}}
    # norm-title → ordered keys per category (catalog insertion order)
    indexes: dict[str, dict[str, list[str]]] = {}
    for cat in ("movies", "asian-series", "anime", "series"):
        idx: dict[str, list[str]] = {}
        for key, rec in catalogs.get(cat, {}).items():
            idx.setdefault(normalize_title(rec["Title"]), []).append(key)
        indexes[cat] = idx
    seen: set[str] = set()
    for _, row in probes.iterrows():
        category = _classify(row["url"])
        rec_map = catalogs.get(category, {})
        for key in indexes[category].get(
                normalize_title(row["content_title"]), []):
            if key in seen:
                continue
            seen.add(key)
            rec = rec_map[key]
            content_dict[category][key] = {
                "Title": rec["Title"],
                "Image Source": rec["Image Source"],
                "Category": category,
                # .get — see oracle note on the postprocess race
                "Genres": rec.get("Genres", []),
                "Rating": rec.get("Rating", "N/A"),
                "TMDb ID": rec.get("TMDb ID", None),
            }
            break

    # featured (J5): movie pages → content id → projection
    featured = {"content": []}
    movies = catalogs.get("movies", {})
    for link in featured_links:
        page = fetch_one(link, "fasel", "trending", 1)
        raw = page.first_text("dot-circle")
        movie_id = content_id_from_text(raw) if raw is not None else None
        rec = movies[movie_id]
        featured["content"].append({
            "key": movie_id,
            "Title": rec["Title"],
            "Image Source": rec["Image Source"],
            "Category": rec["Category"],
            "Genres": rec.get("Genres", []),
            "Rating": rec.get("Rating", "N/A"),
            "TMDb ID": rec.get("TMDb ID", "N/A"),
        })

    # akwam home semi-joins (J4)
    one = fetch_one(f"{AKWAM}/one", "akwam", "trending", 0)
    arabic_series = catalogs.get("arabic-series", {})
    arabic_movies = catalogs.get("arabic-movies", {})
    for _, link in one.marked_links("icn-play-mark"):
        if "series" in link:
            sid = link.split("/")[-2]
            if sid in arabic_series:
                content_dict["arabic-series"][sid] = {
                    "Title": arabic_series[sid]["Title"],
                    "Image Source": arabic_series[sid]["Image Source"],
                    "Category": "arabic-series"}
        elif "movie" in link:
            mid = link.split("/")[-2]
            if mid in arabic_movies:
                content_dict["arabic-movies"][mid] = {
                    "Title": arabic_movies[mid]["Title"],
                    "Image Source": arabic_movies[mid]["Image Source"],
                    "Category": "arabic-movies"}

    return content_dict, featured, visit_log
