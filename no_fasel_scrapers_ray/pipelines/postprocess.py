"""Postprocessing: the engine equivalent of Postprocessing.py —
genre cleanup (U8), TMDb enrichment fill (J2), per-catalog drops (D4),
image-index rebuild (A8), md5 file hashes (A7/S8).

The reference mutates the written JSON files in place
(Postprocessing.py:23-96). Catalogs are record-scale (≪ corpus), so the
transform runs as one raw task over the flattened entries (a one-block
``BlockRefs``) — vectorized per batch — and is re-materialized into
dicts for the JSON sinks.
FILE_NAMES order and the index-range-based drop rules are replicated
exactly.
"""

from __future__ import annotations

import json

import pandas as pd

from ..corpus.storage import one_block
from ..functions.connectors import mock_tmdb_id
from ..functions.text import clean_genres

# Common.py:22-24 — order matters: drops key off index ranges
FILE_NAMES = ["movies", "anime", "asian-series", "series", "tvshows",
              "arabic-series", "arabic-movies"]


def postprocess_catalogs(catalogs: dict[str, dict],
                         image_indices: dict | None = None
                         ) -> tuple[dict[str, dict], dict]:
    """Returns (postprocessed catalogs, rebuilt image_indices).

    Only FILE_NAMES catalogs are touched (Postprocessing.py:23); HDW /
    WeCima / CimaNow files are hashed but not postprocessed there.
    """
    image_indices = dict(image_indices or {})
    out = {k: v for k, v in catalogs.items()}

    for index, file in enumerate(FILE_NAMES):
        if file not in catalogs:
            continue
        entries = [{"key": k, "payload": json.dumps(v, ensure_ascii=False)}
                   for k, v in catalogs[file].items()]

        # image-index rebuild (Postprocessing.py:27-34)
        suffix = ("-akwam-" + file.split("-")[-1]) if "arabic" in file \
            else ("-hdw" if "hdw" in file else "-fasel")
        for k, v in catalogs[file].items():
            image_indices[k + suffix] = v["Image Source"]

        if not entries:
            continue

        def fix_batch(batch: pd.DataFrame, file=file) -> pd.DataFrame:
            fixed = []
            for payload in batch["payload"]:
                rec = json.loads(payload)
                # U8 genre cleanup + default (Postprocessing.py:36-49)
                if "Genres" in rec:
                    rec["Genres"] = clean_genres(rec["Genres"])
                else:
                    rec["Genres"] = []
                # J2 TMDb fill when missing/None (Postprocessing.py:51-73)
                if not ("TMDb ID" in rec and rec["TMDb ID"] is not None):
                    kind = "movies" if "movies" in file else "tv"
                    rec["TMDb ID"] = mock_tmdb_id(rec["Title"], kind)
                fixed.append(json.dumps(rec, ensure_ascii=False))
            batch = batch.copy()
            batch["payload"] = fixed
            return batch

        ds = one_block(pd.DataFrame(entries))
        fixed = ds.map_batches(fix_batch, batch_format="pandas").to_pandas()
        rec_map = {row["key"]: json.loads(row["payload"])
                   for _, row in fixed.iterrows()}
        # preserve original key order
        catalog = {k: rec_map[k] for k in catalogs[file]}

        # D4 drops (Postprocessing.py:75-87): indexes 2-4 = series
        # family → drop 0-season entries; index 0 = movies → drop
        # empty Source
        if index in range(2, 5):
            catalog = {k: v for k, v in catalog.items()
                       if len(v["Seasons"]) != 0}
        elif index == 0:
            catalog = {k: v for k, v in catalog.items()
                       if v["Source"] != ""}
        out[file] = catalog

    return out, image_indices


def all_content_index(catalogs: dict[str, dict]) -> dict:
    """AllContentIndexer.py:5-33: union of the FILE_NAMES catalogs with
    Rating/Genres defaulting, list form under a "content" key."""
    all_content = []
    for name in FILE_NAMES:
        data = catalogs.get(name, {})
        for key, rec in data.items():
            all_content.append({
                "key": key,
                "Title": rec["Title"],
                "Image Source": rec["Image Source"],
                "Category": rec["Category"],
                "Rating": rec.get("Rating", "N/A"),
                "Genres": rec.get("Genres", []),
            })
    return {"content": all_content}
