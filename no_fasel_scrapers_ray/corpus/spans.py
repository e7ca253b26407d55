"""Span-sequence access helpers — the engine's "selector" layer.

A page is a sequence of (kind, text, media_ref, offset) spans; text
spans carry ``"class::payload"`` (schema.py). PageView gives the
selector-equivalent operations the reference performs with
BeautifulSoup — filter by class, first-match, adjacency pairing of a
marker text span with the link/media span that follows it (the anchor-
text analogue). Used by both the site adapters (stages/adapters.py)
and the reference-semantics oracle, which share NOTHING else.

Storage is COLUMNAR: three parallel string sequences + a [lo, hi)
window. The crawl hot path builds pages straight from the flattened
Arrow child arrays (``PageView.from_columns`` over the ListArray's
offsets) — three flat ``to_pylist`` calls per batch instead of one
dict per span (4 boxed fields each), which halved the fetch+extract
memory traffic at bench scale. The dict-per-span constructor remains
for the oracle/tests. ``cards`` are contiguous sub-windows, so card
views share the parent's columns with zero copying.
"""

from __future__ import annotations


class PageView:
    __slots__ = ("kinds", "txts", "mrefs", "lo", "hi")

    def __init__(self, spans: list[dict] | None = None):
        # spans: [{kind, text, media_ref, offset}] in document order
        if spans is None:
            spans = []
        self.kinds = [s["kind"] for s in spans]
        self.txts = [s["text"] for s in spans]
        self.mrefs = [s["media_ref"] for s in spans]
        self.lo = 0
        self.hi = len(spans)

    @classmethod
    def from_columns(cls, kinds, texts, mrefs, lo: int, hi: int) -> "PageView":
        """Zero-copy window over shared flat columns (the Arrow
        ListArray's child arrays, converted once per batch)."""
        pv = cls.__new__(cls)
        pv.kinds, pv.txts, pv.mrefs = kinds, texts, mrefs
        pv.lo, pv.hi = lo, hi
        return pv

    def __len__(self) -> int:
        return self.hi - self.lo

    @property
    def spans(self) -> list[dict]:
        """Back-compat dict view (tests / debugging — not the hot path)."""
        return [{"kind": k, "text": t, "media_ref": m, "offset": i}
                for i, (k, t, m) in enumerate(zip(
                    self.kinds[self.lo:self.hi],
                    self.txts[self.lo:self.hi],
                    self.mrefs[self.lo:self.hi]))]

    def sequence(self) -> list[tuple[str, str, str, int]]:
        """The invariant tuple sequence (kind, text, media_ref, order)."""
        return [(k, t, m, i)
                for i, (k, t, m) in enumerate(zip(
                    self.kinds[self.lo:self.hi],
                    self.txts[self.lo:self.hi],
                    self.mrefs[self.lo:self.hi]))]

    # -- text selectors ----------------------------------------------------

    def texts(self, cls: str) -> list[str]:
        prefix = cls + "::"
        n = len(prefix)
        K, T = self.kinds, self.txts
        return [T[i][n:] for i in range(self.lo, self.hi)
                if K[i] == "text" and T[i].startswith(prefix)]

    def first_text(self, cls: str) -> str | None:
        prefix = cls + "::"
        K, T = self.kinds, self.txts
        for i in range(self.lo, self.hi):
            if K[i] == "text" and T[i].startswith(prefix):
                return T[i][len(prefix):]
        return None

    # -- link / media selectors --------------------------------------------

    def links(self) -> list[str]:
        K, M = self.kinds, self.mrefs
        return [M[i] for i in range(self.lo, self.hi) if K[i] == "link"]

    def medias(self) -> list[str]:
        K, M = self.kinds, self.mrefs
        return [M[i] for i in range(self.lo, self.hi) if K[i] == "media_ref"]

    def first_media(self) -> str | None:
        K, M = self.kinds, self.mrefs
        for i in range(self.lo, self.hi):
            if K[i] == "media_ref":
                return M[i]
        return None

    def marked_links(self, marker_cls: str) -> list[tuple[str, str]]:
        """(marker_payload, href) for each text span of ``marker_cls``
        immediately followed by a link span — the anchor-text pairing."""
        return self._marked(marker_cls, "link")

    def marked_medias(self, marker_cls: str) -> list[tuple[str, str]]:
        return self._marked(marker_cls, "media_ref")

    def _marked(self, marker_cls: str, next_kind: str) -> list[tuple[str, str]]:
        prefix = marker_cls + "::"
        n = len(prefix)
        K, T, M = self.kinds, self.txts, self.mrefs
        out = []
        for i in range(self.lo, self.hi - 1):
            if (K[i] == "text" and T[i].startswith(prefix)
                    and K[i + 1] == next_kind):
                out.append((T[i][n:], M[i + 1]))
        return out

    def cards(self, start_classes: tuple[str, ...]) -> list["PageView"]:
        """Split the page into card sub-sequences: a new card starts at a
        text span whose class is in ``start_classes``. Pagination/header
        spans before the first card are dropped. Cards are contiguous →
        each card is a shared-column window, no copying."""
        prefixes = tuple(c + "::" for c in start_classes)
        K, T = self.kinds, self.txts
        starts = [i for i in range(self.lo, self.hi)
                  if K[i] == "text" and T[i].startswith(prefixes)]
        if not starts:
            return []
        bounds = starts + [self.hi]
        return [PageView.from_columns(K, T, self.mrefs, bounds[j],
                                      bounds[j + 1])
                for j in range(len(starts))]



def pages_from_arrow(spans_col, n_rows: int):
    """Arrow list<struct> column → list[PageView], via THREE flat child
    to_pylist calls (no per-span dicts). The hot-path constructor used
    by the crawl block."""
    la = (spans_col.combine_chunks()
          if hasattr(spans_col, "num_chunks") else spans_col)
    # .values (raw child) pairs with .offsets (raw offsets) even when
    # the ListArray is sliced; .flatten() would re-base and misalign
    offsets = la.offsets.to_pylist()
    flat = la.values
    kinds = flat.field("kind").to_pylist()
    texts = flat.field("text").to_pylist()
    mrefs = flat.field("media_ref").to_pylist()
    return [PageView.from_columns(kinds, texts, mrefs,
                                  offsets[i], offsets[i + 1])
            for i in range(n_rows)]
