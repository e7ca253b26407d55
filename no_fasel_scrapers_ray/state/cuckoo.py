"""Cuckoo filter: the approximate-membership fast path of the URL-seen
set (north_rule: "sharded cuckoo-filter URL-seen set keyed by
canonicalized+hashed URLs").

numpy-backed: ``buckets`` is an (n_buckets, bucket_size) uint16 array of
fingerprints (0 = empty). Guarantees: no false negatives; false-positive
rate ~ 2*bucket_size/2^16 at reasonable load. Deletion supported (needed
for shard rebalancing). Each logical frontier shard (state/frontier.py::
FrontierShard, carried with up to three others by one FrontierHost
actor) owns one filter plus the exact key set (the spillable truth —
cuckoo FPs fall back to it, so the *observable* seen-set is exact;
SURVEY.md §7.3).

Design notes for 10^10 URLs: 16-bit fingerprints at 4 slots/bucket ≈
2.2 bytes/key at 95% load → one shard comfortably holds 10^8 keys in
~250 MB; 10^10 keys = ~100 shards across the cluster, exact sets
spilled to Lance/Parquet and only the filter kept hot.
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.uint16(0)
MAX_KICKS = 500
STASH_MAX = 64


class CuckooFilter:
    def __init__(self, capacity: int, bucket_size: int = 4, seed: int = 0):
        n_buckets = 1
        while n_buckets * bucket_size < capacity:
            n_buckets *= 2
        self.n_buckets = n_buckets
        self.bucket_size = bucket_size
        self.buckets = np.zeros((n_buckets, bucket_size), dtype=np.uint16)
        self.size = 0
        self._rng = np.random.RandomState(seed)
        self._mask = np.uint64(n_buckets - 1)
        # overflow stash: (fp, home_idx) pairs for victims MAX_KICKS
        # could not re-place — preserves the no-false-negative
        # guarantee right up to the loud filter-full error (dropping
        # the in-hand victim silently un-saw a previously-added key)
        self.stash: list[tuple[int, int]] = []

    # fingerprint: low 16 bits of the key hash, never 0
    def _fingerprint(self, h: np.ndarray) -> np.ndarray:
        fp = (h & np.uint64(0xFFFF)).astype(np.uint16)
        fp[fp == 0] = 1
        return fp

    def _index1(self, h: np.ndarray) -> np.ndarray:
        return ((h >> np.uint64(16)) & self._mask).astype(np.int64)

    def _index2(self, i1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # partial-key cuckoo: i2 = i1 xor hash(fp)
        fph = (fp.astype(np.uint64) * np.uint64(0x5BD1E995)) & self._mask
        return (i1.astype(np.uint64) ^ fph).astype(np.int64)

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized membership for uint64 key hashes → bool array."""
        h = hashes.astype(np.uint64)
        fp = self._fingerprint(h)
        i1 = self._index1(h)
        i2 = self._index2(i1, fp)
        b1 = self.buckets[i1]  # (n, bucket_size)
        b2 = self.buckets[i2]
        out = ((b1 == fp[:, None]).any(axis=1)
               | (b2 == fp[:, None]).any(axis=1))
        for sfp, sidx in self.stash:   # ≤ STASH_MAX, usually empty
            out |= (fp == sfp) & ((i1 == sidx) | (i2 == sidx))
        return out

    def add_many(self, hashes: np.ndarray) -> int:
        """Insert hashes (no pre-dedup needed); returns number inserted.
        Raises RuntimeError when the filter is critically full.

        Hot path is a tight python loop over plain int lists (faster
        per-op than numpy slot scans at single-insert granularity — the
        frontier host actors serialize inserts, so per-insert cost is the
        frontier's throughput ceiling)."""
        n = 0
        h = np.asarray(hashes, dtype=np.uint64)
        fp_arr = self._fingerprint(h)
        i1_arr = self._index1(h)
        fp_all = fp_arr.tolist()
        i1_all = i1_arr.tolist()
        i2_all = self._index2(i1_arr, fp_arr).tolist()
        buckets = self.buckets
        bs = self.bucket_size
        for fp, i1, i2 in zip(fp_all, i1_all, i2_all):
            placed = False
            for idx in (i1, i2):
                row = buckets[idx]
                for j in range(bs):
                    if row[j] == 0:
                        row[j] = fp
                        self.size += 1
                        placed = True
                        break
                if placed:
                    break
            if placed:
                n += 1
                continue
            if self._insert_kick(fp, i1, i2):
                n += 1
        return n

    def _insert_kick(self, fp: int, i1: int, i2: int) -> bool:
        idx = i1 if self._rng.rand() < 0.5 else i2
        for _ in range(MAX_KICKS):
            slot = self._rng.randint(self.bucket_size)
            fp, self.buckets[idx][slot] = int(self.buckets[idx][slot]), fp
            fph = (np.uint64(fp) * np.uint64(0x5BD1E995)) & self._mask
            idx = int(np.uint64(idx) ^ fph)
            row = self.buckets[idx]
            empty = np.flatnonzero(row == _EMPTY)
            if len(empty):
                row[empty[0]] = fp
                self.size += 1
                return True
        # stash the in-hand victim BEFORE any error: it belongs to a
        # previously-inserted key and dropping it would create a false
        # negative
        self.stash.append((int(fp), int(idx)))
        self.size += 1
        if len(self.stash) > STASH_MAX:
            raise RuntimeError(
                "cuckoo filter full — grow capacity or reshard")
        return True

    def delete_many(self, hashes: np.ndarray) -> int:
        """Remove one copy of each present fingerprint; returns removed."""
        removed = 0
        h = np.asarray(hashes, dtype=np.uint64)
        fp_all = self._fingerprint(h)
        i1_all = self._index1(h)
        i2_all = self._index2(i1_all, fp_all)
        for fp, i1, i2 in zip(fp_all, i1_all, i2_all):
            done = False
            for idx in (int(i1), int(i2)):
                row = self.buckets[idx]
                hit = np.flatnonzero(row == fp)
                if len(hit):
                    row[hit[0]] = _EMPTY
                    self.size -= 1
                    removed += 1
                    done = True
                    break
            if not done and self.stash:
                for k, (sfp, sidx) in enumerate(self.stash):
                    if sfp == int(fp) and sidx in (int(i1), int(i2)):
                        self.stash.pop(k)
                        self.size -= 1
                        removed += 1
                        break
        return removed

    # -- serialization (checkpoint spill) ----------------------------------

    def dump(self) -> dict:
        return {"buckets": self.buckets, "size": self.size,
                "bucket_size": self.bucket_size,
                "stash": list(self.stash)}

    @classmethod
    def load(cls, state: dict) -> "CuckooFilter":
        f = cls(capacity=state["buckets"].size,
                bucket_size=state["bucket_size"])
        f.buckets = state["buckets"]
        f.size = state["size"]
        f.n_buckets = state["buckets"].shape[0]
        f._mask = np.uint64(f.n_buckets - 1)
        f.stash = [tuple(x) for x in state.get("stash", [])]
        return f
