"""Deterministic sf1 inflation for the scale-posture smoke
(VERDICT r04 #6). The driver ships testdata only up to sf0.1; this
builds /tmp/sf1 as TEN key-shifted copies of sf0.1 — same shape,
same distributions, disjoint key spaces per copy (offset = copy
index × a per-table stride above every real key) so joins stay
consistent inside each copy and never leak across copies. No
randomness: byte-deterministic given the sf0.1 inputs.

Documents keep their text verbatim per copy, which plants exact
10-way duplicate groups — deliberately adversarial for the dedup
pair families (pair emission must stay bounded, 45 pairs per
group). Usage: python tools/make_sf1.py [/tmp/sf1]
"""

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.1"
COPIES = 10

# per-table integer-key columns and the stride that separates copies
STRIDES = {
    "orders": {"o_orderkey": 1 << 21, "o_custkey": 1 << 18},
    "lineitem": {"l_orderkey": 1 << 21, "l_partkey": 1 << 16,
                 "l_suppkey": 1 << 11},
    "customer": {"c_custkey": 1 << 18},
    "supplier": {"s_suppkey": 1 << 11},
    "part": {"p_partkey": 1 << 16},
    "documents": {"doc_id": 1 << 14},
    "embeddings": {"vec_id": 1 << 12},
    "events": {"event_id": 1 << 18, "user_id": 1 << 14},
}
PASSTHROUGH = ["region", "nation"]


def main(dst: str) -> None:
    os.makedirs(dst, exist_ok=True)
    for t in PASSTHROUGH:
        pq.write_table(pq.read_table(f"{SRC}/{t}.parquet"),
                       f"{dst}/{t}.parquet")
        print(t, "copied")
    for t, strides in STRIDES.items():
        base = pq.read_table(f"{SRC}/{t}.parquet")
        for col, stride in strides.items():
            mx = int(pa.compute.max(base[col]).as_py())
            assert mx < stride, (t, col, mx, stride)
        parts = []
        for i in range(COPIES):
            cols = {}
            for name in base.column_names:
                arr = base[name]
                if name in strides:   # int64 in every copy, 0 too
                    a = arr.to_numpy(zero_copy_only=False).astype(
                        np.int64) + i * strides[name]
                    arr = pa.chunked_array([pa.array(a, pa.int64())])
                cols[name] = arr
            parts.append(pa.table(cols))
        out = pa.concat_tables(parts)
        pq.write_table(out, f"{dst}/{t}.parquet",
                       row_group_size=1 << 17)
        print(t, out.num_rows, "rows")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "/tmp/sf1")
