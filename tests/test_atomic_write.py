"""``corpus.storage.atomic_write``: the temp-then-rename write that
worker tasks use for files a Ray retry may rewrite while an earlier
attempt of the same task is still running."""

import os
import threading

import pyarrow as pa
import pyarrow.parquet as pq

from no_fasel_scrapers_ray.corpus.storage import atomic_write


def test_concurrent_writers_leave_one_complete_file(tmp_path):
    """Two attempts write the same final path at once: the result is
    one complete file from one of them, and no temp file is left."""
    final = str(tmp_path / "part-0000.parquet")
    tables = [pa.table({"x": pa.array(range(i * 200_000,
                                            (i + 1) * 200_000))})
              for i in range(2)]
    start = threading.Barrier(2)
    errors = []

    def attempt(t: pa.Table) -> None:
        try:
            start.wait(timeout=30)
            for _ in range(5):
                atomic_write(final, lambda tmp: pq.write_table(t, tmp))
        except Exception as e:   # surfaced below, not swallowed
            errors.append(e)

    threads = [threading.Thread(target=attempt, args=(t,)) for t in tables]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
        assert not th.is_alive()
    assert not errors
    assert os.listdir(tmp_path) == ["part-0000.parquet"]
    got = pq.read_table(final)
    assert any(got.equals(t) for t in tables)


def test_failed_write_leaves_nothing(tmp_path):
    final = str(tmp_path / "marker")

    def boom(tmp: str) -> None:
        with open(tmp, "w") as fp:
            fp.write("partial")
        raise RuntimeError("killed mid-write")

    try:
        atomic_write(final, boom)
    except RuntimeError:
        pass
    assert os.listdir(tmp_path) == []
