"""Partitioned spill files for hash operators.

Rows are hash-partitioned into F Arrow files; every written row counts
into ``stats.rows_spilled`` (the Figure 3 currency). The row shape is
``(key_tuple, payload_int)``: int64 key columns and an int64
``_payload`` column. Sort-based run files (``repro.core.runs``) carry
one more int64 column, ``_ovc``, holding each row's stored offset-value
code (Section 4.11), so a sort spill writes 8 bytes per row more than a
hash spill with the same keys.
"""
from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.ipc as ipc

from repro.core.stats import CompareStats

_BATCH = 65536


class SpillPartitionWriter:
    """One spill partition file of (key columns, payload) rows."""

    def __init__(self, path: str, arity: int,
                 stats: CompareStats | None = None) -> None:
        self.path = path
        self.arity = arity
        self.stats = stats
        self.rows = 0
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fields = [pa.field(f"k{i}", pa.int64()) for i in range(arity)]
        fields.append(pa.field("_payload", pa.int64()))
        self._schema = pa.schema(fields)
        self._sink = pa.OSFile(path, "wb")
        self._writer = ipc.new_file(self._sink, self._schema)
        self._buf: list[tuple] = []

    def write(self, key: tuple, payload) -> None:
        self._buf.append((key, -1 if payload is None else int(payload)))
        if len(self._buf) >= _BATCH:
            self._flush()

    def _flush(self) -> None:
        if not self._buf:
            return
        keys = np.array([r[0] for r in self._buf],
                        dtype=np.int64).reshape(-1, self.arity)
        cols = [pa.array(keys[:, i]) for i in range(self.arity)]
        cols.append(pa.array(np.array([r[1] for r in self._buf], dtype=np.int64)))
        self._writer.write_batch(pa.record_batch(cols, schema=self._schema))
        self.rows += len(self._buf)
        if self.stats is not None:
            self.stats.rows_spilled += len(self._buf)
        self._buf.clear()

    def discard(self) -> None:
        """Abandon a partly written partition: close the file and remove it."""
        self._sink.close()
        os.remove(self.path)

    def close(self) -> "SpillPartition":
        self._flush()
        self._writer.close()
        self._sink.close()
        return SpillPartition(self.path, self.arity, self.rows)


class SpillPartition:
    def __init__(self, path: str, arity: int, rows: int) -> None:
        self.path = path
        self.arity = arity
        self.rows = rows

    def __iter__(self) -> Iterator[tuple]:
        with pa.OSFile(self.path, "rb") as f:
            reader = ipc.open_file(f)
            for bi in range(reader.num_record_batches):
                b = reader.get_batch(bi)
                keys = np.column_stack(
                    [b.column(i).to_numpy(zero_copy_only=False)
                     for i in range(self.arity)]
                )
                pays = b.column(self.arity).to_numpy(zero_copy_only=False)
                for r in range(b.num_rows):
                    p = pays[r]
                    yield (tuple(int(x) for x in keys[r]),
                           None if p == -1 else int(p))

    def delete(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


def partition_to_disk(
    rows: Iterable[tuple],
    arity: int,
    n_parts: int,
    tmpdir: str,
    tag: str,
    stats: CompareStats | None = None,
) -> list[SpillPartition]:
    """Hash-partition all rows into ``n_parts`` spill files. Counts one
    hash computation per key column per row (the N x K the paper notes
    hash plans always pay) and one spilled row per input row."""
    writers = [
        SpillPartitionWriter(os.path.join(tmpdir, f"{tag}-{p}.arrow"),
                             arity, stats)
        for p in range(n_parts)
    ]
    try:
        for key, payload in rows:
            if stats is not None:
                stats.hash_ops += 1
                stats.col_accesses += arity
            writers[hash(key) % n_parts].write(key, payload)
    except BaseException:
        for w in writers:
            w.discard()
        raise
    return [w.close() for w in writers]
