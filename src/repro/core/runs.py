"""Spillable sorted-run files with stored offset-value codes.

A run is a sorted sequence of ``(key, code, payload)`` rows written to
one Arrow IPC file: ``arity`` int64 key columns ``k0..k{K-1}``, an
int64 ``_ovc`` column, and an int64 ``_payload`` column (-1 when the
row has no payload; payloads in this repo are row ids / counts, which
is all the Section 6 workloads need). Stored codes are each row's OVC
relative to its predecessor in the same run, so re-reading a run yields
a stream directly mergeable by ``OvcLoserTree`` — the effort spent on
comparisons during run generation is preserved on disk, exactly the
paper's point about sorted storage structures (Section 4.11).
"""
from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.ipc as ipc

from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats

_BATCH = 65536


class RunWriter:
    """Streams ``(key, code, payload)`` rows into one run file."""

    def __init__(self, path: str, spec: OvcSpec,
                 stats: CompareStats | None = None) -> None:
        self.path = path
        self.spec = spec
        self.stats = stats
        self.rows = 0
        fields = [pa.field(f"k{i}", pa.int64()) for i in range(spec.arity)]
        fields += [pa.field("_ovc", pa.int64()), pa.field("_payload", pa.int64())]
        self._schema = pa.schema(fields)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._sink = pa.OSFile(path, "wb")
        self._writer = ipc.new_file(self._sink, self._schema)
        self._buf: list[tuple] = []

    def write(self, key: tuple, code: int, payload) -> None:
        self._buf.append((key, code, -1 if payload is None else int(payload)))
        if len(self._buf) >= _BATCH:
            self._flush()

    def _flush(self) -> None:
        if not self._buf:
            return
        k = self.spec.arity
        keys = np.array([r[0] for r in self._buf], dtype=np.int64).reshape(-1, k)
        cols = [pa.array(keys[:, i]) for i in range(k)]
        cols.append(pa.array(np.array([r[1] for r in self._buf], dtype=np.int64)))
        cols.append(pa.array(np.array([r[2] for r in self._buf], dtype=np.int64)))
        self._writer.write_batch(
            pa.record_batch(cols, schema=self._schema)
        )
        self.rows += len(self._buf)
        if self.stats is not None:
            self.stats.rows_spilled += len(self._buf)
        self._buf.clear()

    def discard(self) -> None:
        """Abandon a partly written run: close the file and remove it."""
        self._sink.close()
        os.remove(self.path)

    def close(self) -> "RunFile":
        self._flush()
        self._writer.close()
        self._sink.close()
        return RunFile(self.path, self.spec, self.rows)


class RunFile:
    """A closed run on disk; iterable as an OVC-coded stream."""

    def __init__(self, path: str, spec: OvcSpec, rows: int | None = None) -> None:
        self.path = path
        self.spec = spec
        if rows is None:
            with pa.OSFile(path, "rb") as f:
                reader = ipc.open_file(f)
                rows = sum(
                    reader.get_batch(i).num_rows
                    for i in range(reader.num_record_batches)
                )
        self.rows = rows

    def __iter__(self) -> Iterator[tuple]:
        """Yield ``(key, code, payload)``; payload -1 decodes to None."""
        k = self.spec.arity
        with pa.OSFile(self.path, "rb") as f:
            reader = ipc.open_file(f)
            for bi in range(reader.num_record_batches):
                b = reader.get_batch(bi)
                keys = np.column_stack(
                    [b.column(i).to_numpy(zero_copy_only=False) for i in range(k)]
                )
                codes = b.column(k).to_numpy(zero_copy_only=False)
                pays = b.column(k + 1).to_numpy(zero_copy_only=False)
                for r in range(b.num_rows):
                    p = pays[r]
                    yield (
                        tuple(int(x) for x in keys[r]),
                        int(codes[r]),
                        None if p == -1 else int(p),
                    )

    def delete(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


def write_run(path: str, rows: Iterable[tuple], spec: OvcSpec,
              stats: CompareStats | None = None) -> RunFile:
    """Write an iterable of ``(key, code, payload)`` to ``path``. If
    ``rows`` raises, the partial file is removed before the error
    propagates."""
    w = RunWriter(path, spec, stats)
    try:
        for key, code, payload in rows:
            w.write(key, code, payload)
    except BaseException:
        w.discard()
        raise
    return w.close()
