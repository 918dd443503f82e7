"""External hash aggregation (duplicate removal / grouping baseline).

Grace-style: when the input exceeds the operator's memory budget, ALL
input rows are hash-partitioned to disk (one spill per row — this is
how the hash plan in Figure 3 pays its first spill pass), then each
partition is aggregated in memory. When the input fits, a single
in-memory hash table is used and nothing spills.

Memory is measured in rows, like the paper ("the memory for each
blocking operator is 10,000,000 rows").
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from repro.core.stats import CompareStats
from repro.hashexec.spill import partition_to_disk


def _agg_in_memory(rows: Iterable[tuple], agg: Callable, init: Callable,
                   arity: int, stats: CompareStats | None) -> dict:
    table: dict = {}
    for key, payload in rows:
        if stats is not None:
            stats.hash_ops += 1
            stats.col_accesses += arity
        if key in table:
            table[key] = agg(table[key], key, payload)
        else:
            table[key] = init(key, payload)
    return table


def hash_aggregate(
    rows: Iterable[tuple],
    arity: int,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    agg: Callable = lambda acc, k, p: acc + 1,
    init: Callable = lambda k, p: 1,
    n_input_hint: int | None = None,
    tag: str = "hagg",
) -> Iterator[tuple]:
    """Aggregate ``(key, payload)`` rows by full key; yields
    ``(key, accumulator)`` in arbitrary (hash) order.

    ``n_input_hint`` plays the role of the optimizer's cardinality
    estimate: with a hint <= memory_rows the operator goes straight to
    the in-memory path; otherwise it buffers up to ``memory_rows`` rows
    and falls back to Grace partitioning as soon as the budget
    overflows, spilling *every* input row (also the buffered ones) once.
    """
    if memory_rows < 1:
        raise ValueError("memory_rows must be >= 1")
    it = iter(rows)
    if n_input_hint is None or n_input_hint > memory_rows:
        head = list(itertools.islice(it, memory_rows + 1))
        if len(head) > memory_rows:
            # overflow: Grace-partition everything to disk, then
            # aggregate partition by partition in memory.
            n_parts = max(
                2,
                -(-(n_input_hint or len(head) * 4) // memory_rows),
            )
            parts = partition_to_disk(
                itertools.chain(head, it), arity, n_parts, tmpdir, tag, stats
            )
            try:
                for part in parts:
                    table = _agg_in_memory(part, agg, init, arity, stats)
                    yield from table.items()
                    part.delete()
            finally:  # also when the consumer stops early
                for part in parts:
                    part.delete()
            return
        it = iter(head)
    table = _agg_in_memory(it, agg, init, arity, stats)
    yield from table.items()


def hash_distinct(
    rows: Iterable[tuple],
    arity: int,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    n_input_hint: int | None = None,
    tag: str = "hdist",
) -> Iterator[tuple]:
    """Duplicate removal: yields ``(key, count)`` per distinct key."""
    return hash_aggregate(rows, arity, memory_rows, tmpdir, stats,
                          n_input_hint=n_input_hint, tag=tag)
