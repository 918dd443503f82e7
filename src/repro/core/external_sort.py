"""External merge sort with tree-of-losers queues and offset-value codes.

Run generation follows the paper's Section 3 formulation: fill memory
with up to M rows and merge M sorted runs of a single row each through a
tree-of-losers priority queue; the pop sequence is a sorted run whose
rows carry OVCs relative to their predecessor as a free by-product.
(Replacement selection with run numbers would double the expected run
length to 2M; see DESIGN.md for why this substitution is immaterial.)

If the input fits in memory the single run is yielded directly without
spilling; otherwise runs go to disk and a final multiway merge (again a
tree-of-losers queue, consuming the stored codes) produces the output —
so each input row is spilled exactly once, the property Figure 3 relies
on. Run files are removed when the output is exhausted or closed, and
when an error interrupts run generation or the merge.

``dedup=True`` enables in-sort duplicate removal [10]: every input row
gets the count payload 1, and ``operators.dedup.dedup_stream`` collapses
duplicates, detected by the duplicate code alone, into one row carrying
the summed count, both during run generation and during the merge.

``external_sort_plain`` is the same sort with ``PlainLoserTree``: full
key comparisons in every match, code 0 in every run file, the same
spills.
"""
from __future__ import annotations

import itertools
import os
from typing import Iterable, Iterator, Sequence

from repro.core.operators.dedup import dedup_stream
from repro.core.ovc import OvcSpec
from repro.core.runs import RunFile, write_run
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree, PlainLoserTree


def sort_in_memory(
    keys: Sequence[tuple],
    spec: OvcSpec,
    stats: CompareStats | None = None,
    payloads: Sequence | None = None,
) -> Iterator[tuple]:
    """Sort one memory load by merging single-row runs; yields
    ``(key, code, payload)`` in sorted order with output OVCs."""
    if payloads is None:
        payloads = [None] * len(keys)
    return _sort_load(list(zip(keys, payloads)), spec, stats, False, False)


def _sort_load(load: list[tuple], spec: OvcSpec,
               stats: CompareStats | None, dedup: bool,
               plain: bool) -> Iterator[tuple]:
    """Sort ``(key, payload)`` rows by merging single-row runs, primed
    at offset 0 (code 0 for the plain tree)."""
    if not load:
        return iter(())
    return _merge(
        [[(tuple(k), 0 if plain else spec.prime(k), 1 if dedup else p)]
         for k, p in load],
        spec, stats, dedup, plain,
    )


def _merge(streams: Sequence[Iterable], spec: OvcSpec,
           stats: CompareStats | None, dedup: bool,
           plain: bool) -> Iterator[tuple]:
    """Tree-of-losers merge of ``(key, code, payload)`` streams. With
    ``dedup`` the payloads are duplicate counts, and each group of
    duplicates leaves one row carrying the group's sum."""
    tree = (PlainLoserTree(streams, stats) if plain
            else OvcLoserTree(streams, spec, stats))
    return dedup_stream(tree, spec, count_payloads=True) if dedup else iter(tree)


def _generate_runs(rows: Iterable[tuple], spec: OvcSpec, memory_rows: int,
                   tmpdir: str, stats: CompareStats | None, dedup: bool,
                   tag: str, plain: bool
                   ) -> tuple[list[RunFile], Iterator[tuple] | None]:
    if memory_rows < 1:
        raise ValueError("memory_rows must be >= 1")
    it = iter(rows)
    load = list(itertools.islice(it, memory_rows))
    peek = next(it, None) if len(load) == memory_rows else None
    if peek is None:  # the whole input is one memory load: no spill
        return [], _sort_load(load, spec, stats, dedup, plain)
    it = itertools.chain([peek], it)
    runs: list[RunFile] = []
    try:
        while load:
            path = os.path.join(tmpdir, f"{tag}-{len(runs)}.arrow")
            runs.append(write_run(
                path, _sort_load(load, spec, stats, dedup, plain), spec, stats))
            load = list(itertools.islice(it, memory_rows))
    except BaseException:
        for r in runs:
            r.delete()
        raise
    return runs, None


def _external_sort(rows: Iterable[tuple], spec: OvcSpec, memory_rows: int,
                   tmpdir: str, stats: CompareStats | None, dedup: bool,
                   tag: str, plain: bool) -> Iterator[tuple]:
    runs, in_mem = _generate_runs(rows, spec, memory_rows, tmpdir, stats,
                                  dedup, tag, plain)
    try:
        stream = (in_mem if in_mem is not None
                  else _merge(runs, spec, stats, dedup, plain))
        if plain:  # the plain sort's output carries no codes
            stream = ((key, payload) for key, _code, payload in stream)
        yield from stream
    finally:
        for r in runs:
            r.delete()


def generate_runs(
    rows: Iterable[tuple],
    spec: OvcSpec,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    dedup: bool = False,
    tag: str = "run",
) -> tuple[list[RunFile], Iterator[tuple] | None]:
    """Run generation. ``rows`` yields ``(key, payload)``.

    Returns ``(run_files, in_memory_stream)``: if the whole input fit in
    one memory load, ``run_files`` is empty and the sorted stream is
    returned directly (no spill); otherwise all runs are on disk and the
    second element is None. If run generation raises, the runs already
    written are removed.
    """
    return _generate_runs(rows, spec, memory_rows, tmpdir, stats, dedup,
                          tag, False)


def merge_runs(
    runs: Sequence[RunFile],
    spec: OvcSpec,
    stats: CompareStats | None = None,
    dedup: bool = False,
) -> Iterator[tuple]:
    """Multiway merge of spilled runs via a tree-of-losers queue,
    consuming the stored OVCs and producing output OVCs."""
    return _merge(list(runs), spec, stats, dedup, False)


def external_sort(
    rows: Iterable[tuple],
    spec: OvcSpec,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    dedup: bool = False,
    tag: str = "sort",
) -> Iterator[tuple]:
    """Full external sort: yields ``(key, code, payload)`` sorted with
    output OVCs. Spills each row at most once."""
    return _external_sort(rows, spec, memory_rows, tmpdir, stats, dedup,
                          tag, False)


def external_sort_plain(
    rows: Iterable[tuple],
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Baseline external sort without OVC: tree-of-losers queues with
    full key comparisons everywhere; same spill behaviour. ``rows``
    yields ``(key, payload)``; output is ``(key, payload)``.

    Spill format note: runs are written through the same Arrow run files
    with code 0 so the I/O path is identical to the OVC variant and only
    the comparison logic differs — exactly what Figure 1/3 isolate.
    """
    it = iter(rows)
    first = next(it, None)
    if first is None:
        return iter(())
    # The run files need the key arity; the plain sort has no other use
    # for a spec.
    spec = OvcSpec(len(first[0]))
    return _external_sort(itertools.chain([first], it), spec, memory_rows,
                          tmpdir, stats, False, "plain", True)
