"""Section 4.7: merge join (inner, semi, anti, left outer) and set
operations (intersect, difference) over sorted, OVC-coded streams.

Both inputs are sorted on the join key (the streams' key IS the join
key; non-key columns ride in the payload). The merge logic is a 2-way
tree-of-losers merge of the two inputs, which (a) needs no column
comparisons beyond those of a merge step in an external sort, and
(b) directly exposes key-equality through the duplicate code: in the
merged tagged stream, rows of one equal-key group are exactly a row
followed by rows with the duplicate code.

Output OVC rules (all integer arithmetic):
- left rows that produce output keep their code, max-combined with the
  codes of all merged rows consumed since the previous output (the
  filter rule generalized to semi joins — "the minimum offset among an
  output row and the recent rows that failed the predicate");
- secondary outputs of a multi-match (duplicate join keys) carry the
  duplicate code.

``merge_join`` is the row-wise reference that counts comparisons;
``merge_join_arrays`` is the vectorized kernel over an already merged,
tagged block (the Spark executors' input), with identical output.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from repro.core.operators.filterop import filter_codes_vectorized
from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree


class JoinType(Enum):
    INNER = "inner"
    LEFT_SEMI = "left_semi"
    LEFT_ANTI = "left_anti"
    LEFT_OUTER = "left_outer"


_L, _R = 0, 1


def _tagged(stream: Iterable, tag: int) -> Iterator[tuple]:
    for key, code, payload in stream:
        yield key, code, (tag, payload)


def _equal_key_groups(
    left: Iterable, right: Iterable, spec: OvcSpec,
    stats: CompareStats | None,
) -> Iterator[tuple]:
    """Merge the two inputs and yield one tuple per distinct key:
    ``(key, group_code, left_payloads, right_payloads)`` where
    ``group_code`` is the first merged row's code of the group."""
    merged = OvcLoserTree(
        [_tagged(left, _L), _tagged(right, _R)], spec, stats
    )
    key = code = None
    lp: list = []
    rp: list = []
    for k, c, (tag, payload) in merged:
        if key is not None and spec.is_duplicate(c):
            (lp if tag == _L else rp).append(payload)
            continue
        if key is not None:
            yield key, code, lp, rp
        key, code, lp, rp = k, c, [], []
        (lp if tag == _L else rp).append(payload)
    if key is not None:
        yield key, code, lp, rp


def merge_join(
    left: Iterable,
    right: Iterable,
    spec: OvcSpec,
    join_type: JoinType = JoinType.INNER,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Join two sorted coded streams on their (full) key.

    Yields ``(key, code, payload)``; for INNER/LEFT_OUTER the payload is
    ``(left_payload, right_payload)`` (right None for outer non-match),
    for semi/anti joins it is the left payload. Output codes follow the
    Section 4.7 rules; codes are relative to predecessors in the output.
    """
    pending: int | None = None

    def out_code(first_code: int) -> int:
        nonlocal pending
        c = first_code if pending is None else spec.combine(first_code, pending)
        pending = None
        return c

    def fold(code: int) -> None:
        nonlocal pending
        pending = code if pending is None else spec.combine(code, pending)

    for key, code, lp, rp in _equal_key_groups(left, right, spec, stats):
        matched = bool(lp) and bool(rp)
        if join_type is JoinType.LEFT_SEMI:
            emit = list(lp) if matched else []
        elif join_type is JoinType.LEFT_ANTI:
            emit = list(lp) if not matched else []
        elif join_type is JoinType.INNER:
            emit = [(pl, pr) for pr in rp for pl in lp] if matched else []
        else:  # LEFT_OUTER
            if matched:
                emit = [(pl, pr) for pr in rp for pl in lp]
            else:
                emit = [(pl, None) for pl in lp]
        if not emit:
            fold(code)
            continue
        if stats is not None:
            stats.rows_out += len(emit)
        yield key, out_code(code), emit[0]
        for payload in emit[1:]:
            yield key, spec.duplicate_code, payload


def merge_join_arrays(
    keys: np.ndarray,
    tags: np.ndarray,
    spec: OvcSpec,
    join_type: JoinType = JoinType.INNER,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Vectorized ``merge_join`` over one merged block of both inputs.

    ``keys`` is an (n, arity) array sorted on (key, tag) and ``tags``
    marks each row's side (0 left, 1 right), so within an equal-key
    group the left rows come first. One encoding pass over the merged
    block finds the groups: a group starts at every row whose code is
    not the duplicate code (Section 4.7). Returns ``(left_idx,
    right_idx, codes)``: row positions into the block for each output
    row, in ``merge_join``'s order, and the output codes. ``right_idx``
    is None for semi/anti joins and -1 where a left-outer row has no
    match.
    """
    tags = np.asarray(tags)
    codes = encode_sorted_array(keys, spec)
    is_start = codes != spec.duplicate_code
    if len(tags) > 1 and (tags[1:] < tags[:-1])[~is_start[1:]].any():
        raise ValueError("right rows precede left rows of an equal key")
    starts = np.flatnonzero(is_start)
    gid = np.cumsum(is_start) - 1
    lcount = np.bincount(gid, weights=tags == 0,
                         minlength=len(starts)).astype(np.int64)
    rcount = np.diff(np.append(starts, len(codes))) - lcount
    matched = (lcount > 0) & (rcount > 0)
    if join_type is JoinType.LEFT_SEMI:
        counts = np.where(matched, lcount, 0)
    elif join_type is JoinType.LEFT_ANTI:
        counts = np.where(matched, 0, lcount)
    elif join_type is JoinType.INNER:
        counts = np.where(matched, lcount * rcount, 0)
    else:  # LEFT_OUTER
        counts = np.where(matched, lcount * rcount, lcount)
    # Output row t of group g pairs left row t % l with right row t // l
    # (right-major, like merge_join's nested loop).
    out_starts = np.cumsum(counts) - counts
    g = np.repeat(np.arange(len(starts)), counts)
    t = np.arange(len(g)) - out_starts[g]
    lg = lcount[g]
    left_idx = starts[g] + t % lg
    right_idx = None
    if join_type in (JoinType.INNER, JoinType.LEFT_OUTER):
        right_idx = np.where(matched[g], starts[g] + lg + t // lg, -1)
    out_codes = np.full(len(g), spec.duplicate_code, dtype=np.int64)
    emit = counts > 0
    out_codes[out_starts[emit]] = filter_codes_vectorized(
        codes[starts], emit, spec)
    return left_idx, right_idx, out_codes


def intersect_distinct(
    left: Iterable,
    right: Iterable,
    spec: OvcSpec,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """SQL INTERSECT over duplicate-free sorted inputs = left semi join
    (Section 4.7: "intersection proceeds mostly like an inner join")."""
    return merge_join(left, right, spec, JoinType.LEFT_SEMI, stats)


def difference_distinct(
    left: Iterable,
    right: Iterable,
    spec: OvcSpec,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """SQL EXCEPT over duplicate-free sorted inputs = left anti join."""
    return merge_join(left, right, spec, JoinType.LEFT_ANTI, stats)
