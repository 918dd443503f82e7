"""Section 4.4: in-stream duplicate removal.

In a sorted OVC-coded stream a duplicate is exactly a row whose offset
equals the arity (duplicate code); suppressing those rows and keeping
the survivors' codes unchanged is the whole operator. Since a dropped
duplicate's code is the combine-neutral element, the filter rule of
Section 4.1 degenerates to "keep the code as is".
"""
from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats


def dedup_stream(
    stream: Iterable,
    spec: OvcSpec,
    stats: CompareStats | None = None,
    count_payloads: bool = False,
) -> Iterator[tuple]:
    """Drop rows with the duplicate code. With ``count_payloads`` the
    payloads are counts and the surviving row carries its duplicate
    group's sum (the group's size when every payload is 1)."""
    cur = None
    for key, code, payload in stream:
        if stats is not None:
            stats.rows_in += 1
        if spec.is_duplicate(code) and cur is not None:
            if count_payloads:
                cur = (cur[0], cur[1], cur[2] + payload)
            continue
        if cur is not None:
            if stats is not None:
                stats.rows_out += 1
            yield cur
        cur = (key, code, payload)
    if cur is not None:
        if stats is not None:
            stats.rows_out += 1
        yield cur
