"""Supplementary: order-preserving merging exchange with vs without OVC.

A many-to-one merging shuffle of 8 sorted streams (Section 4.9) is a
tree-of-losers merge; with OVC most comparisons collapse to one integer
compare and the output carries codes for the next operator.
"""
import numpy as np
import pytest

from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree, PlainLoserTree

N_STREAMS = 8
ROWS_PER_STREAM = 25_000
ARITY = 8


@pytest.fixture(scope="module")
def streams(rng):
    spec = OvcSpec(ARITY)
    out = []
    for _ in range(N_STREAMS):
        cols = [rng.choice([0, 1], ROWS_PER_STREAM, p=[0.9, 0.1])
                for _ in range(4)]
        cols += [rng.integers(0, 3, ROWS_PER_STREAM) for _ in range(4)]
        keys = np.column_stack(cols)
        keys = keys[np.lexsort(keys.T[::-1])]
        codes = encode_sorted_array(keys, spec)
        out.append([
            (tuple(int(x) for x in keys[i]), int(codes[i]), None)
            for i in range(ROWS_PER_STREAM)
        ])
    return out


@pytest.mark.parametrize("variant", ["ovc", "plain"])
def test_merging_exchange(benchmark, streams, variant):
    spec = OvcSpec(ARITY)

    def run():
        stats = CompareStats()
        if variant == "ovc":
            n = sum(1 for _ in OvcLoserTree(
                [iter(s) for s in streams], spec, stats))
        else:
            n = sum(1 for _ in PlainLoserTree(
                [iter(s) for s in streams], stats))
        return n, stats

    n, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n == N_STREAMS * ROWS_PER_STREAM
    benchmark.extra_info.update(col_cmps=stats.col_cmps,
                                code_decided=stats.code_decided)
