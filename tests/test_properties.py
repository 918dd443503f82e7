"""Hypothesis property tests for the core invariants.

These are the load-bearing guarantees of the paper:
- the theorem ovc(A,C) = max(ovc(A,B), ovc(B,C)) for arbitrary triples;
- tree-of-losers sort output == sorted(input) with codes equal to the
  brute-force predecessor encoding;
- column-value comparisons bounded by N x K;
- every Section 4 operator's output codes equal the brute-force
  re-encoding of its output stream.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.external_sort import sort_in_memory
from repro.core.operators.dedup import dedup_stream
from repro.core.operators.filterop import filter_stream
from repro.core.operators.grouping import group_stream
from repro.core.operators.merge_join import (
    JoinType,
    merge_join,
    merge_join_arrays,
)
from repro.core.operators.project import project_stream
from repro.core.ovc import OvcSpec, compare_update
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree
from tests.helpers import assert_valid_coded_stream, bruteforce_codes, coded

SPEC = OvcSpec(arity=3, base=64)

keys_st = st.lists(
    st.tuples(*[st.integers(0, 5)] * 3), min_size=0, max_size=60
)
nonempty_keys_st = st.lists(
    st.tuples(*[st.integers(0, 5)] * 3), min_size=1, max_size=60
)


@given(st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3))
def test_theorem_arbitrary_triples(a, b, c):
    a, b, c = sorted([a, b, c])
    spec = OvcSpec(3, 16)
    assert spec.encode_rel(a, c) == spec.combine(
        spec.encode_rel(a, b), spec.encode_rel(b, c)
    )


@given(st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3))
def test_compare_update_consistent_with_order(base, a, b):
    base, a, b = sorted([base, a, b])
    spec = OvcSpec(3, 16)
    ca, cb = spec.encode_rel(base, a), spec.encode_rel(base, b)
    a_wins, loser_code = compare_update(spec, a, ca, b, cb)
    assert a_wins == (a <= b)
    w, l = (a, b) if a_wins else (b, a)
    assert loser_code == spec.encode_rel(w, l)


@settings(max_examples=60)
@given(nonempty_keys_st)
def test_inmemory_sort_sound_and_coded(keys):
    out = list(sort_in_memory(keys, SPEC))
    got = [k for k, _, _ in out]
    assert got == sorted(keys)
    assert [c for _, c, _ in out] == bruteforce_codes(got, SPEC)


@settings(max_examples=60)
@given(nonempty_keys_st)
def test_column_comparison_bound(keys):
    stats = CompareStats()
    list(sort_in_memory(keys, SPEC, stats))
    assert stats.col_cmps <= len(keys) * SPEC.arity


@settings(max_examples=40)
@given(st.lists(keys_st, min_size=1, max_size=6))
def test_multiway_merge_sound(streams):
    streams = [coded(sorted(s), SPEC) for s in streams]
    out = list(OvcLoserTree(streams, SPEC))
    assert_valid_coded_stream(out, SPEC)
    assert [k for k, _, _ in out] == sorted(
        k for s in streams for k, _, _ in s
    )


@settings(max_examples=60)
@given(nonempty_keys_st, st.sets(st.integers(0, 59)))
def test_filter_codes(keys, keep_idx):
    keys = sorted(keys)
    stream = coded(keys, SPEC, payloads=list(range(len(keys))))
    out = list(filter_stream(stream, lambda k, p: p in keep_idx, SPEC))
    assert_valid_coded_stream(out, SPEC)


@settings(max_examples=60)
@given(nonempty_keys_st, st.integers(1, 3))
def test_project_codes(keys, keep):
    keys = sorted(keys)
    out = list(project_stream(coded(keys, SPEC), SPEC, keep))
    got = [k for k, _, _ in out]
    assert [c for _, c, _ in out] == bruteforce_codes(
        got, OvcSpec(keep, SPEC.base)
    )


@settings(max_examples=60)
@given(nonempty_keys_st)
def test_dedup_codes(keys):
    keys = sorted(keys)
    out = list(dedup_stream(coded(keys, SPEC), SPEC))
    assert [k for k, _, _ in out] == sorted(set(keys))
    assert_valid_coded_stream(out, SPEC)


@settings(max_examples=60)
@given(nonempty_keys_st, st.integers(1, 3))
def test_grouping_codes(keys, g):
    keys = sorted(keys)
    out = list(group_stream(coded(keys, SPEC), SPEC, g,
                            lambda a, k, p: a + 1, lambda k, p: 1))
    got = [k for k, _, _ in out]
    assert got == sorted({k[:g] for k in keys})
    assert [c for _, c, _ in out] == bruteforce_codes(
        got, OvcSpec(g, SPEC.base)
    )


@settings(max_examples=40)
@given(keys_st, keys_st,
       st.sampled_from(list(JoinType)))
def test_merge_join_codes(lk, rk, jt):
    lk, rk = sorted(lk), sorted(rk)
    out = list(merge_join(coded(lk, SPEC), coded(rk, SPEC), SPEC, jt))
    assert_valid_coded_stream(out, SPEC)


def _tagged_sides_st(arity):
    side = st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=12)
    return st.tuples(st.just(arity), side, side)


@settings(max_examples=80)
@given(st.integers(1, 3).flatmap(_tagged_sides_st))
def test_merge_join_arrays_equals_rowwise(case):
    """The vectorized kernel over the merged, tagged block gives the
    row-wise merge join's keys, row pairs and codes for every join type
    (duplicates on both sides, one-sided keys, empty sides)."""
    arity, lk, rk = case
    spec = OvcSpec(arity, 8)
    rows = sorted([(k, 0) for k in lk] + [(k, 1) for k in rk])
    keys = np.array([k for k, _ in rows], dtype=np.int64).reshape(-1, arity)
    tags = np.array([t for _, t in rows], dtype=np.int64)
    sides = []
    for tag in (0, 1):
        pos = [i for i, (_, t) in enumerate(rows) if t == tag]
        sides.append(coded([rows[i][0] for i in pos], spec, pos))
    for jt in JoinType:
        want = list(merge_join(*sides, spec, jt))
        lidx, ridx, codes = merge_join_arrays(keys, tags, spec, jt)
        if ridx is None:
            payloads = lidx.tolist()
        else:
            payloads = [(li, None if ri < 0 else ri)
                        for li, ri in zip(lidx.tolist(), ridx.tolist())]
        got = list(zip(map(tuple, keys[lidx].tolist()), codes.tolist(),
                       payloads))
        assert got == want, jt
