"""Tests for the Section 4 operators: filter, project, segment, dedup,
grouping, pivot, merge join, nested-loops join, exchange.

The central assertion everywhere: output keys are sorted and output
codes equal the brute-force predecessor encoding of the output stream —
i.e. the integer-only derivations of Section 4 are *correct*.
"""
import numpy as np
import pytest

from repro.core.operators.dedup import dedup_stream
from repro.core.operators.exchange import merge_streams, repartition, split_stream
from repro.core.operators.filterop import filter_codes_vectorized, filter_stream
from repro.core.operators.grouping import (
    group_stream,
    group_stream_full_compare,
    pivot_stream,
)
from repro.core.operators.merge_join import (
    JoinType,
    difference_distinct,
    intersect_distinct,
    merge_join,
)
from repro.core.operators.nested_loops import lookup_join
from repro.core.operators.project import project_stream
from repro.core.operators.segment import segment_boundaries, segmented_sort
from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats
from tests.helpers import (
    assert_valid_coded_stream,
    bruteforce_codes,
    coded,
    random_sorted_keys,
)

SPEC4 = OvcSpec(arity=4, base=100)
SPEC2 = OvcSpec(arity=2, base=100)


class TestFilter:
    def test_paper_table2(self):
        # Table 2: rows 1 and 7 of Table 1 survive; codes 405 and 309.
        rows = [(5, 7, 3, 9), (5, 7, 3, 12), (5, 8, 4, 6), (5, 9, 2, 7),
                (5, 9, 2, 7), (5, 9, 3, 4), (5, 9, 3, 7)]
        keep = {0, 6}
        stream = coded(rows, SPEC4, payloads=list(range(7)))
        out = list(filter_stream(stream, lambda k, p: p in keep, SPEC4))
        assert [(k, c) for k, c, _ in out] == [
            ((5, 7, 3, 9), 405), ((5, 9, 3, 7), 309)
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_filters_produce_valid_codes(self, seed):
        rng = np.random.default_rng(seed)
        keys = random_sorted_keys(rng, 300, 3, 5)
        spec = OvcSpec(3, 100)
        mask = rng.random(300) < 0.3
        stream = coded(keys, spec, payloads=list(range(300)))
        out = list(filter_stream(stream, lambda k, p: mask[p], spec))
        assert [k for k, _, _ in out] == [k for i, k in enumerate(keys) if mask[i]]
        assert_valid_coded_stream(out, spec)

    def test_empty_output(self):
        stream = coded([(1, 1), (2, 2)], SPEC2)
        assert list(filter_stream(stream, lambda k, p: False, SPEC2)) == []

    def test_keep_all_codes_unchanged(self):
        keys = [(1, 1), (1, 2), (3, 0)]
        stream = coded(keys, SPEC2)
        out = list(filter_stream(stream, lambda k, p: True, SPEC2))
        assert out == stream

    def test_stats_counts(self):
        stream = coded([(1, 1), (2, 2), (3, 3)], SPEC2)
        stats = CompareStats()
        list(filter_stream(stream, lambda k, p: k[0] != 2, SPEC2, stats))
        assert stats.rows_in == 3 and stats.rows_out == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_matches_stream(self, seed):
        rng = np.random.default_rng(100 + seed)
        keys = random_sorted_keys(rng, 200, 3, 4)
        spec = OvcSpec(3, 100)
        codes = np.array(bruteforce_codes(keys, spec))
        keep = rng.random(200) < 0.4
        stream = coded(keys, spec, payloads=list(range(200)))
        expect = [c for _, c, _ in filter_stream(
            stream, lambda k, p: keep[p], spec)]
        got = filter_codes_vectorized(codes, keep, spec).tolist()
        assert got == expect

    def test_vectorized_empty_cases(self):
        spec = OvcSpec(2, 10)
        assert filter_codes_vectorized(
            np.array([], dtype=np.int64), np.array([], dtype=bool), spec
        ).tolist() == []
        assert filter_codes_vectorized(
            np.array([5, 7]), np.array([False, False]), spec
        ).tolist() == []


class TestProject:
    def test_keep_all_columns_identity(self):
        keys = [(1, 2, 3, 4), (1, 2, 4, 0)]
        stream = coded(keys, SPEC4)
        assert list(project_stream(stream, SPEC4, 4)) == stream

    @pytest.mark.parametrize("keep", [1, 2, 3])
    def test_projection_produces_valid_codes(self, keep):
        rng = np.random.default_rng(keep)
        keys = random_sorted_keys(rng, 200, 4, 3)
        out = list(project_stream(coded(keys, SPEC4), SPEC4, keep))
        spec_out = OvcSpec(keep, 100)
        got_keys = [k for k, _, _ in out]
        assert got_keys == [k[:keep] for k in keys]
        assert [c for _, c, _ in out] == bruteforce_codes(got_keys, spec_out)

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            list(project_stream([], SPEC4, 0))
        with pytest.raises(ValueError):
            list(project_stream([], SPEC4, 5))


class TestDedup:
    def test_drops_duplicate_codes_only(self):
        keys = [(1, 1), (1, 1), (2, 0), (2, 0), (2, 0), (3, 5)]
        out = list(dedup_stream(coded(keys, SPEC2), SPEC2))
        assert [k for k, _, _ in out] == [(1, 1), (2, 0), (3, 5)]
        assert_valid_coded_stream(out, SPEC2)

    def test_counts(self):
        keys = [(1, 1), (1, 1), (2, 0), (2, 0), (2, 0), (3, 5)]
        out = list(dedup_stream(coded(keys, SPEC2, payloads=[1] * 6), SPEC2,
                                count_payloads=True))
        assert [p for _, _, p in out] == [2, 3, 1]
        out = list(dedup_stream(coded(keys, SPEC2, payloads=[2, 1, 1, 4, 1, 7]),
                                SPEC2, count_payloads=True))
        assert [p for _, _, p in out] == [3, 6, 7]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matches_set_semantics(self, seed):
        rng = np.random.default_rng(seed)
        keys = random_sorted_keys(rng, 300, 2, 4)
        out = list(dedup_stream(coded(keys, SPEC2), SPEC2))
        assert [k for k, _, _ in out] == sorted(set(keys))
        assert_valid_coded_stream(out, SPEC2)
        assert all(not SPEC2.is_duplicate(c) for _, c, _ in out)

    def test_empty(self):
        assert list(dedup_stream([], SPEC2)) == []


class TestGrouping:
    @staticmethod
    def _count_init(key, payload):
        return 1

    @staticmethod
    def _count_agg(acc, key, payload):
        return acc + 1

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_counts_match_bruteforce(self, g):
        rng = np.random.default_rng(g)
        keys = random_sorted_keys(rng, 400, 4, 3)
        out = list(group_stream(coded(keys, SPEC4), SPEC4, g,
                                self._count_agg, self._count_init))
        from collections import Counter

        expect = Counter(k[:g] for k in keys)
        assert {k: p for k, _, p in out} == dict(expect)
        got_keys = [k for k, _, _ in out]
        assert got_keys == sorted(expect)
        spec_out = OvcSpec(g, 100)
        assert [c for _, c, _ in out] == bruteforce_codes(got_keys, spec_out)

    def test_no_output_offset_reaches_group_cols(self):
        rng = np.random.default_rng(9)
        keys = random_sorted_keys(rng, 200, 4, 2)
        out = list(group_stream(coded(keys, SPEC4), SPEC4, 2,
                                self._count_agg, self._count_init))
        spec_out = OvcSpec(2, 100)
        assert all(spec_out.offset_of(c) < 2 for _, c, _ in out)

    def test_full_compare_baseline_agrees(self):
        rng = np.random.default_rng(10)
        keys = random_sorted_keys(rng, 500, 4, 3)
        ovc_out = list(group_stream(coded(keys, SPEC4), SPEC4, 2,
                                    self._count_agg, self._count_init))
        plain_out = list(group_stream_full_compare(
            [(k, None) for k in keys], 2, self._count_agg, self._count_init))
        assert [(k, p) for k, _, p in ovc_out] == plain_out

    def test_ovc_boundary_detection_needs_no_column_comparisons(self):
        rng = np.random.default_rng(11)
        keys = random_sorted_keys(rng, 500, 4, 3)
        s_ovc, s_plain = CompareStats(), CompareStats()
        list(group_stream(coded(keys, SPEC4), SPEC4, 2,
                          self._count_agg, self._count_init, s_ovc))
        list(group_stream_full_compare([(k, None) for k in keys], 2,
                                       self._count_agg, self._count_init,
                                       s_plain))
        assert s_ovc.col_cmps == 0
        assert s_plain.col_cmps >= 500 - 1  # at least one per row

    def test_sum_aggregation(self):
        keys = [(1, 1), (1, 2), (2, 0)]
        stream = coded(keys, SPEC2, payloads=[10, 20, 5])
        out = list(group_stream(stream, SPEC2, 1,
                                lambda a, k, p: a + p, lambda k, p: p))
        assert [(k, p) for k, _, p in out] == [((1,), 30), ((2,), 5)]

    def test_rejects_bad_group_cols(self):
        with pytest.raises(ValueError):
            list(group_stream([], SPEC4, 0, self._count_agg, self._count_init))

    def test_pivot(self):
        # (year, month) keyed sales -> (year, [12 monthly sums])
        spec = OvcSpec(2, 4096)
        keys = [(2020, 1), (2020, 1), (2020, 3), (2021, 2)]
        stream = coded(keys, spec, payloads=[5, 7, 2, 9])
        out = list(pivot_stream(stream, spec, 1, 1, 12))
        assert [k for k, _, _ in out] == [(2020,), (2021,)]
        assert out[0][2][1] == 12 and out[0][2][3] == 2
        assert out[1][2][2] == 9


class TestSegmentedSort:
    def test_boundaries_by_offset(self):
        spec = OvcSpec(3, 100)
        keys = [(1, 1, 9), (1, 2, 8), (2, 0, 7), (2, 0, 7)]
        out = list(segment_boundaries(coded(keys, spec), spec, 1))
        assert [b for b, *_ in out] == [True, False, True, False]

    @pytest.mark.parametrize("seed", range(6))
    def test_resort_a_b_to_a_c(self, seed):
        # stream sorted on (A, B); resort to (A, C) where C rides in the
        # payload. Output key = (A, C), arity 2.
        rng = np.random.default_rng(seed)
        spec_in = OvcSpec(2, 100)
        ab = random_sorted_keys(rng, 150, 2, 4)
        c_vals = [int(x) for x in rng.integers(0, 5, 150)]
        stream = coded(ab, spec_in, payloads=c_vals)
        out = list(segmented_sort(
            stream, spec_in, seg_cols=1,
            resort_key=lambda k, p: (p,), resort_arity=1))
        got_keys = [k for k, _, _ in out]
        expect = sorted((a, c) for (a, _b), c in zip(ab, c_vals))
        assert got_keys == expect
        spec_out = OvcSpec(2, 100)
        assert [c for _, c, _ in out] == bruteforce_codes(got_keys, spec_out)

    def test_multi_column_segments(self):
        rng = np.random.default_rng(77)
        spec_in = OvcSpec(3, 100)  # (a1, a2, b)
        keys = random_sorted_keys(rng, 120, 3, 3)
        c_vals = [int(x) for x in rng.integers(0, 4, 120)]
        out = list(segmented_sort(
            coded(keys, spec_in, payloads=c_vals), spec_in, seg_cols=2,
            resort_key=lambda k, p: (p,), resort_arity=1))
        got_keys = [k for k, _, _ in out]
        expect = sorted((k[0], k[1], c) for k, c in zip(keys, c_vals))
        assert got_keys == expect
        assert [c for _, c, _ in out] == bruteforce_codes(
            got_keys, OvcSpec(3, 100))

    def test_empty(self):
        assert list(segmented_sort([], OvcSpec(2, 10), 1,
                                   lambda k, p: (0,), 1)) == []


def _join_keys(rng, n, dom, arity=2):
    return random_sorted_keys(rng, n, arity, dom)


class TestMergeJoin:
    @pytest.mark.parametrize("seed", range(6))
    def test_inner_join_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        lk = _join_keys(rng, 120, 4)
        rk = _join_keys(rng, 80, 4)
        left = coded(lk, SPEC2, payloads=[f"l{i}" for i in range(len(lk))])
        right = coded(rk, SPEC2, payloads=[f"r{i}" for i in range(len(rk))])
        out = list(merge_join(iter(left), iter(right), SPEC2, JoinType.INNER))
        from collections import Counter

        expect = Counter()
        lc, rc = Counter(lk), Counter(rk)
        for k in lc:
            if k in rc:
                expect[k] = lc[k] * rc[k]
        assert Counter(k for k, _, _ in out) == expect
        assert_valid_coded_stream(out, SPEC2)

    @pytest.mark.parametrize("seed", range(6))
    def test_semi_and_anti_partition_left(self, seed):
        rng = np.random.default_rng(50 + seed)
        lk = _join_keys(rng, 100, 5)
        rk = _join_keys(rng, 60, 5)
        left = coded(lk, SPEC2, payloads=list(range(100)))
        right = coded(rk, SPEC2)
        semi = list(merge_join(iter(left), iter(right), SPEC2, JoinType.LEFT_SEMI))
        anti = list(merge_join(iter(left), iter(right), SPEC2, JoinType.LEFT_ANTI))
        rset = set(rk)
        assert [k for k, _, _ in semi] == [k for k in lk if k in rset]
        assert [k for k, _, _ in anti] == [k for k in lk if k not in rset]
        assert_valid_coded_stream(semi, SPEC2)
        assert_valid_coded_stream(anti, SPEC2)
        # semi + anti payloads partition the left input
        assert sorted(p for _, _, p in semi + anti) == list(range(100))

    @pytest.mark.parametrize("seed", range(4))
    def test_left_outer(self, seed):
        rng = np.random.default_rng(80 + seed)
        lk = _join_keys(rng, 90, 4)
        rk = _join_keys(rng, 50, 4)
        left = coded(lk, SPEC2, payloads=list(range(90)))
        right = coded(rk, SPEC2, payloads=list(range(50)))
        out = list(merge_join(iter(left), iter(right), SPEC2, JoinType.LEFT_OUTER))
        from collections import Counter

        rc = Counter(rk)
        expect = Counter()
        for k in lk:
            expect[k] += max(rc.get(k, 0), 1)
        assert Counter(k for k, _, _ in out) == expect
        assert_valid_coded_stream(out, SPEC2)
        for k, _, (pl, pr) in out:
            assert (pr is None) == (k not in rc)

    def test_intersect_and_difference_distinct(self):
        spec = OvcSpec(1, 100)
        l = coded([(1,), (2,), (3,), (5,)], spec)
        r = coded([(2,), (3,), (4,)], spec)
        inter = list(intersect_distinct(iter(l), iter(r), spec))
        diff = list(difference_distinct(iter(l), iter(r), spec))
        assert [k for k, _, _ in inter] == [(2,), (3,)]
        assert [k for k, _, _ in diff] == [(1,), (5,)]
        assert_valid_coded_stream(inter, spec)
        assert_valid_coded_stream(diff, spec)

    def test_empty_inputs(self):
        assert list(merge_join(iter([]), iter([]), SPEC2)) == []
        l = coded([(1, 1)], SPEC2)
        assert list(merge_join(iter(l), iter([]), SPEC2)) == []
        assert [k for k, _, _ in merge_join(
            iter(l), iter([]), SPEC2, JoinType.LEFT_OUTER)] == [(1, 1)]

    def test_no_extra_column_comparisons_for_output_codes(self):
        # the merge's column comparisons are those of a 2-way merge;
        # output-code derivation adds none. Bound: N_total * K.
        rng = np.random.default_rng(5)
        lk = _join_keys(rng, 200, 3)
        rk = _join_keys(rng, 200, 3)
        stats = CompareStats()
        list(merge_join(iter(coded(lk, SPEC2)), iter(coded(rk, SPEC2)),
                        SPEC2, JoinType.INNER, stats))
        assert stats.col_cmps <= 400 * 2


class TestLookupJoin:
    def _make_index(self, rng, keys, max_matches=3):
        """inner index: key -> sorted coded rows (1-col inner key)."""
        spec_i = OvcSpec(1, 100)
        idx = {}
        for k in set(keys):
            n = int(rng.integers(0, max_matches + 1))
            ik = sorted(tuple([int(x)]) for x in rng.integers(0, 9, n))
            idx[k] = coded(ik, spec_i, payloads=[f"i{j}" for j in range(n)])
        return idx

    @pytest.mark.parametrize("seed", range(5))
    def test_inner_lookup_join(self, seed):
        rng = np.random.default_rng(seed)
        ok = _join_keys(rng, 80, 5)
        idx = self._make_index(rng, ok)
        outer = coded(ok, SPEC2, payloads=list(range(80)))
        out = list(lookup_join(iter(outer), lambda k, p: idx.get(k, []),
                               SPEC2, 1, "inner"))
        spec_out = OvcSpec(3, 100)
        expect = sorted(
            k + ik for k in ok for ik, _, _ in idx.get(k, [])
        )
        assert sorted(k for k, _, _ in out) == expect
        assert_valid_coded_stream(out, spec_out)

    @pytest.mark.parametrize("seed", range(5))
    def test_left_outer_lookup_join(self, seed):
        rng = np.random.default_rng(30 + seed)
        ok = _join_keys(rng, 60, 4)
        idx = self._make_index(rng, ok)
        outer = coded(ok, SPEC2, payloads=list(range(60)))
        out = list(lookup_join(iter(outer), lambda k, p: idx.get(k, []),
                               SPEC2, 1, "left_outer"))
        spec_out = OvcSpec(3, 100)
        assert_valid_coded_stream(out, spec_out)
        n_expect = sum(max(len(idx.get(k, [])), 1) for k in ok)
        assert len(out) == n_expect

    @pytest.mark.parametrize("jt", ["left_semi", "left_anti"])
    def test_semi_anti_lookup(self, jt):
        rng = np.random.default_rng(99)
        ok = _join_keys(rng, 70, 4)
        idx = self._make_index(rng, ok)
        outer = coded(ok, SPEC2, payloads=list(range(70)))
        out = list(lookup_join(iter(outer), lambda k, p: idx.get(k, []),
                               SPEC2, 1, jt))
        want_match = jt == "left_semi"
        expect = [k for k in ok if bool(idx.get(k, [])) == want_match]
        assert [k for k, _, _ in out] == expect
        assert_valid_coded_stream(out, SPEC2)

    def test_rejects_unknown_join_type(self):
        with pytest.raises(ValueError):
            list(lookup_join(iter([]), lambda k, p: [], SPEC2, 1, "full"))


class TestExchange:
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 5])
    def test_split_partitions_are_valid_streams(self, n_parts):
        rng = np.random.default_rng(n_parts)
        keys = random_sorted_keys(rng, 200, 3, 4)
        spec = OvcSpec(3, 100)
        parts = split_stream(coded(keys, spec), lambda k, p: hash(k) % n_parts,
                             n_parts, spec)
        assert sum(len(p) for p in parts) == 200
        for p in parts:
            assert_valid_coded_stream(p, spec)

    def test_merge_of_split_roundtrips(self):
        rng = np.random.default_rng(42)
        keys = random_sorted_keys(rng, 300, 3, 4)
        spec = OvcSpec(3, 100)
        stream = coded(keys, spec)
        parts = split_stream(stream, lambda k, p: k[0] % 3, 3, spec)
        merged = list(merge_streams(parts, spec))
        assert merged == stream  # same keys, same codes, same order

    @pytest.mark.parametrize("n_in,n_out", [(1, 4), (4, 1), (3, 5)])
    def test_repartition_preserves_order_and_codes(self, n_in, n_out):
        rng = np.random.default_rng(n_in * 10 + n_out)
        spec = OvcSpec(2, 100)
        streams = []
        all_keys = []
        for _ in range(n_in):
            ks = random_sorted_keys(rng, 100, 2, 6)
            all_keys += ks
            streams.append(coded(ks, spec))
        outs = repartition(streams, lambda k, p: k[0] % n_out, n_out, spec)
        got = []
        for q, s in enumerate(outs):
            rows = list(s)
            for k, _, _ in rows:
                assert k[0] % n_out == q
            assert_valid_coded_stream(rows, spec)
            got += [k for k, _, _ in rows]
        assert sorted(got) == sorted(all_keys)

    def test_split_rejects_bad_partition(self):
        spec = OvcSpec(1, 10)
        with pytest.raises(ValueError):
            split_stream(coded([(1,)], spec), lambda k, p: 7, 2, spec)
