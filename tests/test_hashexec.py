"""Tests for the hash-based baselines (spill, hash agg, hash join)."""
import os
from collections import Counter

import numpy as np
import pytest

from repro.core.stats import CompareStats
from repro.hashexec.hash_agg import hash_aggregate, hash_distinct
from repro.hashexec.hash_join import hash_join
from repro.hashexec.spill import partition_to_disk


def rand_rows(rng, n, dom, arity=2):
    return [
        (tuple(int(x) for x in rng.integers(0, dom, arity)), i)
        for i in range(n)
    ]


class TestSpill:
    def test_partition_roundtrip_and_accounting(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rand_rows(rng, 123, 10)
        stats = CompareStats()
        parts = partition_to_disk(iter(rows), 2, 4, str(tmp_path), "t", stats)
        assert stats.rows_spilled == 123
        assert stats.hash_ops == 123 and stats.col_accesses == 246
        got = [r for p in parts for r in p]
        assert sorted(got) == sorted(rows)
        # each partition holds only keys hashing to it
        for q, p in enumerate(parts):
            for key, _ in p:
                assert hash(key) % 4 == q

    def test_input_error_removes_partitions(self, tmp_path):
        def rows():
            yield from rand_rows(np.random.default_rng(0), 100, 10)
            raise RuntimeError("input failed")

        with pytest.raises(RuntimeError):
            partition_to_disk(rows(), 2, 4, str(tmp_path), "t")
        assert os.listdir(tmp_path) == []

    def test_none_payload_roundtrip(self, tmp_path):
        parts = partition_to_disk(iter([((1, 2), None)]), 2, 2,
                                  str(tmp_path), "t")
        assert [r for p in parts for r in p] == [((1, 2), None)]


class TestHashAggregate:
    def test_in_memory_no_spill(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rand_rows(rng, 100, 5)
        stats = CompareStats()
        out = dict(hash_distinct(iter(rows), 2, 1000, str(tmp_path), stats))
        assert out == dict(Counter(k for k, _ in rows))
        assert stats.rows_spilled == 0

    @pytest.mark.parametrize("mem", [10, 50, 99])
    def test_external_spills_every_row_once(self, tmp_path, mem):
        rng = np.random.default_rng(2)
        rows = rand_rows(rng, 500, 6)
        stats = CompareStats()
        out = dict(hash_distinct(iter(rows), 2, mem, str(tmp_path), stats,
                                 n_input_hint=500))
        assert out == dict(Counter(k for k, _ in rows))
        assert stats.rows_spilled == 500  # the Figure 3 invariant

    def test_overflow_without_hint(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rand_rows(rng, 300, 4)
        stats = CompareStats()
        out = dict(hash_distinct(iter(rows), 2, 50, str(tmp_path), stats))
        assert out == dict(Counter(k for k, _ in rows))
        assert stats.rows_spilled == 300

    def test_sum_aggregate(self, tmp_path):
        rows = [((1,), 10), ((2,), 5), ((1,), 7)]
        out = dict(hash_aggregate(iter(rows), 1, 100, str(tmp_path),
                                  agg=lambda a, k, p: a + p,
                                  init=lambda k, p: p))
        assert out == {(1,): 17, (2,): 5}

    def test_rejects_zero_memory(self, tmp_path):
        with pytest.raises(ValueError):
            list(hash_aggregate(iter([]), 1, 0, str(tmp_path)))


class TestHashJoin:
    @pytest.mark.parametrize("mem", [1000, 40])
    def test_matches_bruteforce(self, tmp_path, mem):
        rng = np.random.default_rng(4)
        build = rand_rows(rng, 150, 8)
        probe = rand_rows(rng, 200, 8)
        out = list(hash_join(iter(build), iter(probe), 2, mem, str(tmp_path),
                             n_build_hint=150))
        expect = Counter()
        bc, pc = Counter(k for k, _ in build), Counter(k for k, _ in probe)
        for k in bc:
            if k in pc:
                expect[k] = bc[k] * pc[k]
        assert Counter(k for k, _ in out) == expect

    def test_external_spills_both_inputs_once(self, tmp_path):
        rng = np.random.default_rng(5)
        build = rand_rows(rng, 300, 8)
        probe = rand_rows(rng, 400, 8)
        stats = CompareStats()
        list(hash_join(iter(build), iter(probe), 2, 50, str(tmp_path), stats,
                       n_build_hint=300))
        assert stats.rows_spilled == 700

    def test_in_memory_no_spill(self, tmp_path):
        rng = np.random.default_rng(6)
        build = rand_rows(rng, 50, 4)
        probe = rand_rows(rng, 60, 4)
        stats = CompareStats()
        list(hash_join(iter(build), iter(probe), 2, 100, str(tmp_path), stats,
                       n_build_hint=50))
        assert stats.rows_spilled == 0

    def test_hash_plans_pay_nk_column_accesses(self, tmp_path):
        # Section 7: hash-based execution accesses N x K column values
        # for the hash function alone.
        rng = np.random.default_rng(7)
        build = rand_rows(rng, 100, 4, arity=3)
        probe = rand_rows(rng, 100, 4, arity=3)
        stats = CompareStats()
        list(hash_join(iter(build), iter(probe), 3, 1000, str(tmp_path),
                       stats, n_build_hint=100))
        assert stats.col_accesses == 200 * 3


class TestSpillFilesRemoved:
    """Closing a spilling hash operator early removes its partitions."""

    def test_hash_distinct_closed_after_first_row(self, tmp_path):
        rows = rand_rows(np.random.default_rng(5), 5000, 1000)
        out = hash_distinct(iter(rows), 2, 100, str(tmp_path))
        next(out)
        assert os.listdir(tmp_path)
        out.close()
        assert os.listdir(tmp_path) == []

    def test_hash_join_closed_after_first_row(self, tmp_path):
        rng = np.random.default_rng(6)
        build, probe = rand_rows(rng, 500, 20), rand_rows(rng, 500, 20)
        out = hash_join(iter(build), iter(probe), 2, 100, str(tmp_path))
        next(out)
        assert os.listdir(tmp_path)
        out.close()
        assert os.listdir(tmp_path) == []
