"""Tests for run files, run generation, and external merge sort."""
import os

import numpy as np
import pytest

from repro.core.external_sort import (
    external_sort,
    external_sort_plain,
    generate_runs,
    merge_runs,
    sort_in_memory,
)
from repro.core.ovc import OvcSpec
from repro.core.runs import RunFile, write_run
from repro.core.stats import CompareStats

SPEC = OvcSpec(arity=3, base=100)


def random_rows(rng, n, arity=3, dom=6):
    return [
        (tuple(int(x) for x in rng.integers(0, dom, arity)), i)
        for i in range(n)
    ]


def bruteforce_codes(keys, spec):
    return [
        spec.encode_rel(None if i == 0 else keys[i - 1], keys[i])
        for i in range(len(keys))
    ]


class TestRunFiles:
    def test_roundtrip(self, tmp_path):
        rows = [((1, 2, 3), SPEC.prime((1, 2, 3)), 7),
                ((1, 2, 5), SPEC.code(2, 5), None)]
        rf = write_run(str(tmp_path / "r.arrow"), rows, SPEC)
        assert rf.rows == 2
        assert list(rf) == rows

    def test_reopen_counts_rows(self, tmp_path):
        rows = [((i, 0, 0), 0 if i else SPEC.prime((0, 0, 0)), None)
                for i in range(10)]
        path = str(tmp_path / "r.arrow")
        write_run(path, rows, SPEC)
        assert RunFile(path, SPEC).rows == 10

    def test_spill_accounting(self, tmp_path):
        stats = CompareStats()
        rows = [((i, 0, 0), SPEC.prime((i, 0, 0)), None) for i in range(5)]
        write_run(str(tmp_path / "r.arrow"), rows, SPEC, stats)
        assert stats.rows_spilled == 5

    def test_delete(self, tmp_path):
        path = str(tmp_path / "r.arrow")
        rf = write_run(path, [((1, 1, 1), SPEC.prime((1, 1, 1)), None)], SPEC)
        rf.delete()
        assert not os.path.exists(path)

    def test_failed_write_removes_file(self, tmp_path):
        def rows():
            yield ((1, 1, 1), SPEC.prime((1, 1, 1)), None)
            raise RuntimeError("input failed")

        with pytest.raises(RuntimeError):
            write_run(str(tmp_path / "r.arrow"), rows(), SPEC)
        assert os.listdir(tmp_path) == []


class TestSortInMemory:
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 257])
    def test_sorted_with_correct_codes(self, n):
        rng = np.random.default_rng(n)
        rows = random_rows(rng, n)
        out = list(sort_in_memory([r[0] for r in rows], SPEC,
                                  payloads=[r[1] for r in rows]))
        keys = [k for k, _, _ in out]
        assert keys == sorted(r[0] for r in rows)
        assert [c for _, c, _ in out] == bruteforce_codes(keys, SPEC)

    def test_payload_permutation_is_consistent(self):
        rng = np.random.default_rng(9)
        rows = random_rows(rng, 100)
        out = list(sort_in_memory([r[0] for r in rows], SPEC,
                                  payloads=[r[1] for r in rows]))
        for key, _, payload in out:
            assert rows[payload][0] == key

    def test_column_comparisons_bounded(self):
        rng = np.random.default_rng(1)
        rows = random_rows(rng, 500, arity=4, dom=3)
        stats = CompareStats()
        list(sort_in_memory([r[0] for r in rows], OvcSpec(4, 100), stats))
        assert stats.col_cmps <= 500 * 4


class TestGenerateRuns:
    def test_input_fits_in_memory_no_spill(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = random_rows(rng, 50)
        stats = CompareStats()
        runs, in_mem = generate_runs(iter(rows), SPEC, 100, str(tmp_path), stats)
        assert runs == [] and in_mem is not None
        assert stats.rows_spilled == 0
        assert [k for k, _, _ in in_mem] == sorted(r[0] for r in rows)

    def test_exactly_one_full_load_no_spill(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = random_rows(rng, 100)
        stats = CompareStats()
        runs, in_mem = generate_runs(iter(rows), SPEC, 100, str(tmp_path), stats)
        assert runs == [] and in_mem is not None
        assert stats.rows_spilled == 0
        assert len(list(in_mem)) == 100

    def test_large_input_spills_each_row_once(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = random_rows(rng, 250)
        stats = CompareStats()
        runs, in_mem = generate_runs(iter(rows), SPEC, 100, str(tmp_path), stats)
        assert in_mem is None
        assert len(runs) == 3
        assert stats.rows_spilled == 250  # the Figure 3 invariant
        assert sum(r.rows for r in runs) == 250

    def test_runs_are_sorted_with_valid_codes(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = random_rows(rng, 230)
        runs, _ = generate_runs(iter(rows), SPEC, 64, str(tmp_path))
        for r in runs:
            rows_r = list(r)
            keys = [k for k, _, _ in rows_r]
            assert keys == sorted(keys)
            assert [c for _, c, _ in rows_r] == bruteforce_codes(keys, SPEC)

    def test_rejects_zero_memory(self, tmp_path):
        with pytest.raises(ValueError):
            generate_runs(iter([]), SPEC, 0, str(tmp_path))


class TestExternalSort:
    @pytest.mark.parametrize("n,mem", [(0, 10), (5, 10), (100, 10),
                                       (1000, 64), (777, 100)])
    def test_matches_sorted_with_codes(self, tmp_path, n, mem):
        rng = np.random.default_rng(n + mem)
        rows = random_rows(rng, n)
        out = list(external_sort(iter(rows), SPEC, mem, str(tmp_path)))
        keys = [k for k, _, _ in out]
        assert keys == sorted(r[0] for r in rows)
        assert [c for _, c, _ in out] == bruteforce_codes(keys, SPEC)

    def test_dedup_collapses_duplicates_with_counts(self, tmp_path):
        rows = [((1, 1, 1), None)] * 3 + [((0, 0, 0), None)] * 2
        out = list(external_sort(iter(rows), SPEC, 2, str(tmp_path), dedup=True))
        assert [(k, p) for k, _, p in out] == [((0, 0, 0), 2), ((1, 1, 1), 3)]

    def test_dedup_output_has_no_duplicate_codes(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = random_rows(rng, 400, arity=2, dom=3)
        spec = OvcSpec(2, 100)
        out = list(external_sort(iter(rows), spec, 64, str(tmp_path), dedup=True))
        assert all(not spec.is_duplicate(c) for _, c, _ in out)
        keys = [k for k, _, _ in out]
        assert keys == sorted(set(r[0] for r in rows))
        assert sum(p for _, _, p in out) == 400

    def test_dedup_reduces_spill_volume(self, tmp_path):
        rows = [((i % 4, 0, 0), None) for i in range(300)]
        s_dedup, s_plain = CompareStats(), CompareStats()
        list(external_sort(iter(rows), SPEC, 50, str(tmp_path / "a"), s_dedup,
                           dedup=True))
        list(external_sort(iter(rows), SPEC, 50, str(tmp_path / "b"), s_plain))
        assert s_dedup.rows_spilled < s_plain.rows_spilled

    def test_merge_runs_direct(self, tmp_path):
        rng = np.random.default_rng(11)
        all_rows = []
        runs = []
        for i in range(4):
            keys = sorted(tuple(int(x) for x in rng.integers(0, 5, 3))
                          for _ in range(30))
            codes = bruteforce_codes(keys, SPEC)
            runs.append(write_run(str(tmp_path / f"r{i}.arrow"),
                                  [(k, c, None) for k, c in zip(keys, codes)],
                                  SPEC))
            all_rows += keys
        out = list(merge_runs(runs, SPEC))
        assert [k for k, _, _ in out] == sorted(all_rows)


class TestExternalSortPlain:
    @pytest.mark.parametrize("n,mem", [(0, 10), (50, 100), (100, 100),
                                       (345, 50)])
    def test_matches_sorted(self, tmp_path, n, mem):
        rng = np.random.default_rng(n * 7 + mem)
        rows = random_rows(rng, n)
        out = list(external_sort_plain(iter(rows), mem, str(tmp_path)))
        assert [k for k, _ in out] == sorted(r[0] for r in rows)

    def test_spills_match_ovc_variant(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = random_rows(rng, 300)
        s_ovc, s_plain = CompareStats(), CompareStats()
        list(external_sort(iter(rows), SPEC, 64, str(tmp_path / "a"), s_ovc))
        list(external_sort_plain(iter(rows), 64, str(tmp_path / "b"), s_plain))
        assert s_ovc.rows_spilled == s_plain.rows_spilled == 300

    def test_ovc_needs_fewer_column_comparisons(self, tmp_path):
        rng = np.random.default_rng(14)
        rows = random_rows(rng, 600, arity=5, dom=2)
        spec = OvcSpec(5, 100)
        s_ovc, s_plain = CompareStats(), CompareStats()
        a = [k for k, _, _ in external_sort(iter(rows), spec, 100,
                                            str(tmp_path / "a"), s_ovc)]
        b = [k for k, _ in external_sort_plain(iter(rows), 100,
                                              str(tmp_path / "b"), s_plain)]
        assert a == b
        assert s_ovc.col_cmps < s_plain.col_cmps


def _sort(plain, rows, mem, tmpdir):
    if plain:
        return external_sort_plain(rows, mem, tmpdir)
    return external_sort(rows, SPEC, mem, tmpdir)


class TestRunFilesRemoved:
    """No run file outlives the sort: not on error, not on early close."""

    def test_key_out_of_domain_after_three_runs(self, tmp_path):
        spec = OvcSpec(2, 100)
        rows = [((i % 7, i % 5), i) for i in range(150)] + [((-1, 0), 150)]
        with pytest.raises(ValueError):
            list(external_sort(iter(rows), spec, 50, str(tmp_path)))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("plain", [False, True])
    def test_input_error_during_run_generation(self, tmp_path, plain):
        def rows():
            yield from random_rows(np.random.default_rng(0), 150)
            raise RuntimeError("input failed")

        with pytest.raises(RuntimeError):
            list(_sort(plain, rows(), 50, str(tmp_path)))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("plain", [False, True])
    def test_closed_after_first_row(self, tmp_path, plain):
        rows = random_rows(np.random.default_rng(1), 150)
        out = _sort(plain, iter(rows), 50, str(tmp_path))
        next(out)
        assert len(os.listdir(tmp_path)) == 3
        out.close()
        assert os.listdir(tmp_path) == []
