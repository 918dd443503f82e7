"""Exact effort counters of the external sorts and the Figure 3 sort plan.

The expected values are literals recorded from the implementation at
fixed seeds. The loser trees, run generation and in-sort duplicate
removal may be restructured, but every counter, output cardinality and
spill volume must stay bit-identical: these are the machine-independent
numbers the paper's claims rest on.
"""
import numpy as np
import pytest

from repro.core.external_sort import external_sort, external_sort_plain
from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats
from repro.sparkops.plans import sort_intersect_plan

SPEC = OvcSpec(arity=3, base=100)
MEM = 64

# (variant, input rows) -> (output rows, counters). 50 rows fit in one
# memory load, 64 rows are exactly one load, 300 rows spill five runs.
EXPECTED = {
    ("ovc", 50): (50, CompareStats(row_cmps=363, code_decided=237,
                                   col_cmps=68)),
    ("dedup", 50): (43, CompareStats(row_cmps=363, code_decided=237,
                                     col_cmps=68)),
    ("plain", 50): (50, CompareStats(row_cmps=363, col_cmps=367)),
    ("ovc", 64): (64, CompareStats(row_cmps=447, code_decided=297,
                                   col_cmps=91)),
    ("dedup", 64): (55, CompareStats(row_cmps=447, code_decided=297,
                                     col_cmps=91)),
    ("plain", 64): (64, CompareStats(row_cmps=447, col_cmps=500)),
    ("ovc", 300): (300, CompareStats(row_cmps=3022, code_decided=2096,
                                     col_cmps=558, rows_spilled=300)),
    ("dedup", 300): (157, CompareStats(row_cmps=2896, code_decided=1987,
                                       col_cmps=558, rows_spilled=258)),
    ("plain", 300): (300, CompareStats(row_cmps=3022, col_cmps=4364,
                                       rows_spilled=300)),
}


def _rows(n):
    rng = np.random.default_rng(n)
    return [(tuple(int(x) for x in rng.integers(0, 6, 3)), i)
            for i in range(n)]


@pytest.mark.parametrize("variant,n", sorted(EXPECTED))
def test_external_sort_counters(tmp_path, variant, n):
    stats = CompareStats()
    if variant == "plain":
        out = list(external_sort_plain(iter(_rows(n)), MEM, str(tmp_path),
                                       stats))
    else:
        out = list(external_sort(iter(_rows(n)), SPEC, MEM, str(tmp_path),
                                 stats, dedup=variant == "dedup"))
    assert (len(out), stats) == EXPECTED[variant, n]


def test_sort_intersect_plan_counters(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.integers(0, 4000, 2000)
    b = rng.integers(0, 4000, 2000)
    res = sort_intersect_plan(a, b, 200, str(tmp_path))
    assert res.n_out == 619
    assert res.stats == CompareStats(row_cmps=55936, code_decided=49285,
                                     rows_spilled=3912, rows_in=4000,
                                     rows_out=619)
