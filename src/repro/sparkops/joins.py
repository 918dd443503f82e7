"""Order-preserving merge joins and set operations in Spark.

PySpark exposes no zipPartitions for DataFrames, so the two inputs are
combined with the standard trick for co-partitioned merges: tag each
side, union, range-partition by the join key (equal keys land in one
partition) and sort within partitions by (key, tag). That is one
exchange; each partition then holds both sides' rows of a key range in
merge order, left rows first within a key. One ``mapInArrow`` pass per
partition runs the vectorized Section 4.7 kernel
(`repro.core.operators.merge_join.merge_join_arrays`): it encodes the
merged block once, finds equal-key groups as the rows without the
duplicate code, and derives the output ``_ovc`` by the filter rule.
Payload columns are gathered with ``take`` on the Arrow batch.

Output column layout: key columns, left non-key columns, right non-key
columns (inner/outer only, nullable), ``_ovc``.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.operators.merge_join import JoinType, merge_join_arrays
from repro.core.ovc import DEFAULT_BASE, OvcSpec
from repro.sparkops.ovc_column import OVC_COL

_TAG = "_side"
_JOIN_TYPES = {jt.value: jt for jt in JoinType}


def merge_join_ovc(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    how: str = "inner",
    base: int = DEFAULT_BASE,
    num_partitions: int | None = None,
) -> DataFrame:
    """Merge join of two inputs on integral key columns ``on``.

    ``how``: inner, left_semi, left_anti, left_outer. Inputs need not
    be pre-sorted or carry ``_ovc``: the tagged union is range-
    partitioned and sorted here (the "interesting ordering" a real
    planner would have arranged), and the merged partition's codes are
    derived and consumed in the same Arrow pass. Key values must lie in
    ``[0, base)``.
    """
    return _merge_join(left, right, list(on), _JOIN_TYPES[how], base,
                       num_partitions, distinct=False)


def intersect_distinct_ovc(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    base: int = DEFAULT_BASE,
    num_partitions: int | None = None,
) -> DataFrame:
    """``SELECT on FROM left INTERSECT SELECT on FROM right`` — the
    Figure 2 sort-based plan in one exchange and one Arrow pass.

    In the merged, tagged stream a row with the duplicate code repeats
    its predecessor's key, whichever side either row came from. Per-side
    duplicate removal (Section 4.4) followed by a semi merge join
    (Section 4.7) therefore equals the semi join over the merged stream
    with its duplicate-code output rows dropped: each group's first row
    carries the code relative to the previous distinct key of the
    union, exactly the code the deduplicated merge would give it, and a
    dropped duplicate's code is the combine-neutral element.
    """
    on = list(on)
    return _merge_join(left.select(on), right.select(on), on,
                       JoinType.LEFT_SEMI, base, num_partitions,
                       distinct=True)


def _merge_join(left: DataFrame, right: DataFrame, on: list[str],
                jt: JoinType, base: int, num_partitions: int | None,
                distinct: bool) -> DataFrame:
    """One exchange of the tagged union, then one ``mapInArrow`` pass
    running ``merge_join_arrays``; ``distinct`` drops duplicate-code
    output rows (Section 4.4) in the same pass."""
    spec = OvcSpec(len(on), base)
    lcols = [c for c in left.columns if c not in on and c != OVC_COL]
    rcols = [c for c in right.columns if c not in on and c != OVC_COL]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"ambiguous non-key columns: {sorted(overlap)}")
    if jt not in (JoinType.INNER, JoinType.LEFT_OUTER):
        rcols = []

    out_fields = [StructField(c, LongType()) for c in on]
    out_fields += [left.schema[c] for c in lcols]
    # right side is nullable in outer joins
    out_fields += [StructField(c, right.schema[c].dataType, True)
                   for c in rcols]
    out_fields.append(StructField(OVC_COL, LongType(), False))
    out_schema = StructType(out_fields)
    arrow_schema = to_arrow_schema(out_schema)

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        batches = [b for b in batches if b.num_rows]
        if not batches:
            return
        table = pa.Table.from_batches(batches)
        keys = np.column_stack([
            table.column(c).to_numpy().astype(np.int64, copy=False)
            for c in on])
        lidx, ridx, codes = merge_join_arrays(
            keys, table.column(_TAG).to_numpy(), spec, jt)
        if distinct:
            keep = codes != spec.duplicate_code
            lidx, codes = lidx[keep], codes[keep]
        if not len(codes):
            return
        cols = [keys[lidx, j] for j in range(len(on))]
        cols += [table.column(c).take(lidx) for c in lcols]
        if rcols:
            ridx = pa.array(ridx, mask=ridx < 0)
            cols += [table.column(c).take(ridx) for c in rcols]
        cols.append(codes)
        yield from pa.Table.from_arrays(cols, schema=arrow_schema) \
                    .to_batches()

    lt = left.drop(OVC_COL) if OVC_COL in left.columns else left
    rt = right.drop(OVC_COL) if OVC_COL in right.columns else right
    tagged = lt.withColumn(_TAG, F.lit(0)).unionByName(
        rt.withColumn(_TAG, F.lit(1)), allowMissingColumns=True
    )
    parts = num_partitions or int(
        left.sparkSession.conf.get("spark.sql.shuffle.partitions")
    )
    return tagged.repartitionByRange(parts, *on) \
                 .sortWithinPartitions(*on, _TAG) \
                 .mapInArrow(run, out_schema)
