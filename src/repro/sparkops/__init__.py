"""Spark-facing layer: offset-value codes as a per-partition encoding.

``ovc_column.attach_ovc`` range-partitions and sorts a DataFrame and
computes the artificial ``_ovc`` column inside executors (vectorized
``mapInPandas``), mirroring F1 Query's planner-introduced OVC column
(paper Section 5). ``aggregate`` holds order-preserving operators that
consume and produce ``_ovc`` per partition; ``joins`` derives the codes
of both inputs' merged stream in one Arrow pass and produces ``_ovc``.
``plans`` holds the single-threaded Section 6 query plans.
"""
