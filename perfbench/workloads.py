"""The benchmark workloads, each run source -> sink.

Four pipelines: the Figure 1 group-by, the Figure 3 intersect and the
LSM ingest -> query run in Spark; Figure 3 with spilling runs on the
driver. The three Spark pipelines form one workload, ``spark_queries``
(a query mix), and the driver pipeline the other.

Every pipeline exposes the same steps to ``run.py``:

- ``setup()``: generate the inputs from the seed and materialize the
  source (repeatable; ``setup_s`` is the median of several calls);
- ``check()``: one repetition checked in full against an independent
  oracle (DuckDB or numpy), including the emitted ``_ovc`` codes;
- ``iterate()``: one closed-loop iteration of the workload's OVC query
  and of its reference, timed, with row counts checked. A reference
  does the same job with no program code (native Spark, or plain
  Python for the driver plan), so a change to the program moves only
  the query's side of their ratio;
- ``trace(tracer, seconds)``: the per-layer breakdown, timed from here
  around calls into the program's public functions.

Why these four: each layer does most of its work in one pipeline and
almost none in another, and the per-layer metrics of the traced run
keep them apart within the Spark mix.
"""
from __future__ import annotations

import itertools
import os
import pickle
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from harness import Tracer, WrongResult, clocked, count_files, dir_bytes

KEYS4 = ["k0", "k1", "k2", "k3"]
# The references are several times shorter than the OVC queries, so
# each iteration runs them this many times before the query and as
# many times after it, and the query once.
SPARK_REFERENCE_REPS = 4
DRIVER_REFERENCE_REPS = 3


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _lex_sorted(keys: np.ndarray) -> bool:
    return bool((np.lexsort(keys.T[::-1]) == np.arange(len(keys))).all())


def _check_codes(keys: np.ndarray, codes: np.ndarray, what: str) -> None:
    """The emitted codes must equal brute-force predecessor encoding
    of the emitted, sorted keys (one coded stream)."""
    from repro.core.ovc import OvcSpec, encode_sorted_array

    if len(keys) > 1 and not _lex_sorted(keys):
        raise WrongResult(f"{what}: output stream is not sorted")
    want = encode_sorted_array(keys, OvcSpec(keys.shape[1]))
    if not np.array_equal(want, np.asarray(codes, dtype=np.int64)):
        bad = int(np.flatnonzero(want != codes)[0])
        raise WrongResult(f"{what}: _ovc differs from re-encoding at row "
                          f"{bad}: {codes[bad]} != {want[bad]}")


def _expect(rows: int, expected: int, what: str) -> None:
    if rows != expected:
        raise WrongResult(f"{what}: {rows} rows, expected {expected}")


class Workload:
    name = ""
    uses_spark = True

    def __init__(self, spark, seed: int, smoke: bool, work: Path) -> None:
        self.spark = spark
        self.seed = seed
        self.smoke = smoke
        self.work = work  # per-run scratch; each repetition gets a subdir
        self._leaks = 0
        self._reps = itertools.count()

    @property
    def leaked_temp_files(self) -> int:
        return self._leaks

    def rep_dir(self) -> Path:
        d = self.work / f"rep-{next(self._reps)}"
        d.mkdir(parents=True)
        return d

    def count_leaks(self, d: Path, kept: int = 0) -> None:
        """Count the files in ``d`` beyond the ``kept`` the program is
        meant to leave there as leaked temp files."""
        self._leaks += max(0, count_files(d) - kept)

    def close_rep_dir(self, d: Path) -> None:
        self.count_leaks(d)
        shutil.rmtree(d)


# --------------------------------------------------------------- Spark


def _sink(df) -> None:
    df.write.format("noop").mode("overwrite").save()


def _sink_count(df) -> int:
    """Run ``df`` into the noop sink and return its row count, counted
    in the same job by an observed metric."""
    from pyspark.sql import Observation, functions as F

    obs = Observation()
    df.observe(obs, F.count(F.lit(1)).alias("rows")) \
        .write.format("noop").mode("overwrite").save()
    return int(obs.get["rows"])


def _identity_pass(df):
    """A ``mapInPandas`` that returns its input: the JVM<->Python Arrow
    round trip alone."""
    def identity(batches):
        yield from batches
    return df.mapInPandas(identity, df.schema)


def _range_sort(df, keys: list[str], parts: int):
    """The exchange and sort ``attach_ovc`` puts under its encoder."""
    return df.repartitionByRange(parts, *keys).sortWithinPartitions(*keys)


def _collect_checked(out, key_cols: list[str], sql: str, what: str,
                     **tables) -> None:
    """Collect ``out`` once (cached), compare it with DuckDB running
    ``sql`` over ``tables``, and re-encode each partition's keys to
    check the emitted ``_ovc`` column."""
    from pyspark.sql import functions as F

    from repro.oracle import assert_equivalent
    from repro.sparkops.ovc_column import OVC_COL

    out = out.persist()
    try:
        got = out.withColumn("_pid", F.spark_partition_id()).toPandas()
        try:
            assert_equivalent(out.drop(OVC_COL), sql, **tables)
        except AssertionError as e:
            raise WrongResult(f"{what}: differs from DuckDB: {e}") from e
        for pid, part in got.groupby("_pid", sort=False):
            _check_codes(part[key_cols].to_numpy(np.int64),
                         part[OVC_COL].to_numpy(np.int64),
                         f"{what} partition {pid}")
    finally:
        out.unpersist()


def _rounds(tracer: Tracer, w: "Workload", seconds: float,
            one_round) -> dict[str, list[float]]:
    """Call ``one_round()`` inside a ``round`` span, then run one
    untraced ``w.iterate()``, until ``seconds`` have passed (at least
    one round). Returns the untraced timings."""
    untraced: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    while not untraced or time.perf_counter() - t0 < seconds:
        tracer.next_round()
        with tracer.span("round"):
            one_round()
        for k, v in w.iterate().items():
            untraced.setdefault(k, []).extend(v)
    return untraced


def _stage_rounds(tracer: Tracer, stages: list[tuple[str, object]],
                  w: "Workload", seconds: float) -> dict[str, list[float]]:
    """:func:`_rounds` where a round runs every stage once, each inside
    its own span."""
    def one_round() -> None:
        for name, fn in stages:
            with tracer.span(name):
                fn()
    return _rounds(tracer, w, seconds, one_round)


def _samples(**timed: list[tuple]) -> dict[str, list[float]]:
    """Wall and CPU samples, by operation, from ``clocked`` results."""
    out = {}
    for name, xs in timed.items():
        out[f"{name}_s"] = [x[0] for x in xs]
        out[f"{name}_cpu_s"] = [x[1] for x in xs]
    return out


def _around(query, reference, reps: int) -> dict:
    """One iteration: ``reps`` references, the query, ``reps`` more
    references, so that a drift in machine speed during the iteration
    cancels out of the query's ratio to the references."""
    before = [clocked(reference) for _ in range(reps)]
    q = clocked(query)
    after = [clocked(reference) for _ in range(reps)]
    return _samples(query=[q], reference=before + after)


def _untraced(untraced: dict[str, list[float]]) -> dict[str, float]:
    return {"trace.untraced_query_s": _median(untraced["query_s"]),
            "trace.untraced_reference_s":
                _median(untraced["reference_s"])}


class _DataFramePipeline(Workload):
    """A pipeline whose OVC query and native-Spark reference are one
    DataFrame each, over a source cached by ``setup``."""

    def query(self) -> None:
        _expect(_sink_count(self._query_df()), self.expected,
                f"{self.name} OVC query")

    def reference(self) -> None:
        _expect(_sink_count(self._reference_df()), self.expected,
                f"{self.name} native reference")

    def iterate(self) -> dict[str, list[float]]:
        return _around(self.query, self.reference, SPARK_REFERENCE_REPS)


class Fig1SparkGroupby(_DataFramePipeline):
    """Figure 1 inside Spark: range partition + sort, ``_ovc`` scan
    encoding, in-stream grouping by one integer test per row."""

    name = "fig1_spark_groupby"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        n = 4_000 if self.smoke else 60_000
        self.sizes = {"rows": n, "key_cols": 4, "ratio": 100,
                      "partitions": 8}
        self.df = None

    def setup(self) -> None:
        from repro.synth_data import webkeys_pandas

        if self.df is not None:
            self.df.unpersist(blocking=True)
        self.pdf = webkeys_pandas(n=self.sizes["rows"], key_cols=4,
                                  ratio=100, seed=self.seed)
        self.df = self.spark.createDataFrame(self.pdf).cache()
        self.df.count()
        self.expected = len(self.pdf.drop_duplicates(KEYS4))

    def _query_df(self):
        from repro.sparkops.aggregate import instream_aggregate
        from repro.sparkops.ovc_column import attach_ovc

        coded = attach_ovc(self.df, KEYS4, num_partitions=8)
        return instream_aggregate(coded, KEYS4, 4, {
            "cnt": ("*", "count"), "s": ("v", "sum")})

    def _reference_df(self):
        from pyspark.sql import functions as F

        return self.df.groupBy(*KEYS4).agg(
            F.count(F.lit(1)).alias("cnt"), F.sum("v").alias("s"))

    def check(self) -> None:
        _collect_checked(
            self._query_df(), KEYS4,
            "SELECT k0, k1, k2, k3, count(*) AS cnt, "
            "CAST(sum(v) AS BIGINT) AS s FROM t GROUP BY k0, k1, k2, k3",
            "fig1 instream_aggregate", t=self.pdf)
        self.reference()  # warm the reference plan too

    def trace(self, tracer: Tracer, seconds: float) -> dict[str, float]:
        from repro.core.ovc import OvcSpec, boundary_mask, encode_sorted_array
        from repro.sparkops.ovc_column import attach_ovc

        spec = OvcSpec(4)
        sorted_df = _range_sort(self.df, KEYS4, 8)
        keys = self.pdf[KEYS4].to_numpy(np.int64)
        keys = keys[np.lexsort(keys.T[::-1])]
        codes = encode_sorted_array(keys, spec)
        stages = [
            ("spark.source", lambda: _sink(self.df)),
            ("range_sort", lambda: _sink(sorted_df)),
            ("arrow_pass", lambda: _sink(_identity_pass(sorted_df))),
            ("attach_ovc", lambda: _sink(
                attach_ovc(self.df, KEYS4, num_partitions=8))),
            ("query", self.query),
            ("core.ovc.encode_sorted_array",
             lambda: encode_sorted_array(keys, spec)),
            ("core.ovc.boundary_mask", lambda: boundary_mask(codes, spec, 4)),
        ]
        untraced = _stage_rounds(tracer, stages, self, seconds)
        m = tracer.median
        return {
            "spark.source_s": m("spark.source"),
            "sparkops.ovc_column.range_sort_s":
                m("range_sort") - m("spark.source"),
            "sparkops.arrow_transfer_s": m("arrow_pass") - m("range_sort"),
            "sparkops.ovc_column.encode_s": m("attach_ovc") - m("arrow_pass"),
            "sparkops.aggregate.instream_aggregate_s":
                m("query") - m("attach_ovc"),
            "core.ovc.encode_sorted_array_s":
                m("core.ovc.encode_sorted_array"),
            "core.ovc.boundary_mask_s": m("core.ovc.boundary_mask"),
            "spark.native_groupby_s": _median(untraced["reference_s"]),
            "trace.query_s": m("query"),
            **_untraced(untraced),
        }


class Fig3SparkIntersect(_DataFramePipeline):
    """Figure 3's sort-based plan inside Spark: per-side ``_ovc``
    encoding and in-stream distinct, then the row-wise merge join in
    executors."""

    name = "fig3_spark_intersect"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        n = 2_000 if self.smoke else 20_000
        self.sizes = {"rows_per_input": n, "domain": 2 * n,
                      "partitions": 8}
        self.left = self.right = None

    def setup(self) -> None:
        import pandas as pd

        for df in (self.left, self.right):
            if df is not None:
                df.unpersist(blocking=True)
        n = self.sizes["rows_per_input"]
        g = np.random.default_rng(self.seed)
        self.a = g.integers(0, 2 * n, n)
        self.b = g.integers(0, 2 * n, n)
        self.left = self.spark.createDataFrame(
            pd.DataFrame({"b": self.a})).cache()
        self.right = self.spark.createDataFrame(
            pd.DataFrame({"b": self.b})).cache()
        self.left.count()
        self.right.count()
        self.expected = len(np.intersect1d(self.a, self.b))

    def _query_df(self):
        from repro.sparkops.joins import intersect_distinct_ovc

        return intersect_distinct_ovc(self.left, self.right, ["b"],
                                      num_partitions=8)

    def _reference_df(self):
        return self.left.intersect(self.right)

    def check(self) -> None:
        import pandas as pd

        _collect_checked(
            self._query_df(), ["b"],
            "SELECT b FROM l INTERSECT SELECT b FROM r",
            "fig3 intersect_distinct_ovc",
            l=pd.DataFrame({"b": self.a}), r=pd.DataFrame({"b": self.b}))
        self.reference()

    def trace(self, tracer: Tracer, seconds: float) -> dict[str, float]:
        from repro.core.operators.merge_join import JoinType, merge_join
        from repro.core.ovc import OvcSpec, encode_sorted_array
        from repro.sparkops.aggregate import instream_distinct
        from repro.sparkops.ovc_column import attach_ovc

        spec = OvcSpec(1)
        sides = (self.left, self.right)

        def both(build):
            return lambda: [_sink(build(x)) for x in sides]

        sorted_keys = [np.sort(x).reshape(-1, 1) for x in (self.a, self.b)]

        def coded_tuples(x):
            u = np.unique(x).reshape(-1, 1)
            return [((int(k),), int(c), None)
                    for k, c in zip(u[:, 0], encode_sorted_array(u, spec))]

        left_t, right_t = coded_tuples(self.a), coded_tuples(self.b)
        stages = [
            ("spark.source", both(lambda x: x)),
            ("range_sort", both(lambda x: _range_sort(x, ["b"], 8))),
            ("arrow_pass", both(
                lambda x: _identity_pass(_range_sort(x, ["b"], 8)))),
            ("attach_ovc", both(
                lambda x: attach_ovc(x, ["b"], num_partitions=8))),
            ("instream_distinct", both(lambda x: instream_distinct(
                attach_ovc(x, ["b"], num_partitions=8), ["b"]))),
            ("query", self.query),
            ("core.ovc.encode_sorted_array", lambda: [
                encode_sorted_array(k, spec) for k in sorted_keys]),
            ("core.operators.merge_join.kernel", lambda: sum(
                1 for _ in merge_join(iter(left_t), iter(right_t), spec,
                                      JoinType.LEFT_SEMI))),
        ]
        untraced = _stage_rounds(tracer, stages, self, seconds)
        m = tracer.median
        return {
            "spark.source_s": m("spark.source"),
            "sparkops.ovc_column.range_sort_s":
                m("range_sort") - m("spark.source"),
            "sparkops.arrow_transfer_s": m("arrow_pass") - m("range_sort"),
            "sparkops.ovc_column.encode_s": m("attach_ovc") - m("arrow_pass"),
            "sparkops.aggregate.instream_distinct_s":
                m("instream_distinct") - m("attach_ovc"),
            "sparkops.joins.merge_join_s": m("query") - m("instream_distinct"),
            "core.ovc.encode_sorted_array_s":
                m("core.ovc.encode_sorted_array"),
            "core.operators.merge_join.kernel_s":
                m("core.operators.merge_join.kernel"),
            "spark.native_intersect_s": _median(untraced["reference_s"]),
            "trace.query_s": m("query"),
            **_untraced(untraced),
        }


class LsmIngestQuery(Workload):
    """Raw batches -> LSM forest ingest -> compaction (tree of losers
    over the runs' scan codes) -> ``format("ovc")`` scan -> in-stream
    aggregation. The query's order comes from storage: no shuffle. The
    reference is native ``groupBy`` over the same rows cached in Spark."""

    name = "lsm_ingest_query"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        n = 4_000 if self.smoke else 60_000
        self.sizes = {"rows": n, "batches": 8, "key_cols": 4,
                      "payload_cols": 1, "ratio": 100, "group_cols": 2}
        self.df = None

    def setup(self) -> None:
        from repro.storage.datasource import OvcDataSource
        from repro.synth_data import webkeys_pandas

        if self.df is not None:
            self.df.unpersist(blocking=True)
        self.spark.dataSource.register(OvcDataSource)
        n, nb = self.sizes["rows"], self.sizes["batches"]
        self.pdf = webkeys_pandas(n=n, key_cols=4, ratio=100, seed=self.seed)
        keys = self.pdf[KEYS4].to_numpy(np.int64)
        pay = self.pdf["v"].to_numpy(np.int64)
        cuts = np.linspace(0, n, nb + 1).astype(int)
        self.batches = [(keys[lo:hi], pay[lo:hi])
                        for lo, hi in zip(cuts[:-1], cuts[1:])]
        self.df = self.spark.createDataFrame(
            self.pdf.rename(columns={"v": "p0"})).cache()
        self.df.count()
        self.expected = len(self.pdf.drop_duplicates(["k0", "k1"]))

    def _forest(self, d: Path):
        from repro.core.ovc import OvcSpec
        from repro.storage.lsm import LsmForest

        return LsmForest(str(d), OvcSpec(4))

    def _ingest(self, forest) -> None:
        for keys, pay in self.batches:
            forest.ingest(keys, pay)

    def _scan(self, d: Path):
        return self.spark.read.format("ovc").option("path", str(d)).load()

    def _query_df(self, d: Path):
        from repro.sparkops.aggregate import instream_aggregate

        return instream_aggregate(self._scan(d), KEYS4, 2, {
            "cnt": ("*", "count"), "s": ("p0", "sum")})

    @staticmethod
    def _groupby(df):
        from pyspark.sql import functions as F

        return df.groupBy("k0", "k1").agg(
            F.count(F.lit(1)).alias("cnt"), F.sum("p0").alias("s"))

    def reference(self) -> None:
        _expect(_sink_count(self._groupby(self.df)), self.expected,
                "native groupBy")

    def query(self, d: Path) -> None:
        """Ingest, compact and query a fresh forest in ``d``."""
        forest = self._forest(d)
        self._ingest(forest)
        forest.compact()
        self.count_leaks(d, kept=1)
        _expect(_sink_count(self._query_df(d)), self.expected,
                "OVC query over the forest")

    def check(self) -> None:
        from repro.storage.columnar import ColumnarRun

        d = self.rep_dir()
        try:
            forest = self._forest(d)
            self._ingest(forest)
            _expect(_sink_count(self._groupby(self._scan(d))), self.expected,
                    "native groupBy over the uncompacted forest")
            run = forest.compact()
            self.count_leaks(d, kept=1)
            keys, codes, _ = ColumnarRun(run.path).scan_with_ovc()
            _check_codes(keys, codes, "compacted run scan")
            _collect_checked(
                self._query_df(d), ["k0", "k1"],
                "SELECT k0, k1, count(*) AS cnt, CAST(sum(v) AS BIGINT) "
                "AS s FROM t GROUP BY k0, k1",
                "lsm instream_aggregate", t=self.pdf)
        finally:
            shutil.rmtree(d)
        self.reference()

    def iterate(self) -> dict[str, list[float]]:
        d = self.rep_dir()
        try:
            return _around(lambda: self.query(d), self.reference,
                           SPARK_REFERENCE_REPS)
        finally:
            shutil.rmtree(d)

    def trace(self, tracer: Tracer, seconds: float) -> dict[str, float]:
        from repro.core.ovc import OvcSpec, boundary_mask
        from repro.core.stats import CompareStats
        from repro.storage.columnar import ColumnarRun, write_columnar_run

        spec = OvcSpec(4)
        orders = [np.lexsort(k.T[::-1]) for k, _ in self.batches]
        sorted_batches = [(k[o], p[o])
                          for (k, p), o in zip(self.batches, orders)]
        span = tracer.span
        last: dict = {}  # the last round's counters

        def one_round() -> None:
            d = self.rep_dir()
            w = self.work / "written-runs"
            try:
                forest = self._forest(d)
                with span("storage.lsm.ingest"):
                    self._ingest(forest)
                with span("storage.columnar.write_run"):
                    for i, (k, p) in enumerate(sorted_batches):
                        write_columnar_run(str(w / f"{i}.run"), k, spec,
                                           {"p0": p}, assume_sorted=True)
                with span("storage.datasource.scan_uncompacted"):
                    _sink(self._scan(d))
                with span("spark.native_groupby"):
                    self.reference()
                stats = CompareStats()
                with span("core.tree_of_losers.merge"):
                    for _ in forest.scan(stats):
                        pass
                last["merge_stats"] = stats
                with span("storage.lsm.compact"):
                    run = forest.compact()
                self.count_leaks(d, kept=1)
                last["storage_bytes"] = os.path.getsize(run.path)
                with span("storage.columnar.scan_with_ovc"):
                    _, codes, _ = ColumnarRun(run.path).scan_with_ovc()
                with span("core.ovc.boundary_mask"):
                    boundary_mask(codes, spec, 2)
                with span("storage.datasource.scan"):
                    _sink(self._scan(d))
                with span("query"):
                    _expect(_sink_count(self._query_df(d)),
                            self.expected, "OVC query")
                last["partitions"] = self._scan(d).rdd.getNumPartitions()
            finally:
                shutil.rmtree(d)
                shutil.rmtree(w, ignore_errors=True)

        untraced = _rounds(tracer, self, seconds, one_round)
        m = tracer.median
        n = self.sizes["rows"]
        st = last["merge_stats"]
        return {
            "storage.lsm.ingest_s": m("storage.lsm.ingest"),
            "ingest_rows_per_s": n / m("storage.lsm.ingest"),
            "storage.columnar.write_run_s": m("storage.columnar.write_run"),
            "core.tree_of_losers.merge_s": m("core.tree_of_losers.merge"),
            "compact_s": m("storage.lsm.compact"),
            "storage.lsm.compact.row_cmps": st.row_cmps,
            "storage.lsm.compact.code_decided": st.code_decided,
            "storage.lsm.compact.col_cmps": st.col_cmps,
            "storage.lsm.compact.code_decided_ratio":
                st.code_decided / st.row_cmps,
            "storage.columnar.scan_with_ovc_s":
                m("storage.columnar.scan_with_ovc"),
            "core.ovc.boundary_mask_s": m("core.ovc.boundary_mask"),
            "storage.datasource.scan_s": m("storage.datasource.scan"),
            "storage.datasource.scan_uncompacted_s":
                m("storage.datasource.scan_uncompacted"),
            "storage.datasource.partitions": last["partitions"],
            "sparkops.aggregate.instream_aggregate_s":
                m("query") - m("storage.datasource.scan"),
            "spark.native_groupby_s": m("spark.native_groupby"),
            "storage_bytes_per_user_byte":
                last["storage_bytes"] / (n * 5 * 8),
            "trace.query_s": m("storage.lsm.ingest", "storage.lsm.compact",
                                "query"),
            **_untraced(untraced),
        }


# -------------------------------------------------------------- driver


def _rows(arr: np.ndarray):
    """The ``(key, payload)`` row stream the Section 6 plans consume."""
    return (((int(v),), None) for v in arr)


def _merge_distinct(x, y):
    """Merge two sorted duplicate-free streams, keeping each key once."""
    x, y = iter(x), iter(y)
    a, b = next(x, None), next(y, None)
    while a is not None and b is not None:
        if a < b:
            yield a
            a = next(x, None)
        elif b < a:
            yield b
            b = next(y, None)
        else:
            yield a
            a, b = next(x, None), next(y, None)
    if a is not None:
        yield a
        yield from x
    if b is not None:
        yield b
        yield from y


def _merge_all(runs: list):
    """A balanced tree of :func:`_merge_distinct` over ``runs``."""
    while len(runs) > 1:
        runs = [_merge_distinct(*runs[i:i + 2]) if i + 1 < len(runs)
                else runs[i] for i in range(0, len(runs), 2)]
    return iter(runs[0]) if runs else iter(())


def _reference_intersect(a: np.ndarray, b: np.ndarray, memory_rows: int,
                         d: Path) -> list[tuple]:
    """Figure 3's sort plan in plain Python, with no program code: each
    input cut into memory loads, each load sorted by a tree of merging
    generators over its single rows, dropping duplicates, and pickled
    to ``d``; the runs read back and merged the same way; the two
    distinct streams merge-joined. Like the program's tree of losers,
    it makes Python calls per row and tree level, so machine speed
    moves both alike."""
    sides = []
    for tag, arr in (("a", a), ("b", b)):
        rows = [(v,) for v in arr.tolist()]
        paths = []
        for i in range(0, len(rows), memory_rows):
            paths.append(d / f"ref-{tag}-{i}")
            with open(paths[-1], "wb") as f:
                pickle.dump(list(_merge_all([[r] for r in
                                             rows[i:i + memory_rows]])), f)
        runs = []
        for path in paths:
            with open(path, "rb") as f:
                runs.append(pickle.load(f))
            path.unlink()
        sides.append(_merge_all(runs))
    left, right = sides
    out = []
    x, y = next(left, None), next(right, None)
    while x is not None and y is not None:
        if x < y:
            x = next(left, None)
        elif y < x:
            y = next(right, None)
        else:
            out.append(x)
            x, y = next(left, None), next(right, None)
    return out


def _traced_plans(a: np.ndarray, b: np.ndarray, memory_rows: int, d: Path,
                  tracer: Tracer) -> dict:
    """Both Figure 3 plans composed from the program's operators as
    ``repro.sparkops.plans`` composes them, with a span around each
    operator call. The plans there return only a row count, so this
    copy is the one whose output ``check`` compares in full."""
    from repro.core.external_sort import generate_runs, merge_runs
    from repro.core.operators.merge_join import intersect_distinct
    from repro.core.ovc import OvcSpec
    from repro.core.stats import CompareStats
    from repro.hashexec.hash_agg import hash_distinct
    from repro.hashexec.hash_join import hash_join

    spec = OvcSpec(1, 1 << 32)
    span = tracer.span
    out = {"sort_stats": CompareStats(), "hash_stats": CompareStats(),
           "sort_bytes": 0, "hash_bytes": 0, "runs": 0}
    sst, hst = out["sort_stats"], out["hash_stats"]
    sides = []
    for tag, arr in (("t1", a), ("t2", b)):
        with span("core.external_sort.run_gen"):
            runs, in_mem = generate_runs(_rows(arr), spec, memory_rows,
                                         str(d), sst, dedup=True, tag=tag)
        if in_mem is not None:
            raise WrongResult("input did not spill")
        out["runs"] += len(runs)
        out["sort_bytes"] += sum(os.path.getsize(r.path) for r in runs)
        with span("core.external_sort.merge"):
            sides.append(list(merge_runs(runs, spec, sst, dedup=True)))
        for r in runs:
            r.delete()
    with span("core.operators.merge_join.intersect"):
        out["sort"] = list(intersect_distinct(iter(sides[0]), iter(sides[1]),
                                              spec, sst))

    def spilled(gen) -> list:
        # Spill partitions are all on disk once the operator yields its
        # first row.
        first = next(gen)
        out["hash_bytes"] += dir_bytes(d)
        return [first, *gen]

    dist = []
    for tag, arr in (("d1", a), ("d2", b)):
        with span("hashexec.hash_distinct"):
            dist.append(spilled(hash_distinct(
                _rows(arr), 1, memory_rows, str(d), hst,
                n_input_hint=len(arr), tag=tag)))
    with span("hashexec.hash_join"):
        out["hash"] = spilled(hash_join(
            ((k, None) for k, _ in dist[0]), ((k, None) for k, _ in dist[1]),
            1, memory_rows, str(d), hst, n_build_hint=len(a)))
    return out


class Fig3DriverSpill(Workload):
    """Figure 3 on one thread with a 10:1 input-to-memory ratio, so
    every row spills: the sort plan (run generation with in-sort
    duplicate removal, tree-of-losers merge, OVC merge join), the
    repository's Grace-hash plan, and the plain-Python reference."""

    name = "fig3_driver_spill"
    uses_spark = False

    def __init__(self, *a) -> None:
        super().__init__(*a)
        n = 2_000 if self.smoke else 10_000
        self.sizes = {"rows_per_input": n, "domain": 2 * n,
                      "memory_rows": n // 10,
                      "reference_reps": DRIVER_REFERENCE_REPS}

    def setup(self) -> None:
        n = self.sizes["rows_per_input"]
        g = np.random.default_rng(self.seed)
        self.a = g.integers(0, 2 * n, n)
        self.b = g.integers(0, 2 * n, n)
        self.expected_keys = np.intersect1d(self.a, self.b)

    def _plan(self, plan) -> None:
        d = self.rep_dir()
        try:
            res = plan(self.a, self.b, self.sizes["memory_rows"], str(d))
        finally:
            self.close_rep_dir(d)
        _expect(res.n_out, len(self.expected_keys), res.name)

    def _reference(self) -> None:
        d = self.rep_dir()
        try:
            out = _reference_intersect(self.a, self.b,
                                       self.sizes["memory_rows"], d)
        finally:
            self.close_rep_dir(d)
        _expect(len(out), len(self.expected_keys), "reference")

    def check(self) -> None:
        d = self.rep_dir()
        try:
            out = _traced_plans(self.a, self.b, self.sizes["memory_rows"], d,
                                Tracer("check"))
            ref = _reference_intersect(self.a, self.b,
                                       self.sizes["memory_rows"], d)
        finally:
            self.close_rep_dir(d)
        keys = np.array([k for k, _, _ in out["sort"]],
                        dtype=np.int64).reshape(-1, 1)
        if not np.array_equal(keys[:, 0], self.expected_keys):
            raise WrongResult("sort plan differs from np.intersect1d")
        _check_codes(keys, np.array([c for _, c, _ in out["sort"]]),
                     "sort plan")
        hashed = sorted(k[0] for k, _ in out["hash"])
        if not np.array_equal(hashed, self.expected_keys):
            raise WrongResult("hash plan differs from np.intersect1d")
        if not np.array_equal([k[0] for k in ref], self.expected_keys):
            raise WrongResult("reference differs from np.intersect1d")
        for plan in self._plans():
            self._plan(plan)  # warm both plans as timed

    def _plans(self):
        from repro.sparkops.plans import hash_intersect_plan, sort_intersect_plan

        return sort_intersect_plan, hash_intersect_plan

    def iterate(self) -> dict[str, list[float]]:
        sort_plan, hash_plan = self._plans()
        around = _around(lambda: self._plan(sort_plan), self._reference,
                         DRIVER_REFERENCE_REPS)
        hashed = clocked(lambda: self._plan(hash_plan))
        return {**around, **_samples(hash_plan=[hashed])}

    def trace(self, tracer: Tracer, seconds: float) -> dict[str, float]:
        n_in = 2 * self.sizes["rows_per_input"]
        last: dict = {}

        def one_round() -> None:
            d = self.rep_dir()
            try:
                last.update(_traced_plans(self.a, self.b,
                                          self.sizes["memory_rows"], d,
                                          tracer))
            finally:
                self.close_rep_dir(d)
            _expect(len(last["sort"]), len(self.expected_keys), "sort plan")
            _expect(len(last["hash"]), len(self.expected_keys), "hash plan")

        untraced = _rounds(tracer, self, seconds, one_round)
        m = tracer.median
        sst, hst = last["sort_stats"], last["hash_stats"]
        return {
            "core.external_sort.run_gen_s":
                m("core.external_sort.run_gen"),
            "core.external_sort.merge_s":
                m("core.external_sort.merge"),
            "core.operators.merge_join.intersect_s":
                m("core.operators.merge_join.intersect"),
            "core.external_sort.runs": last["runs"],
            "core.external_sort.rows_spilled": sst.rows_spilled,
            "core.external_sort.bytes_spilled": last["sort_bytes"],
            "core.external_sort.row_cmps": sst.row_cmps,
            "core.external_sort.code_decided": sst.code_decided,
            "core.external_sort.col_cmps": sst.col_cmps,
            "core.external_sort.code_decided_ratio":
                sst.code_decided / sst.row_cmps,
            "spilled_rows_per_input_row": sst.rows_spilled / n_in,
            "hashexec.hash_distinct_s": m("hashexec.hash_distinct"),
            "hashexec.hash_join_s": m("hashexec.hash_join"),
            "hashexec.rows_spilled": hst.rows_spilled,
            "hashexec.bytes_spilled": last["hash_bytes"],
            "hashexec.hash_ops": hst.hash_ops,
            "hash_plan_spilled_rows_per_input_row": hst.rows_spilled / n_in,
            "hash_plan_to_reference_ratio":
                _median(untraced["hash_plan_cpu_s"])
                / _median(untraced["reference_cpu_s"]),
            "trace.query_s": m("core.external_sort.run_gen",
                               "core.external_sort.merge",
                               "core.operators.merge_join.intersect"),
            **_untraced(untraced),
        }


class SparkQueries(Workload):
    """The three Spark pipelines as one query mix in one session: each
    iteration runs the Figure 1 group-by, the Figure 3 intersect and
    the LSM ingest -> query, and times the mix's total. One workload
    because each run pays a JVM start and JIT warm-up, which three
    separate Spark workloads could not afford within the run budget."""

    name = "spark_queries"
    PARTS = (Fig1SparkGroupby, Fig3SparkIntersect, LsmIngestQuery)

    def __init__(self, spark, seed: int, smoke: bool, work: Path) -> None:
        super().__init__(spark, seed, smoke, work)
        self.parts = [cls(spark, seed, smoke, work / cls.name)
                      for cls in self.PARTS]
        self.sizes = {**{p.name: p.sizes for p in self.parts},
                      "reference_reps": SPARK_REFERENCE_REPS}

    @property
    def leaked_temp_files(self) -> int:
        return sum(p.leaked_temp_files for p in self.parts)

    def setup(self) -> None:
        for p in self.parts:
            p.setup()

    def check(self) -> None:
        for p in self.parts:
            p.check()

    def iterate(self) -> dict[str, list[float]]:
        """Sample i of the mix is the sum of sample i of every part."""
        its = [p.iterate() for p in self.parts]
        return {k: [sum(x) for x in zip(*(it[k] for it in its))]
                for k in its[0]}

    def trace(self, tracer: Tracer, seconds: float) -> dict[str, float]:
        """Layers shared by several pipelines report their total time
        over the mix."""
        out = []
        for p in self.parts:
            tracer.scope = p.name
            out.append(p.trace(tracer, seconds / len(self.parts)))
        return _sum_dicts(out)


def _sum_dicts(dicts) -> dict[str, float]:
    out: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


WORKLOADS = {w.name: w for w in (SparkQueries, Fig3DriverSpill)}
