"""Spark-level tests: the ``_ovc`` column, in-stream aggregation,
duplicate removal, merge joins, and intersect — all result-checked
against DuckDB via the oracle, and the joins' ``_ovc`` re-encoded per
partition.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.oracle import assert_equivalent
from repro.sparkops.aggregate import instream_aggregate, instream_distinct
from repro.sparkops.joins import intersect_distinct_ovc, merge_join_ovc
from repro.sparkops.ovc_column import OVC_COL, attach_ovc, check_ovc
from repro.synth_data import uniform_keys, webkeys

KEYS4 = ["k0", "k1", "k2", "k3"]


def assert_partition_codes(out, keys):
    """Every partition's ``_ovc`` equals the brute-force re-encoding of
    its output keys in partition order."""
    pdf = out.withColumn("_pid", F.spark_partition_id()).toPandas()
    spec = OvcSpec(len(keys))
    for _, part in pdf.groupby("_pid"):
        arr = part[keys].to_numpy(dtype=np.int64)
        assert (encode_sorted_array(arr, spec) ==
                part[OVC_COL].to_numpy()).all()
    return pdf


@pytest.fixture(scope="module")
def web_df(spark):
    return webkeys(spark, n=5000, key_cols=4, ratio=10.0, seed=1).cache()


class TestAttachOvc:
    def test_codes_valid_per_partition(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, num_partitions=8)
        assert check_ovc(coded, KEYS4)

    def test_partition_streams_are_sorted_and_coded(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, num_partitions=4)
        assert assert_partition_codes(coded, KEYS4)["_pid"].nunique() > 1

    def test_row_count_preserved(self, spark, web_df):
        assert attach_ovc(web_df, KEYS4).count() == web_df.count()

    def test_single_partition_is_globally_sorted_stream(self, spark):
        df = webkeys(spark, n=500, key_cols=3, ratio=5.0, seed=2)
        coded = attach_ovc(df, ["k0", "k1", "k2"], num_partitions=1)
        pdf = coded.toPandas()
        arr = pdf[["k0", "k1", "k2"]].to_numpy(dtype=np.int64)
        assert (arr[np.lexsort(arr.T[::-1])] == arr).all()
        spec = OvcSpec(3)
        assert (encode_sorted_array(arr, spec) ==
                pdf[OVC_COL].to_numpy()).all()

    def test_rejects_bad_partition_prefix(self, spark, web_df):
        with pytest.raises(ValueError):
            attach_ovc(web_df, KEYS4, partition_on=["k1"])

    def test_rejects_empty_keys(self, spark, web_df):
        with pytest.raises(ValueError):
            attach_ovc(web_df, [])

    def test_negative_key_raises(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [-7, -5, 3]}))
        with pytest.raises(PythonException, match="out of domain"):
            attach_ovc(df, ["k"], num_partitions=1).collect()


class TestInstreamAggregate:
    def test_count_star_group_by_all_keys(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, num_partitions=8)
        out = instream_aggregate(coded, KEYS4, 4, {"cnt": ("*", "count")})
        assert_equivalent(
            out.drop(OVC_COL),
            "select k0, k1, k2, k3, count(*) as cnt from t "
            "group by k0, k1, k2, k3",
            t=web_df,
        )

    def test_group_by_prefix_with_sum(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, partition_on=KEYS4[:2],
                           num_partitions=8)
        out = instream_aggregate(
            coded, KEYS4, 2,
            {"cnt": ("*", "count"), "sv": ("v", "sum"),
             "mx": ("v", "max"), "mn": ("v", "min")},
        )
        assert_equivalent(
            out.drop(OVC_COL),
            "select k0, k1, count(*) as cnt, sum(v) as sv, "
            "max(v) as mx, min(v) as mn from t group by k0, k1",
            t=web_df,
        )

    def test_output_codes_are_valid_group_codes(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, partition_on=KEYS4[:1],
                           num_partitions=4)
        out = instream_aggregate(coded, KEYS4, 1, {"cnt": ("*", "count")})
        pdf = out.toPandas().sort_values("k0").reset_index(drop=True)
        spec1 = OvcSpec(1)
        arr = pdf[["k0"]].to_numpy(dtype=np.int64)
        # group keys are globally distinct; codes per partition valid.
        assert pdf["k0"].is_unique
        assert (pdf[OVC_COL].to_numpy() > 0).all()
        assert spec1.arity == 1 and len(arr) == len(pdf)

    def test_rejects_bad_aggregate(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4)
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 4, {"x": ("v", "median")})
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 4, {"x": ("*", "sum")})
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 9, {"x": ("*", "count")})


class TestInstreamDistinct:
    def test_distinct_matches_oracle(self, spark, web_df):
        coded = attach_ovc(web_df.select(KEYS4), KEYS4, num_partitions=8)
        out = instream_distinct(coded, KEYS4)
        assert_equivalent(
            out.drop(OVC_COL),
            "select distinct k0, k1, k2, k3 from t",
            t=web_df.select(KEYS4),
        )

    def test_distinct_with_counts(self, spark, web_df):
        coded = attach_ovc(web_df.select(KEYS4), KEYS4, num_partitions=8)
        out = instream_distinct(coded, KEYS4, count_col="cnt")
        assert_equivalent(
            out.drop(OVC_COL),
            "select k0, k1, k2, k3, count(*) as cnt from t "
            "group by k0, k1, k2, k3",
            t=web_df.select(KEYS4),
        )

    def test_no_duplicate_codes_survive(self, spark, web_df):
        coded = attach_ovc(web_df.select(KEYS4), KEYS4, num_partitions=8)
        out = instream_distinct(coded, KEYS4)
        assert out.filter(F.col(OVC_COL) == 0).count() == 0


def _plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


class TestMergeJoin:
    @pytest.fixture(scope="class")
    def lr(self, spark):
        l = uniform_keys(spark, n=800, n_keys=300, seed=10) \
            .withColumnRenamed("v", "lv")
        r = uniform_keys(spark, n=600, n_keys=300, seed=11) \
            .withColumnRenamed("v", "rv")
        return l.cache(), r.cache()

    def test_inner_join(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, ["k"], "inner", num_partitions=4)
        assert_equivalent(
            out.drop(OVC_COL),
            "select l.k as k, l.lv as lv, r.rv as rv "
            "from l join r on l.k = r.k",
            l=l, r=r,
        )
        assert_partition_codes(out, ["k"])

    def test_left_semi(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, ["k"], "left_semi", num_partitions=4)
        assert_equivalent(
            out.drop(OVC_COL),
            "select k, lv from l where k in (select k from r)",
            l=l, r=r,
        )
        assert_partition_codes(out, ["k"])

    def test_left_anti(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, ["k"], "left_anti", num_partitions=4)
        assert_equivalent(
            out.drop(OVC_COL),
            "select k, lv from l where k not in (select k from r)",
            l=l, r=r,
        )
        assert_partition_codes(out, ["k"])

    def test_left_outer(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, ["k"], "left_outer", num_partitions=4)
        assert_equivalent(
            out.drop(OVC_COL),
            "select l.k as k, l.lv as lv, r.rv as rv "
            "from l left join r on l.k = r.k",
            l=l, r=r,
        )
        assert_partition_codes(out, ["k"])

    @pytest.mark.parametrize("how, sql", [
        ("inner", "select l.a, l.b, l.lv, r.rv from l "
                  "join r on l.a = r.a and l.b = r.b"),
        ("left_semi", "select a, b, lv from l where exists "
                      "(select 1 from r where r.a = l.a and r.b = l.b)"),
        ("left_anti", "select a, b, lv from l where not exists "
                      "(select 1 from r where r.a = l.a and r.b = l.b)"),
        ("left_outer", "select l.a, l.b, l.lv, r.rv from l "
                       "left join r on l.a = r.a and l.b = r.b"),
    ])
    def test_two_column_key_more_partitions_than_keys(self, spark, how,
                                                      sql):
        # 3 x 2 distinct keys, duplicated on both sides, over 16
        # partitions: most partitions are empty.
        g = np.random.default_rng(12)
        l = spark.createDataFrame(pd.DataFrame({
            "a": g.integers(0, 3, 40), "b": g.integers(0, 2, 40),
            "lv": np.arange(40)}))
        r = spark.createDataFrame(pd.DataFrame({
            "a": g.integers(1, 4, 30), "b": g.integers(0, 2, 30),
            "rv": np.arange(30)}))
        out = merge_join_ovc(l, r, ["a", "b"], how, num_partitions=16)
        assert_equivalent(out.drop(OVC_COL), sql, l=l, r=r)
        assert_partition_codes(out, ["a", "b"])

    def test_plan_has_one_exchange_and_one_arrow_pass(self, spark, lr):
        plan = _plan(merge_join_ovc(*lr, ["k"], "inner", num_partitions=4))
        assert plan.count("rangepartitioning") == 1
        assert plan.count("MapInArrow") == 1
        assert "MapInPandas" not in plan

    def test_rejects_ambiguous_columns(self, spark):
        df = uniform_keys(spark, n=10, n_keys=5)
        with pytest.raises(ValueError, match="ambiguous"):
            merge_join_ovc(df, df, ["k"])


class TestIntersectDistinct:
    def test_matches_sql_intersect(self, spark):
        t1 = uniform_keys(spark, n=1000, n_keys=400, seed=20).select("k")
        t2 = uniform_keys(spark, n=1000, n_keys=400, seed=21).select("k")
        out = intersect_distinct_ovc(t1, t2, ["k"], num_partitions=4)
        assert_equivalent(
            out.drop(OVC_COL),
            "select k from t1 intersect select k from t2",
            t1=t1, t2=t2,
        )
        assert_partition_codes(out, ["k"])

    def test_two_column_key_more_partitions_than_keys(self, spark):
        g = np.random.default_rng(22)
        t1 = spark.createDataFrame(pd.DataFrame({
            "a": g.integers(0, 3, 50), "b": g.integers(0, 3, 50),
            "v": np.arange(50)}))
        t2 = spark.createDataFrame(pd.DataFrame({
            "a": g.integers(1, 4, 50), "b": g.integers(0, 3, 50)}))
        out = intersect_distinct_ovc(t1, t2, ["a", "b"], num_partitions=16)
        assert_equivalent(
            out.drop(OVC_COL),
            "select a, b from t1 intersect select a, b from t2",
            t1=t1, t2=t2,
        )
        assert_partition_codes(out, ["a", "b"])

    def test_plan_has_one_exchange_and_one_arrow_pass(self, spark):
        t = uniform_keys(spark, n=100, n_keys=40).select("k")
        plan = _plan(intersect_distinct_ovc(t, t, ["k"], num_partitions=4))
        assert plan.count("rangepartitioning") == 1
        assert plan.count("MapInArrow") == 1
        assert "MapInPandas" not in plan
