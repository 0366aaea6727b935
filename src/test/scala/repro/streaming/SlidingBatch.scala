package repro.streaming

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.Monoids.SumD
import repro.core.fiba.FibaTree

/** Batch sliding-window aggregation built on the FiBA tree, used to
  * validate the operator against DuckDB's RANGE window frames: for every
  * distinct timestamp t in the input, the monoidal sum over the window
  * (t - windowLen, t]. One forward pass: bulk insert per timestamp group,
  * bulk evict to slide — the same primitives the paper defines.
  */
object SlidingBatch {

  /** df: (t: long/int, v: double) -> (t, window_sum) for each distinct t. */
  def slidingSums(spark: SparkSession, df: DataFrame, windowLen: Long): DataFrame = {
    def time(r: Row): Long = r.get(0).toString.toLong
    val rows = df.select(df.columns.head, df.columns(1)).collect().sortBy(time)
    // pre-combine each timestamp group into entry j of times/values
    val times = new Array[Long](rows.length)
    val values = new Array[Double](rows.length)
    var n = 0
    var i = 0
    while (i < rows.length) {
      val t = time(rows(i))
      var v = 0.0
      while (i < rows.length && time(rows(i)) == t) { v += rows(i).get(1).toString.toDouble; i += 1 }
      times(n) = t; values(n) = v; n += 1
    }
    val tree = new FibaTree[Double](4, SumD)
    val out = Vector.newBuilder[Row]
    for (j <- 0 until n) {
      tree.bulkInsertNative(times, values, j, j + 1)
      tree.bulkEvictNative(times(j) - windowLen)
      out += Row(times(j), tree.queryAgg())
    }
    val schema = StructType(Seq(StructField("t", LongType), StructField("window_sum", DoubleType)))
    spark.createDataFrame(spark.sparkContext.parallelize(out.result()), schema)
  }
}
