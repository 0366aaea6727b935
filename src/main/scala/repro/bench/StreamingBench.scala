package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.streaming.{BaselineStreaming, Event, FibaStreaming}

/** Fig 17: end-to-end throughput inside a streaming engine. The paper
  * reimplemented FiBA in Java inside Apache Flink 1.17; we run it as a
  * Spark Structured Streaming stateful operator (see DESIGN.md) against
  * Spark's built-in sliding-window aggregation. Window n = 8192 seconds
  * of 1-event/second data; micro-batches of m events; throughput =
  * events / wall-clock across all batches after a window prefill.
  */
object StreamingBench {

  /** Stateful FiBA (or recompute-baseline) operator throughput. */
  def runStateful(spark: SparkSession, algoName: String, windowLen: Long,
                  m: Int, totalEvents: Long): Double = {
    val runId = java.util.UUID.randomUUID().toString
    try drive(spark, windowLen, m, totalEvents)(
      FibaStreaming.aggregate(_, windowLen, algoName, "sum", runId, fullState = false))
    finally FibaStreaming.clearCache(runId)
  }

  /** Built-in sliding-window aggregation throughput. `slide` coarser than
    * 1s keeps the pane blow-up tractable (a handicap in the baseline's
    * favor — finer slide only makes it slower).
    */
  def runBuiltin(spark: SparkSession, windowLen: Long, slide: Long,
                 m: Int, totalEvents: Long): Double =
    drive(spark, windowLen, m, totalEvents)(BaselineStreaming.builtinSliding(_, windowLen, slide))

  /** Runs `query` over a memory stream: an untimed prefill of one window,
    * then `totalEvents` in batches of m; returns timed events/s.
    */
  private def drive(spark: SparkSession, windowLen: Long, m: Int, totalEvents: Long)(
      query: Dataset[Event] => Dataset[_]): Double = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Event]
    val qn = "fig17_" + java.util.UUID.randomUUID().toString.replace("-", "").take(12)
    val out = query(input.toDS())
    val prevParts = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4") // captured at query start
    val q = out.writeStream.format("memory").queryName(qn).outputMode("update").start()
    spark.conf.set("spark.sql.shuffle.partitions", prevParts)
    try {
      var t = 0L
      def sendBatch(size: Int): Unit = {
        val batch = (1 to size).map { k => Event(0L, t + k, ((t + k) % 101).toDouble) }
        t += size
        input.addData(batch)
        q.processAllAvailable()
      }
      // prefill in large chunks — untimed, and the resulting state is the same
      while (t < windowLen) sendBatch(math.min(4096, (windowLen - t).toInt))
      var sent = 0L
      val t0 = System.nanoTime()
      while (sent < totalEvents) { sendBatch(m); sent += m }
      sent.toDouble / ((System.nanoTime() - t0) / 1e9)
    } finally {
      q.stop()
      spark.catalog.dropTempView(qn)
    }
  }
}
