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

  private val Hdfs = "org.apache.spark.sql.execution.streaming.state.HDFSBackedStateStoreProvider" // Spark's default

  /** Stateful FiBA (or recompute-baseline) operator throughput;
    * `fullState` also logs each batch's deltas, as a durable query does.
    */
  def runStateful(spark: SparkSession, algoName: String, windowLen: Long,
                  m: Int, totalEvents: Long, fullState: Boolean = false): Double = {
    val runId = java.util.UUID.randomUUID().toString
    try drive(spark, windowLen, m, totalEvents, FibaStreaming.RocksDbProvider)(
      FibaStreaming.aggregate(_, windowLen, algoName, "sum", runId, fullState))
    finally FibaStreaming.clearCache(runId)
  }

  /** Built-in sliding-window aggregation throughput. `slide` coarser than
    * 1s keeps the pane blow-up tractable (a handicap in the baseline's
    * favor — finer slide only makes it slower).
    */
  def runBuiltin(spark: SparkSession, windowLen: Long, slide: Long,
                 m: Int, totalEvents: Long): Double =
    drive(spark, windowLen, m, totalEvents, Hdfs)(BaselineStreaming.builtinSliding(_, windowLen, slide))

  /** Runs `query` over a memory stream on the given state-store provider:
    * an untimed prefill of one window, then `totalEvents` in batches of m;
    * returns timed events/s.
    */
  private def drive(spark: SparkSession, windowLen: Long, m: Int, totalEvents: Long, provider: String)(
      query: Dataset[Event] => Dataset[_]): Double = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Event]
    val qn = "fig17_" + java.util.UUID.randomUUID().toString.replace("-", "").take(12)
    // Both are captured at query start; the session gets its values back.
    val pinned = Seq("spark.sql.shuffle.partitions" -> "4", FibaStreaming.ProviderConf -> provider)
    val saved = pinned.map { case (k, _) => k -> spark.conf.getOption(k) }
    val out = query(input.toDS())
    pinned.foreach { case (k, v) => spark.conf.set(k, v) }
    val q = out.writeStream.format("memory").queryName(qn).outputMode("update").start()
    saved.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
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
