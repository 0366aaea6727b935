package repro.streaming

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicBoolean
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryException, StreamingQueryProgress}
import repro.{Oracle, SparkSpec}
import repro.core.Monoids.SumD
import repro.core.baseline.BruteForceSwag
import scala.jdk.CollectionConverters._
import scala.util.Random

/** The Structured Streaming stateful operator (transformWithState +
  * FiBA, per the repro plan): correctness against DuckDB, parity between
  * the bulk / non-bulk / recompute state algorithms, out-of-order and
  * multi-key behavior, recovery from the checkpointed delta log, a
  * replayed batch applied once, and a log that stays bounded under late
  * data.
  */
class FibaStreamingSpec extends SparkSpec {

  private def runStream(algo: String, windowLen: Long, batches: Seq[Seq[Event]],
                        fullState: Boolean = true,
                        dropCacheBetweenBatches: Boolean = false,
                        onProgress: Seq[StreamingQueryProgress] => Unit = _ => ()): Seq[WindowAgg] = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Event]
    val runId = java.util.UUID.randomUUID().toString
    val qn = "t_" + runId.replace("-", "").take(16)
    val out = FibaStreaming.aggregate(input.toDS(), windowLen, algo, "sum", runId, fullState)
    var q: StreamingQuery = null
    try {
      q = out.writeStream.format("memory").queryName(qn).outputMode("update").start()
      for (b <- batches) {
        if (dropCacheBetweenBatches) FibaStreaming.clearCache(runId) // simulate executor restart
        input.addData(b)
        q.processAllAvailable()
      }
      onProgress(q.recentProgress.toSeq)
      spark.table(qn).as[WindowAgg].collect().toSeq
    } finally {
      if (q != null) q.stop()
      FibaStreaming.clearCache(runId)
      spark.catalog.dropTempView(qn)
    }
  }

  private def finalAggs(rows: Seq[WindowAgg]): Map[Long, Double] =
    rows.groupBy(_.key).map { case (k, rs) => k -> rs.maxBy(_.watermark).agg }

  private def mkBatches(nBatches: Int, perBatch: Int, keys: Int, ooo: Boolean, seed: Long): Seq[Seq[Event]] = {
    val rnd = new Random(seed)
    var t = 0L
    (1 to nBatches).map { _ =>
      (1 to perBatch).map { _ =>
        t += 1 + rnd.nextInt(3)
        val lateness = if (ooo && rnd.nextInt(10) == 0) rnd.nextInt(500) else 0
        Event(rnd.nextInt(keys).toLong, math.max(0, t - lateness), (t % 97).toDouble)
      }
    }
  }

  /** Each batch's rows as the brute-force reference computes them: one
    * window per key in the batch, at the key's watermark (its newest time).
    */
  private def reference(batches: Seq[Seq[Event]], windowLen: Long): Map[Long, Set[WindowAgg]] = {
    val refs = scala.collection.mutable.Map.empty[Long, (BruteForceSwag[Double], Long)]
    batches.zipWithIndex.map { case (b, i) =>
      i.toLong -> b.groupBy(_.key).map { case (k, es) =>
        val (ref, prevWm) = refs.getOrElse(k, (new BruteForceSwag[Double](SumD), Long.MinValue))
        es.foreach(e => ref.insert(e.time, e.value))
        val wm = math.max(prevWm, es.map(_.time).max)
        refs(k) = (ref, wm)
        ref.bulkEvict(wm - windowLen)
        WindowAgg(k, wm, ref.query())
      }.toSet
    }.toMap
  }

  /** Each key's final window equals DuckDB's sum over the events inside it. */
  private def assertFinalsMatchDuckDb(rows: Seq[WindowAgg], events: Seq[Event], windowLen: Long): Unit = {
    import spark.implicits._
    val eventsDf = events.toDF()
    val finals = finalAggs(rows)
    // per-key watermark = max time seen for that key
    val got = spark.createDataFrame(
      finals.toSeq.map { case (k, agg) => (k, agg) }).toDF("key", "agg")
    val wmByKey = events.groupBy(_.key).map { case (k, es) => k -> es.map(_.time).max }
    val wmDf = spark.createDataFrame(wmByKey.toSeq).toDF("key", "wm")
    Oracle.assertEquivalent(
      got,
      s"""SELECT CAST(e.key AS BIGINT) AS key, SUM(CAST(e.value AS DOUBLE)) AS agg
         |FROM events e JOIN wms w ON e.key = w.key
         |WHERE CAST(e.time AS BIGINT) > CAST(w.wm AS BIGINT) - $windowLen
         |GROUP BY 1""".stripMargin,
      "events" -> eventsDf.selectExpr("CAST(key AS BIGINT) key", "CAST(time AS BIGINT) time", "CAST(value AS DOUBLE) value"),
      "wms" -> wmDf.selectExpr("CAST(key AS BIGINT) key", "CAST(wm AS BIGINT) wm"))
  }

  test("windowed aggregate matches DuckDB on the final watermark (per key)") {
    val windowLen = 300L
    val batches = mkBatches(nBatches = 8, perBatch = 100, keys = 4, ooo = true, seed = 11)
    assertFinalsMatchDuckDb(runStream("b_fiba4", windowLen, batches), batches.flatten, windowLen)
  }

  test("bulk, non-bulk, and recompute state algorithms emit identical results") {
    val windowLen = 200L
    val batches = mkBatches(nBatches = 10, perBatch = 64, keys = 3, ooo = true, seed = 23)
    val a = runStream("b_fiba4", windowLen, batches).sortBy(r => (r.key, r.watermark))
    val b = runStream("nb_fiba4", windowLen, batches).sortBy(r => (r.key, r.watermark))
    val c = runStream("recompute", windowLen, batches).sortBy(r => (r.key, r.watermark))
    val d = runStream("b_fiba8", windowLen, batches).sortBy(r => (r.key, r.watermark))
    assert(a.map(r => (r.key, r.watermark)) == b.map(r => (r.key, r.watermark)))
    a.zip(b).foreach { case (x, y) => assert(math.abs(x.agg - y.agg) < 1e-6, s"$x vs $y") }
    a.zip(c).foreach { case (x, y) => assert(math.abs(x.agg - y.agg) < 1e-6, s"$x vs $y") }
    a.zip(d).foreach { case (x, y) => assert(math.abs(x.agg - y.agg) < 1e-6, s"$x vs $y") }
  }

  test("state snapshot recovery: dropping the live-tree cache changes nothing") {
    val windowLen = 250L
    val batches = mkBatches(nBatches = 8, perBatch = 50, keys = 2, ooo = true, seed = 31)
    val warm = runStream("b_fiba4", windowLen, batches, fullState = true)
      .sortBy(r => (r.key, r.watermark))
    val cold = runStream("b_fiba4", windowLen, batches, fullState = true, dropCacheBetweenBatches = true)
      .sortBy(r => (r.key, r.watermark))
    assert(warm.map(r => (r.key, r.watermark)) == cold.map(r => (r.key, r.watermark)))
    warm.zip(cold).foreach { case (x, y) => assert(math.abs(x.agg - y.agg) < 1e-6, s"$x vs $y") }
  }

  /** Runs `batches` through a durable b_fiba4 sum query with a real
    * checkpoint and a `foreachBatch` sink. At `failAt` the sink throws
    * once, after the batch's state has been committed; the query is then
    * restarted from the checkpoint with the same `runId`, so Spark re-runs
    * that batch against the cached trees. After batch `restartAfter` the
    * query is stopped, the cache dropped, and the query restarted. Returns
    * each batch id's rows as the sink last saw them.
    */
  private def runCheckpointed(batches: Seq[Seq[Event]], windowLen: Long, failAt: Option[Long] = None,
                              restartAfter: Option[Int] = None): Map[Long, Set[WindowAgg]] = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Event]
    val runId = java.util.UUID.randomUUID().toString
    val dir = java.nio.file.Files.createTempDirectory("fiba-checkpoint").toFile
    val seen = new ConcurrentHashMap[Long, Set[WindowAgg]]()
    val armed = new AtomicBoolean(failAt.isDefined)
    val sink: (Dataset[WindowAgg], Long) => Unit = (ds, id) => {
      val rows = ds.collect().toSet
      if (failAt.contains(id) && armed.getAndSet(false)) throw new IllegalStateException(s"sink fails once, at batch $id")
      seen.put(id, rows)
    }
    def start(): StreamingQuery =
      FibaStreaming.aggregate(input.toDS(), windowLen, "b_fiba4", "sum", runId, fullState = true)
        .writeStream.outputMode("update").option("checkpointLocation", dir.getAbsolutePath)
        .foreachBatch(sink).start()
    var q = start()
    try {
      for ((b, i) <- batches.zipWithIndex) {
        input.addData(b)
        try q.processAllAvailable()
        catch { case _: StreamingQueryException => q = start(); q.processAllAvailable() }
        if (restartAfter.contains(i)) { q.stop(); FibaStreaming.clearCache(runId); q = start() }
      }
      assert(!armed.get, "the sink never failed")
      seen.asScala.toMap
    } finally {
      q.stop()
      FibaStreaming.clearCache(runId)
      org.apache.commons.io.FileUtils.deleteQuietly(dir)
    }
  }

  test("a batch re-run after a sink failure is applied once") {
    // one key, 10 events of value 1.0 per batch; the sink fails at batch 2
    val windowLen = 40L
    val batches = (0 until 5).map(b => (0 until 10).map(j => Event(0, 10L * b + j, 1.0)))
    val got = runCheckpointed(batches, windowLen, failAt = Some(2L))
    assert(got(2L) == Set(WindowAgg(0, 29, 30.0)) && got(3L) == Set(WindowAgg(0, 39, 40.0)), got)
    assert(got == reference(batches, windowLen))
  }

  test("a restart mid-stream with the cache dropped rebuilds every key from its log") {
    val windowLen = 250L
    val batches = mkBatches(nBatches = 8, perBatch = 60, keys = 3, ooo = true, seed = 37)
    val got = runCheckpointed(batches, windowLen, restartAfter = Some(3))
    assert(got == reference(batches, windowLen))
    val last = batches.indices.map(i => got(i.toLong)).flatten
    assertFinalsMatchDuckDb(last, batches.flatten, windowLen)
  }

  test("late data: the delta log compacts, results stay exact and state rows stay bounded") {
    // A window-long prefill, then per key and batch: 10 in-order seconds
    // and 30 late events, a fifth of them beyond the window. A delta lives
    // until the cut passes its newest entry, 40 batches (400 s / 10 s),
    // while its late entries age out, so without compaction a key would
    // hold 40 deltas: more than the bound of 2 * 400 / 40 + 2.
    val windowLen = 400L
    val keys = 2
    val fresh = 10
    val late = 30
    val rnd = new Random(41)
    val prefill = (0 until keys).flatMap(k => (1L to windowLen).map(t => Event(k, t, (t % 89).toDouble)))
    val batches = prefill +: (1 to 60).map { b =>
      val t0 = windowLen + (b - 1).toLong * fresh
      (0 until keys).flatMap { k =>
        val inOrder = (1 to fresh).map(j => Event(k, t0 + j, ((t0 + j) % 89).toDouble))
        val lateEs = (1 to late).map { _ =>
          val t = t0 - rnd.nextInt(windowLen.toInt + windowLen.toInt / 4)
          Event(k, t, (t % 13).toDouble)
        }
        rnd.shuffle(inOrder ++ lateEs)
      }
    }
    var maxRows = 0L
    val rows = runStream("b_fiba4", windowLen, batches, onProgress = ps =>
      maxRows = ps.flatMap(_.stateOperators.headOption.map(_.numRowsTotal)).max)
    val byBatch = rows.groupBy(_.watermark).map { case (wm, rs) => wm -> rs.toSet }
    val expected = reference(batches, windowLen).values.map(rs => rs.head.watermark -> rs).toMap
    assert(byBatch == expected)
    assertFinalsMatchDuckDb(rows, batches.flatten, windowLen)
    val bound = keys * (2 * windowLen / (fresh + late) + 2)
    assert(maxRows > 0 && maxRows <= bound, s"state rows $maxRows, bound $bound")
  }

  test("late events beyond the window are admitted then evicted (no effect)") {
    val windowLen = 100L
    val batches = Seq(
      (1 to 50).map(i => Event(0, 1000L + i, 1.0)),
      Seq(Event(0, 10L, 999.0)), // far-late event, outside the window
      Seq(Event(0, 1051L, 1.0)),
    )
    val rows = runStream("b_fiba4", windowLen, batches)
    val last = rows.maxBy(_.watermark)
    // window (951, 1051]: the 50 prefill events + the last one, late one gone
    assert(last.agg == 51.0, s"late event leaked into $last")
  }

  test("duplicate timestamps within a batch are pre-combined") {
    val rows = runStream("b_fiba4", 100L, Seq(Seq(
      Event(0, 5, 1.0), Event(0, 5, 2.0), Event(0, 7, 4.0), Event(0, 5, 8.0))))
    assert(rows.maxBy(_.watermark).agg == 15.0)
  }

  test("built-in sliding window agrees with DuckDB on a batch table") {
    import spark.implicits._
    val events = (1 to 500).map(i => Event(i % 3L, i.toLong, (i % 7).toDouble))
    val df = events.toDS()
    val got = BaselineStreaming.builtinSliding(df, windowLenSec = 60, slideSec = 30)
      .selectExpr("key", "unix_seconds(window.start) AS win_start", "agg")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(e.key AS BIGINT) AS key, w.win_start AS win_start, SUM(CAST(e.value AS DOUBLE)) AS agg
        |FROM events e
        |JOIN (SELECT DISTINCT (CAST(time AS BIGINT) // 30) * 30 - s.off AS win_start
        |      FROM events, (SELECT UNNEST([0, 30]) AS off) s) w
        |  ON CAST(e.time AS BIGINT) >= w.win_start AND CAST(e.time AS BIGINT) < w.win_start + 60
        |GROUP BY 1, 2""".stripMargin,
      "events" -> df.toDF().selectExpr("CAST(key AS BIGINT) key", "CAST(time AS BIGINT) time", "CAST(value AS DOUBLE) value"))
  }
}
