package swagperf

import java.io.File
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import repro.core.Monoids.SumD
import repro.core.fiba.BFiba
import repro.streaming.{Event, FibaStreaming, WindowAgg, WindowSnapshot}
import scala.collection.mutable.ArrayBuffer

/** stream_durable: `FibaStreaming.aggregate(..., "b_fiba4", "sum",
  * fullState = true)` over a MemoryStream in local[2] with 2 shuffle
  * partitions. 4 keys, a window of `w` seconds per key, one event per
  * second per key, `m` events per batch, closed loop: the next batch is
  * added only after `processAllAvailable` returned the previous result.
  */
final class StreamBench(seed: Long, seconds: Double, trace: Boolean, smoke: Boolean, report: Report) {
  private val w = if (smoke) 1L << 10 else 1L << 16
  private val m = if (smoke) 256 else 4096
  private val warmupBatches = if (smoke) 2 else 12
  private val setups = if (smoke) 1 else 3
  private val partitions = 2
  /** Four keys, two per shuffle partition (Spark hashes a long grouping
    * key with Murmur3, seed 42), so both task slots get equal work.
    */
  private val keys: Array[Long] = {
    val byPart = Iterator.from(0).map(_.toLong)
      .map(k => k -> java.lang.Math.floorMod(Murmur3_x86_32.hashLong(k, 42), partitions))
    val picked = ArrayBuffer.empty[Long]
    val perPart = new Array[Int](partitions)
    byPart.takeWhile(_ => picked.length < 4).foreach { case (k, p) =>
      if (perPart(p) < 4 / partitions) { picked += k; perPart(p) += 1 }
    }
    picked.toArray
  }
  private val perKey = m / keys.length // seconds of event time per batch

  private def value(key: Long, t: Long): Long = Mix.value(seed, key, t, 0, 101).toLong

  /** Batch b (b = -1 is the prefill) as events in a seeded random order,
    * with each key's reference window sum after the batch.
    */
  private final class Batch(val events: Array[Event], val watermark: Long)

  private val refSum = new Array[Long](4)

  private def gen(b: Long): Batch = {
    val (from, len) = if (b < 0) (0L, w) else (w + b * perKey, perKey.toLong)
    val ev = new Array[Event]((len * keys.length).toInt)
    var i = 0
    var t = from
    while (t < from + len) {
      var k = 0
      while (k < keys.length) {
        val v = value(keys(k), t)
        ev(i) = Event(keys(k), t, v.toDouble)
        refSum(k) += v
        if (t - w >= 0) refSum(k) -= value(keys(k), t - w)
        i += 1; k += 1
      }
      t += 1
    }
    val rnd = new java.util.SplittableRandom(Mix(seed ^ b))
    i = ev.length - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val x = ev(i); ev(i) = ev(j); ev(j) = x; i -= 1 }
    new Batch(ev, from + len - 1)
  }

  private def resetRef(): Unit = java.util.Arrays.fill(refSum, 0L)

  /** Every key's row must carry the batch's watermark and the exact sum of
    * its window (the values are integers, so the sum is exact).
    */
  private def check(rows: Array[WindowAgg], b: Batch): Boolean =
    rows.length == keys.length && rows.forall { r =>
      val k = keys.indexOf(r.key)
      k >= 0 && r.watermark == b.watermark && r.agg == refSum(k).toDouble
    }

  @volatile private var latest: (Long, Array[WindowAgg]) = (-1L, Array.empty)
  private var attempted = 0L
  private var failed = 0L

  private final class Query(val q: StreamingQuery, val input: MemoryStream[Event], val runId: String, val dir: File)

  private def startQuery(spark: SparkSession, n: Int): Query = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Event]
    val runId = s"swagperf-$n-${java.util.UUID.randomUUID()}"
    val dir = new File(report.workDir, s"checkpoint-$n")
    val out = FibaStreaming.aggregate(input.toDS(), w, "b_fiba4", "sum", runId, fullState = true)
    val sink: (Dataset[WindowAgg], Long) => Unit = (ds, id) => latest = (id, ds.collect())
    val q = out.writeStream.outputMode("update")
      .option("checkpointLocation", dir.getAbsolutePath)
      .foreachBatch(sink)
      .start()
    new Query(q, input, runId, dir)
  }

  private def stopQuery(q: Query): Unit = {
    q.q.stop()
    FibaStreaming.clearCache(q.runId)
    deleteTree(q.dir)
  }

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }

  /** Hands one batch to the system and waits for its result; returns
    * (ns in addData, ns until the updated aggregate was readable).
    */
  private def runBatch(q: Query, b: Batch): (Long, Long) = {
    val t0 = System.nanoTime()
    q.input.addData(b.events.toSeq)
    val t1 = System.nanoTime()
    q.q.processAllAvailable()
    val t2 = System.nanoTime()
    (t1 - t0, t2 - t0)
  }

  private def checkLatest(b: Batch): Unit = {
    attempted += 1
    if (!check(latest._2, b)) {
      failed += 1
      if (failed <= 5) Console.err.println(
        s"swagperf: batch ${latest._1} mismatch: got ${latest._2.mkString(", ")}; expected watermark ${b.watermark}, sums ${refSum.mkString(", ")} for keys ${keys.mkString(", ")}")
    }
  }

  def run(): Unit = {
    val spark = SparkSession.builder()
      .master(s"local[$partitions]")
      .appName("swagperf")
      .config("spark.sql.shuffle.partitions", partitions.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(report.workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(report.workDir, "warehouse").getAbsolutePath)
      .config("spark.sql.streaming.numRecentProgressUpdates", 100000L)
      .getOrCreate()
    try runWith(spark) finally spark.stop()
  }

  private def runWith(spark: SparkSession): Unit = {
    val startS = JvmProbe.uptimeMs / 1000.0 // JVM and SparkSession start, once per run
    val conf = Seq("spark.master", "spark.sql.shuffle.partitions", "spark.sql.streaming.stateStore.providerClass",
      "spark.sql.streaming.numRecentProgressUpdates", "spark.local.dir")
      .map(k => k -> spark.conf.getOption(k).getOrElse("(default)"))
    report.params("spark_version", spark.version)
    report.params("spark_conf", conf)
    report.params("checkpoint_dir", report.workDir.getAbsolutePath)
    report.params("workload_params", Seq("algo" -> "b_fiba4", "monoid" -> "sum", "full_state" -> true,
      "keys" -> keys.mkString(" "), "window_s_per_key" -> w, "live_entries" -> w * keys.length,
      "events_per_batch" -> m, "warmup_batches" -> warmupBatches, "setups" -> setups,
      "values" -> "integers 0..100, events shuffled within each batch"))

    // ---- setup, repeated on fresh queries; the last one is kept
    val setupS = new Array[Double](setups)
    HostProbe.allCpus.time() // compile the probe before it is read
    var query: Query = null
    var heapBase = 0L
    var heapFull = 0L
    var genNs = 0L
    var genItems = 0L
    var nextBatch = 0L
    for (k <- 0 until setups) {
      if (query != null) stopQuery(query)
      query = null
      // The live heap is measured around the first setup, while no state
      // of an earlier query is loaded.
      if (k == 0) heapBase = JvmProbe.liveHeapBytes()
      resetRef()
      val t0 = System.nanoTime()
      query = startQuery(spark, k)
      var busyNs = System.nanoTime() - t0
      nextBatch = -1L
      while (nextBatch < warmupBatches) {
        val g0 = System.nanoTime()
        val b = gen(nextBatch)
        genNs += System.nanoTime() - g0; genItems += b.events.length
        busyNs += runBatch(query, b)._2
        checkLatest(b)
        nextBatch += 1
      }
      setupS(k) = busyNs / 1e9
      if (k == 0) heapFull = JvmProbe.liveHeapBytes()
      report.note(f"setup ${k + 1}/$setups: query start, prefill and $warmupBatches warm-up batches ${busyNs / 1e6}%.0f ms")
    }
    val live = w * keys.length

    // ---- timed phase
    val lat = new LongBuf(256)      // untraced batch times (ns) as read ...
    val latProbe = new LongBuf(256) // ... and the index of the probe read right after each
    val tracedLat = new LongBuf(256)
    val secItems = new LongBuf(64); val secNs = new LongBuf(64)
    val hostNs = new LongBuf(256)   // host probe after each batch
    val spans = new Spans
    val sBatch = spans.nameId("batch")
    val sIngest = spans.nameId("ingest")
    val tracedBatches = ArrayBuffer.empty[(Long, Long, Long)] // (span id, batch id, ns at addData's return)
    val tracedAlloc = new LongBuf(256)
    val timedFrom = nextBatch
    val mark = JvmProbe.mark()
    val wall0 = System.nanoTime()
    val deadline = wall0 + (seconds * 1e9).toLong
    while (System.nanoTime() < deadline) {
      val g0 = System.nanoTime()
      val b = gen(nextBatch)
      genNs += System.nanoTime() - g0; genItems += b.events.length
      val traced = trace && (nextBatch & 1) == 1
      val a0 = if (traced) JvmProbe.allocatedBytes else 0L
      val s0 = System.nanoTime()
      val (ingestNs, ns) = runBatch(query, b)
      if (traced) {
        tracedAlloc += JvmProbe.allocatedBytes - a0
        val id = spans.add(sBatch, -1, s0, s0 + ns)
        spans.add(sIngest, id, s0, s0 + ingestNs)
        tracedBatches += ((id, latest._1, s0 + ingestNs))
        tracedLat += ns
      } else lat += ns
      checkLatest(b)
      if (!traced) latProbe += hostNs.length
      hostNs += HostProbe.allCpus.time()
      val sec = ((s0 - wall0) / 1000000000L).toInt
      while (secNs.length <= sec) { secNs += 0; secItems += 0 }
      secNs.addAt(sec, ns); secItems.addAt(sec, b.events.length)
      nextBatch += 1
    }
    val wallS = (System.nanoTime() - wall0) / 1e9
    val pauses = JvmProbe.pausesSince(mark)
    val jitMs = JvmProbe.jitMsSince(mark)
    val latA = lat.toArray

    // A batch is scaled by the median of the probes read around it (about
    // 4 s): one ~15 ms reading is too noisy to scale a single batch.
    val probes = hostNs.toArray
    val probe = HostProbe.allCpus
    val scaledA = Array.tabulate(latA.length)(i => (latA(i) * probe.timeScale(HostProbe.around(probes, latProbe(i).toInt))).toLong)
    report.e2e("items_per_s", "items/s", scaledA.length.toLong * m / (scaledA.sum / 1e9))
    report.e2e("result_latency_p50_ms", "ms", Stats.percentile(scaledA, 0.50) / 1e6)
    report.e2e("result_latency_p90_ms", "ms", Stats.percentile(scaledA, 0.90) / 1e6)
    report.e2e("heap_bytes_per_item", "B/item", (heapFull - heapBase).toDouble / live)
    // Set-up is scaled by the run's median probe: one reading is too noisy
    // for a single span of several seconds.
    val setupRaw = startS + Stats.median(setupS.toSeq)
    report.e2e("setup_s", "s", setupRaw * probe.timeScale(Stats.median(probes.toSeq.map(_.toDouble))))
    report.raw(latA.length.toLong * m / (lat.sum / 1e9), Stats.percentile(latA, 0.50) / 1e6, setupRaw)
    report.note(s"latency samples: ${latA.length} untraced batches of $m events; timed wall ${"%.2f".format(wallS)} s")
    val perSec = (0 until secNs.length).filter(s => secNs(s) > 0).map(s => secItems(s) / (secNs(s) / 1e9))
    report.steadiness(perSec, pauses, jitMs, probes.toSeq, "second")

    if (trace) {
      val progress = progressByBatch(query.q, tracedBatches.map(_._2).toSet)
      layers(spans, tracedBatches.toSeq, progress, lat, tracedLat, tracedAlloc, live)
      replay(timedFrom, nextBatch, progress, tracedBatches.map(_._2).toSet)
      report.layer("bench.gen_ns_per_item", "ns", genNs.toDouble / genItems)
      spans.write(report.traceFile)
      report.note(s"wrote ${spans.size} spans to ${report.traceFile}")
    }
    stopQuery(query)
    report.setCounts(attempted, failed)
  }

  /** The engine's own progress reports for the given batch ids. They are
    * published just after the batch commits, so wait for the last ones.
    */
  private def progressByBatch(q: StreamingQuery, ids: Set[Long]): Map[Long, StreamingQueryProgress] = {
    val deadline = System.nanoTime() + 10000000000L
    var got = Map.empty[Long, StreamingQueryProgress]
    while (got.size < ids.size && System.nanoTime() < deadline) {
      got = q.recentProgress.filter(p => ids(p.batchId) && p.numInputRows > 0).map(p => p.batchId -> p).toMap
      if (got.size < ids.size) Thread.sleep(20)
    }
    require(got.size == ids.size, s"progress for ${ids.size - got.size} traced batches never arrived")
    got
  }

  /** Spark-engine and state-store layers of the traced batches. Each
    * batch span gets children laid out from the engine's phase durations
    * (ms) in the order the engine runs them, starting at the trigger's
    * start, and a `poll_wait` child from addData's return to that start.
    */
  private def layers(spans: Spans, traced: Seq[(Long, Long, Long)], progress: Map[Long, StreamingQueryProgress],
                     lat: LongBuf, tracedLat: LongBuf, tracedAlloc: LongBuf, live: Long): Unit = {
    val phases = Seq("latestOffset", "walCommit", "getBatch", "queryPlanning", "addBatch", "commitOffsets")
    val ids = phases.map(p => p -> spans.nameId(p)).toMap
    val sPoll = spans.nameId("poll_wait")
    // nanoTime -> epoch ms offset, to place the engine's trigger timestamps
    val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
    traced.foreach { case (spanId, batchId, ingestEnd) =>
      val p = progress(batchId)
      val trigStart = java.time.Instant.parse(p.timestamp).toEpochMilli * 1000000L - offsetNs
      spans.add(sPoll, spanId, ingestEnd, math.max(ingestEnd, trigStart))
      var t = math.max(ingestEnd, trigStart)
      phases.foreach { ph =>
        val d = Option(p.durationMs.get(ph)).map(_.longValue).getOrElse(0L) * 1000000L
        spans.add(ids(ph), spanId, t, t + d)
        t += d
      }
    }
    val ps = traced.map(x => progress(x._2))
    def mean(f: StreamingQueryProgress => Double): Double = ps.map(f).sum / ps.length
    def dur(p: StreamingQueryProgress, k: String): Double = Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    val tot = spans.totals
    def totalMs(name: String): Double = tot.get(name).map(_._2 / 1e6).getOrElse(0.0) / ps.length
    report.layer("spark.trigger_ms", "ms", mean(dur(_, "triggerExecution")))
    report.layer("spark.query_planning_ms", "ms", mean(dur(_, "queryPlanning")))
    report.layer("spark.add_batch_ms", "ms", mean(dur(_, "addBatch")))
    report.layer("spark.wal_commit_ms", "ms", mean(dur(_, "walCommit")))
    report.layer("spark.commit_offsets_ms", "ms", mean(dur(_, "commitOffsets")))
    report.layer("spark.latest_offset_ms", "ms", mean(dur(_, "latestOffset")))
    report.layer("spark.poll_wait_ms", "ms", totalMs("poll_wait"))
    report.layer("spark.overhead_share", "ratio", 1.0 - mean(dur(_, "addBatch")) / mean(dur(_, "triggerExecution")))
    val ops = ps.map(_.stateOperators.head)
    report.layer("spark.state.all_updates_ms", "ms", ops.map(_.allUpdatesTimeMs.toDouble).sum / ops.length)
    report.layer("spark.state.commit_ms", "ms", ops.map(_.commitTimeMs.toDouble).sum / ops.length)
    report.layer("spark.state.rows_total", "count", ops.last.numRowsTotal.toDouble)
    report.layer("spark.state.memory_bytes_per_item", "B/item", ops.last.memoryUsedBytes.toDouble / live)
    val batchNs = tot("batch")._2.toDouble
    val childNs = batchNs - tot("batch")._3
    report.layer("trace.coverage", "ratio", childNs / batchNs)
    report.layer("trace.untraced_coverage", "ratio", (childNs / ps.length) / (lat.sum.toDouble / lat.length))
    report.layer("trace.overhead", "ratio", (tracedLat.sum.toDouble / tracedLat.length) / (lat.sum.toDouble / lat.length))
    report.layer("jvm.alloc_bytes_per_item", "B/item", tracedAlloc.sum.toDouble / (tracedAlloc.length.toLong * m))
  }

  /** Replays the stream's batches in-process through BFiba, one tree per
    * key, with the operator's steps (sort and pre-combine, bulkInsert,
    * bulkEvict, snapshot to arrays, query) timed one by one. Batches
    * before the timed phase are replayed untimed to reach the same state.
    */
  private def replay(timedFrom: Long, until: Long, progress: Map[Long, StreamingQueryProgress], traced: Set[Long]): Unit = {
    resetRef()
    val counting = new CountingMonoid[Double](SumD)
    val trees = keys.map(_ => new BFiba[Double](4, counting))
    val wm = new Array[Long](keys.length)
    val stepNs = new Array[Long](5) // sort, insert, evict, snapshot, query
    val insertNs = new LongBuf(); val evictNs = new LongBuf()
    var combines = 0L
    var timedItems = 0L
    var timedBatches = 0L
    var b = -1L
    while (b < until) {
      val timed = b >= timedFrom
      val batch = gen(b)
      val c0 = counting.combines
      var k = 0
      while (k < keys.length) {
        val t0 = System.nanoTime()
        val rows = batch.events.filter(_.key == keys(k))
        java.util.Arrays.sort(rows, Ordering.by((e: Event) => e.time))
        val merged = new ArrayBuffer[(Long, Double)](rows.length)
        var i = 0
        while (i < rows.length) {
          val t = rows(i).time
          var v = rows(i).value
          i += 1
          while (i < rows.length && rows(i).time == t) { v = SumD.combine(v, rows(i).value); i += 1 }
          merged += ((t, v))
        }
        val bulk = merged.toIndexedSeq
        val t1 = System.nanoTime()
        trees(k).bulkInsert(bulk)
        wm(k) = math.max(wm(k), rows.last.time)
        val t2 = System.nanoTime()
        trees(k).bulkEvict(wm(k) - w)
        val t3 = System.nanoTime()
        val entries = trees(k).snapshot().get
        val snap = WindowSnapshot(entries.map(_._1).toArray, entries.map(_._2).toArray, wm(k))
        val t4 = System.nanoTime()
        val agg = trees(k).query()
        val t5 = System.nanoTime()
        if (agg != refSum(k).toDouble || snap.times.length != w) failed += 1
        if (timed) {
          stepNs(0) += t1 - t0; stepNs(1) += t2 - t1; stepNs(2) += t3 - t2; stepNs(3) += t4 - t3; stepNs(4) += t5 - t4
          insertNs += t2 - t1; evictNs += t3 - t2
        }
        k += 1
      }
      if (timed) { combines += counting.combines - c0; timedItems += batch.events.length; timedBatches += 1 }
      b += 1
    }
    val perBatchMs = stepNs.map(_ / 1e6 / timedBatches)
    report.layer("replay.sort_ms", "ms", perBatchMs(0))
    report.layer("replay.bulk_insert_ms", "ms", perBatchMs(1))
    report.layer("replay.bulk_evict_ms", "ms", perBatchMs(2))
    report.layer("replay.snapshot_ms", "ms", perBatchMs(3))
    report.layer("replay.query_ms", "ms", perBatchMs(4))
    // Keys run two to a partition, in parallel on the two task slots.
    val triggerMs = traced.toSeq.map(id => progress(id).durationMs.get("triggerExecution").doubleValue).sum / traced.size
    report.layer("replay.fiba_share", "ratio", perBatchMs.sum / partitions / triggerMs)
    val calls = timedBatches * keys.length
    report.layer("fiba.bulk_insert.ns_per_item", "ns", stepNs(1).toDouble / timedItems)
    report.layer("fiba.bulk_insert.share", "ratio", stepNs(1).toDouble / stepNs.sum)
    report.layer("fiba.bulk_insert.p50_us", "us", Stats.percentile(insertNs.toArray, 0.50) / 1e3)
    report.layer("fiba.bulk_insert.p99_us", "us", Stats.percentile(insertNs.toArray, 0.99) / 1e3)
    report.layer("fiba.bulk_insert_ooo.ns_per_item", "ns", 0.0)
    report.layer("fiba.bulk_insert_ooo.share", "ratio", 0.0)
    report.layer("fiba.bulk_evict.ns_per_call", "ns", stepNs(2).toDouble / calls)
    report.layer("fiba.bulk_evict.share", "ratio", stepNs(2).toDouble / stepNs.sum)
    report.layer("fiba.bulk_evict.p50_us", "us", Stats.percentile(evictNs.toArray, 0.50) / 1e3)
    report.layer("fiba.bulk_evict.p99_us", "us", Stats.percentile(evictNs.toArray, 0.99) / 1e3)
    report.layer("fiba.query.ns_per_call", "ns", stepNs(4).toDouble / calls)
    report.layer("monoid.combines_per_item", "count", combines.toDouble / timedItems)
  }
}

object StreamBench {
  def run(seed: Long, seconds: Double, trace: Boolean, smoke: Boolean, report: Report): Unit =
    new StreamBench(seed, seconds, trace, smoke, report).run()
}
