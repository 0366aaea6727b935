package repro.streaming

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{Monoid, Swag}
import repro.core.Monoids.{MaxD, MinD, SumD}
import repro.core.baseline.BruteForceSwag
import repro.core.fiba.{BFiba, NbFiba}

/** One stream record: per-key event time (seconds) and a Double payload. */
final case class Event(key: Long, time: Long, value: Double)

/** Checkpointed per-key window state: the full (time, value) contents (or
  * empty arrays in heap-backend emulation mode) plus the watermark.
  */
final case class WindowSnapshot(times: Array[Long], values: Array[Double], watermark: Long)

/** One output row per key per micro-batch: the sliding-window aggregate
  * after incorporating the batch and advancing the window.
  */
final case class WindowAgg(key: Long, watermark: Long, agg: Double)

/** The paper's end-to-end integration (§7.5), mapped from Apache Flink to
  * Spark Structured Streaming per the repro hint: a stateful operator
  * (`flatMapGroupsWithState`) maintains one sliding-window aggregation
  * structure per key. Each micro-batch becomes ONE `bulkInsert` (rows
  * sorted and pre-combined by timestamp) and the watermark advance ONE
  * `bulkEvict` — exercising exactly the paper's bulk primitives.
  *
  * State handling: live trees are kept in an executor-local cache (like
  * Flink's heap state backend); with `fullState = true` the operator also
  * checkpoints the entire window into the state store each batch, so a
  * restarted executor rebuilds the tree via one bulk insert. Benches use
  * `fullState = false` to avoid timing O(n) serialization per batch.
  */
object FibaStreaming {

  /** Executor-local live trees, keyed by (runId, key). */
  private val cache = new java.util.concurrent.ConcurrentHashMap[(String, Long), Swag[Double]]()

  def clearCache(runId: String): Unit = {
    val it = cache.keySet().iterator()
    while (it.hasNext) if (it.next()._1 == runId) it.remove()
  }

  def monoidByName(name: String): Monoid[Double] = name match {
    case "sum" => SumD
    case "max" => MaxD
    case "min" => MinD
    case other => throw new IllegalArgumentException(s"unknown Double monoid: $other")
  }

  /** "b_fiba4" | "b_fiba8" | "nb_fiba4" | "nb_fiba8" | "recompute". */
  def makeAlgo(algoName: String, m: Monoid[Double]): Swag[Double] = algoName match {
    case "b_fiba4"   => new BFiba[Double](4, m)
    case "b_fiba8"   => new BFiba[Double](8, m)
    case "nb_fiba4"  => new NbFiba[Double](4, m)
    case "nb_fiba8"  => new NbFiba[Double](8, m)
    case "recompute" => new BruteForceSwag[Double](m) // Flink-style refold per batch
    case other       => throw new IllegalArgumentException(s"unknown algo: $other")
  }

  /** Stateful sliding-window aggregation over an event stream. */
  def aggregate(events: Dataset[Event], windowLen: Long, algoName: String,
                monoidName: String, runId: String, fullState: Boolean): Dataset[WindowAgg] = {
    val spark = events.sparkSession
    import spark.implicits._
    events
      .groupByKey(_.key)
      .flatMapGroupsWithState[WindowSnapshot, WindowAgg](
        OutputMode.Update(), GroupStateTimeout.NoTimeout()) {
        (key, rows, state) =>
          processBatch(key, rows, state, windowLen, algoName, monoidName, runId, fullState)
      }
  }

  private def processBatch(key: Long, rows: Iterator[Event], state: GroupState[WindowSnapshot],
                           windowLen: Long, algoName: String, monoidName: String,
                           runId: String, fullState: Boolean): Iterator[WindowAgg] = {
    val monoid = monoidByName(monoidName)
    val cacheKey = (runId, key)
    var algo = cache.get(cacheKey)
    var watermark = Long.MinValue
    if (algo == null) {
      algo = makeAlgo(algoName, monoid)
      state.getOption.foreach { snap => // recovery: one bulk insert, a bottom-up bulk load
        watermark = snap.watermark
        algo.bulkInsert(snap.times, snap.values, 0, snap.times.length)
      }
      cache.put(cacheKey, algo)
    } else {
      watermark = state.getOption.map(_.watermark).getOrElse(Long.MinValue)
    }

    // Sort the batch and pre-combine duplicate timestamps into a strictly
    // increasing bulk of m entries, then do ONE bulk insert.
    val batch = rows.toArray
    if (batch.nonEmpty) {
      java.util.Arrays.sort(batch, Ordering.by((e: Event) => e.time))
      val times = new Array[Long](batch.length)
      val values = new Array[Double](batch.length)
      var m = 0
      var i = 0
      while (i < batch.length) {
        val t = batch(i).time
        var v = batch(i).value
        i += 1
        while (i < batch.length && batch(i).time == t) { v = monoid.combine(v, batch(i).value); i += 1 }
        times(m) = t; values(m) = v; m += 1
      }
      algo.bulkInsert(times, values, 0, m)
      watermark = math.max(watermark, times(m - 1))
    }
    // ONE bulk evict per batch: slide the window to (watermark - len, watermark].
    if (watermark != Long.MinValue) algo.bulkEvict(watermark - windowLen)

    val snap =
      if (fullState) {
        val times = new Array[Long](algo.size)
        val values = new Array[Double](times.length)
        if (!algo.snapshotInto(times, values)) sys.error(s"$algoName cannot snapshot")
        WindowSnapshot(times, values, watermark)
      } else WindowSnapshot(Array.emptyLongArray, Array.emptyDoubleArray, watermark)
    state.update(snap)
    Iterator.single(WindowAgg(key, watermark, algo.query()))
  }
}
