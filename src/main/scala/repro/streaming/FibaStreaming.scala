package repro.streaming

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.sql.{Dataset, Encoders, SparkSession}
import org.apache.spark.sql.streaming.{MapState, OutputMode, StatefulProcessor, TTLConfig, TimeMode, TimerValues, ValueState}
import repro.core.{Monoid, Swag}
import repro.core.Monoids.{MaxD, MinD, SumD}
import repro.core.baseline.BruteForceSwag
import repro.core.fiba.{BFiba, NbFiba}

/** One stream record: per-key event time (seconds) and a Double payload. */
final case class Event(key: Long, time: Long, value: Double)

/** A window's whole contents as two columns, plus its watermark. The
  * operator's state is a delta log (below), not this; the benchmark's
  * replay layer builds one per key per batch to time a whole-window copy.
  */
final case class WindowSnapshot(times: Array[Long], values: Array[Double], watermark: Long)

/** A key's state header. `seq` counts the batches applied to the key;
  * `ids`, `maxTimes` and `sizes` describe the live deltas of its log,
  * oldest first: each delta's key in the log, its newest timestamp and
  * its entry count.
  */
final case class WindowMeta(seq: Long, watermark: Long, ids: Array[Long], maxTimes: Array[Long], sizes: Array[Int])

/** One entry of a key's delta log: a batch's sorted, pre-combined bulk,
  * or, after a compaction, the whole window.
  */
final case class WindowDelta(times: Array[Long], values: Array[Double])

/** One output row per key per micro-batch: the sliding-window aggregate
  * after incorporating the batch and advancing the window.
  */
final case class WindowAgg(key: Long, watermark: Long, agg: Double)

/** The paper's end-to-end integration (§7.5), mapped from Apache Flink to
  * Spark Structured Streaming per the repro hint: a stateful operator
  * (`transformWithState`) maintains one sliding-window aggregation
  * structure per key. Each micro-batch becomes ONE `bulkInsert` (rows
  * sorted and pre-combined by timestamp) and the watermark advance ONE
  * `bulkEvict` — exercising exactly the paper's bulk primitives.
  *
  * State: live trees are kept in an executor-local cache (like Flink's
  * heap state backend), each stamped with the number of batches it has
  * applied. The state store holds a small [[WindowMeta]] per key and,
  * with `fullState = true`, a delta log: each batch writes its bulk, a
  * delta whose newest entry falls out of the window is removed, and a log
  * that grew past twice the window is compacted to one snapshot. So a
  * batch writes O(m), not O(n). A cached tree is used only if its stamp
  * equals the state's `seq`; otherwise (a restart, or a batch that Spark
  * re-runs after a failure, whose state is rolled back) the tree is
  * rebuilt from the log: the deltas bulk-inserted in order, then one
  * `bulkEvict`. A re-run batch is therefore applied exactly once. With
  * `fullState = false` the log is not written, so a rebuilt tree holds
  * only what arrives after it: not durable, O(1) state per key.
  */
object FibaStreaming {

  /** A key's live tree, the number of batches it has applied, and the log
    * size past which a batch counts the tree's entries (an O(n) walk) to
    * see whether the log needs compacting: twice the count at the last walk.
    */
  private final class Live(val tree: Swag[Double], var seq: Long) { var checkAt = 0L }

  /** Live trees of each run (the `runId` given to [[aggregate]]), by key. */
  private val cache = new ConcurrentHashMap[String, ConcurrentHashMap[Long, Live]]()

  def clearCache(runId: String): Unit = cache.remove(runId)

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

  /** Stateful sliding-window aggregation over an event stream.
    *
    * `transformWithState` keeps each state variable in a column family of
    * its own, which only the RocksDB state store supports, so this puts
    * the session on `RocksDBStateStoreProvider` with changelog
    * checkpointing (each commit writes only the batch's changes). A query
    * captures the provider when it starts, so the setting holds for every
    * stateful query started on this session afterwards.
    */
  def aggregate(events: Dataset[Event], windowLen: Long, algoName: String,
                monoidName: String, runId: String, fullState: Boolean): Dataset[WindowAgg] = {
    val spark = events.sparkSession
    import spark.implicits._
    useRocksDb(spark)
    events
      .groupByKey(_.key)
      .transformWithState(new WindowProcessor(windowLen, algoName, monoidName, runId, fullState),
                          TimeMode.None(), OutputMode.Update())
  }

  final val ProviderConf = "spark.sql.streaming.stateStore.providerClass"
  final val RocksDbProvider = "org.apache.spark.sql.execution.streaming.state.RocksDBStateStoreProvider"

  private def useRocksDb(spark: SparkSession): Unit = {
    spark.conf.set(ProviderConf, RocksDbProvider)
    spark.conf.set("spark.sql.streaming.stateStore.rocksdb.changelogCheckpointing.enabled", "true")
  }

  private val byTime: java.util.Comparator[Event] = (a: Event, b: Event) => java.lang.Long.compare(a.time, b.time)

  private final class WindowProcessor(windowLen: Long, algoName: String, monoidName: String,
                                      runId: String, logDeltas: Boolean)
      extends StatefulProcessor[Long, Event, WindowAgg] {
    @transient private var meta: ValueState[WindowMeta] = _
    @transient private var log: MapState[Long, WindowDelta] = _
    @transient private var monoid: Monoid[Double] = _
    @transient private var live: ConcurrentHashMap[Long, Live] = _

    override def init(outputMode: OutputMode, timeMode: TimeMode): Unit = {
      meta = getHandle.getValueState[WindowMeta]("meta", Encoders.product[WindowMeta], TTLConfig.NONE)
      log = getHandle.getMapState[Long, WindowDelta]("log", Encoders.scalaLong, Encoders.product[WindowDelta], TTLConfig.NONE)
      monoid = monoidByName(monoidName)
      live = cache.computeIfAbsent(runId, _ => new ConcurrentHashMap[Long, Live]())
    }

    override def handleInputRows(key: Long, rows: Iterator[Event], timerValues: TimerValues): Iterator[WindowAgg] = {
      val prev = if (meta.exists()) meta.get() else Empty
      var entry = live.get(key)
      if (entry == null || entry.seq != prev.seq) { entry = new Live(rebuild(prev), prev.seq); live.put(key, entry) }
      entry.seq = -1 // the tree is changing: a failure from here on leaves it unusable
      val tree = entry.tree

      // Sort the batch and pre-combine duplicate timestamps into a strictly
      // increasing bulk of m entries, then do ONE bulk insert.
      val batch = rows.toArray
      java.util.Arrays.sort(batch, byTime)
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
      tree.bulkInsert(times, values, 0, m)
      val watermark = math.max(prev.watermark, times(m - 1))
      // ONE bulk evict per batch: slide the window to (watermark - len, watermark].
      tree.bulkEvict(watermark - windowLen)

      val seq = prev.seq + 1
      meta.update(
        if (logDeltas) logBatch(prev, seq, watermark, times, values, m, entry)
        else Empty.copy(seq = seq, watermark = watermark))
      entry.seq = seq
      Iterator.single(WindowAgg(key, watermark, tree.query()))
    }

    /** The tree of a key's state: its log's deltas in order, then the cut. */
    private def rebuild(state: WindowMeta): Swag[Double] = {
      val tree = makeAlgo(algoName, monoid)
      for (id <- state.ids) {
        val d = log.getValue(id)
        tree.bulkInsert(d.times, d.values, 0, d.times.length)
      }
      if (state.seq > 0) tree.bulkEvict(state.watermark - windowLen)
      tree
    }

    /** Logs batch `seq`'s bulk and drops every delta the cut has passed:
      * an entry at or below the cut is out of the window for good, as the
      * cut never moves back. When dead entries of live deltas (late data)
      * make the log more than twice the window, the log becomes one
      * snapshot of the tree.
      */
    private def logBatch(prev: WindowMeta, seq: Long, watermark: Long, times: Array[Long],
                         values: Array[Double], m: Int, entry: Live): WindowMeta = {
      val cut = watermark - windowLen
      var from = 0
      while (from < m && times(from) <= cut) from += 1
      val (kept, dead) = prev.ids.indices.partition(prev.maxTimes(_) > cut)
      dead.foreach(j => log.removeKey(prev.ids(j)))
      val logged = (m - from).toLong + kept.map(prev.sizes(_).toLong).sum
      if (logged > entry.checkAt) {
        val n = entry.tree.size
        entry.checkAt = 2L * n
        if (logged > 2L * n) return compact(seq, watermark, kept.map(prev.ids(_)), entry.tree, n)
      }
      var ids = kept.map(prev.ids(_))
      var maxTimes = kept.map(prev.maxTimes(_))
      var sizes = kept.map(prev.sizes(_))
      if (from < m) {
        log.updateValue(seq,
          if (from == 0 && m == times.length) WindowDelta(times, values)
          else WindowDelta(java.util.Arrays.copyOfRange(times, from, m), java.util.Arrays.copyOfRange(values, from, m)))
        ids :+= seq; maxTimes :+= times(m - 1); sizes :+= m - from
      }
      WindowMeta(seq, watermark, ids.toArray, maxTimes.toArray, sizes.toArray)
    }

    /** Replaces the deltas `ids` with one snapshot of the tree's n entries. */
    private def compact(seq: Long, watermark: Long, ids: Seq[Long], tree: Swag[Double], n: Int): WindowMeta = {
      ids.foreach(log.removeKey)
      if (n == 0) return Empty.copy(seq = seq, watermark = watermark)
      val times = new Array[Long](n)
      val values = new Array[Double](n)
      if (!tree.snapshotInto(times, values)) sys.error(s"$algoName cannot snapshot")
      log.updateValue(seq, WindowDelta(times, values))
      WindowMeta(seq, watermark, Array(seq), Array(times(n - 1)), Array(n))
    }
  }

  private val Empty = WindowMeta(0L, Long.MinValue, Array.emptyLongArray, Array.emptyLongArray, Array.emptyIntArray)
}
