package swagperf

import repro.core.Monoids.SumD
import repro.core.fiba.BFiba
import scala.collection.immutable.ArraySeq

/** Input of one round, built before the round's clock starts: the bound
  * to evict up to, an in-order bulk, an out-of-order bulk, and the
  * benchmark's own reference aggregate after the round.
  */
final class RoundIn {
  var evictTo = 0L
  var bulk: IndexedSeq[(Long, Double)] = _
  var late: IndexedSeq[(Long, Double)] = _
  var expSum = 0.0
}

/** ooo_bulk: a window of n entries; per round, evict the 2m oldest,
  * insert m entries in order and m entries whose youngest has d entries
  * above it (Fig 13 shape). `warmupRounds` run after the prefill and
  * before a repetition's clock starts; `timedRounds` are timed.
  *
  * Time slots: in-order entries take even slots at the top; late ones
  * fill odd slots 2d below the top. Slots below the late frontier are
  * all filled, so the window always holds exactly n entries.
  */
final class OooLoad(seed: Long, val n: Int, m: Int, d: Int, val warmupRounds: Int, val timedRounds: Int) {
  require(n - d >= 2 * m && d % m == 0, "need n - d >= 2m and m | d")
  val itemsPerRound = 2 * m
  /** Rounds generated (and then run) together, outside the clock. */
  val blockRounds = math.max(1, 16384 / (2 * m))
  private def v(t: Long): Long = Mix.value(seed, 0, t, 0, 1000).toLong
  private var sum = 0L

  def prefill(): IndexedSeq[(Long, Double)] = {
    val a = new Array[(Long, Double)](n)
    var i = 0
    var t = 0L
    while (i < n) {
      a(i) = (t, v(t).toDouble); sum += v(t); i += 1
      t += (if (t < n - d) 1 else 2) // full below the late frontier, even slots above
    }
    ArraySeq.unsafeWrapArray(a)
  }

  /** Builds round r's input (rounds are built in order, from 0). */
  def gen(r: Long, in: RoundIn): Unit = {
    val lo = r * 2 * m
    val top = n + d + lo // first free even slot
    in.evictTo = lo + 2 * m - 1
    var t = lo
    while (t <= in.evictTo) { sum -= v(t); t += 1 }
    val bulk = new Array[(Long, Double)](m)
    val late = new Array[(Long, Double)](m)
    var i = 0
    while (i < m) {
      val te = top + 2 * i
      val to = top - 2 * d + 2 * i + 1
      bulk(i) = (te, v(te).toDouble)
      late(i) = (to, v(to).toDouble)
      sum += v(te) + v(to)
      i += 1
    }
    in.bulk = ArraySeq.unsafeWrapArray(bulk)
    in.late = ArraySeq.unsafeWrapArray(late)
    in.expSum = sum.toDouble
  }

  /** The values are integers, so the window sum is exact. */
  def check(in: RoundIn, got: Double): Boolean = got == in.expSum

  def params = Seq("algo" -> "b_fiba4", "monoid" -> "sum", "n" -> n, "m" -> m, "d" -> d,
    "warmup_rounds" -> warmupRounds, "timed_rounds" -> timedRounds, "values" -> "integers 0..999")
}

/** What one repetition measured: set-up and round times (ns) as read,
  * and the host probe's time (ns) around its timed rounds.
  */
final class Rep(val setupNs: Long, val roundNs: Array[Long], val itemsPerRound: Int,
                val pauses: Seq[Double], val jitMs: Double, val probeNs: Long) {
  def scale: Double = HostProbe.oneCpu.timeScale(probeNs.toDouble)
  def itemsPerS: Double = roundNs.length.toLong * itemsPerRound / (roundNs.sum / 1e9)
  def pctNs(p: Double): Double = Stats.percentile(roundNs, p)
}

/** Closed-loop driver of the tree workload in one JVM: one round runs
  * only after the previous one returned.
  *
  * The run is a series of identical repetitions. Each builds a fresh tree
  * from the same seed (prefill, a fixed count of warm-up rounds), then
  * times a fixed count of rounds. Every repetition therefore measures the
  * same work on the same tree states, whatever the machine's speed: the
  * trees slow down as they slide (node buffers keep their largest size),
  * so a fixed-time phase would measure a state that depends on how fast
  * the machine was. The first repetition warms up the JIT and is not
  * reported; the others run until `seconds` have passed. Every timing is
  * scaled to the one-thread host probe's reference speed (see `HostProbe`),
  * and each
  * end-to-end metric is the median over the repetitions.
  */
final class TreeBench(seed: Long, seconds: Double, trace: Boolean, smoke: Boolean, report: Report) {
  private val (n, m, d, warmupRounds, timedRounds) =
    // warm-up: one window turnover (n / 2m rounds); timed: two turnovers
    if (smoke) (1 << 13, 64, 1 << 10, 64, 512) else (1 << 20, 1024, 1 << 14, 512, 1024)
  private def mkLoad() = new OooLoad(seed, n, m, d, warmupRounds, timedRounds)

  private val spans = new Spans
  private val sRound = spans.nameId("round")
  private val sEvict = spans.nameId("bulk_evict")
  private val sInsert = spans.nameId("bulk_insert")
  private val sLate = spans.nameId("bulk_insert_ooo")
  private val sQuery = spans.nameId("query")

  private var attempted = 0L
  private var failed = 0L
  private var genNs = 0L
  private var genItems = 0L
  private val tracedLat = new LongBuf(1 << 16) // traced round times (ns)
  private val allocPerRound = new LongBuf(1 << 16)
  private var lastTree: BFiba[Double] = _

  /** Untimed: build `count` rounds starting at round r. */
  private def genBlock(load: OooLoad, block: Array[RoundIn], r: Long, count: Int): Unit = {
    val g0 = System.nanoTime()
    var i = 0
    while (i < count) { load.gen(r + i, block(i)); i += 1 }
    genNs += System.nanoTime() - g0
    genItems += count.toLong * load.itemsPerRound
  }

  /** One round, untraced: evict, insert, insert late, query. */
  private def round(swag: BFiba[Double], in: RoundIn): Double = {
    swag.bulkEvict(in.evictTo)
    swag.bulkInsert(in.bulk)
    swag.bulkInsert(in.late)
    swag.query()
  }

  /** The same round with a span around each call into the tree. */
  private def tracedRound(swag: BFiba[Double], in: RoundIn): Double = {
    val t0 = System.nanoTime()
    swag.bulkEvict(in.evictTo)
    val t1 = System.nanoTime()
    swag.bulkInsert(in.bulk)
    val t2 = System.nanoTime()
    swag.bulkInsert(in.late)
    val t3 = System.nanoTime()
    val q = swag.query()
    val t4 = System.nanoTime()
    val id = spans.add(sRound, -1, t0, t4)
    spans.add(sEvict, id, t0, t1)
    spans.add(sInsert, id, t1, t2)
    spans.add(sLate, id, t2, t3)
    spans.add(sQuery, id, t3, t4)
    q
  }

  private def checkOne(load: OooLoad, in: RoundIn, got: Double): Unit = {
    attempted += 1
    if (!load.check(in, got)) {
      failed += 1
      if (failed <= 5) Console.err.println(s"swagperf: round aggregate mismatch: got $got, expected sum ${in.expSum}")
    }
  }

  /** Runs rounds [from, from + count) in blocks: each block is built
    * before its rounds run and checked after. Records the untraced
    * rounds' times in `lat`, if given, and returns the ns spent in rounds.
    * With `traceOdd`, every other block is traced instead.
    */
  private def rounds(swag: BFiba[Double], load: OooLoad, block: Array[RoundIn], from: Long, count: Long,
                     lat: LongBuf, traceOdd: Boolean): Long = {
    val results = new Array[Double](block.length)
    var ns = 0L
    var r = from
    var blockNo = 0L
    while (r < from + count) {
      val c = math.min(block.length.toLong, from + count - r).toInt
      genBlock(load, block, r, c)
      val traced = traceOdd && (blockNo & 1) == 1
      var i = 0
      while (i < c) {
        val t0 = System.nanoTime()
        if (traced) {
          val a0 = JvmProbe.threadAllocatedBytes
          results(i) = tracedRound(swag, block(i))
          allocPerRound += JvmProbe.threadAllocatedBytes - a0
        } else results(i) = round(swag, block(i))
        val dt = System.nanoTime() - t0
        ns += dt
        if (lat != null) { if (traced) tracedLat += dt else lat += dt }
        i += 1
      }
      i = 0
      while (i < c) { checkOne(load, block(i), results(i)); i += 1 }
      r += c
      blockNo += 1
    }
    ns
  }

  /** One repetition on a fresh tree; `onFull` runs (untimed) once the
    * tree is at full window after its set-up. With `traced`, every other
    * block of its timed rounds is traced.
    */
  private def repetition(onFull: () => Unit, traced: Boolean): Rep = {
    lastTree = null
    System.gc() // the previous tree is garbage: start every repetition from the same heap
    val load = mkLoad()
    val g0 = System.nanoTime()
    var pre = load.prefill()
    genNs += System.nanoTime() - g0; genItems += load.n
    val swag = new BFiba[Double](4, SumD)
    val block = Array.fill(load.blockRounds)(new RoundIn)
    val t0 = System.nanoTime()
    swag.bulkInsert(pre)
    val prefillNs = System.nanoTime() - t0
    pre = null
    val setupNs = prefillNs + rounds(swag, load, block, 0, load.warmupRounds, null, traceOdd = false)
    onFull()
    val lat = new LongBuf(load.timedRounds)
    val probe0 = HostProbe.oneCpu.time()
    val mark = JvmProbe.mark()
    rounds(swag, load, block, load.warmupRounds, load.timedRounds, lat, traced)
    val probe1 = HostProbe.oneCpu.time()
    val pauses = JvmProbe.pausesSince(mark)
    val jitMs = JvmProbe.jitMsSince(mark)
    lastTree = swag
    new Rep(setupNs, lat.toArray, load.itemsPerRound, pauses, jitMs, (probe0 + probe1) / 2)
  }

  def run(): Unit = {
    val jvmStartS = JvmProbe.uptimeMs / 1000.0
    val heapBase = JvmProbe.liveHeapBytes()
    var heapFull = 0L
    HostProbe.oneCpu.time() // compile the probe before it is read
    val w0 = System.nanoTime()
    repetition(() => heapFull = JvmProbe.liveHeapBytes(), traced = false) // JIT warm-up, not reported
    val warmS = (System.nanoTime() - w0) / 1e9
    val minReps = if (smoke) 1 else 5
    val reps = scala.collection.mutable.ArrayBuffer.empty[Rep]
    val wall0 = System.nanoTime()
    val deadline = wall0 + (seconds * 1e9).toLong
    while (reps.length < minReps || System.nanoTime() < deadline) reps += repetition(() => (), trace)
    val wallS = (System.nanoTime() - wall0) / 1e9
    lastTree.underlying.validate() // throws on a broken invariant; counted by Main as a failure
    def median(f: Rep => Double): Double = Stats.median(reps.map(f).toSeq)

    // ---- end-to-end metrics: medians over the repetitions (untraced
    // rounds only), scaled to the probe's reference speed
    report.e2e("items_per_s", "items/s", median(r => r.itemsPerS / r.scale))
    report.e2e("result_latency_p50_ms", "ms", median(r => r.pctNs(0.50) * r.scale) / 1e6)
    report.e2e("result_latency_p90_ms", "ms", median(r => r.pctNs(0.90) * r.scale) / 1e6)
    report.e2e("heap_bytes_per_item", "B/item", (heapFull - heapBase).toDouble / n)
    // Set-up is scaled by the run's median probe: one probe reading is
    // too noisy for the single span of JVM start and warm-up repetition.
    val setupRaw = jvmStartS + warmS + median(_.setupNs / 1e9)
    report.e2e("setup_s", "s", setupRaw * HostProbe.oneCpu.timeScale(median(_.probeNs.toDouble)))
    report.note(f"setup: JVM start $jvmStartS%.2f s, warm-up repetition $warmS%.2f s, median repetition set-up (prefill, $warmupRounds rounds) ${median(_.setupNs / 1e6)}%.1f ms")
    report.note(f"${reps.length} repetitions of $timedRounds timed rounds in $wallS%.2f s; latency samples per repetition: ${reps.head.roundNs.length} untraced rounds of ${2 * m} items")
    report.raw(median(_.itemsPerS), median(_.pctNs(0.50)) / 1e6, setupRaw)

    // ---- steadiness diagnostics, reported in every run
    report.steadiness(reps.map(_.itemsPerS).toSeq, reps.flatMap(_.pauses).toSeq, reps.map(_.jitMs).sum,
      reps.map(_.probeNs).toSeq, "repetition")

    // ---- per-layer metrics from the traced blocks (raw times)
    if (trace) {
      val tot = spans.totals
      def self(name: String): Double = tot.get(name).map(_._3.toDouble).getOrElse(0.0)
      val roundNs = tot("round")._2.toDouble
      val rounds = tot("round")._1
      def pct(name: String, p: Double): Double = Stats.percentile(spans.durations(name), p) / 1e3
      report.layer("fiba.bulk_insert.ns_per_item", "ns", self("bulk_insert") / (rounds * m))
      report.layer("fiba.bulk_insert.share", "ratio", self("bulk_insert") / roundNs)
      report.layer("fiba.bulk_insert.p50_us", "us", pct("bulk_insert", 0.50))
      report.layer("fiba.bulk_insert.p99_us", "us", pct("bulk_insert", 0.99))
      report.layer("fiba.bulk_insert_ooo.ns_per_item", "ns", self("bulk_insert_ooo") / (rounds * m))
      report.layer("fiba.bulk_insert_ooo.share", "ratio", self("bulk_insert_ooo") / roundNs)
      report.layer("fiba.bulk_evict.ns_per_call", "ns", self("bulk_evict") / rounds)
      report.layer("fiba.bulk_evict.share", "ratio", self("bulk_evict") / roundNs)
      report.layer("fiba.bulk_evict.p50_us", "us", pct("bulk_evict", 0.50))
      report.layer("fiba.bulk_evict.p99_us", "us", pct("bulk_evict", 0.99))
      report.layer("fiba.query.ns_per_call", "ns", self("query") / rounds)
      report.layer("monoid.combines_per_item", "count", countCombines())
      report.layer("jvm.alloc_bytes_per_item", "B/item", allocPerRound.sum.toDouble / (allocPerRound.length.toLong * 2 * m))
      report.layer("bench.gen_ns_per_item", "ns", genNs.toDouble / genItems)
      // Tracing overhead: traced blocks against the untraced blocks they
      // alternate with; coverage: child spans against their round spans
      // and against the untraced round time.
      val untracedRoundNs = reps.map(_.roundNs.sum.toDouble).sum / reps.map(_.roundNs.length).sum
      report.layer("trace.overhead", "ratio", (tracedLat.sum.toDouble / tracedLat.length) / untracedRoundNs)
      val childNs = roundNs - self("round")
      report.layer("trace.coverage", "ratio", childNs / roundNs)
      report.layer("trace.untraced_coverage", "ratio", (childNs / rounds) / untracedRoundNs)
      Report.sparkLayers.foreach { case (name, unit) => report.layer(name, unit, 0.0) } // no Spark here
      val f = report.traceFile
      spans.write(f)
      report.note(s"wrote ${spans.size} spans to $f")
    }
    report.params("workload_params", mkLoad().params)
    report.params("repetitions", reps.length)
    report.setCounts(attempted, failed)
  }

  /** Exact combine count per item over the timed rounds of one
    * repetition, on a fresh tree with a counting monoid (same seed, so
    * same inputs).
    */
  private def countCombines(): Double = {
    val load = mkLoad()
    val counting = new CountingMonoid[Double](SumD)
    val s = new BFiba[Double](4, counting)
    s.bulkInsert(load.prefill())
    val block = Array.fill(load.blockRounds)(new RoundIn)
    def run(from: Long, count: Long): Unit = {
      var r = from
      while (r < from + count) {
        val c = math.min(block.length.toLong, from + count - r).toInt
        genBlock(load, block, r, c)
        var i = 0
        while (i < c) { round(s, block(i)); i += 1 }
        r += c
      }
    }
    run(0, warmupRounds)
    counting.combines = 0
    run(warmupRounds, timedRounds)
    counting.combines.toDouble / (timedRounds.toLong * load.itemsPerRound)
  }
}
