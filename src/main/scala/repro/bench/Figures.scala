package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.Swag
import BenchUtil._

/** The paper's evaluation (§7), one function per figure. Each runs the
  * figure's sweep and returns its table together with the numbers the
  * bench suites' shape checks read. The bench suites (`sbt "bench/test"`)
  * and the spark-submit entry point `repro.jobs.FigureJob` both call
  * these, so both print the same tables. Sizes default to `REPRO_N` and
  * `REPRO_SCALE` (see `BenchUtil`); tests pass smaller ones.
  */
object Figures {

  /** A figure's printed table, and the cells its shape checks read. */
  final case class Table[+C](title: String, header: Seq[String],
                             rows: Seq[Seq[String]], cells: C) {
    def render: String = BenchUtil.table(title, header, rows)
  }

  /** A number per (monoid, algo): median ns for the latency figures,
    * items/s for Fig 16.
    */
  type ByAlgo = Map[(String, String), Double]

  /** Items/s per (monoid, algo, swept m or d). */
  type BySweep = Map[(String, String, Int), Double]

  /** One latency cell of Figs 7–10: window n, bulk size m. */
  private trait LatencyCell {
    def apply[V](mk: () => Swag[V], lift: Long => V, n: Int, m: Int, rounds: Int): LatencyStats
  }

  /** Figs 7–10: a priming sweep over every cell at n = 8192 settles the
    * JIT profiles, then every (monoid, algo) cell is timed.
    */
  private def latency(title: String, roster: Algos.Roster, n: Int, m: Int, primeM: Int,
                      rounds: Int)(cell: LatencyCell): Table[ByAlgo] = {
    MonoidCases.forEach { mc =>
      roster(mc.monoid).foreach(mk => cell(mk, mc.lift, 8192, primeM, 30))
    }
    val rows = Vector.newBuilder[Seq[String]]
    val cells = Map.newBuilder[(String, String), Double]
    MonoidCases.forEach { mc =>
      for (mk <- roster(mc.monoid)) {
        val name = mk().name
        val st = cell(mk, mc.lift, n, m, rounds)
        cells += (mc.name, name) -> st.p50Ns.toDouble
        rows += Seq(mc.name, name, f"${st.meanNs / 1e3}%.2f", f"${st.p50Ns / 1e3}%.2f",
                    f"${st.p999Ns / 1e3}%.2f", f"${st.maxNs / 1e3}%.2f")
      }
    }
    Table(title, Seq("monoid", "algo", "mean", "p50", "p99.9", "max"), rows.result(), cells.result())
  }

  private val evictCell = new LatencyCell {
    def apply[V](mk: () => Swag[V], lift: Long => V, n: Int, m: Int, rounds: Int): LatencyStats =
      LatencyBench.bulkEvictLatency(mk, lift, n, m, rounds)
  }

  /** Figure 7: bulk-evict latency, m = 1024, in-order. */
  def fig07(n: Int = benchN, rounds: Int = scaled(1000)): Table[ByAlgo] =
    latency(s"Figure 7: bulk-evict latency (us), n=$n m=1024 d=0 rounds=$rounds",
            Algos.all, n, m = 1024, primeM = 1024, rounds)(evictCell)

  /** Figure 8: in-order bulk-insert latency, m = 1024. */
  def fig08(n: Int = benchN, rounds: Int = scaled(1000)): Table[ByAlgo] =
    latency(s"Figure 8: in-order bulk-insert latency (us), n=$n m=1024 d=0 rounds=$rounds",
            Algos.all, n, m = 1024, primeM = 1024, rounds)(new LatencyCell {
      def apply[V](mk: () => Swag[V], lift: Long => V, n: Int, m: Int, rounds: Int): LatencyStats =
        LatencyBench.bulkInsertLatency(mk, lift, n, m, rounds)
    })

  /** Figure 9: out-of-order bulk-insert latency, m = d = 1024. */
  def fig09(n: Int = benchN, rounds: Int = scaled(500)): Table[ByAlgo] =
    latency(s"Figure 9: ooo bulk-insert latency (us), n=$n m=1024 d=1024 rounds=$rounds",
            Algos.ooo, n, m = 1024, primeM = 512, rounds)(new LatencyCell {
      def apply[V](mk: () => Swag[V], lift: Long => V, n: Int, m: Int, rounds: Int): LatencyStats =
        LatencyBench.oooBulkInsertLatency(mk, lift, n, m, d = m, rounds)
    })

  /** Figure 10: the free-list ablation on bulk-evict latency, m = 4096. */
  def fig10(n: Int = benchN, rounds: Int = scaled(500)): Table[ByAlgo] =
    latency(s"Figure 10: free-list ablation, bulk-evict latency (us), n=$n m=4096 rounds=$rounds",
            Algos.memAblation, n, m = 4096, primeM = 1024, rounds)(evictCell)

  /** One throughput cell of Figs 11–14 at swept value x (m or d). */
  private trait ThroughputCell {
    def apply[V](mk: () => Swag[V], lift: Long => V, x: Int): Double
  }

  /** Figs 11–14: items/s for every (monoid, algo, x) cell; geomean is
    * left out to keep the sweeps tractable.
    */
  private def throughput(title: String, roster: Algos.Roster, xName: String, xs: Seq[Int])(
      cell: ThroughputCell): Table[BySweep] = {
    val rows = Vector.newBuilder[Seq[String]]
    val cells = Map.newBuilder[(String, String, Int), Double]
    MonoidCases.forEach { mc =>
      if (mc.name != "geomean") {
        for (mk <- roster(mc.monoid); x <- xs) {
          val thr = cell(mk, mc.lift, x)
          val name = mk().name
          cells += (mc.name, name, x) -> thr
          rows += Seq(mc.name, name, x.toString, fmtThroughput(thr))
        }
      }
    }
    Table(title, Seq("monoid", "algo", xName, "throughput"), rows.result(), cells.result())
  }

  private val Ms = Seq(1, 16, 256, 4096)
  private val Ds = Seq(0, 16, 256, 4096, 16384)

  /** Figure 11: bulk evict + single inserts, m sweep, in-order. */
  def fig11(n: Int = benchN): Table[BySweep] =
    throughput(s"Figure 11: throughput, bulk evict + single inserts, n=$n", Algos.all, "m", Ms)(
      new ThroughputCell {
        def apply[V](mk: () => Swag[V], lift: Long => V, m: Int): Double =
          ThroughputBench.evictOnly(mk, lift, n, m)
      })

  /** Figure 12: bulk evict + bulk insert, m sweep, in-order. */
  def fig12(n: Int = benchN): Table[BySweep] =
    throughput(s"Figure 12: throughput, bulk evict + bulk insert, n=$n", Algos.all, "m", Ms)(
      new ThroughputCell {
        def apply[V](mk: () => Swag[V], lift: Long => V, m: Int): Double =
          ThroughputBench.evictAndInsert(mk, lift, n, m)
      })

  /** Figure 13: bulk evict + bulk insert at m = 1024, d sweep. */
  def fig13(n: Int = benchN): Table[BySweep] =
    throughput(s"Figure 13: throughput, bulk ops at ooo distance d, n=$n m=1024", Algos.ooo, "d", Ds)(
      new ThroughputCell {
        def apply[V](mk: () => Swag[V], lift: Long => V, d: Int): Double =
          ThroughputBench.oooEvictAndInsert(mk, lift, n, 1024, d)
      })

  /** Figure 14: single ops (m = 1), d sweep. */
  def fig14(n: Int = benchN): Table[BySweep] =
    throughput(s"Figure 14: throughput, single ops at ooo distance d, n=$n m=1", Algos.ooo, "d", Ds)(
      new ThroughputCell {
        def apply[V](mk: () => Swag[V], lift: Long => V, d: Int): Double =
          ThroughputBench.oooEvictAndInsert(mk, lift, n, 1, d)
      })

  /** Events in the Citi-Bike-like stream of Figs 15 and 16. */
  def citiBikeEvents: Int = math.max(50000, (400000 * benchScale).toInt)

  /** Figure 15: log2-bucketed histograms of the stream's window sizes n,
    * eviction bulk sizes m and out-of-order distances d; the cells are
    * the trace itself.
    */
  def fig15(events: Int = citiBikeEvents): Table[Workloads.WindowTrace] = {
    val trace = Workloads.traceTimeWindow(Workloads.citiBike(events), Workloads.DaySeconds)
    Table(s"Figure 15: log2-bucketed histograms (1-day window, $events events)",
          Seq("bucket", "count(n)", "count(m)", "count(d)"), CitiBikeBench.histogramRows(trace), trace)
  }

  /** Figure 16: throughput over the Citi-Bike-like stream. One warm-up
    * pass per algorithm on a tenth of the stream, then passes alternate
    * between algorithms and each cell keeps the best of three: single
    * passes are ~0.25 s, and JIT profile pollution across a long run
    * otherwise dominates the comparison.
    */
  def fig16(events: Int = citiBikeEvents): Table[ByAlgo] = {
    val reps = 3
    val stream = Workloads.citiBike(events)
    val rows = Vector.newBuilder[Seq[String]]
    val cells = Map.newBuilder[(String, String), Double]
    MonoidCases.forEach { mc =>
      if (mc.name != "geomean") {
        val algos = Algos.ooo(mc.monoid)
        algos.foreach(mk => CitiBikeBench.throughput(mk, mc.lift, stream.take(events / 10), Workloads.DaySeconds))
        val best = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
        for (_ <- 1 to reps; mk <- algos) {
          val name = mk().name
          val thr = CitiBikeBench.throughput(mk, mc.lift, stream, Workloads.DaySeconds)
          best(name) = math.max(best(name), thr)
        }
        for (mk <- algos) {
          val name = mk().name
          cells += (mc.name, name) -> best(name)
          rows += Seq(mc.name, name, fmtThroughput(best(name)))
        }
      }
    }
    Table(s"Figure 16: citi-bike-like throughput, 1-day window, $events events (best of $reps)",
          Seq("monoid", "algo", "throughput"), rows.result(), cells.result())
  }

  /** Figure 17: Structured Streaming throughput at window 8192 for the
    * stateful operators and Spark's built-in sliding window, per
    * micro-batch size m; cells are keyed by (algo or "builtin", m).
    */
  def fig17(spark: SparkSession): Table[Map[(String, Int), Double]] = {
    val windowLen = 8192L
    val rows = Vector.newBuilder[Seq[String]]
    val cells = Map.newBuilder[(String, Int), Double]
    for (m <- Seq(64, 512, 4096)) {
      val events = math.max(4L * m, (16L * m * benchScale).toLong)
      for (algo <- Seq("recompute", "nb_fiba4", "b_fiba4")) {
        val thr = StreamingBench.runStateful(spark, algo, windowLen, m, events)
        cells += (algo, m) -> thr
        rows += Seq(s"${algo}_state", m.toString, fmtThroughput(thr))
      }
      // Built-in sliding window: coarse 256s slide (handicap in its favor)
      // and a small event budget — it is orders of magnitude slower.
      val thrB = StreamingBench.runBuiltin(spark, windowLen, 256L, m, math.max(2L * m, 1024L))
      cells += ("builtin", m) -> thrB
      rows += Seq("spark_window_builtin", m.toString, fmtThroughput(thrB))
    }
    Table(s"Figure 17: Structured Streaming throughput, window=$windowLen (events/s)",
          Seq("algo", "m", "throughput"), rows.result(), cells.result())
  }

  /** §7.3: b_fiba4 with geomean at n = 2^18 and 2^22, m = 1024. An
    * untimed pass of the same loop at n = 8192 first warms the JIT, as
    * in Figs 7–10. Cells are the two rows, small first.
    */
  def sec73(rounds: Int = scaled(300)): Table[Seq[LargeWindowBench.Row]] = {
    val m = 1024
    LargeWindowBench.run(8192, m, 300)
    val rs = Seq(1 << 18, 1 << 22).map(LargeWindowBench.run(_, m, rounds))
    Table("Section 7.3: large-window scaling (b_fiba4, geomean)",
          Seq("n", "bytes/item", "throughput", "evict mean us", "evict p50 us", "evict p99.9 us", "evict max us"),
          rs.map(r => Seq(r.n.toString, f"${r.bytesPerItem}%.1f", fmtThroughput(r.throughputPerSec),
                          f"${r.evict.meanNs / 1e3}%.2f", f"${r.evict.p50Ns / 1e3}%.2f",
                          f"${r.evict.p999Ns / 1e3}%.2f", f"${r.evict.maxNs / 1e3}%.2f")),
          rs)
  }
}
