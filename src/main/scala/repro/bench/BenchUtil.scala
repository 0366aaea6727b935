package repro.bench

import repro.core.Swag

/** Timing, percentile, and table-formatting helpers shared by all
  * benchmarks (one bench per evaluation figure; see DESIGN.md §4).
  */
object BenchUtil {

  /** Window size for the scaled benchmarks (paper: 2^22). */
  def benchN: Int = sys.env.get("REPRO_N").map(_.toInt).getOrElse(1 << 17)

  /** Multiplier (0..1] to shrink round counts for smoke runs. */
  def benchScale: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)

  def scaled(rounds: Int): Int = math.max(3, (rounds * benchScale).toInt)

  /** Latency distribution summary — the numbers behind a violin plot. */
  final case class LatencyStats(count: Int, meanNs: Double, p50Ns: Long,
                                p999Ns: Long, maxNs: Long) {
    override def toString: String =
      f"mean=${meanNs / 1e3}%.2fus p50=${p50Ns / 1e3}%.2fus p99.9=${p999Ns / 1e3}%.2fus max=${maxNs / 1e3}%.2fus"
  }

  def stats(samples: Array[Long]): LatencyStats = {
    require(samples.nonEmpty, "no samples")
    val s = samples.clone()
    java.util.Arrays.sort(s)
    def pct(p: Double): Long = s(math.min(s.length - 1, (p * s.length).toInt))
    LatencyStats(s.length, s.map(_.toDouble).sum / s.length, pct(0.50), pct(0.999), s.last)
  }

  /** A fresh window of `mk` holding the n entries at times step, 2·step,
    * …, n·step.
    */
  def prefill[V](mk: () => Swag[V], lift: Long => V, n: Int, step: Long = 1): Swag[V] = {
    val algo = mk()
    var t = 0L
    while (t < n * step) { t += step; algo.insert(t, lift(t)) }
    algo
  }

  /** A reusable bulk of m entries: `fill(first, step)` writes the times
    * first, first + step, … and their lifted values; `into` inserts it.
    */
  final class Bulk[V](m: Int, lift: Long => V) {
    private val times = new Array[Long](m)
    private val values = new Array[AnyRef](m).asInstanceOf[Array[V]] // V is erased here

    def fill(first: Long, step: Long): Unit = {
      var k = 0
      while (k < m) { val t = first + k * step; times(k) = t; values(k) = lift(t); k += 1 }
    }

    def into(algo: Swag[V]): Unit = algo.bulkInsert(times, values, 0, m)
  }

  /** Prevent dead-code elimination of query results. */
  @volatile var sink: Any = null

  /** Format an aligned plain-text table; also returned for EXPERIMENTS.md. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(fmt(header)).append('\n')
    sb.append(widths.map("-" * _).mkString("  ")).append('\n')
    rows.foreach(r => sb.append(fmt(r)).append('\n'))
    sb.toString
  }

  def fmtThroughput(itemsPerSec: Double): String =
    if (itemsPerSec >= 1e6) f"${itemsPerSec / 1e6}%.2fM/s"
    else if (itemsPerSec >= 1e3) f"${itemsPerSec / 1e3}%.1fk/s"
    else f"$itemsPerSec%.0f/s"

  /** Time a thunk in nanoseconds. */
  @inline def timeNs(f: => Unit): Long = {
    val t0 = System.nanoTime()
    f
    System.nanoTime() - t0
  }
}
