package swagperf

import repro.core.Monoid

/** A growable array of primitive longs (latency samples, span fields). */
final class LongBuf(initial: Int = 1024) {
  private var a = new Array[Long](initial)
  private var n = 0
  def length: Int = n
  def apply(i: Int): Long = a(i)
  def +=(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = x
    n += 1
  }
  def addAt(i: Int, by: Long): Unit = a(i) += by
  def sum: Long = { var s = 0L; var i = 0; while (i < n) { s += a(i); i += 1 }; s }
  def toArray: Array[Long] = java.util.Arrays.copyOf(a, n)
}

object Stats {
  /** Nearest-rank percentile of unsorted samples (p in [0, 1]). */
  def percentile(samples: Array[Long], p: Double): Double = {
    require(samples.nonEmpty, "no samples")
    val s = samples.clone()
    java.util.Arrays.sort(s)
    s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1))).toDouble
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no values")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Distance between the first and third quartile, as a share of the
    * median (the spread measure used to judge a run's steadiness).
    */
  def iqrShare(xs: Seq[Double]): Double = {
    if (xs.length < 2) return 0.0
    val s = xs.sorted
    def q(p: Double): Double = {
      val pos = p * (s.length - 1)
      val lo = pos.floor.toInt
      val hi = math.min(s.length - 1, lo + 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }
    val med = q(0.5)
    if (med == 0) 0.0 else (q(0.75) - q(0.25)) / med
  }
}

/** Counts every `combine`. Traced runs only: the trees' separate counting
  * phase and the stream's replay; never the timed phase.
  */
final class CountingMonoid[V](underlying: Monoid[V]) extends Monoid[V] {
  var combines = 0L
  def identity: V = underlying.identity
  def combine(x: V, y: V): V = { combines += 1; underlying.combine(x, y) }
  def name: String = underlying.name
}

/** SplitMix64: the benchmark's only source of input randomness. */
object Mix {
  def apply(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
  /** A value in [lo, lo + span) fixed by (seed, key, t). */
  def value(seed: Long, key: Long, t: Long, lo: Int, span: Int): Int =
    lo + java.lang.Long.remainderUnsigned(Mix(Mix(seed ^ (key * 0x632BE59BD9B4E019L)) + t), span.toLong).toInt
}

/** Named metrics with units, written as one JSON object. */
final class Metrics {
  private val entries = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]
  def update(name: String, unit: String, value: Double): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    entries(name) = (value, unit)
  }
  def toJson: String =
    entries.map { case (k, (v, u)) => s"${Json.str(k)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}" }
      .mkString("{", ", ", "}")
}

object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
  def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else java.lang.Double.toString(v)
  def obj(kv: Seq[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
