package repro.core

/** Monoid instances covering the paper's cost spectrum (§7): `sum` (fast),
  * `geomean` (medium), `bloom` (slow); `max`/`min` for the streaming
  * operator; and two used by tests: `count`, a Long monoid, and `Concat`,
  * which is non-commutative so ordering bugs in a window algorithm cannot
  * cancel out. All but `bloom` and `Concat` are [[PackedMonoid]]s.
  */
object Monoids {
  import java.lang.Double.{doubleToRawLongBits => bits, longBitsToDouble => double}

  /** A Double monoid packed as one long of raw bits, so every value,
    * NaN payloads and -0.0 included, round-trips exactly.
    */
  abstract class PackedDouble extends PackedMonoid[Double] {
    def combine(x: Double, y: Double): Double
    final def width = 1
    final def pack(v: Double, dst: Array[Long], di: Int): Unit = dst(di) = bits(v)
    final def unpack(src: Array[Long], si: Int): Double = double(src(si))
    final def combineInto(dst: Array[Long], di: Int, a: Array[Long], ai: Int, b: Array[Long], bi: Int): Unit =
      dst(di) = bits(combine(double(a(ai)), double(b(bi))))
  }

  /** Plain double sum — the paper's "fast" operator. */
  object SumD extends PackedDouble {
    val identity = 0.0
    def combine(x: Double, y: Double): Double = x + y
    val name = "sum"
  }

  object CountL extends PackedMonoid[Long] {
    val identity = 0L
    def combine(x: Long, y: Long): Long = x + y
    val name = "count"
    def width = 1
    def pack(v: Long, dst: Array[Long], di: Int): Unit = dst(di) = v
    def unpack(src: Array[Long], si: Int): Long = src(si)
    def combineInto(dst: Array[Long], di: Int, a: Array[Long], ai: Int, b: Array[Long], bi: Int): Unit =
      dst(di) = a(ai) + b(bi)
  }

  object MaxD extends PackedDouble {
    val identity: Double = Double.NegativeInfinity
    def combine(x: Double, y: Double): Double = math.max(x, y)
    val name = "max"
  }

  object MinD extends PackedDouble {
    val identity: Double = Double.PositiveInfinity
    def combine(x: Double, y: Double): Double = math.min(x, y)
    val name = "min"
  }

  /** Geometric mean lifted into a monoid: carry (Σ log v, n). The paper's
    * "medium"-cost operator. `GeoMean.result` finishes with exp(Σlog/n).
    */
  final case class GeoMean(logSum: Double, n: Long) {
    def result: Double = if (n == 0) 0.0 else math.exp(logSum / n)
  }
  object GeoMean {
    def lift(v: Double): GeoMean = GeoMean(math.log(v), 1L)
  }
  /** Packed as two longs: the raw bits of Σ log v, then n. */
  object GeoMeanM extends PackedMonoid[GeoMean] {
    val identity: GeoMean = GeoMean(0.0, 0L)
    def combine(x: GeoMean, y: GeoMean): GeoMean = GeoMean(x.logSum + y.logSum, x.n + y.n)
    val name = "geomean"
    def width = 2
    def pack(v: GeoMean, dst: Array[Long], di: Int): Unit = { dst(di) = bits(v.logSum); dst(di + 1) = v.n }
    def unpack(src: Array[Long], si: Int): GeoMean = GeoMean(double(src(si)), src(si + 1))
    def combineInto(dst: Array[Long], di: Int, a: Array[Long], ai: Int, b: Array[Long], bi: Int): Unit = {
      val n = a(ai + 1) + b(bi + 1)
      dst(di) = bits(double(a(ai)) + double(b(bi)))
      dst(di + 1) = n
    }
  }

  /** Bloom filter monoid [Bloom 1970] — the paper's "slow" operator: each
    * combine ORs two fixed-size bit arrays and allocates the result.
    * `BloomM.lift(x)` hashes one element into a fresh filter.
    */
  final class Bloom(val bits: Array[Long]) {
    def contains(x: Long): Boolean = {
      var i = 0
      var ok = true
      while (i < Bloom.Hashes && ok) {
        val b = Bloom.bitOf(x, i)
        ok = (bits(b >> 6) & (1L << (b & 63))) != 0
        i += 1
      }
      ok
    }
    override def equals(o: Any): Boolean = o match {
      case b: Bloom => java.util.Arrays.equals(bits, b.bits)
      case _        => false
    }
    override def hashCode: Int = java.util.Arrays.hashCode(bits)
  }
  object Bloom {
    /** 1024 bits = 16 longs, 3 hash functions — small but real work. */
    val Words  = 16
    val Bits   = Words * 64
    val Hashes = 3

    private[Monoids] def bitOf(x: Long, i: Int): Int = {
      // Cheap double hashing via two multiplicative mixes.
      val h1 = java.lang.Long.hashCode(x * -7046029254386353131L)
      val h2 = java.lang.Long.hashCode((x + 1) * -4417276706812531889L) | 1
      math.floorMod(h1 + i * h2, Bits)
    }
    def lift(x: Long): Bloom = {
      val w = new Array[Long](Words)
      var i = 0
      while (i < Hashes) {
        val b = bitOf(x, i)
        w(b >> 6) |= (1L << (b & 63))
        i += 1
      }
      new Bloom(w)
    }
  }
  object BloomM extends Monoid[Bloom] {
    val identity: Bloom = new Bloom(new Array[Long](Bloom.Words))
    def combine(x: Bloom, y: Bloom): Bloom = {
      val w = new Array[Long](Bloom.Words)
      var i = 0
      while (i < Bloom.Words) { w(i) = x.bits(i) | y.bits(i); i += 1 }
      new Bloom(w)
    }
    val name = "bloom"
  }

  /** List concatenation — non-commutative, used by tests to detect any
    * algorithm that combines window values in the wrong order.
    */
  object ConcatM extends Monoid[Vector[Long]] {
    val identity: Vector[Long] = Vector.empty
    def combine(x: Vector[Long], y: Vector[Long]): Vector[Long] = x ++ y
    val name = "concat"
  }
}
