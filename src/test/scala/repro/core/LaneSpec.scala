package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Monoids._
import repro.core.TestGen._
import repro.core.fiba.BFiba

/** The two value lanes of a FiBA tree: a [[PackedMonoid]] puts values and
  * aggregates inline in `Array[Long]` stores, any other monoid keeps
  * `Array[AnyRef]` stores, and both give bit-identical results.
  */
class LaneSpec extends AnyFunSuite {

  /** The same monoid without the packed capability: the `AnyRef` lane. */
  private def unpacked[V](m: Monoid[V]): Monoid[V] = new Monoid[V] {
    val identity: V = m.identity
    def combine(x: V, y: V): V = m.combine(x, y)
    val name = s"unpacked ${m.name}"
  }

  /** The root's value store of a minArity-4 tree holding entries 1..100. */
  private def rootStore[V](m: Monoid[V], of: Long => V): AnyRef = {
    val f = new BFiba[V](4, m)
    (1L to 100L).foreach(t => f.insert(t, of(t)))
    f.underlying.validate()
    f.underlying.rootValues
  }

  test("packed monoids hold Array[Long] stores of (cap + 1) * width longs; the others hold Array[AnyRef]") {
    val slots = 2 * 4 // MAX_ARITY - 1 entries, then the aggregate
    val packed: Seq[(String, AnyRef, Int)] = Seq(
      ("sum", rootStore(SumD, _.toDouble), 1),
      ("max", rootStore(MaxD, _.toDouble), 1),
      ("min", rootStore(MinD, _.toDouble), 1),
      ("count", rootStore(CountL, t => t), 1),
      ("geomean", rootStore(GeoMeanM, t => GeoMean.lift(t.toDouble)), 2),
      ("affine", rootStore(AffineM, affineEnc.of), 2),
    )
    for ((name, store, width) <- packed) store match {
      case a: Array[Long] => assert(a.length == slots * width, name)
      case other          => fail(s"$name: ${other.getClass}")
    }
    val boxed: Seq[(String, AnyRef)] = Seq(
      ("bloom", rootStore(BloomM, Bloom.lift)),
      ("concat", rootStore(ConcatM, Vector(_))),
      ("plain", rootStore(unpacked(SumD), _.toDouble)),
    )
    for ((name, store) <- boxed) store match {
      case a: Array[AnyRef] => assert(a.length == slots, name)
      case other            => fail(s"$name: ${other.getClass}")
    }
  }

  private val payloadNaN = java.lang.Double.longBitsToDouble(0x7ff8000000000123L)
  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)
  // a NaN's payload may follow the JIT's operand order, so query results
  // compare NaNs as one value and everything else bit for bit
  private def same(a: Double, b: Double): Boolean = bits(a) == bits(b) || (a.isNaN && b.isNaN)

  test("-0.0, NaN and infinities round-trip bit-exactly through bulkInsert, query and snapshot") {
    val specials = Array(-0.0, 0.0, payloadNaN, Double.NaN, Double.PositiveInfinity,
                         Double.NegativeInfinity, 1.5, -2.25, Double.MinPositiveValue, Double.MaxValue)
    val zeros = Array(-0.0, 0.0, -0.0)
    for (m <- Seq(SumD, MaxD, MinD); pool <- Seq(specials, zeros, specials.filterNot(_.isNaN))) {
      val ctx = s"${m.name} ${pool.mkString(",")}"
      val packed = new BFiba[Double](4, m)
      val boxed = new BFiba[Double](4, unpacked(m))
      def check(step: String): Unit = {
        assert(same(packed.query(), boxed.query()), s"$ctx $step: query ${packed.query()} vs ${boxed.query()}")
        val got = packed.snapshot().get
        val want = boxed.snapshot().get
        assert(got.map(_._1) == want.map(_._1), s"$ctx $step")
        assert(got.map(e => bits(e._2)) == want.map(e => bits(e._2)), s"$ctx $step: snapshot")
        val times = new Array[Long](packed.size)
        val values = new Array[Double](times.length)
        assert(packed.snapshotInto(times, values))
        assert(times.toSeq == got.map(_._1) && values.toSeq.map(bits) == got.map(e => bits(e._2)), s"$ctx $step: snapshotInto")
      }
      // even slots in order, then odd slots out of order, with collisions
      val times = Array.tabulate(300)(i => 2L * i)
      val values = Array.tabulate(300)(i => pool(i % pool.length))
      for (s <- Seq(packed, boxed)) s.bulkInsert(times, values, 0, times.length)
      assert(packed.snapshot().get.map(e => bits(e._2)) == values.toSeq.map(bits), s"$ctx: stored as given")
      check("in order")
      val late = Array.tabulate(100)(i => 2L * i + 101 - (i % 2))
      val lateValues = Array.tabulate(100)(i => pool((7 * i) % pool.length))
      for (s <- Seq(packed, boxed)) { s.bulkInsert(late, lateValues, 0, late.length); s.bulkEvict(150) }
      check("late and evicted")
      // NaN propagates to the whole window, and NaN aggregates never compare equal
      if (!packed.query().isNaN) packed.underlying.validate()
    }
  }

  test("geomean values and aggregates round-trip through the Long lane") {
    val packed = new BFiba[GeoMean](4, GeoMeanM)
    val boxed = new BFiba[GeoMean](4, unpacked(GeoMeanM))
    val entries = (1L to 500L).map(t => (t, GeoMean.lift(t.toDouble)))
    for (s <- Seq(packed, boxed)) { s.bulkInsert(entries); s.bulkEvict(123) }
    assert(packed.snapshot().get == entries.drop(123))
    val (p, b) = (packed.query(), boxed.query())
    assert(bits(p.logSum) == bits(b.logSum) && p.n == b.n && p.n == 377)
    packed.underlying.validate()
  }
}
