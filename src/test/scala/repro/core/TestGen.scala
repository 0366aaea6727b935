package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.core.fiba.FibaTree

/** Minimal deterministic forAll over raw ScalaCheck generators (the
  * scalatest/scalacheck bridge artifact is not in the offline cache).
  */
object TestGen {
  def forAllN[A](gen: Gen[A], n: Int = 200, seed0: Long = 42L)(f: A => Unit): Unit = {
    var seed = Seed(seed0)
    var i = 0
    while (i < n) {
      val a = gen.pureApply(Gen.Parameters.default, seed)
      try f(a)
      catch {
        case e: Throwable =>
          throw new AssertionError(s"forAllN failed at case #$i for input: $a", e)
      }
      seed = seed.next
      i += 1
    }
  }

  def forAllN2[A, B](ga: Gen[A], gb: Gen[B], n: Int = 200)(f: (A, B) => Unit): Unit =
    forAllN(Gen.zip(ga, gb), n) { case (a, b) => f(a, b) }

  def forAllN3[A, B, C](ga: Gen[A], gb: Gen[B], gc: Gen[C], n: Int = 200)(f: (A, B, C) => Unit): Unit =
    forAllN(Gen.zip(ga, gb, gc), n) { case (a, b, c) => f(a, b, c) }

  /** Affine maps x ↦ a·x + b over Z/2^64. */
  final case class Affine(a: Long, b: Long)

  /** Affine maps composed in window order, (a1, b1) ⊗ (a2, b2) =
    * (a1·a2, a2·b1 + b2): exact and non-commutative, and packed as two
    * longs, so trees over it run the `Long` lane at width 2.
    */
  object AffineM extends PackedMonoid[Affine] {
    val identity: Affine = Affine(1L, 0L)
    def combine(x: Affine, y: Affine): Affine = Affine(x.a * y.a, y.a * x.b + y.b)
    val name = "affine"
    def width = 2
    def pack(v: Affine, dst: Array[Long], di: Int): Unit = { dst(di) = v.a; dst(di + 1) = v.b }
    def unpack(src: Array[Long], si: Int): Affine = Affine(src(si), src(si + 1))
    def combineInto(dst: Array[Long], di: Int, x: Array[Long], xi: Int, y: Array[Long], yi: Int): Unit = {
      val a = x(xi) * y(yi)
      val b = y(yi) * x(xi + 1) + y(yi + 1)
      dst(di) = a; dst(di + 1) = b
    }
  }

  /** A monoid and the value an entry at time t carries, for tests that run
    * over several monoids; `window(ts)` is the aggregate of entries ts.
    */
  final case class Enc[V](monoid: Monoid[V], of: Long => V) {
    def window(ts: Seq[Long]): V = ts.foldLeft(monoid.identity)((acc, t) => monoid.combine(acc, of(t)))
  }
  val concatEnc: Enc[Vector[Long]] = Enc(Monoids.ConcatM, Vector(_))
  val affineEnc: Enc[Affine] = Enc(AffineM, t => Affine(2 * t + 3, t ^ 0x5555L))
  val countEnc: Enc[Long] = Enc(Monoids.CountL, t => t)

  /** A window's (oldest, youngest) times, or None when it is empty. */
  def ends(s: Swag[_]): Option[(Long, Long)] =
    if (s.isEmpty) None else Some((s.oldestTime, s.youngestTime))

  def ends(t: FibaTree[_]): Option[(Long, Long)] =
    if (t.isEmpty) None else Some((t.oldestTime, t.youngestTime))

  /** Pass a bulk of pairs to a bare tree as one array slice. */
  implicit final class PairBulk[V](private val tree: FibaTree[V]) extends AnyVal {
    def bulkInsertPairs(es: Seq[(Long, V)]): Unit = {
      val values = es.map(_._2.asInstanceOf[AnyRef]).toArray.asInstanceOf[Array[V]]
      tree.bulkInsertNative(es.map(_._1).toArray, values, 0, es.length)
    }
  }
}
