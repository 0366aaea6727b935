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
