package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Monoids._
import repro.core.TestGen._
import repro.core.baseline._
import scala.util.Random

/** In-order baselines (two-stacks, worst-case-O(1) variant, AMTA) checked
  * against the brute-force reference on random in-order op sequences,
  * with the non-commutative Concat monoid so any ordering mistake shows.
  */
class BaselineSwagSpec extends AnyFunSuite {

  private def mkAlgos(): Seq[Swag[Vector[Long]]] = Seq(
    new TwoStacksLite(ConcatM),
    new DeamortizedTwoStacks(ConcatM),
    new Amta(ConcatM),
  )

  /** Random in-order workload: inserts with increasing times, single
    * evicts, amta-style bulk evicts, queries — mirrored onto the
    * reference after every op.
    */
  private def randomRun(algo: Swag[Vector[Long]], seed: Long, nOps: Int): Unit = {
    val rnd = new Random(seed)
    val ref = new BruteForceSwag(ConcatM)
    var t = 0L
    var step = 0
    while (step < nOps) {
      rnd.nextInt(10) match {
        case 0 | 1 | 2 | 3 | 4 =>
          t += 1 + rnd.nextInt(3)
          algo.insert(t, Vector(t)); ref.insert(t, Vector(t))
        case 5 | 6 =>
          algo.evict(); ref.evict()
        case 7 =>
          val cut = (if (ref.isEmpty) 0L else ref.oldestTime) + rnd.nextInt(10)
          algo.bulkEvict(cut); ref.bulkEvict(cut)
        case _ => // query-only step
      }
      assert(algo.query() == ref.query(),
        s"${algo.name} seed=$seed step=$step: ${algo.query()} != ${ref.query()}")
      assert(algo.size == ref.size, s"${algo.name} seed=$seed step=$step size")
      assert(ends(algo) == ends(ref), s"${algo.name} seed=$seed step=$step window ends")
      step += 1
    }
  }

  for (algoName <- Seq("twostacks_lite", "daba_lite*", "amta")) {
    test(s"$algoName matches reference on 40 random in-order runs") {
      for (seed <- 1 to 40) {
        val algo = mkAlgos().find(_.name == algoName).get
        randomRun(algo, seed, 400)
      }
    }
  }

  test("all in-order algorithms agree on a sliding-window sweep") {
    val algos = mkAlgos()
    val ref = new BruteForceSwag(ConcatM)
    val windowSize = 64
    for (t <- 1L to 2000L) {
      algos.foreach(_.insert(t, Vector(t)))
      ref.insert(t, Vector(t))
      if (t > windowSize) {
        algos.foreach(_.bulkEvict(t - windowSize))
        ref.bulkEvict(t - windowSize)
      }
      val expect = ref.query()
      algos.foreach(a => assert(a.query() == expect, s"${a.name} at t=$t"))
    }
  }

  test("in-order algorithms reject out-of-order inserts") {
    for (algo <- mkAlgos()) {
      algo.insert(10, Vector(10L))
      assert(!algo.supportsOoo)
      intercept[IllegalArgumentException](algo.insert(5, Vector(5L)))
    }
  }

  test("two-stacks combines values on duplicate max timestamp") {
    // DeamortizedTwoStacks only absorbs duplicates while the previous
    // entry is still in back₂ (its rotation may have consumed the back);
    // bench workloads for in-order algorithms use strictly increasing
    // times, so only TwoStacksLite promises this.
    val algo = new TwoStacksLite(ConcatM)
    algo.insert(1, Vector(1L))
    algo.insert(2, Vector(2L))
    algo.insert(2, Vector(99L))
    assert(algo.query() == Vector(1L, 2L, 99L), algo.name)
    assert(algo.size == 2, algo.name)
  }

  test("empty-window query returns identity") {
    for (algo <- mkAlgos()) {
      assert(algo.query() == ConcatM.identity, algo.name)
      algo.evict() // no-op
      assert(algo.query() == ConcatM.identity, algo.name)
    }
  }

  test("evict to empty and refill repeatedly") {
    for (algo <- mkAlgos()) {
      var t = 0L
      for (round <- 1 to 20) {
        val n = round % 7 + 1
        for (_ <- 1 to n) { t += 1; algo.insert(t, Vector(t)) }
        assert(algo.size == n, algo.name)
        for (_ <- 1 to n) algo.evict()
        assert(algo.size == 0, s"${algo.name} round=$round")
        assert(algo.query() == Vector.empty, algo.name)
      }
    }
  }

  test("amta: bulk evict drops exactly the prefix <= t") {
    val a = new Amta(CountL)
    for (t <- 1L to 1000L) a.insert(t, 1L)
    a.bulkEvict(637)
    assert(a.size == 363)
    assert(a.query() == 363L)
    assert(a.oldestTime == 638L)
    a.bulkEvict(5000)
    assert(a.size == 0)
  }

  test("brute force reference: bulkEvict boundary semantics") {
    val b = new BruteForceSwag(ConcatM)
    Seq(1L, 3L, 5L).foreach(t => b.insert(t, Vector(t)))
    b.bulkEvict(3)
    assert(b.snapshot().get.map(_._1) == IndexedSeq(5L))
    b.bulkEvict(4) // below min: no-op
    assert(b.size == 1)
  }
}
