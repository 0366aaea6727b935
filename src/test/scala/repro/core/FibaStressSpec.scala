package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Monoids._
import repro.core.TestGen._
import repro.core.baseline.BruteForceSwag
import repro.core.fiba.FibaTree
import scala.util.Random

/** Heavier randomized stress, one test per (arity, seed) cell so failures
  * pinpoint their configuration. Longer runs than FibaPropertySpec, with
  * validation at checkpoints rather than every op.
  */
class FibaStressSpec extends AnyFunSuite {

  private def stressRun[V](enc: Enc[V], minArity: Int, seed: Long, nOps: Int): Unit = {
    val rnd = new Random(seed)
    val tree = new FibaTree[V](minArity, enc.monoid)
    val ref = new BruteForceSwag(enc.monoid)
    var step = 0
    while (step < nOps) {
      rnd.nextInt(10) match {
        case 0 | 1 | 2 =>
          val t = rnd.nextInt(5000).toLong
          tree.insertOne(t, enc.of(t)); ref.insert(t, enc.of(t))
        case 3 | 4 =>
          val k = 1 + rnd.nextInt(300)
          val ts = Iterator.continually(rnd.nextInt(5000).toLong).take(3 * k)
            .toVector.distinct.sorted.take(k)
          val es = ts.map(t => (t, enc.of(t)))
          tree.bulkInsertPairs(es)
          es.foreach { case (t, v) => ref.insert(t, v) }
        case 5 | 6 =>
          val t = rnd.nextInt(5200).toLong - 100
          tree.bulkEvictNative(t); ref.bulkEvict(t)
        case 7 =>
          tree.evictOldest(); ref.evict()
        case 8 => // heavy in-order burst above the window
          val base = if (ref.isEmpty) 0L else ref.youngestTime
          val k = 1 + rnd.nextInt(500)
          val es = (1 to k).map(i => (base + i, enc.of(base + i)))
          tree.bulkInsertPairs(es)
          es.foreach { case (t, v) => ref.insert(t, v) }
        case _ => // query-only
      }
      if (step % 40 == 0) tree.validate()
      assert(tree.queryAgg() == ref.query(), s"${enc.monoid.name} minArity=$minArity seed=$seed step=$step")
      step += 1
    }
    tree.validate()
  }

  for (minArity <- Seq(2, 3, 4, 6, 8); seed <- 1 to 8) {
    test(s"stress minArity=$minArity seed=$seed") {
      stressRun(concatEnc, minArity, seed * 7919L, nOps = 250)
    }
  }

  for (enc <- Seq(affineEnc, countEnc); minArity <- Seq(2, 4, 8); seed <- 1 to 3) {
    test(s"stress ${enc.monoid.name} minArity=$minArity seed=$seed") {
      stressRun(enc, minArity, seed * 7919L, nOps = 250)
    }
  }

  for (seed <- 1 to 10) {
    test(s"sliding-burst parity across fiba arities, seed=$seed") {
      val rnd = new Random(seed)
      val trees = Seq(2, 4, 8).map(a => new FibaTree[Vector[Long]](a, ConcatM))
      var top = 0L
      for (_ <- 1 to 60) {
        val m = 1 + rnd.nextInt(200)
        val es = (1 to m).map { i => (top + i, Vector(top + i)) }
        top += m
        trees.foreach(_.bulkInsertPairs(es))
        val cut = top - 500
        trees.foreach(_.bulkEvictNative(cut))
        val qs = trees.map(_.queryAgg())
        assert(qs.distinct.size == 1, s"arity disagreement at top=$top")
      }
      trees.foreach(_.validate())
    }
  }
}
