package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Monoids._
import repro.core.TestGen._
import repro.core.baseline.BruteForceSwag
import repro.core.fiba.FibaTree
import scala.util.Random

/** FiBA property tests: random operation sequences (single + bulk,
  * in-order + out-of-order) mirrored onto the brute-force reference, with
  * `validate()` re-deriving every structural and aggregate invariant
  * after every single operation. Uses the non-commutative Concat monoid
  * (exact equality, order-sensitive) so nothing can cancel out, and runs
  * the random ops also over the packed affine and count monoids, whose
  * trees keep values inline in `Array[Long]` stores.
  */
class FibaPropertySpec extends AnyFunSuite {

  private def entryFor(t: Long): Vector[Long] = Vector(t)

  /** One random run; every op is mirrored and the tree fully validated. */
  private def randomRun[V](enc: Enc[V], minArity: Int, seed: Long, nOps: Int, tRange: Int,
                           bulkOps: Boolean, useFreeList: Boolean): Unit = {
    val entryFor = enc.of
    val rnd = new Random(seed)
    val tree = new FibaTree[V](minArity, enc.monoid, useFreeList)
    val ref = new BruteForceSwag(enc.monoid)
    val ctx = s"${enc.monoid.name} minArity=$minArity seed=$seed bulk=$bulkOps fl=$useFreeList"
    var step = 0
    while (step < nOps) {
      val dice = rnd.nextInt(12)
      if (dice <= 4) { // single insert, arbitrary order
        val t = rnd.nextInt(tRange).toLong
        tree.insertOne(t, entryFor(t)); ref.insert(t, entryFor(t))
      } else if (dice <= 6) {
        tree.evictOldest(); ref.evict()
      } else if (dice == 7 && bulkOps) { // bulk evict at a random cut
        val t = rnd.nextInt(tRange + 10).toLong - 5
        tree.bulkEvictNative(t); ref.bulkEvict(t)
      } else if (dice == 7) {
        val t = rnd.nextInt(tRange).toLong
        while (!ref.isEmpty && ref.oldestTime <= t) { tree.evictOldest(); ref.evict() }
      } else if (dice <= 10 && bulkOps) { // bulk insert of up to 40 entries
        val k = 1 + rnd.nextInt(40)
        val ts = Iterator.continually(rnd.nextInt(tRange).toLong).take(3 * k)
          .toVector.distinct.sorted.take(k)
        val es = ts.map(t => (t, entryFor(t)))
        tree.bulkInsertPairs(es)
        es.foreach { case (t, v) => ref.insert(t, v) }
      } else if (dice <= 10) {
        val t = rnd.nextInt(tRange).toLong
        tree.insertOne(t, entryFor(t)); ref.insert(t, entryFor(t))
      } // else: query-only step
      tree.validate()
      val got = tree.queryAgg()
      val want = ref.query()
      assert(got == want, s"$ctx step=$step op=$dice:\n got=$got\nwant=$want\n${tree.dump()}")
      assert(ends(tree) == ends(ref), s"$ctx step=$step window ends")
      step += 1
    }
  }

  for (minArity <- Seq(2, 3, 4, 8); bulk <- Seq(false, true)) {
    test(s"random ops (minArity=$minArity, bulk=$bulk) match reference, 25 seeds") {
      for (seed <- 1 to 25)
        randomRun(concatEnc, minArity, seed, nOps = 300, tRange = 200, bulkOps = bulk, useFreeList = true)
    }
  }

  for (enc <- Seq(affineEnc, countEnc); minArity <- Seq(2, 3, 4, 8); fl <- Seq(true, false)) {
    test(s"random ops over ${enc.monoid.name} (minArity=$minArity, free list=$fl) match reference, 25 seeds") {
      for (seed <- 1 to 25)
        randomRun(enc, minArity, seed, nOps = 300, tRange = 200, bulkOps = true, useFreeList = fl)
    }
  }

  test("random ops without the free list (nofl ablation) are still correct") {
    for (seed <- 1 to 10)
      randomRun(concatEnc, 2, seed, nOps = 250, tRange = 150, bulkOps = true, useFreeList = false)
  }

  test("dense duplicate timestamps: combines accumulate in window order") {
    val tree = new FibaTree[Vector[Long]](2, ConcatM)
    val ref = new BruteForceSwag(ConcatM)
    val rnd = new Random(7)
    for (i <- 0 until 500) {
      val t = rnd.nextInt(20).toLong // heavy collisions
      tree.insertOne(t, Vector(i.toLong)); ref.insert(t, Vector(i.toLong))
      tree.validate()
      assert(tree.queryAgg() == ref.query(), s"i=$i")
    }
  }

  test("in-order fill then sliding window, all arities") {
    for (minArity <- Seq(2, 4, 8)) {
      val tree = new FibaTree[Vector[Long]](minArity, ConcatM)
      val ref = new BruteForceSwag(ConcatM)
      for (t <- 1L to 1500L) {
        tree.insertOne(t, entryFor(t)); ref.insert(t, entryFor(t))
        if (t > 100) { tree.evictOldest(); ref.evict() }
        if (t % 97 == 0) tree.validate()
        assert(tree.queryAgg() == ref.query(), s"minArity=$minArity t=$t")
      }
    }
  }

  test("bulk insert of a large in-order batch equals loop of singles") {
    for (minArity <- Seq(2, 4)) {
      val a = new FibaTree[Vector[Long]](minArity, ConcatM)
      val b = new FibaTree[Vector[Long]](minArity, ConcatM)
      val es = (1L to 1000L).map(t => (t, entryFor(t)))
      a.bulkInsertPairs(es)
      es.foreach { case (t, v) => b.insertOne(t, v) }
      a.validate(); b.validate()
      assert(a.queryAgg() == b.queryAgg())
    }
  }

  test("bulk insert entirely into the middle of an existing window") {
    val tree = new FibaTree[Vector[Long]](2, ConcatM)
    val ref = new BruteForceSwag(ConcatM)
    for (t <- (1L to 2000L by 2)) { tree.insertOne(t, entryFor(t)); ref.insert(t, entryFor(t)) }
    val bulk = (900L to 1100L).filter(_ % 2 == 0).map(t => (t, entryFor(t)))
    tree.bulkInsertPairs(bulk)
    bulk.foreach { case (t, v) => ref.insert(t, v) }
    tree.validate()
    assert(tree.queryAgg() == ref.query())
  }

  test("bulk insert colliding with every existing timestamp") {
    val tree = new FibaTree[Vector[Long]](3, ConcatM)
    val ref = new BruteForceSwag(ConcatM)
    for (t <- 1L to 300L) { tree.insertOne(t, entryFor(t)); ref.insert(t, entryFor(t)) }
    val bulk = (1L to 300L).map(t => (t, Vector(t + 1000)))
    tree.bulkInsertPairs(bulk)
    bulk.foreach { case (t, v) => ref.insert(t, v) }
    tree.validate()
    assert(tree.queryAgg() == ref.query())
  }

  test("bulk evict boundary cases: below min, exact entries, above max") {
    val mk = () => {
      val tr = new FibaTree[Vector[Long]](2, ConcatM)
      for (t <- 10L to 500L by 10) tr.insertOne(t, entryFor(t))
      tr
    }
    val t1 = mk(); t1.bulkEvictNative(5); t1.validate()
    assert(t1.oldestTime == 10L)
    val t2 = mk(); t2.bulkEvictNative(250); t2.validate() // exact timestamp hit
    assert(t2.oldestTime == 260L)
    val t3 = mk(); t3.bulkEvictNative(245); t3.validate() // between timestamps
    assert(t3.oldestTime == 250L)
    val t4 = mk(); t4.bulkEvictNative(500); t4.validate() // evict all (exact max)
    assert(t4.isEmpty && t4.queryAgg() == Vector.empty)
    val t5 = mk(); t5.bulkEvictNative(10000); t5.validate() // evict all (beyond)
    assert(t5.isEmpty)
  }

  test("bulk evict leaving exactly one entry, then refill") {
    val tree = new FibaTree[Vector[Long]](2, ConcatM)
    for (t <- 1L to 1000L) tree.insertOne(t, entryFor(t))
    tree.bulkEvictNative(999)
    tree.validate()
    assert(tree.queryAgg() == Vector(1000L))
    for (t <- 1001L to 1200L) { tree.insertOne(t, entryFor(t)); tree.validate() }
    assert(tree.queryAgg() == (1000L to 1200L).toVector)
  }

  test("alternating large bulk evicts and bulk inserts (sliding bursts)") {
    val tree = new FibaTree[Vector[Long]](4, ConcatM)
    val ref = new BruteForceSwag(ConcatM)
    var t = 0L
    for (round <- 1 to 50) {
      val m = 1 + (round * 37) % 200
      val es = (1 to m).map { i => val tt = t + i; (tt, entryFor(tt)) }
      t += m
      tree.bulkInsertPairs(es)
      es.foreach { case (tt, v) => ref.insert(tt, v) }
      val cut = t - 300
      tree.bulkEvictNative(cut); ref.bulkEvict(cut)
      tree.validate()
      assert(tree.queryAgg() == ref.query(), s"round=$round")
    }
  }

  test("out-of-order bulk inserts behind the window tail (paper's d sweep)") {
    for (d <- Seq(1, 16, 256, 2048)) {
      val tree = new FibaTree[Vector[Long]](4, ConcatM)
      val ref = new BruteForceSwag(ConcatM)
      // dense window 0..4095 with odd gaps to insert into
      for (t <- 0L until 4096L by 2) { tree.insertOne(t, entryFor(t)); ref.insert(t, entryFor(t)) }
      val maxT = 4094L
      val bulk = (0 until 64).map { i =>
        val tt = maxT - d - 2 * i - 1 // odd: guaranteed new
        (tt, entryFor(tt))
      }.sortBy(_._1)
      tree.bulkInsertPairs(bulk.toIndexedSeq)
      bulk.foreach { case (tt, v) => ref.insert(tt, v) }
      tree.validate()
      assert(tree.queryAgg() == ref.query(), s"d=$d")
    }
  }

  test("query is constant-identity on an empty tree, including after clear") {
    val tree = new FibaTree[Vector[Long]](2, ConcatM)
    assert(tree.queryAgg() == Vector.empty)
    tree.evictOldest() // no-op
    tree.bulkEvictNative(100) // no-op
    assert(tree.queryAgg() == Vector.empty)
    tree.insertOne(5, Vector(5L))
    tree.bulkEvictNative(5)
    tree.validate()
    assert(tree.isEmpty && tree.queryAgg() == Vector.empty)
  }
}
