package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Monoids._
import repro.core.TestGen._
import repro.core.baseline.BruteForceSwag
import repro.core.fiba.{BFiba, FibaTree}

/** Targeted FiBA scenarios beyond the randomized property tests: tree
  * growth/shrink transitions, right-spine eviction (root replacement),
  * massive single-bulk inserts, reclamation of evicted nodes, and API
  * edges.
  */
class FibaEdgeSpec extends AnyFunSuite {

  private def filled(minArity: Int, n: Int): FibaTree[Vector[Long]] = {
    val t = new FibaTree[Vector[Long]](minArity, ConcatM)
    for (i <- 1 to n) t.insertOne(i.toLong, Vector(i.toLong))
    t
  }

  /** Long sum that counts its combines. */
  private class CountingSum extends Monoid[Long] {
    var combines = 0L
    val identity = 0L
    def combine(x: Long, y: Long): Long = { combines += 1; x + y }
    val name = "counting"
  }

  /** The same sum, packed: trees over it run the `Long` lane. */
  private final class PackedCountingSum extends CountingSum with PackedMonoid[Long] {
    def width = 1
    def pack(v: Long, dst: Array[Long], di: Int): Unit = dst(di) = v
    def unpack(src: Array[Long], si: Int): Long = src(si)
    def combineInto(dst: Array[Long], di: Int, a: Array[Long], ai: Int, b: Array[Long], bi: Int): Unit = {
      combines += 1; dst(di) = a(ai) + b(bi)
    }
  }

  /** Both lanes run one code path, so they count the same combines. */
  private def bothLanes[A](f: CountingSum => A): A = {
    val (ref, packed) = (f(new CountingSum), f(new PackedCountingSum))
    assert(ref == packed, "the AnyRef and Long lanes counted different combines")
    ref
  }

  test("minArity below 2 is rejected") {
    intercept[IllegalArgumentException](new FibaTree[Vector[Long]](1, ConcatM))
  }

  test("root leaf grows into a tree and shrinks back to a root leaf") {
    // Out of order, the tree's shape differs, so single evicts also meet
    // moves and merges against the right-spine top under a 2-ary root.
    // Descending, every insert lands in the left finger, so split
    // cascades climb the left spine and grow the root from there.
    for (minArity <- Seq(2, 3, 4, 8); order <- Seq("ascending", "shuffled", "descending")) {
      val ctx = s"minArity=$minArity order=$order"
      val n = 64L * minArity
      val ts = order match {
        case "ascending"  => (1L to n)
        case "shuffled"   => new scala.util.Random(minArity).shuffle((1L to n).toVector)
        case "descending" => (n to 1L by -1L)
      }
      val t = new FibaTree[Vector[Long]](minArity, ConcatM)
      for (i <- ts) { t.insertOne(i, Vector(i)); t.validate() }
      for (k <- 1L until n) {
        t.evictOldest(); t.validate()
        assert(ends(t).contains((k + 1, n)), ctx)
      }
      assert(t.queryAgg() == Vector(n), ctx)
      t.evictOldest()
      assert(t.isEmpty && t.queryAgg() == Vector.empty, ctx)
      // refill after total drain
      for (i <- n + 100 to n + 130) { t.insertOne(i, Vector(i)); t.validate() }
      assert(t.queryAgg() == (n + 100 to n + 130).toVector, ctx)
    }
  }

  test("bulkEvict cutting deep into the right spine replaces the root") {
    for (minArity <- Seq(2, 3, 4, 8); keep <- Seq(1, 2, 3, 5, 17)) {
      val t = filled(minArity, 2000)
      t.bulkEvictNative(2000L - keep)
      t.validate()
      assert(t.queryAgg() == ((2000L - keep + 1) to 2000L).toVector,
        s"minArity=$minArity keep=$keep")
    }
  }

  test("bulkEvict at every possible cut of a medium window stays valid") {
    // A root leaf (2µ-1 entries) meets the left-finger fast path while the
    // cut leaves it µ-1 entries or more, and the general path below that.
    for (minArity <- Seq(2, 3, 4, 8); n <- Seq(2 * minArity - 1, 120); cut <- 0 to n) {
      val t = filled(minArity, n)
      t.bulkEvictNative(cut.toLong)
      t.validate()
      assert(t.queryAgg() == ((cut + 1).toLong to n.toLong).toVector, s"minArity=$minArity n=$n cut=$cut")
    }
  }

  test("a bulk rejected for its order leaves the window untouched") {
    val t = filled(4, 50)
    val before = t.toEntries
    val q = t.queryAgg()
    // the first entry collides with an existing timestamp: nothing may be
    // combined before the order check rejects the bulk
    intercept[IllegalArgumentException](
      t.bulkInsertPairs(IndexedSeq((10L, Vector(-10L)), (5L, Vector(-5L)))))
    t.validate()
    assert(t.toEntries == before)
    assert(t.queryAgg() == q)
    t.bulkInsertPairs(IndexedSeq((10L, Vector(-10L)), (60L, Vector(60L))))
    t.validate()
    assert(t.queryAgg() == (1L to 10L).toVector ++ Vector(-10L) ++ (11L to 50L) ++ Vector(60L))
  }

  test("a slice out of bounds or unordered inside is rejected and leaves the window untouched") {
    val t = filled(4, 50)
    val before = t.toEntries
    val q = t.queryAgg()
    // [1, 4) collides at 10 and is unordered only at its last pair; the
    // entries outside it are in order
    val times = Array(1L, 10L, 20L, 15L, 60L)
    val values = times.map(x => Vector(-x))
    for ((from, until) <- Seq((1, 4), (0, 5), (-1, 2), (3, 6), (3, 2))) {
      intercept[IllegalArgumentException](t.bulkInsertNative(times, values, from, until))
      t.validate()
      assert(t.toEntries == before, s"[$from, $until)")
      assert(t.queryAgg() == q, s"[$from, $until)")
    }
    // ordered inside [1, 3), unordered outside it: accepted
    val mixed = Array(70L, 10L, 60L, 5L)
    t.bulkInsertNative(mixed, mixed.map(x => Vector(-x)), 1, 3)
    t.validate()
    assert(t.queryAgg() == (1L to 10L).toVector ++ Vector(-10L) ++ (11L to 50L) ++ Vector(-60L))
  }

  test("b_fiba fed primitive Array[Double] slices matches the brute-force reference") {
    val fiba = new BFiba[Double](4, SumD)
    val ref = new BruteForceSwag[Double](SumD)
    val rnd = new scala.util.Random(11)
    for (round <- 1 to 100) {
      val ts = Array.fill(1 + rnd.nextInt(60))(rnd.nextInt(3000).toLong).distinct.sorted
      val times = (-7L +: ts) :+ -7L // padding outside the slice
      val values = times.map(x => (x % 97).toDouble) // integral: sums are exact
      fiba.bulkInsert(times, values, 1, times.length - 1)
      ref.bulkInsert(times, values, 1, times.length - 1)
      val cut = rnd.nextInt(3000).toLong - 1000
      fiba.bulkEvict(cut); ref.bulkEvict(cut)
      assert(fiba.query() == ref.query(), s"round=$round")
      assert(fiba.snapshot() == ref.snapshot(), s"round=$round")
    }
    fiba.underlying.validate()
  }

  test("bulkEvict(Long.MaxValue) empties the window") {
    def emptied[V](minArity: Int, enc: Enc[V]): Boolean = {
      val t = new FibaTree[V](minArity, enc.monoid)
      for (i <- 1L to 100L) t.insertOne(i, enc.of(i))
      t.bulkEvictNative(Long.MaxValue)
      t.validate()
      t.isEmpty && t.sizeByTraversal == 0
    }
    for (minArity <- Seq(2, 4, 8)) {
      assert(emptied(minArity, concatEnc), s"reference lane, minArity=$minArity")
      assert(emptied(minArity, countEnc), s"packed lane, minArity=$minArity")
    }
  }

  test("bulks at the extreme timestamps stay valid and match the brute-force reference") {
    // The run of a leaf with no upper bound must take an entry at
    // Long.MaxValue, and an entry at Long.MinValue must still reach the
    // left finger when the finger search's distance arithmetic overflows.
    def check[V](minArity: Int, enc: Enc[V]): Unit = {
      val ctx = s"minArity=$minArity ${enc.monoid.name}"
      val fiba = new BFiba[V](minArity, enc.monoid)
      val ref = new BruteForceSwag[V](enc.monoid)
      def bulk(ts: Seq[Long]): Unit = {
        val times = ts.toArray
        val values = ts.map(enc.of(_).asInstanceOf[AnyRef]).toArray.asInstanceOf[Array[V]]
        fiba.bulkInsert(times, values, 0, times.length)
        ref.bulkInsert(times, values, 0, times.length)
        fiba.underlying.validate()
        assert(fiba.query() == ref.query(), ctx)
        assert(fiba.snapshot() == ref.snapshot(), ctx)
      }
      // into an empty window, then an in-order bulk that splits the right finger
      bulk((1L to 63L) :+ Long.MaxValue)
      fiba.bulkEvict(Long.MaxValue); ref.bulkEvict(Long.MaxValue)
      assert(fiba.isEmpty && ref.isEmpty, ctx)
      bulk((1000L until 1300L).map(_ * 2))
      bulk((2600L until 2663L) :+ Long.MaxValue)
      // out of order into the multi-level window, colliding with existing
      // entries on the way, from Long.MinValue up to Long.MaxValue
      bulk(Long.MinValue +: (1500L until 2700L by 13) :+ Long.MaxValue)
      fiba.bulkEvict(Long.MaxValue - 1); ref.bulkEvict(Long.MaxValue - 1)
      assert(fiba.size == 1 && fiba.query() == ref.query(), ctx)
      fiba.underlying.validate()
    }
    for (minArity <- Seq(2, 4, 8)) { check(minArity, concatEnc); check(minArity, countEnc) }
  }

  test("one giant bulk insert builds a valid multi-level tree") {
    for (minArity <- Seq(2, 8)) {
      val t = new FibaTree[Vector[Long]](minArity, ConcatM)
      t.insertOne(0L, Vector(0L))
      val es = (1L to 20000L).map(i => (i, Vector(i)))
      t.bulkInsertPairs(es)
      t.validate()
      assert(t.sizeByTraversal == 20001)
      assert(t.queryAgg().take(5) == Vector(0L, 1L, 2L, 3L, 4L))
      assert(t.queryAgg().length == 20001)
    }
  }

  test("giant out-of-order bulk insert into a gap") {
    val t = new FibaTree[Vector[Long]](4, ConcatM)
    (1L to 5000L).foreach(i => t.insertOne(i * 3, Vector(i * 3)))
    val bulk = (1L until 5000L).map(i => (i * 3 + 1, Vector(i * 3 + 1)))
    t.bulkInsertPairs(bulk)
    t.validate()
    assert(t.sizeByTraversal == 9999)
  }

  test("deferred and eager (nofl) reclamation agree over a long slide") {
    val deferred = new BFiba[Vector[Long]](2, ConcatM, useFreeList = true)
    val eager = new BFiba[Vector[Long]](2, ConcatM, useFreeList = false)
    var t = 0L
    for (round <- 1 to 200) {
      val m = 1 + round % 40
      val batch = (1 to m).map { k => (t + k, Vector(t + k)) }
      t += m
      deferred.bulkInsert(batch); eager.bulkInsert(batch)
      deferred.bulkEvict(t - 100); eager.bulkEvict(t - 100)
      assert(deferred.query() == eager.query(), s"round=$round")
    }
    deferred.underlying.validate()
    eager.underlying.validate()
  }

  test("a completely evicted window becomes garbage: the old root's store is collected") {
    // Nodes are never pooled, so nothing but the tree may reach an evicted
    // subtree; the evict's scratch arrays included.
    def released[V](minArity: Int, m: Monoid[V], of: Long => V): Boolean = {
      val n = 1L << 16
      val t = new FibaTree[V](minArity, m)
      t.bulkInsertPairs((1L to n).map(i => (i, of(i))))
      val oldRoot = new java.lang.ref.WeakReference[AnyRef](t.rootValues)
      t.bulkEvictNative(n)
      t.insertOne(n + 1, of(n + 1))
      t.validate()
      var tries = 0
      while (oldRoot.get != null && tries < 20) { System.gc(); Thread.sleep(10); tries += 1 }
      oldRoot.get == null
    }
    for (minArity <- Seq(2, 4, 8)) {
      assert(released(minArity, SumD, _.toDouble), s"packed lane, minArity=$minArity")
      assert(released(minArity, ConcatM, Vector(_)), s"reference lane, minArity=$minArity")
    }
  }

  test("toEntries round-trips through bulkInsert into an empty tree") {
    val t = filled(3, 500)
    t.bulkEvictNative(123)
    val entries = t.toEntries
    val rebuilt = new FibaTree[Vector[Long]](3, ConcatM)
    rebuilt.bulkInsertPairs(entries)
    rebuilt.validate()
    assert(rebuilt.queryAgg() == t.queryAgg())
    assert(rebuilt.toEntries == entries)
  }

  test("interleaved equal-timestamp bulk combines in window order") {
    val t = new FibaTree[Vector[Long]](2, ConcatM)
    (1L to 100L).foreach(i => t.insertOne(i, Vector(i)))
    // bulk hits 50 existing timestamps and adds 50 fresh ones above
    val bulk = ((26L to 75L).map(i => (i, Vector(i + 1000))) ++
                (101L to 150L).map(i => (i, Vector(i)))).sortBy(_._1)
    t.bulkInsertPairs(bulk)
    t.validate()
    val q = t.queryAgg()
    assert(q.length == 200)
    assert(q.slice(25, 27) == Vector(26L, 1026L)) // combined at t=26, in order
  }

  test("query after alternating growth and total clears") {
    // Every load goes into an empty window, so it is the bottom-up bulk
    // load, at sizes that fit the root leaf, overflow it into two pieces,
    // and build trees of three levels and more; every clear is §4's total
    // eviction, cut at the youngest entry and past it.
    for (minArity <- Seq(2, 3, 4, 8);
         m <- Seq(2, 2 * minArity - 1, 2 * minArity, 2 * minArity + 1, 300, 5000)) {
      val ctx = s"minArity=$minArity m=$m"
      val t = new FibaTree[Vector[Long]](minArity, ConcatM)
      for (round <- 1 to 3) {
        val base = round * 10000L
        t.bulkInsertPairs((0L until m).map(i => (base + i, Vector(base + i))))
        t.validate()
        assert(t.queryAgg() == (base until base + m).toVector, ctx)
        t.bulkEvictNative(base + m - 1 + round % 2)
        t.validate()
        assert(t.isEmpty && t.queryAgg() == Vector.empty, ctx)
      }
    }
  }

  test("a bulk into an empty window costs at most 1.5 combines per entry") {
    for (minArity <- Seq(2, 3, 4, 8)) {
      val m = 1 << 14
      val times = Array.tabulate(m)(_.toLong)
      val perEntry = bothLanes { counting =>
        val t = new FibaTree[Long](minArity, counting)
        t.bulkInsertNative(times, times, 0, m)
        val combines = counting.combines
        assert(t.queryAgg() == times.sum)
        t.validate()
        combines.toDouble / m
      }
      info(f"minArity=$minArity: $perEntry%.2f combines per entry")
      assert(perEntry <= 1.5, s"minArity=$minArity")
    }
  }

  test("in-order single insert, single evict and a 1024-entry bulkEvict keep their combine counts") {
    // The loop reads 5.30 / 10.29 / 43.5 combines at minArity 4 and
    // 5.64 / 17.24 / 146.3 at minArity 8. Each cap sits about 5% above, so
    // a pass down that recomputes more than it needs fails here before any
    // timing could show it. The AnyRef and Long lanes must read identical
    // counts.
    for ((minArity, insertCap, evictCap, bulkEvictCap) <- Seq((4, 5.55, 10.8, 45.5), (8, 5.9, 18.1, 153.5))) {
      val (perInsert, perEvict, perBulkEvict) = bothLanes { counting =>
        val t = new FibaTree[Long](minArity, counting)
        val n = 1 << 14
        val times = Array.tabulate(n)(_.toLong)
        t.bulkInsertNative(times, times, 0, n)
        def counted(op: => Unit): Long = { counting.combines = 0; op; counting.combines }
        var top = n.toLong
        var inserts, evicts = 0L
        for (_ <- 0 until n) {
          evicts += counted(t.evictOldest())
          inserts += counted(t.insertOne(top, top))
          top += 1
        }
        val m = 1024
        val rounds = 16
        var bulkEvicts = 0L
        for (_ <- 0 until rounds) {
          bulkEvicts += counted(t.bulkEvictNative(t.oldestTime + m - 1))
          val bulk = Array.tabulate(m)(top + _)
          t.bulkInsertNative(bulk, bulk, 0, m)
          top += m
        }
        t.validate()
        assert(t.queryAgg() == (top - n until top).sum)
        (inserts.toDouble / n, evicts.toDouble / n, bulkEvicts.toDouble / rounds)
      }
      info(f"minArity=$minArity: $perInsert%.3f per insert, $perEvict%.3f per evict, $perBulkEvict%.2f per bulkEvict")
      assert(perInsert <= insertCap, s"minArity=$minArity insert")
      assert(perEvict <= evictCap, s"minArity=$minArity evict")
      assert(perBulkEvict <= bulkEvictCap, s"minArity=$minArity bulkEvict")
    }
  }

  test("an out-of-order bulk round keeps its combine counts") {
    // The round of the ooo_bulk benchmark at n = 2^16, m = 1024, d = 2^12:
    // evict the 2m oldest, insert m in order at the top, then m late
    // entries whose youngest has d entries above it. The loop reads
    // 1.246 / 2.493 combines per in-order / late entry at minArity 4 and
    // 1.189 / 2.350 at minArity 8. Each cap sits about 5% above, and the
    // AnyRef and Long lanes must read identical counts.
    for ((minArity, inOrderCap, lateCap) <- Seq((4, 1.31, 2.62), (8, 1.25, 2.47))) {
      val (perInOrder, perLate) = bothLanes { counting =>
        val (n, m, d) = (1 << 16, 1024, 1 << 12)
        val t = new FibaTree[Long](minArity, counting)
        // full below the late frontier, even slots above it
        val prefill = Iterator.iterate(0L)(x => x + (if (x < n - d) 1 else 2)).take(n).toArray
        t.bulkInsertNative(prefill, prefill, 0, n)
        var sum = prefill.sum
        def counted(op: => Unit): Long = { counting.combines = 0; op; counting.combines }
        val rounds = 64
        var inOrder, late = 0L
        for (r <- 0 until rounds) {
          val lo = r * 2L * m
          val top = n + d + lo
          t.bulkEvictNative(lo + 2 * m - 1)
          sum -= (lo until lo + 2 * m).sum
          val bulk = Array.tabulate(m)(top + 2L * _)
          val lateBulk = Array.tabulate(m)(top - 2L * d + 2L * _ + 1)
          inOrder += counted(t.bulkInsertNative(bulk, bulk, 0, m))
          late += counted(t.bulkInsertNative(lateBulk, lateBulk, 0, m))
          sum += bulk.sum + lateBulk.sum
        }
        t.validate()
        assert(t.sizeByTraversal == n && t.queryAgg() == sum)
        (inOrder.toDouble / (rounds * m), late.toDouble / (rounds * m))
      }
      info(f"minArity=$minArity: $perInOrder%.3f per in-order entry, $perLate%.3f per late entry")
      assert(perInOrder <= inOrderCap, s"minArity=$minArity in-order")
      assert(perLate <= lateCap, s"minArity=$minArity late")
    }
  }

  test("no reused bulk buffer holds more than the bound after a huge bulk") {
    val fiba = new BFiba[Long](4, CountL)
    val n = 1L << 16
    fiba.bulkInsert((0L until n).map(i => (i, i)))
    assert(fiba.retainedBulkEntries <= Swag.RetainedBulk)
    fiba.bulkInsert((n until n + 64).map(i => (i, i)))
    assert(fiba.retainedBulkEntries <= Swag.RetainedBulk)
    fiba.underlying.validate()
    assert(fiba.query() == (0L until n + 64).sum)
  }

  test("min/max time track the fingers under mixed bulks") {
    val t = new FibaTree[Vector[Long]](4, ConcatM)
    t.bulkInsertPairs((100L to 400L).map(i => (i, Vector(i))))
    assert(ends(t).contains((100L, 400L)))
    t.bulkInsertPairs(IndexedSeq((50L, Vector(50L)), (500L, Vector(500L))))
    assert(ends(t).contains((50L, 500L)))
    t.bulkEvictNative(499)
    assert(ends(t).contains((500L, 500L)))
  }

  test("sum monoid at larger arity matches a running reference") {
    val t = new FibaTree[Long](8, CountL)
    var expected = 0L
    for (i <- 1L to 3000L) { t.insertOne(i, i); expected += i }
    assert(t.queryAgg() == expected)
    t.bulkEvictNative(1000)
    assert(t.queryAgg() == (1001L to 3000L).sum)
  }
}
