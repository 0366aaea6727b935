package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Monoids._
import repro.core.TestGen._
import repro.core.baseline._
import repro.core.fiba.{BFiba, NbFiba}

/** The ADT contract of §3.1, checked uniformly across every algorithm:
  * empty-window behavior, FIFO semantics, boundary conventions of
  * bulkEvict(t) (strictly-greater survive), bulkInsert interleaving, and
  * snapshot consistency where supported. Every algorithm runs it over the
  * non-commutative Concat monoid; the FiBA trees also run it over the
  * packed affine and count monoids (values inline in `Array[Long]`).
  */
class SwagContractSpec extends AnyFunSuite {

  private def factories: Seq[(String, () => Swag[Vector[Long]])] = Seq(
    ("b_fiba2", () => new BFiba[Vector[Long]](2, ConcatM)),
    ("b_fiba4", () => new BFiba[Vector[Long]](4, ConcatM)),
    ("b_fiba8", () => new BFiba[Vector[Long]](8, ConcatM)),
    ("nb_fiba4", () => new NbFiba[Vector[Long]](4, ConcatM)),
    ("amta", () => new Amta[Vector[Long]](ConcatM)),
    ("twostacks_lite", () => new TwoStacksLite[Vector[Long]](ConcatM)),
    ("daba_lite*", () => new DeamortizedTwoStacks[Vector[Long]](ConcatM)),
    ("brute", () => new BruteForceSwag[Vector[Long]](ConcatM)),
  )

  private def fibas[V](enc: Enc[V]): Seq[(String, () => Swag[V])] = {
    val m = enc.monoid.name
    Seq(
      (s"b_fiba2[$m]", () => new BFiba[V](2, enc.monoid)),
      (s"b_fiba4[$m]", () => new BFiba[V](4, enc.monoid)),
      (s"b_fiba8[$m]", () => new BFiba[V](8, enc.monoid)),
      (s"nb_fiba4[$m]", () => new NbFiba[V](4, enc.monoid)),
    )
  }

  contract(concatEnc, factories)
  contract(affineEnc, fibas(affineEnc))
  contract(countEnc, fibas(countEnc))

  private def contract[V](enc: Enc[V], factories: Seq[(String, () => Swag[V])]): Unit = {
    val of = enc.of
    def window(ts: Long*): V = enc.window(ts)
    val empty = enc.monoid.identity

    for ((name, mk) <- factories) {
      test(s"$name: empty window has identity query and empty extrema") {
        val a = mk()
        assert(a.query() == empty)
        assert(a.size == 0 && a.isEmpty)
        a.evict() // must be a no-op
        assert(a.query() == empty)
      }

      test(s"$name: FIFO semantics over an in-order run") {
        val a = mk()
        for (t <- 1L to 300L) a.insert(t, of(t))
        assert(a.size == 300)
        assert(ends(a).contains((1L, 300L)))
        assert(a.query() == enc.window(1L to 300L))
        for (_ <- 1 to 100) a.evict()
        assert(a.query() == enc.window(101L to 300L))
        assert(a.oldestTime == 101L)
      }

      test(s"$name: bulkEvict keeps strictly-greater timestamps") {
        val a = mk()
        for (t <- 10L to 200L by 10) a.insert(t, of(t))
        a.bulkEvict(100) // exact hit: 100 goes, 110 stays
        assert(a.oldestTime == 110L, s"got ${a.oldestTime}")
        a.bulkEvict(105) // between entries: no-op
        assert(a.oldestTime == 110L)
        a.bulkEvict(Long.MaxValue)
        assert(a.size == 0 && a.query() == empty)
      }

      test(s"$name: window slides correctly across many refill cycles") {
        val a = mk()
        var t = 0L
        for (cycle <- 1 to 30) {
          for (_ <- 1 to 20) { t += 1; a.insert(t, of(t)) }
          a.bulkEvict(t - 10)
          assert(a.size == 10, s"cycle=$cycle")
          assert(a.query() == enc.window((t - 9) to t), s"cycle=$cycle")
        }
      }

      test(s"$name: an in-order bulkInsert slice inserts exactly [from, until)") {
        val a = mk()
        Seq(1L, 2L).foreach(t => a.insert(t, of(t)))
        // the entries outside [1, 4) are older than the window
        val times = Array(0L, 3L, 4L, 5L, 1L)
        a.bulkInsert(times, times.map[Any](t => of(t + 100)).asInstanceOf[Array[V]], 1, 4)
        assert(a.query() == window(1L, 2L, 103L, 104L, 105L))
        assert(ends(a).contains((1L, 5L)))
      }

      test(s"$name: a huge bulk followed by small bulks still inserts exactly those entries") {
        val a = mk()
        a.bulkInsert((1L to 5000L).map(t => (t, of(t))))
        assert(a.size == 5000)
        var t = 5000L
        for (round <- 1 to 1500) {
          // mostly 1-7 entries (the adapter's buffers shrink), now and then
          // a mid-size bulk (they grow again)
          val m = if (round % 500 == 0) 600 else 1 + round % 7
          val bulk = (t + 1 to t + m).map(x => (x, of(x)))
          a.bulkEvict(t)
          a.bulkInsert(bulk)
          t += m
          assert(a.query() == enc.window(bulk.map(_._1)), s"round=$round")
        }
      }

      test(s"$name: snapshot (if supported) equals the window contents") {
        val a = mk()
        for (t <- 1L to 50L) a.insert(t, of(t))
        a.bulkEvict(7)
        a.snapshot() match {
          case Some(entries) =>
            assert(entries.map(_._1) == (8L to 50L))
            assert(entries.map(_._2) == (8L to 50L).map(of))
          case None => // aggregate-only structure: allowed
        }
      }
    }

    for ((name, mk) <- factories.filter { case (_, f) => f().supportsOoo }) {
      test(s"$name: out-of-order inserts interleave in timestamp order") {
        val a = mk()
        Seq(10L, 2L, 30L, 7L, 15L, 1L).foreach(t => a.insert(t, of(t)))
        assert(a.query() == window(1L, 2L, 7L, 10L, 15L, 30L))
      }

      test(s"$name: bulkInsert interleaves and combines per the ADT") {
        val a = mk()
        Seq(2L, 4L, 6L).foreach(t => a.insert(t, of(t)))
        a.bulkInsert(IndexedSeq((1L, of(1L)), (4L, of(40L)), (7L, of(7L))))
        assert(a.query() == window(1L, 2L, 4L, 40L, 6L, 7L))
        assert(a.size == 5)
        // the same bulk as the slice [1, 4) of arrays unordered outside it
        val b = mk()
        Seq(2L, 4L, 6L).foreach(t => b.insert(t, of(t)))
        b.bulkInsert(Array(9L, 1L, 4L, 7L, 0L),
                     Array[Any](of(9L), of(1L), of(40L), of(7L), of(0L)).asInstanceOf[Array[V]], 1, 4)
        assert(b.query() == a.query())
        assert(b.size == 5)
      }
    }
  }
}
