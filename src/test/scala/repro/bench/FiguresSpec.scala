package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Monoids.CountL

/** Runs figure functions at a tiny size, so a broken figure fails here
  * rather than only in the bench suites.
  */
class FiguresSpec extends AnyFunSuite {

  private def assertWellFormed(fig: Figures.Table[Any]): Unit = {
    assert(fig.rows.nonEmpty, fig.title)
    fig.rows.foreach(r => assert(r.length == fig.header.length, s"${fig.title}: $r"))
  }

  test("fig 7 has a well-formed row and a median for every (monoid, algo)") {
    val fig = Figures.fig07(n = 1 << 12, rounds = 5)
    assertWellFormed(fig)
    val algos = Algos.all(CountL).map(_.apply().name)
    val expected = for (mo <- Seq("sum", "geomean", "bloom"); a <- algos) yield (mo, a)
    assert(fig.cells.keySet == expected.toSet)
    assert(fig.rows.map(r => (r(0), r(1))) == expected)
    assert(fig.cells.values.forall(_ > 0))
  }

  test("fig 15 has well-formed histogram rows over its trace") {
    val fig = Figures.fig15(events = 20000)
    assertWellFormed(fig)
    assert(fig.cells.ms.nonEmpty && fig.cells.ds.nonEmpty && fig.cells.ns.nonEmpty)
    // every eviction (m >= 1) falls in exactly one bucket
    assert(fig.rows.map(_(2).toInt).sum == fig.cells.ms.count(_ >= 1))
  }
}
