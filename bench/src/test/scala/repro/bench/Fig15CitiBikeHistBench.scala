package repro.bench

/** Figure 15: histograms of the Citi-Bike run's instantaneous window
  * sizes n, eviction bulk sizes m, and out-of-order distances d for a
  * 1-day time window (synthetic stand-in; see DESIGN.md substitutions).
  * Paper shape: n fluctuates broadly; most evictions are small but a
  * non-negligible number reach hundreds/thousands; most d are ~0 with
  * hundreds of insertions displaced by tens of thousands of records.
  */
class Fig15CitiBikeHistBench extends BenchSuite {
  test("fig 15: citi-bike-like n/m/d histograms") {
    val fig = Figures.fig15()
    emit(fig)
    val trace = fig.cells

    // Paper shape assertions (robust, qualitative):
    val ms = trace.ms
    val singleShare = ms.count(_ == 1).toDouble / ms.count(_ >= 1)
    assert(singleShare > 1.0 / 3, s"single-item evictions should dominate (got $singleShare)")
    val byLog2 = ms.filter(_ >= 1).groupBy(m => 32 - Integer.numberOfLeadingZeros(m)).view.mapValues(_.length)
    assert(byLog2.maxBy(_._2)._1 == 1, "m=1 should be the modal eviction bucket")
    assert(ms.max > 100, s"bulk evictions should reach the hundreds+ (max=${ms.max})")
    val ds = trace.ds
    assert(ds.count(_ == 0).toDouble / ds.length > 0.5, "most insertions should be in-order")
    assert(ds.max > 1000, s"some insertions should be displaced by thousands (max=${ds.max})")
    assert(trace.ns.max > 4 * math.max(1, trace.ns.min + 1), "window size should fluctuate broadly")
  }
}
