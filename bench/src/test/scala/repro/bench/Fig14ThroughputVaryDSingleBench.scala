package repro.bench

/** Figure 14: throughput with neither bulk evict nor bulk insert (m = 1),
  * varying out-of-order distance d. Paper result: without bulk ops,
  * b_fiba holds no advantage over nb_fiba — they track each other (the
  * paper sees b_fiba slightly worse on sum/geomean, slightly better on
  * bloom); both degrade as d grows (O(log d) searches).
  */
class Fig14ThroughputVaryDSingleBench extends BenchSuite {
  test("fig 14: single-op throughput vs ooo distance, m=1") {
    val fig = Figures.fig14()
    emit(fig)
    // Paper shape: with m=1 the two FiBA variants track each other — within 2.5x.
    val ratio = fig.cells(("sum", "b_fiba4", 256)) / fig.cells(("sum", "nb_fiba4", 256))
    assert(ratio > 0.4 && ratio < 2.5, s"expected b_fiba4/nb_fiba4 ~1 at m=1, got $ratio")
  }
}
