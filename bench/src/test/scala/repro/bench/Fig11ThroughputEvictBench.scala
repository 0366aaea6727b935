package repro.bench

/** Figure 11: throughput, bulk evict + single inserts, varying bulk size
  * m, in-order (d = 0). Paper result: throughput improves with m for
  * every algorithm; twostacks_lite has the best in-order throughput
  * overall; b_fiba and amta benefit most from native bulk eviction.
  */
class Fig11ThroughputEvictBench extends BenchSuite {
  test("fig 11: throughput, bulk evict only, m sweep") {
    val fig = Figures.fig11()
    emit(fig)
    // Paper shape: native bulk eviction pays off at large m vs the loop.
    assert(fig.cells(("sum", "b_fiba4", 4096)) > fig.cells(("sum", "nb_fiba4", 4096)),
      "expected b_fiba4 to out-throughput nb_fiba4 at m=4096")
  }
}
