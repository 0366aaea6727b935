package repro.bench

/** Figure 13: throughput, bulk evict + bulk insert, m = 1024, varying
  * out-of-order distance d. In-order-only algorithms cannot participate.
  * Paper result: since the insertion-site search happens once per bulk,
  * higher d does not slow the bulk algorithm down much, and b_fiba
  * outperforms nb_fiba across the sweep.
  */
class Fig13ThroughputVaryDBench extends BenchSuite {
  test("fig 13: throughput vs ooo distance, m=1024") {
    val fig = Figures.fig13()
    emit(fig)
    // Paper shape: b_fiba beats nb_fiba at large d (shared search + repair).
    assert(fig.cells(("sum", "b_fiba4", 16384)) > fig.cells(("sum", "nb_fiba4", 16384)),
      "expected b_fiba4 to out-throughput nb_fiba4 at d=16384")
  }
}
