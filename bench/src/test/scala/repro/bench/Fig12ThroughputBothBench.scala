package repro.bench

/** Figure 12: throughput, bulk evict + bulk insert, varying bulk size m,
  * in-order (d = 0). Paper result: all algorithms improve as m grows to
  * ~2^12 (fewer per-item overheads); with d = 0 bulk insert holds no
  * asymptotic advantage over insert loops.
  */
class Fig12ThroughputBothBench extends BenchSuite {
  test("fig 12: throughput, bulk evict + bulk insert, m sweep") {
    val fig = Figures.fig12()
    emit(fig)
    // Paper shape: larger bulks improve throughput for the bulk algorithm.
    assert(fig.cells(("sum", "b_fiba4", 4096)) > fig.cells(("sum", "b_fiba4", 1)),
      "expected b_fiba4 throughput to improve from m=1 to m=4096")
  }
}
