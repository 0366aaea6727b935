package repro.bench

/** Figure 8: latency, bulk insert only, in-order (d = 0), m = 1024.
  * Paper result: with d = 0 every algorithm is O(m) per bulk, and the
  * lean in-order structures (daba_lite, twostacks_lite) have the lowest
  * latency since they pay no out-of-order readiness overhead.
  */
class Fig08BulkInsertLatencyBench extends BenchSuite {
  test("fig 8: in-order bulk insert latency, m=1024 d=0") {
    val fig = Figures.fig08()
    emit(fig)
    val twoStacksMean = fig.cells(("sum", "twostacks_lite"))
    val bFibaMean = fig.cells(("sum", "b_fiba4"))
    // Paper shape: the in-order-only structures win this experiment.
    assert(twoStacksMean < bFibaMean,
      s"expected twostacks_lite median ($twoStacksMean ns) below b_fiba4 ($bFibaMean ns) for in-order bulk insert")
  }
}
