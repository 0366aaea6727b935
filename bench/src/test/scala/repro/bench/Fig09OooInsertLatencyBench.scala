package repro.bench

/** Figure 9: latency, bulk insert only, out-of-order at d = 1024,
  * m = 1024. The in-order-only algorithms cannot participate. Paper
  * result: b_fiba (O(m log(d/m))) has lower latency than nb_fiba's
  * insert loop (O(m log d)).
  */
class Fig09OooInsertLatencyBench extends BenchSuite {
  test("fig 9: ooo bulk insert latency, m=1024 d=1024") {
    val fig = Figures.fig09()
    emit(fig)
    val bFibaMean = fig.cells(("sum", "b_fiba4"))
    val nbFibaMean = fig.cells(("sum", "nb_fiba4"))
    // Paper shape: native bulk insert beats the single-insert loop ooo.
    assert(bFibaMean < nbFibaMean,
      s"expected b_fiba4 median ($bFibaMean ns) below nb_fiba4 ($nbFibaMean ns) for ooo bulk insert")
  }
}
