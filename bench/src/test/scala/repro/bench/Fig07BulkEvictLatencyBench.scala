package repro.bench

/** Figure 7: latency, bulk evict only; n = REPRO_N (paper 2^22),
  * m = 1024, in-order data (d = 0). Paper result: b_fiba4/8 and amta have
  * the best (lowest) latencies; the loop-based algorithms pay O(m).
  */
class Fig07BulkEvictLatencyBench extends BenchSuite {
  test("fig 7: bulk evict latency, m=1024 d=0") {
    val fig = Figures.fig07()
    emit(fig)
    val bFibaMean = fig.cells(("sum", "b_fiba4"))
    val nbFibaMean = fig.cells(("sum", "nb_fiba4"))
    // Paper shape: native bulk evict (O(log m)) beats the eviction loop
    // (O(m)) by orders of magnitude — assert a conservative 3x.
    assert(bFibaMean * 3 < nbFibaMean,
      s"expected b_fiba4 median ($bFibaMean ns) to beat nb_fiba4 ($nbFibaMean ns) by >3x on bulk evict")
  }
}
