package repro.bench

/** Figure 16: throughput over the Citi-Bike-like stream (1-day window,
  * single inserts with natural d, watermark-driven bulk evicts with
  * natural m). In-order algorithms cannot participate. Paper result: the
  * bulk operations give b_fiba the advantage over nb_fiba on real data.
  */
class Fig16CitiBikeThroughputBench extends BenchSuite {
  test("fig 16: citi-bike throughput") {
    val fig = Figures.fig16()
    emit(fig)
    val cells = fig.cells
    // Paper shape: bulk eviction keeps b_fiba at least on par with (and
    // usually ahead of) nb_fiba on real(istic) data; allow JVM noise.
    assert(cells(("sum", "b_fiba4")) > cells(("sum", "nb_fiba4")) * 0.85,
      s"expected b_fiba4 (${cells(("sum", "b_fiba4"))}) at least on par with nb_fiba4 (${cells(("sum", "nb_fiba4"))})")
  }
}
