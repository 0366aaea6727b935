package repro.bench

import repro.SparkSpec

/** Figure 17: end-to-end streaming throughput, window n = 8192, varying
  * bulk (micro-batch) size m, in-order data. The paper ran FiBA inside
  * Apache Flink 1.17 against Flink's built-in sliding window; we run the
  * FiBA stateful operator in Spark Structured Streaming against (a)
  * Spark's built-in sliding `window()` aggregation and (b) a recompute-
  * per-batch stateful baseline. Paper result: FiBA beats the engine
  * built-in by a wide margin even without bulk eviction; bulk eviction
  * widens the gap; throughput improves with m.
  */
class Fig17StreamingBench extends BenchSuite with SparkSpec {
  test("fig 17: streaming throughput, window=8192, m sweep") {
    val fig = Figures.fig17(spark)
    emit(fig)
    val cells = fig.cells

    // Paper shape: FiBA beats the engine's built-in sliding window.
    // Micro-batch scheduling noise can flip a single cell, so compare the
    // geometric-mean ratio across the whole m sweep.
    val ratios = Seq(64, 512, 4096).map(m => cells(("b_fiba4", m)) / cells(("builtin", m)))
    val geomean = math.exp(ratios.map(math.log).sum / ratios.size)
    assert(geomean > 1.1,
      s"expected FiBA stateful operator to out-throughput the built-in sliding window (ratios=$ratios)")
    // Paper shape: throughput improves with bulk size m.
    assert(cells(("b_fiba4", 4096)) > cells(("b_fiba4", 64)),
      "expected FiBA throughput to improve with larger micro-batches")
  }
}
