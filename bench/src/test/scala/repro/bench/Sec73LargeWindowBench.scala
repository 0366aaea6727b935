package repro.bench

/** §7.3 "Window Size One Billion", scaled to the container (see
  * DESIGN.md): b_fiba4 + geomean at n = 2^18 vs n = 2^22. Paper results
  * at 4M->1B: bytes/item flat (64-70 B), throughput within 1-1.12x,
  * median bulk-evict latency +~7.5%, p99.999 ~2x. We check the same
  * derived quantities at our scale with generous margins.
  */
class Sec73LargeWindowBench extends BenchSuite {
  test("sec 7.3: window scaling 262144 vs 4194304 (b_fiba4, geomean)") {
    val fig = Figures.sec73()
    emit(fig)
    val Seq(a, b) = fig.cells

    // Paper shape: memory per item roughly flat across window sizes.
    assert(b.bytesPerItem < a.bytesPerItem * 3 + 64,
      s"bytes/item should stay roughly flat: ${a.bytesPerItem} -> ${b.bytesPerItem}")
    // Paper shape: throughput degrades only mildly with a 16x window
    // (1-1.12x in C++; the JVM object graph pays more cache misses, so we
    // assert an order of magnitude rather than the paper's 12%).
    assert(b.throughputPerSec > a.throughputPerSec / 10,
      s"throughput should not collapse: ${a.throughputPerSec} -> ${b.throughputPerSec}")
    // Paper shape: median latency nearly flat (log m, not log n).
    assert(b.evict.p50Ns < a.evict.p50Ns * 4 + 2000,
      s"median bulk-evict latency should stay near-flat: ${a.evict.p50Ns} -> ${b.evict.p50Ns}")
  }
}
