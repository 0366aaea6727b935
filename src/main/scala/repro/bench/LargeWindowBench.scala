package repro.bench

import repro.core.Monoids.{GeoMean, GeoMeanM}
import repro.core.fiba.BFiba
import BenchUtil._

/** §7.3 "Window Size One Billion", scaled to the driver heap: b_fiba4
  * with geomean at a small and a large window size; reports bytes/item,
  * throughput, and bulk-evict latency stats so the paper's derived
  * quantities (memory flat per item, throughput within ~1.12x, median
  * latency ~flat, tail latency up) can be compared.
  */
object LargeWindowBench {

  final case class Row(n: Int, bytesPerItem: Double, throughputPerSec: Double,
                       evict: LatencyStats)

  private def usedHeap(): Long = {
    val rt = Runtime.getRuntime
    System.gc(); Thread.sleep(50); System.gc()
    rt.totalMemory() - rt.freeMemory()
  }

  def run(n: Int, m: Int, rounds: Int): Row = {
    val lift = (t: Long) => GeoMean.lift(1.0 + (t % 101).toDouble)
    val before = usedHeap()
    val algo = prefill(() => new BFiba[GeoMean](4, GeoMeanM), lift, n)
    val after = usedHeap()
    val bytesPerItem = (after - before).toDouble / n

    // throughput of the Fig-11-style loop at this window size
    var items = 0L
    val samples = new Array[Long](rounds)
    var top = algo.youngestTime
    val t0 = System.nanoTime()
    var r = 0
    while (r < rounds) {
      samples(r) = timeNs(algo.bulkEvict(algo.oldestTime + m - 1))
      var k = 0
      while (k < m) { top += 1; algo.insert(top, lift(top)); k += 1 }
      sink = algo.query()
      items += m
      r += 1
    }
    val thr = items.toDouble / ((System.nanoTime() - t0) / 1e9)
    Row(n, bytesPerItem, thr, stats(samples))
  }
}
