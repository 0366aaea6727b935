package repro.bench

import repro.core.Swag
import BenchUtil._

/** Latency experiments (Figs 7–10): time each bulk operation individually
  * and summarize the distribution (the paper draws violins; we print the
  * same statistics as rows). Methodology mirrors §7.1: a warmed window of
  * n entries slides by m per round; only the operation under test is
  * timed. Timestamps are dense integers, so evicting the oldest m means
  * bulkEvict(oldestTime + m - 1).
  */
object LatencyBench {

  /** max(50, rounds/4) warm-up rounds, then the times that `rounds` more
    * rounds return (each round times its operation under test).
    */
  private def sample(rounds: Int)(round: => Long): LatencyStats = {
    val samples = new Array[Long](rounds)
    var i = -math.max(50, rounds / 4)
    while (i < rounds) {
      val t = round
      if (i >= 0) samples(i) = t
      i += 1
    }
    stats(samples)
  }

  /** Fig 7: bulk evict only. Per round: TIMED bulkEvict of the oldest m,
    * untimed m single inserts at the young end, query.
    */
  def bulkEvictLatency[V](mk: () => Swag[V], lift: Long => V,
                          n: Int, m: Int, rounds: Int): LatencyStats = {
    System.gc() // settle earlier cells' garbage
    val algo = prefill(mk, lift, n)
    var top = algo.youngestTime
    sample(rounds) {
      val t = timeNs(algo.bulkEvict(algo.oldestTime + m - 1))
      var k = 0
      while (k < m) { top += 1; algo.insert(top, lift(top)); k += 1 }
      sink = algo.query()
      t
    }
  }

  /** Fig 8: bulk insert only, in-order. Per round: untimed bulkEvict of
    * the oldest m, TIMED bulkInsert of m fresh entries at the young end.
    */
  def bulkInsertLatency[V](mk: () => Swag[V], lift: Long => V,
                           n: Int, m: Int, rounds: Int): LatencyStats = {
    System.gc() // settle earlier cells' garbage
    val algo = prefill(mk, lift, n)
    var top = algo.youngestTime
    val batch = new Bulk(m, lift)
    sample(rounds) {
      algo.bulkEvict(algo.oldestTime + m - 1)
      batch.fill(top + 1, 1)
      top += m
      val t = timeNs(batch.into(algo))
      sink = algo.query()
      t
    }
  }

  /** Fig 9: bulk insert, out-of-order at distance ~d. The in-order stream
    * occupies even timestamps; each round inserts a TIMED bulk of m fresh
    * odd timestamps whose youngest lands d window entries below the top
    * (see EXPERIMENTS.md for the construction). Per round: untimed
    * bulkEvict of the oldest 2m, untimed bulkInsert of m evens at the
    * top, TIMED ooo bulkInsert of m odds, query.
    */
  def oooBulkInsertLatency[V](mk: () => Swag[V], lift: Long => V,
                              n: Int, m: Int, d: Int, rounds: Int): LatencyStats = {
    require(mk().supportsOoo, "ooo latency bench needs an ooo-capable algorithm")
    System.gc() // settle earlier cells' garbage
    val algo = prefill(mk, lift, n, step = 2) // evens
    var top = algo.youngestTime
    val evens = new Bulk(m, lift)
    val odds = new Bulk(m, lift)
    sample(rounds) {
      algo.bulkEvict(algo.oldestTime + 2 * m - 1)
      evens.fill(top + 2, 2)
      top += 2 * m
      evens.into(algo)
      odds.fill(top - 2L * (d + m) + 1, 2) // youngest at ~d entries below the new top
      val t = timeNs(odds.into(algo))
      sink = algo.query()
      t
    }
  }
}
