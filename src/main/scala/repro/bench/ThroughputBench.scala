package repro.bench

import repro.core.Swag
import BenchUtil._

/** Throughput experiments (Figs 11–14): items processed per second over a
  * long run of slide-by-m rounds, gross time including all operations
  * (§7.2). Round counts adapt so each cell runs a bounded wall-clock
  * time; REPRO_SCALE shrinks them further for smoke runs.
  */
object ThroughputBench {

  /** Floor of a measurement window: at smoke scale 0.2 s · REPRO_SCALE
    * alone is ~10 ms, and cells measured that briefly swing 2–5x.
    */
  private val MinWindowNs = 100000000L

  /** Run `round` repeatedly (each processing `itemsPerRound` items) until
    * at least `minElapsedNs` and `minRounds` are reached; returns items/s.
    */
  private def measure(itemsPerRound: Int, minRounds: Int, round: () => Unit): Double = {
    val minElapsedNs = math.max(MinWindowNs, (2e8 * benchScale).toLong)
    // settle the heap so earlier cells' garbage is not billed to this one
    System.gc()
    // warmup
    var w = 0
    val warm = math.max(2, minRounds / 10)
    while (w < warm) { round(); w += 1 }
    // best of two measurement windows — single windows are ~0.2 s and
    // JIT/GC state across a long suite run otherwise skews cells by 10x+
    var best = 0.0
    var rep = 0
    while (rep < 2) {
      var items = 0L
      var elapsed = 0L
      var r = 0
      val t0 = System.nanoTime()
      while (r < minRounds || elapsed < minElapsedNs) {
        round()
        items += itemsPerRound
        r += 1
        elapsed = System.nanoTime() - t0
      }
      best = math.max(best, items.toDouble / (elapsed / 1e9))
      rep += 1
    }
    best
  }

  /** Fig 11: bulk evict + single inserts. Per round: one bulkEvict of the
    * oldest m, m single inserts, one query. Counts m items per round.
    */
  def evictOnly[V](mk: () => Swag[V], lift: Long => V, n: Int, m: Int): Double = {
    val algo = prefill(mk, lift, n)
    var top = algo.youngestTime
    measure(m, minRounds = math.max(8, (n / m) / 4), round = () => {
      algo.bulkEvict(algo.oldestTime + m - 1)
      var k = 0
      while (k < m) { top += 1; algo.insert(top, lift(top)); k += 1 }
      sink = algo.query()
    })
  }

  /** Fig 12: bulk evict + bulk insert. Per round: one bulkEvict of the
    * oldest m, one bulkInsert of m, one query.
    */
  def evictAndInsert[V](mk: () => Swag[V], lift: Long => V, n: Int, m: Int): Double = {
    val algo = prefill(mk, lift, n)
    var top = algo.youngestTime
    val batch = new Bulk(m, lift)
    measure(m, minRounds = math.max(8, (n / m) / 4), round = () => {
      algo.bulkEvict(algo.oldestTime + m - 1)
      batch.fill(top + 1, 1)
      top += m
      batch.into(algo)
      sink = algo.query()
    })
  }

  /** Figs 13 (m=1024) and 14 (m=1): bulk evict + bulk insert with the
    * insert bulk landing ~d entries behind the young end. Evens carry the
    * in-order stream; each round also inserts m fresh odds whose youngest
    * sits d entries below the top (see EXPERIMENTS.md). 2m items/round.
    * For m = 1 single insert/evict calls are used (no bulk ops), as in
    * Fig 14.
    */
  def oooEvictAndInsert[V](mk: () => Swag[V], lift: Long => V, n: Int, m: Int, d: Int): Double = {
    val algo = prefill(mk, lift, n, step = 2)
    require(algo.supportsOoo)
    var top = algo.youngestTime
    val evens = new Bulk(m, lift)
    val odds = new Bulk(m, lift)
    val useBulk = m > 1
    measure(2 * m, minRounds = math.max(8, (n / m) / 4), round = () => {
      if (useBulk) {
        algo.bulkEvict(algo.oldestTime + 2 * m - 1)
        evens.fill(top + 2, 2)
        top += 2 * m
        evens.into(algo)
        odds.fill(top - 2L * (d + m) + 1, 2)
        odds.into(algo)
      } else {
        algo.evict(); algo.evict()
        top += 2
        algo.insert(top, lift(top))
        val t = top - 2L * (d + 1) + 1
        algo.insert(t, lift(t))
      }
      sink = algo.query()
    })
  }
}
