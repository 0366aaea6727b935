package repro.core.baseline

import repro.core.{Monoid, Swag}
import scala.collection.mutable.ArrayBuffer

/** Reference implementation: a sorted buffer folded on every query.
  *
  * O(n) per query / O(n) per out-of-order insert — only for correctness
  * oracles in tests and as the "recompute from scratch" comparison point.
  */
final class BruteForceSwag[V](val monoid: Monoid[V]) extends Swag[V] {
  private val times  = ArrayBuffer.empty[Long]
  private val values = ArrayBuffer.empty[V]

  val name        = "brute"
  val supportsOoo = true

  def size: Int = times.length
  def isEmpty: Boolean = times.isEmpty
  def oldestTime: Long = times(0)
  def youngestTime: Long = times.last

  def query(): V = monoid.combineAll(values)

  /** Index of the first entry with time >= t. */
  private def lowerBound(t: Long): Int = {
    var lo = 0; var hi = times.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (times(mid) < t) lo = mid + 1 else hi = mid
    }
    lo
  }

  def insert(t: Long, v: V): Unit = {
    val i = lowerBound(t)
    if (i < times.length && times(i) == t) values(i) = monoid.combine(values(i), v)
    else { times.insert(i, t); values.insert(i, v) }
  }

  def evict(): Unit = if (times.nonEmpty) { times.remove(0); values.remove(0) }

  override def bulkEvict(t: Long): Unit = {
    val i = times.segmentLength(_ <= t)
    times.remove(0, i); values.remove(0, i)
  }

  override def snapshot(): Option[IndexedSeq[(Long, V)]] = Some(times.toIndexedSeq.zip(values))
}
