package repro.core.baseline

import repro.core.{Monoid, Swag}
import scala.collection.mutable.ArrayBuffer

/** Two-Stacks Lite [Tangwongsan et al. 2021]: in-order sliding-window
  * aggregation with amortized O(1) single insert/evict.
  *
  * The window is front ++ back. The front part stores suffix aggregates
  * (oldest entry's aggregate covers the whole front); the back part stores
  * raw values plus one running prefix aggregate. When the front empties,
  * the back is "flipped" into a new front by computing its suffix
  * aggregates right-to-left — O(|back|) once, amortized O(1).
  *
  * In-order only: inserts must not precede the current max timestamp.
  */
final class TwoStacksLite[V](val monoid: Monoid[V]) extends Swag[V] {
  // Front: suffix aggregates, oldest at index `fstart`.
  private var frontTimes: Array[Long] = Array.emptyLongArray
  private var frontAggs: Array[AnyRef] = Array.empty
  private var fstart = 0
  // Back: raw values in insertion order + running aggregate of all of them.
  private val backTimes = ArrayBuffer.empty[Long]
  private val backVals  = ArrayBuffer.empty[V]
  private var backSum: V = monoid.identity

  val name        = "twostacks_lite"
  val supportsOoo = false

  private def frontLen = frontTimes.length - fstart
  def size: Int = frontLen + backTimes.length
  def isEmpty: Boolean = size == 0
  def oldestTime: Long = if (frontLen > 0) frontTimes(fstart) else backTimes(0)
  def youngestTime: Long = if (backTimes.nonEmpty) backTimes.last else frontTimes.last

  def query(): V = {
    val f = if (frontLen > 0) frontAggs(fstart).asInstanceOf[V] else monoid.identity
    monoid.combine(f, backSum)
  }

  def insert(t: Long, v: V): Unit = {
    if (isEmpty || t > youngestTime) { backTimes += t; backVals += v }
    else if (t < youngestTime)
      throw new IllegalArgumentException(s"$name is in-order only: t=$t < max=$youngestTime")
    else if (backTimes.nonEmpty) backVals(backVals.length - 1) = monoid.combine(backVals.last, v)
    else throw new IllegalArgumentException(s"$name: duplicate t=$t not in back")
    backSum = monoid.combine(backSum, v) // on a duplicate, (a⊗b)⊗v = a⊗(b⊗v): tail-append is safe
  }

  def evict(): Unit = {
    if (frontLen == 0) flip()
    if (frontLen > 0) fstart += 1
  }

  /** Move the back into a new front with suffix aggregates. O(|back|). */
  private def flip(): Unit = {
    if (backTimes.isEmpty) return
    val k = backTimes.length
    frontTimes = new Array[Long](k)
    frontAggs = new Array[AnyRef](k)
    fstart = 0
    var acc = monoid.identity
    var i = k - 1
    while (i >= 0) {
      acc = monoid.combine(backVals(i), acc)
      frontTimes(i) = backTimes(i)
      frontAggs(i) = acc.asInstanceOf[AnyRef]
      i -= 1
    }
    backTimes.clear(); backVals.clear()
    backSum = monoid.identity
  }
}
