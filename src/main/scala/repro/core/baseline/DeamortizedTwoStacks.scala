package repro.core.baseline

import repro.core.{Monoid, Swag}
import scala.collection.mutable.ArrayBuffer

/** Worst-case O(1) in-order sliding-window aggregation — our stand-in for
  * DABA Lite [Tangwongsan et al. 2021] (see DESIGN.md substitutions).
  *
  * Like TwoStacksLite the window is front ++ back, but the O(|back|) flip
  * is de-amortized: a rotation starts as soon as |back| >= |front| and
  * copies at most `StepsPerOp`(=4) elements per subsequent operation into
  * the next front (old-front entries get their suffix aggregate extended
  * by Σback₁; back₁ entries get fresh suffix aggregates right-to-left).
  * A rotation starting at |back₁| <= |front₀| needs |front₀|+|back₁| <=
  * 2|front₀| copies and gets 4 per operation, so it finishes before the
  * |front₀| evictions that could exhaust the old front — queries and
  * evictions always have a valid suffix aggregate, worst-case O(1) per op.
  */
final class DeamortizedTwoStacks[V](val monoid: Monoid[V]) extends Swag[V] {
  private val StepsPerOp = 4

  // Current front: suffix aggregates, oldest at index fstart.
  private var frontTimes: Array[Long]  = Array.emptyLongArray
  private var frontAggs: Array[AnyRef] = Array.empty
  private var fstart = 0
  // Back: raw values in insertion order. During a rotation the first
  // `b1Count` entries belong to back₁ (being rotated); the rest is back₂.
  private val backTimes = ArrayBuffer.empty[Long]
  private val backVals  = ArrayBuffer.empty[V]
  private var backSum: V = monoid.identity // aggregate of back₂ (whole back when idle)

  // Rotation state (active iff newTimes != null).
  private var newTimes: Array[Long]  = null
  private var newAggs: Array[AnyRef] = null
  private var b1Count   = 0                // size of back₁ snapshot
  private var b1Sum: V  = monoid.identity  // aggregate of all of back₁
  private var fstart0   = 0                // fstart when the rotation began
  private var oldFCount = 0                // old-front entries at rotation start
  private var copyIdx   = 0                // next copy position, total-1 → 0

  val name        = "daba_lite*"
  val supportsOoo = false

  private def rotating = newTimes != null
  private def frontLen = frontTimes.length - fstart

  def size: Int = frontLen + backTimes.length
  def isEmpty: Boolean = size == 0
  def oldestTime: Long = if (frontLen > 0) frontTimes(fstart) else backTimes(0)
  def youngestTime: Long = if (backTimes.nonEmpty) backTimes.last else frontTimes.last

  def query(): V = {
    val f = if (frontLen > 0) frontAggs(fstart).asInstanceOf[V] else monoid.identity
    if (rotating) monoid.combine(f, monoid.combine(b1Sum, backSum))
    else monoid.combine(f, backSum)
  }

  def insert(t: Long, v: V): Unit = {
    if (isEmpty || t > youngestTime) { backTimes += t; backVals += v }
    else if (t < youngestTime)
      throw new IllegalArgumentException(s"$name is in-order only: t=$t < max=$youngestTime")
    else {
      require(backTimes.length > (if (rotating) b1Count else 0), s"$name: duplicate t=$t not in back₂")
      backVals(backVals.length - 1) = monoid.combine(backVals.last, v)
    }
    backSum = monoid.combine(backSum, v)
    steps(); maybeStart()
  }

  def evict(): Unit = {
    steps(); maybeStart()
    if (frontLen == 0 && rotating) drainRotation() // only reachable for tiny windows
    if (frontLen > 0) fstart += 1
    // frontLen == 0 here implies an empty window: maybeStart() rotates any
    // nonempty back into the front (draining above if needed). No-op then.
  }

  /** Begin a rotation if idle and the back has caught up with the front. */
  private def maybeStart(): Unit = {
    if (!rotating && backTimes.nonEmpty && backTimes.length >= frontLen) {
      b1Count = backTimes.length
      b1Sum = backSum
      backSum = monoid.identity
      fstart0 = fstart
      oldFCount = frontLen
      val total = oldFCount + b1Count
      newTimes = new Array[Long](total)
      newAggs = new Array[AnyRef](total)
      copyIdx = total - 1
      steps()
    }
  }

  /** One copy step of the active rotation. Pre: rotating && copyIdx >= 0. */
  private def copyOne(): Unit = {
    if (copyIdx >= oldFCount) { // back₁ part: fresh suffix aggregates
      val j = copyIdx - oldFCount
      val above = if (copyIdx == newTimes.length - 1) monoid.identity
                  else newAggs(copyIdx + 1).asInstanceOf[V]
      newTimes(copyIdx) = backTimes(j)
      newAggs(copyIdx) = monoid.combine(backVals(j), above).asInstanceOf[AnyRef]
    } else { // old-front part: extend the stored suffix aggregate by Σback₁
      val j = fstart0 + copyIdx
      newTimes(copyIdx) = frontTimes(j)
      newAggs(copyIdx) = monoid.combine(frontAggs(j).asInstanceOf[V], b1Sum).asInstanceOf[AnyRef]
    }
    copyIdx -= 1
  }

  /** Perform up to StepsPerOp copy steps; swap in the new front if done. */
  private def steps(): Unit = {
    if (!rotating) return
    var s = 0
    while (s < StepsPerOp && copyIdx >= 0) { copyOne(); s += 1 }
    if (copyIdx < 0) swapIn()
  }

  /** Run the rotation to completion (used only when the window is tiny). */
  private def drainRotation(): Unit = {
    while (rotating && copyIdx >= 0) copyOne()
    if (rotating) swapIn()
  }

  private def swapIn(): Unit = {
    frontTimes = newTimes
    frontAggs = newAggs
    fstart = fstart - fstart0 // skip entries evicted during the rotation
    backTimes.remove(0, b1Count)
    backVals.remove(0, b1Count)
    newTimes = null; newAggs = null
    b1Count = 0; b1Sum = monoid.identity; fstart0 = 0; oldFCount = 0
  }
}
