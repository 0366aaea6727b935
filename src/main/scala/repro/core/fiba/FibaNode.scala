package repro.core.fiba

/** One node of the FiBA finger B-tree (§3.2), laid out flat (§6).
  *
  * Entries live in the first `n` slots of `times` (primitive longs) and of
  * the value store `values` (a [[Lane]] store: `Array[Long]` with values
  * inline for a packed monoid, references otherwise). `times` holds `cap`
  * = MAX_ARITY-1 slots, the most entries a node may keep, and `values`
  * one more: slot `cap` holds `agg`. A non-leaf node's `n + 1` children
  * sit in the first slots of `children` (capacity `cap + 1` = MAX_ARITY);
  * a leaf has no children array. Nodes are never reused, so a node is a
  * leaf or a non-leaf for life. Reference slots past the count are
  * always null, so a node never pins evicted values or subtrees, and a
  * node never overflows: an insert that would overflow it merges in the
  * tree's scratch area and splits from there (`FibaBulkInsertOps`).
  *
  * `agg` is the node's location-sensitive partial aggregate: up aggregate
  * Π↑ for non-spine non-root nodes, left aggregate Π↙ on the left spine,
  * right aggregate Π↘ on the right spine, inner aggregate Π̂ at the root —
  * see `FibaBase` for the formulas, which read and write it in place.
  */
final class FibaNode[V](leaf: Boolean, cap: Int, lane: Lane[V]) {
  val times: Array[Long]           = new Array[Long](cap)
  val values: AnyRef               = lane.newStore(cap + 1)
  val children: Array[FibaNode[V]] = if (leaf) null else new Array[FibaNode[V]](cap + 1)
  var n = 0
  var parent: FibaNode[V] = null
  var leftSpine  = false
  var rightSpine = false

  def isLeaf: Boolean = children == null

  /** B-tree arity: entries + 1, the child count of a non-leaf. */
  def arity: Int = n + 1

  def firstTime: Long = times(0)
  def lastTime: Long = times(n - 1)
  def lastChild: FibaNode[V] = children(n)

  /** Index of the first entry with time >= t (t's lower bound). */
  def lowerBound(t: Long): Int = firstAbove(t, orEqual = true)

  /** Number of entries with time <= t (the local eviction count): the
    * index of the first entry > t.
    */
  def evictCount(t: Long): Int = firstAbove(t, orEqual = false)

  private def firstAbove(t: Long, orEqual: Boolean): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (times(mid) < t || !orEqual && times(mid) == t) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Slot of child `c` (by identity), or -1. */
  def childSlot(c: FibaNode[V]): Int = {
    var i = 0
    while (i <= n) { if (children(i) eq c) return i; i += 1 }
    -1
  }

  /** Append one entry, its value copied from slot `si` of store `src`
    * (and, for a non-leaf, its right child).
    */
  def append(t: Long, src: AnyRef, si: Int, rightChild: FibaNode[V]): Unit = {
    times(n) = t; lane.copy1(src, si, values, n)
    n += 1
    if (rightChild != null) { rightChild.parent = this; children(n) = rightChild }
  }

  /** Insert time `t` at `idx` of a leaf that has room for it; the caller
    * puts its value in slot `idx`.
    */
  def insertAt(idx: Int, t: Long): Unit = {
    System.arraycopy(times, idx, times, idx + 1, n - idx)
    lane.copy(values, idx, values, idx + 1, n - idx)
    times(idx) = t
    n += 1
  }

  /** Drop the first k entries and, for a non-leaf, the first k children
    * (the caller frees or re-homes those children first).
    */
  def dropFront(k: Int): Unit = {
    if (k == 0) return
    val left = n - k
    System.arraycopy(times, k, times, 0, left)
    lane.copy(values, k, values, 0, left)
    lane.release(values, left, n)
    if (children != null) {
      System.arraycopy(children, k, children, 0, left + 1)
      FibaNode.nullOut(children, left + 1, n + 1)
    }
    n = left
  }

  /** Drop every entry and child reference (the node is being freed
    * after its contents moved elsewhere).
    */
  def clear(): Unit = {
    lane.release(values, 0, n)
    if (children != null) FibaNode.nullOut(children, 0, n + 1)
    n = 0
  }

  /** Replace the contents with `count` entries of `srcT`/`srcV` (a store
    * of the node's lane) starting at `from` and, for a non-leaf, children
    * `srcC(from .. from+count)`, re-parenting them.
    */
  def load(srcT: Array[Long], srcV: AnyRef, srcC: Array[FibaNode[V]], from: Int, count: Int): Unit = {
    val old = n
    System.arraycopy(srcT, from, times, 0, count)
    lane.copy(srcV, from, values, 0, count)
    if (count < old) lane.release(values, count, old)
    if (children != null) {
      System.arraycopy(srcC, from, children, 0, count + 1)
      if (count < old) FibaNode.nullOut(children, count + 1, old + 1)
      var i = 0
      while (i <= count) { children(i).parent = this; i += 1 }
    }
    n = count
  }

  override def toString: String = {
    val kind = if (isLeaf) "leaf" else s"node(${n + 1}ch)"
    val fl = (if (leftSpine) "L" else "") + (if (rightSpine) "R" else "")
    s"$kind$fl[${times.iterator.take(n).mkString(",")}]"
  }
}

object FibaNode {
  /** Null the reference slots [from, until) of `a`. */
  def nullOut(a: Array[_ <: AnyRef], from: Int, until: Int): Unit =
    java.util.Arrays.fill(a.asInstanceOf[Array[AnyRef]], from, until, null)
}
