package repro.core.fiba

/** One node of the FiBA finger B-tree (§3.2), laid out flat (§6).
  *
  * Entries live in the first `n` slots of two parallel fixed-capacity
  * arrays: `times` (primitive longs) and `values` (erased `V`s). Both hold
  * `cap` = MAX_ARITY-1 slots, the most entries a node may keep. A
  * non-leaf node's `n + 1` children sit in the first slots of `children`
  * (capacity `cap + 1` = MAX_ARITY); a leaf has no children array. Slots
  * past the count are always null, so a node never pins evicted values or
  * subtrees, and a node never overflows: an insert that would overflow it
  * merges in the tree's scratch area and splits from there
  * (`FibaBulkInsertOps`).
  *
  * `agg` is the node's location-sensitive partial aggregate: up aggregate
  * Π↑ for non-spine non-root nodes, left aggregate Π↙ on the left spine,
  * right aggregate Π↘ on the right spine, inner aggregate Π̂ at the root —
  * see `FibaBase` for the formulas.
  */
final class FibaNode[V](leaf: Boolean, cap: Int) {
  val times: Array[Long]           = new Array[Long](cap)
  val values: Array[AnyRef]        = new Array[AnyRef](cap)
  var children: Array[FibaNode[V]] = if (leaf) null else new Array[FibaNode[V]](cap + 1)
  var n = 0
  var parent: FibaNode[V] = null
  var leftSpine  = false
  var rightSpine = false
  var agg: V = _

  def isLeaf: Boolean = children == null

  /** B-tree arity: entries + 1, the child count of a non-leaf. */
  def arity: Int = n + 1

  def value(i: Int): V = values(i).asInstanceOf[V]
  def setValue(i: Int, v: V): Unit = values(i) = v.asInstanceOf[AnyRef]
  def firstTime: Long = times(0)
  def lastTime: Long = times(n - 1)
  def lastChild: FibaNode[V] = children(n)

  /** Index of the first entry with time >= t (t's lower bound). */
  def lowerBound(t: Long): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (times(mid) < t) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Number of entries with time <= t (the local eviction count). */
  def evictCount(t: Long): Int = lowerBound(t + 1)

  /** Slot of child `c` (by identity), or -1. */
  def childSlot(c: FibaNode[V]): Int = {
    var i = 0
    while (i <= n) { if (children(i) eq c) return i; i += 1 }
    -1
  }

  /** Append one entry (and, for a non-leaf, its right child). */
  def append(t: Long, v: AnyRef, rightChild: FibaNode[V]): Unit = {
    times(n) = t; values(n) = v
    n += 1
    if (rightChild != null) { rightChild.parent = this; children(n) = rightChild }
  }

  /** Insert an entry at `idx` of a leaf that has room for it. */
  def insertAt(idx: Int, t: Long, v: AnyRef): Unit = {
    System.arraycopy(times, idx, times, idx + 1, n - idx)
    System.arraycopy(values, idx, values, idx + 1, n - idx)
    times(idx) = t; values(idx) = v
    n += 1
  }

  /** Drop the first k entries and, for a non-leaf, the first k children
    * (the caller frees or re-homes those children first).
    */
  def dropFront(k: Int): Unit = {
    if (k == 0) return
    val left = n - k
    System.arraycopy(times, k, times, 0, left)
    System.arraycopy(values, k, values, 0, left)
    FibaNode.nullOut(values, left, n)
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
    FibaNode.nullOut(values, 0, n)
    if (children != null) FibaNode.nullOut(children, 0, n + 1)
    n = 0
  }

  /** Replace the contents with `count` entries of `srcT`/`srcV` starting
    * at `from` and, for a non-leaf, children `srcC(from .. from+count)`,
    * re-parenting them.
    */
  def load(srcT: Array[Long], srcV: Array[AnyRef], srcC: Array[FibaNode[V]], from: Int, count: Int): Unit = {
    val old = n
    System.arraycopy(srcT, from, times, 0, count)
    System.arraycopy(srcV, from, values, 0, count)
    if (count < old) FibaNode.nullOut(values, count, old)
    if (children != null) {
      System.arraycopy(srcC, from, children, 0, count + 1)
      if (count < old) FibaNode.nullOut(children, count + 1, old + 1)
      var i = 0
      while (i <= count) { children(i).parent = this; i += 1 }
    }
    n = count
  }

  /** Reset to a blank node of the given kind, for reuse from the free list. */
  def reset(leaf: Boolean): Unit = {
    clear()
    if (leaf) children = null
    else if (children == null) children = new Array[FibaNode[V]](times.length + 1)
    parent = null; leftSpine = false; rightSpine = false
    agg = null.asInstanceOf[V]
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
