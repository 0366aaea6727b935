package repro.core.fiba

/** FiBA single insert [Tangwongsan et al. 2019].
  *
  * `insertOne` finger-searches from the nearer end (amortized O(log d)),
  * inserts or combines, splits on overflow, and repairs aggregates by the
  * up-then-spine-down discipline. It is the insert the non-bulk baseline
  * (`nb_fiba`) loops over to emulate bulk inserts; single evict is bulk
  * evict at m = 1 (`FibaBulkEvictOps.evictOldest`).
  */
trait FibaSingleOps[V] { self: FibaBase[V] =>

  // ---- search --------------------------------------------------------------

  /** Height above the leaves of the node [[fingerSearchTop]] last returned. */
  protected var searchTopLevel = 0

  /** Node whose subtree must contain t, found by finger search: ascend
    * from the closer finger while t falls outside the current subtree.
    * Records the node's height in `searchTopLevel`.
    */
  protected final def fingerSearchTop(t: Long): FibaNode[V] = {
    var level = 0
    var cur = root
    if (!root.isLeaf) {
      val lo = leftFinger.firstTime
      val hi = rightFinger.lastTime
      if (t - lo >= hi - t) { // nearer the young end: ascend from the right finger
        cur = rightFinger
        while ((cur ne root) && t <= cur.parent.lastTime) { cur = cur.parent; level += 1 }
      } else { // nearer the old end: ascend from the left finger
        cur = leftFinger
        while ((cur ne root) && t >= cur.parent.firstTime) { cur = cur.parent; level += 1 }
      }
    }
    searchTopLevel = level
    cur
  }

  // ---- split ----------------------------------------------------------------

  /** Split an overflowing node: the node keeps the left half (preserving
    * identity, left-spine flag, and left finger); a fresh right sibling
    * takes the right half; the median entry is promoted to the parent,
    * which is created first when `n` is the root (tree growth).
    *
    * Non-spine halves get fresh up aggregates immediately; spine halves
    * are left for the caller's spine pass (their formulas never read a
    * spine child's aggregate, so ordering is safe). Returns the parent.
    */
  protected final def splitNode(n: FibaNode[V]): FibaNode[V] = {
    val wasRoot = n eq root
    val mid = n.n / 2
    val right = allocNode(n.isLeaf)
    right.load(n.times, n.values, n.children, mid + 1, n.n - mid - 1)
    val promoT = n.times(mid)
    val promoV = n.values(mid)
    n.truncate(mid)

    if (wasRoot) growRoot(n)
    val parent = n.parent
    parent.insertAt(parent.childSlot(n), promoT, promoV, right)

    // spine flags / fingers: the right half takes over right-spine status
    // (under a freshly grown root it is the right-spine top); the left
    // half keeps its left-spine status and the left finger.
    right.rightSpine = n.rightSpine || wasRoot
    n.rightSpine = false
    if (right.rightSpine && right.isLeaf) rightFinger = right

    if (!n.leftSpine && !n.rightSpine) n.agg = upAgg(n)
    if (!right.leftSpine && !right.rightSpine) right.agg = upAgg(right)
    parent
  }

  // ---- insert ---------------------------------------------------------------

  /** Insert (t, v); combines with the existing value if t is present. */
  final def insertOne(t: Long, v: V): Unit = {
    if (isEmpty) {
      root.append(t, v.asInstanceOf[AnyRef], null)
      root.agg = innerAgg(root)
      return
    }
    var cur = fingerSearchTop(t)
    while (true) {
      val idx = cur.lowerBound(t)
      if (idx < cur.n && cur.times(idx) == t) {
        cur.setValue(idx, monoid.combine(cur.value(idx), v))
        repairUpFrom(cur)
        return
      }
      if (cur.isLeaf) {
        cur.insertAt(idx, t, v.asInstanceOf[AnyRef], null)
        finishInsertAt(cur)
        return
      }
      cur = cur.children(idx)
    }
  }

  /** Split-cascade from a possibly overflowing node, then repair
    * aggregates. If the cascade ends below the root, `repairUpFrom`
    * already finishes on the right spine segment; if it ends at the root
    * (promotion into the root, or root growth) the dirtied spine tops
    * need their own top-down pass.
    */
  protected final def finishInsertAt(touched: FibaNode[V]): Unit = {
    var n = touched
    var dirtyLeft  = false
    var dirtyRight = false
    while (n.n > maxEntries) {
      if (n.leftSpine) dirtyLeft = true
      if (n.rightSpine) dirtyRight = true
      val wasRoot = n eq root
      n = splitNode(n)
      if (wasRoot) { dirtyLeft = true; dirtyRight = true }
    }
    repairUpFrom(n)
    // A cascade that ends below the root is finished by repairUpFrom's
    // spine walk; one that reaches the root (split chain up a whole
    // spine, or root growth) must repair the dirtied spines top-down.
    if ((n eq root) && !root.isLeaf) {
      if (dirtyLeft) repairLeftSpineFrom(root.children(0))
      if (dirtyRight) repairRightSpineFrom(root.lastChild)
    }
  }
}
