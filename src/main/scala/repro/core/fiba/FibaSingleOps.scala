package repro.core.fiba

/** FiBA single insert and single evict-oldest [Tangwongsan et al. 2019].
  *
  * `insertOne` finger-searches from the nearer end (amortized O(log d)),
  * inserts or combines, splits on overflow, and repairs aggregates by the
  * up-then-spine-down discipline. `evictOldest` removes the left finger's
  * first entry and rebalances up the left spine. These are the primitives
  * the non-bulk baseline (`nb_fiba`) loops over to emulate bulk ops.
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

    if (wasRoot) {
      val nr = allocNode(leaf = false)
      nr.children(0) = n
      n.parent = nr
      root = nr
    }
    val parent = n.parent
    parent.insertAt(parent.childSlot(n), promoT, promoV, right)

    // spine flags / fingers: the right half inherits right-spine status,
    // the left half keeps left-spine status; a freshly grown root makes
    // its two halves the tops of the two spines.
    right.leftSpine = false
    right.rightSpine = n.rightSpine
    if (n.rightSpine) {
      n.rightSpine = false
      if (rightFinger eq n) rightFinger = right
    }
    if (wasRoot) {
      n.leftSpine = true
      right.rightSpine = true
      if (n.isLeaf) { leftFinger = n; rightFinger = right }
    }

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

  // ---- evict ----------------------------------------------------------------

  /** Remove the single oldest entry; no-op on an empty window. */
  final def evictOldest(): Unit = {
    if (isEmpty) return
    val leaf = leftFinger
    leaf.dropFront(1)
    if (leaf eq root) { root.agg = innerAgg(root); return }
    leftRepairCascade(leaf)
    ()
  }

  /** Rebalance up the left spine from `start` (which may underflow),
    * shrink the root if necessary, and run the final aggregate repairs:
    * a full from-root repair when the root was replaced, otherwise the
    * inner/left-spine pass from the topmost touched node. Also used by
    * bulk eviction's beyond-the-boundary repair loop.
    * Returns true iff the root changed identity.
    *
    * The underflowing node is always c0 of its parent; the right sibling
    * c1 donates (move) or absorbs into the node (merge), per surplus.
    */
  protected final def leftRepairCascade(start: FibaNode[V]): Boolean = {
    var n = start
    var top: FibaNode[V] = start
    var cont = true
    while (cont && (n ne root) && n.arity < minArity) {
      val p = n.parent
      val sib = p.children(1)
      if (sib.arity > minArity) {
        // rotate one entry (and child) through the parent
        n.append(p.times(0), p.values(0), if (n.isLeaf) null else sib.children(0))
        p.times(0) = sib.times(0)
        p.values(0) = sib.values(0)
        sib.dropFront(1)
        // sib is non-spine unless p is a 2-ary root (then sib is the
        // right-spine top and its whole spine chain depends on it).
        if (sib.rightSpine) repairRightSpineFrom(sib)
        else sib.agg = upAgg(sib)
        top = p
        cont = false
      } else {
        // merge sibling into n; n keeps its left-spine identity
        n.append(p.times(0), p.values(0), if (n.isLeaf) null else sib.children(0))
        var i = 0
        while (i < sib.n) {
          n.append(sib.times(i), sib.values(i), if (n.isLeaf) null else sib.children(i + 1))
          i += 1
        }
        // If p was a 2-ary root, sib was the right-spine top: n inherits.
        if (sib.rightSpine) n.rightSpine = true
        sib.clear()
        p.children(1) = n // drop entry 0 and child 1 (sib): shift n into slot 1
        p.dropFront(1)
        freeNode(sib)
        top = p
        n = p
      }
    }
    if (cont && (n eq root) && !root.isLeaf && root.arity == 1) {
      val old = root
      root = root.children(0)
      old.children(0) = null
      freeNode(old)
      repairFromNewRoot()
      return true
    }
    if (top eq root) {
      root.agg = innerAgg(root)
      if (!root.isLeaf) repairLeftSpineFrom(root.children(0))
    } else repairLeftSpineFrom(top)
    false
  }
}
