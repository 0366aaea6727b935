package repro.core.fiba

/** Bulk eviction (§4): amortized O(log m), worst-case O(log n).
  *
  * Three steps:
  *  1. a finger-based *eviction boundary search* up from the left finger
  *     to the lowest node `s` whose subtree holds every entry <= t, then
  *     down along the cut collecting (node, idx, neighbor, ancestor)
  *     triples — the neighbor may not be a sibling, and the ancestor is
  *     their least common ancestor holding the separating entry;
  *  2. a *pass up* the boundary doing local evictions (slicing whole
  *     evicted children off in one go, onto the deferred free list) and
  *     repairing arity underflow with batch moves (Fig 18), non-sibling
  *     merges (Fig 19), or tree shrinking (Figs 4/5), plus a repair loop
  *     beyond the boundary (shared with single evict);
  *  3. a *pass down* the new left spine (and the right spine when the cut
  *     reached it) repairing location-sensitive aggregates and flags.
  */
trait FibaBulkEvictOps[V] { self: FibaBase[V] with FibaSingleOps[V] =>

  // Reusable boundary-search scratch space, one slot per level of the
  // cut (a tree of 2^63 entries is at most 64 levels high). Between calls
  // it pins at most O(log n) node refs, which the deferred free list
  // would keep alive anyway.
  private val nodes     = new Array[FibaNode[V]](64)
  private val idxs      = new Array[Int](64)
  private val neighbors = new Array[FibaNode[V]](64)
  private val ancestors = new Array[FibaNode[V]](64)
  private val ancLevels = new Array[Int](64) // index into `nodes`; -1 = s.parent

  /** Remove every entry with timestamp <= t. */
  final def bulkEvictNative(t: Long): Unit = {
    if (isEmpty || t < oldestTime) return
    if (t >= youngestTime) { clearAll(); return }

    // Small-eviction fast paths (§6 spirit): no boundary bookkeeping when
    // the cut stays inside one leaf — the dominant case on real streams.
    if (root.isLeaf) {
      root.dropFront(root.evictCount(t))
      root.agg = innerAgg(root)
      return
    }
    if (t < leftFinger.parent.firstTime) {
      val idx = leftFinger.evictCount(t)
      if (leftFinger.n - idx >= minArity - 1) { // no underflow at all
        leftFinger.dropFront(idx)
        repairLeftSpineFrom(leftFinger)
        return
      } else { // underflow: at most 2µ-1 single evictions — O(1) bounded
        var k = 0
        while (k < idx) { evictOldest(); k += 1 }
        return
      }
    }

    // ---- Step 1a: ascend from the left finger to the boundary top s.
    var s = leftFinger
    while ((s ne root) && t >= s.parent.firstTime) s = s.parent

    // ---- Step 1b: descend along the cut, collecting boundary triples
    // into the reused scratch arrays (§6's alternating-buffer spirit).
    var depth = 0
    var cur = s
    var curNeighbor: FibaNode[V] = if (s eq root) null else s.parent.children(1)
    var curAncestor: FibaNode[V] = if (s eq root) null else s.parent
    var curAncLevel = -1
    var descending = true
    while (descending) {
      val idx = cur.evictCount(t)
      nodes(depth) = cur; idxs(depth) = idx
      neighbors(depth) = curNeighbor; ancestors(depth) = curAncestor; ancLevels(depth) = curAncLevel
      depth += 1
      if (cur.isLeaf) descending = false
      else if (idx >= 1 && cur.times(idx - 1) == t) descending = false // exact hit: child idx survives whole
      else {
        val lvl = depth - 1
        if (idx < cur.n) {
          curNeighbor = cur.children(idx + 1)
          curAncestor = cur
          curAncLevel = lvl
        } else if (curNeighbor != null) {
          curNeighbor = curNeighbor.children(0)
        }
        cur = cur.children(idx)
      }
    }

    // ---- Step 2: pass up — local evictions + arity repair.
    // (captured now: a merge whose ancestor is s.parent frees s, nulling
    // its parent pointer before step 3 would read it)
    val sParent = s.parent
    var newRootInstalled = false
    var poppedAbove      = false               // a merge popped s.parent
    var rightDirtyTop: FibaNode[V] = null      // a move drained a right-spine neighbor

    var l = depth - 1
    var skipLocalEvict = false
    var done = false
    while (!done && l >= 0) {
      val node = nodes(l)
      val neighbor = neighbors(l)
      if (!skipLocalEvict) {
        val idx = idxs(l)
        if (!node.isLeaf) {
          var i = 0
          while (i < idx) { freeNode(node.children(i)); i += 1 }
        }
        node.dropFront(idx)
      }
      skipLocalEvict = false

      if (node eq root) {
        if (!root.isLeaf && root.n == 0) { // Fig 5: make child root
          val old = root
          root = root.children(0)
          old.children(0) = null
          freeNode(old)
          newRootInstalled = true
        }
        done = true
      } else if (node.arity >= minArity) {
        l -= 1
      } else if (neighbor == null) {
        // Nothing survives to the right at any level above (only possible
        // when s is the root): the tree shrinks — Figs 4/5.
        if (!node.isLeaf && node.arity == 1) {
          root = node.children(0) // make child root
          node.children(0) = null
          // node stays attached under the dead upper path; freed with it
        } else {
          // make node root: detach it from the dead upper path first
          val p = node.parent
          p.children(p.childSlot(node)) = null
          root = node
        }
        freeNode(nodes(0)) // the old root and its whole remaining (dead) path
        newRootInstalled = true
        done = true
      } else {
        val ancestor = ancestors(l)
        val deficit = minArity - node.arity
        val surplus = neighbor.arity - minArity
        if (deficit <= surplus) {
          moveBatch(node, neighbor, ancestor, deficit)
          if (neighbor.rightSpine) rightDirtyTop = neighbor // repaired in step 3 / shrink repair
          else neighbor.agg = upAgg(neighbor)
          l -= 1
        } else {
          val a = mergeIntoNeighbor(node, neighbor, ancestor)
          // Eager ancestor pop: entries [0..a] (evicted + rotated separator)
          // and children [0..a] (evicted subtrees + the dead path chain).
          var i = 0
          while (i <= a) { freeNode(ancestor.children(i)); i += 1 }
          ancestor.dropFront(a + 1)
          val aLvl = ancLevels(l)
          if (aLvl < 0) { poppedAbove = true; done = true }
          else { l = aLvl; skipLocalEvict = true }
        }
      }
    }

    // ---- Step 3: pass down — spine aggregates, flags, fingers.
    if (newRootInstalled) {
      repairFromNewRoot()
    } else if (s eq root) {
      root.agg = innerAgg(root)
      if (!root.isLeaf) repairLeftSpineFrom(root.children(0))
      if (rightDirtyTop != null) repairRightSpineFrom(rightDirtyTop)
    } else {
      val replacedRoot =
        if (poppedAbove) leftRepairCascade(sParent)
        else if (sParent eq root) {
          root.agg = innerAgg(root)
          repairLeftSpineFrom(root.children(0))
          false
        } else {
          repairLeftSpineFrom(sParent)
          false
        }
      if (rightDirtyTop != null && !replacedRoot) repairRightSpineFrom(rightDirtyTop)
    }
  }

  /** Evict everything: reset to an empty root leaf. */
  protected final def clearAll(): Unit = {
    freeNode(root)
    root = allocNode(leaf = true)
    root.agg = monoid.identity
    leftFinger = root
    rightFinger = root
  }

  // ---- batch rebalancing primitives (paper Figs 18 & 19) -------------------

  /** Index of the separating entry in `ancestor`: the greatest i with
    * ancestor.times(i) < neighbor's first time.
    */
  private def separatorIndex(ancestor: FibaNode[V], neighbor: FibaNode[V]): Int = {
    var a = ancestor.n - 1
    while (a >= 0 && ancestor.times(a) >= neighbor.firstTime) a -= 1
    require(a >= 0, "bulk evict: no separator between node and neighbor")
    a
  }

  /** Fig 18 `moveBatch`: rotate the separator from the ancestor plus the
    * first k-1 entries (and k children) of the neighbor into `node`, and
    * rotate the neighbor's k-th entry up into the ancestor's separator
    * slot. Brings `node` back to MIN_ARITY without overflowing anyone.
    */
  protected final def moveBatch(node: FibaNode[V], neighbor: FibaNode[V],
                                ancestor: FibaNode[V], k: Int): Unit = {
    val a = separatorIndex(ancestor, neighbor)
    val internal = !node.isLeaf
    node.append(ancestor.times(a), ancestor.values(a), if (internal) neighbor.children(0) else null)
    var i = 0
    while (i < k - 1) {
      node.append(neighbor.times(i), neighbor.values(i), if (internal) neighbor.children(i + 1) else null)
      i += 1
    }
    ancestor.times(a) = neighbor.times(k - 1)
    ancestor.values(a) = neighbor.values(k - 1)
    neighbor.dropFront(k)
  }

  /** Fig 19 `mergeNotSibling`: prepend what is left of `node` plus the
    * separating entry from the ancestor onto `neighbor`, emptying `node`.
    * Returns the separator index (the caller pops ancestor [0..a]).
    */
  protected final def mergeIntoNeighbor(node: FibaNode[V], neighbor: FibaNode[V],
                                        ancestor: FibaNode[V]): Int = {
    val a = separatorIndex(ancestor, neighbor)
    val k = node.n     // node's k entries and the separator go in front
    val m = neighbor.n // of the neighbor's m entries
    System.arraycopy(neighbor.times, 0, neighbor.times, k + 1, m)
    System.arraycopy(neighbor.values, 0, neighbor.values, k + 1, m)
    System.arraycopy(node.times, 0, neighbor.times, 0, k)
    System.arraycopy(node.values, 0, neighbor.values, 0, k)
    neighbor.times(k) = ancestor.times(a)
    neighbor.values(k) = ancestor.values(a)
    if (!node.isLeaf) {
      System.arraycopy(neighbor.children, 0, neighbor.children, k + 1, m + 1)
      var i = 0
      while (i <= k) {
        val c = node.children(i)
        c.parent = neighbor
        neighbor.children(i) = c
        i += 1
      }
    }
    neighbor.n = k + 1 + m
    node.clear()
    a
  }
}
