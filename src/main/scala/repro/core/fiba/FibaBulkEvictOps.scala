package repro.core.fiba

/** Bulk eviction (§4): amortized O(log m), worst-case O(log n). It is
  * also the tree's only eviction: single evict is the case m = 1.
  *
  * Three steps:
  *  1. a finger-based *eviction boundary search* up from the left finger
  *     to the lowest node `s` whose subtree holds every entry <= t, then
  *     down along the cut collecting (node, idx, neighbor, ancestor)
  *     triples — the neighbor may not be a sibling, and the ancestor is
  *     their least common ancestor holding the separating entry;
  *  2. a *pass up* the boundary doing local evictions (slicing whole
  *     evicted children off in one go, O(1) each) and
  *     repairing arity underflow with batch moves (Fig 18), non-sibling
  *     merges (Fig 19), or tree shrinking (Figs 4/5); while merges keep
  *     popping the ancestor it climbs on past `s` up the left spine, where
  *     each node is c0 and its neighbor is its right sibling;
  *  3. the shared *pass down* ([[FibaBase.passDown]]) along the new left
  *     spine from the highest node the pass up changed, `s` at the lowest
  *     (and the right spine when a move drained it), or along both spines
  *     when the root shrank.
  *
  * The root shrinks by one rule: a node left below arity with nothing to
  * its right becomes the root (Fig 4), and a root left with one child
  * hands the root to that child (Fig 5). A cut that leaves nothing takes
  * the same steps: `s` is the root, the cut runs down the right spine, and
  * the emptied rightmost leaf becomes the root.
  * A cut inside the left finger that leaves it at arity skips steps 1 and
  * 2: it drops the entries and passes down from the finger alone (§6).
  */
trait FibaBulkEvictOps[V] { self: FibaBase[V] =>

  // Reusable boundary-search scratch space, one slot per level of the
  // cut (a tree of 2^63 entries is at most 64 levels high). Its node refs
  // are nulled after every cut: a slot left set would keep an evicted
  // subtree, and through parent refs the whole dead tree, reachable.
  private val nodes     = new Array[FibaNode[V]](64)
  private val idxs      = new Array[Int](64)
  private val neighbors = new Array[FibaNode[V]](64)
  private val ancestors = new Array[FibaNode[V]](64)
  private val ancLevels = new Array[Int](64) // index into `nodes`; -1 = above s

  /** Remove the single oldest entry; no-op on an empty window. */
  final def evictOldest(): Unit = if (!isEmpty) bulkEvictNative(oldestTime)

  /** Remove every entry with timestamp <= t. */
  final def bulkEvictNative(t: Long): Unit = {
    if (isEmpty || t < oldestTime) return

    // Small-eviction fast path (§6 spirit): no boundary bookkeeping when
    // the cut stays inside one leaf that keeps its arity — the dominant
    // case on real streams.
    val idx = leftFinger.evictCount(t) // the whole finger when the cut leaves it
    if (leftFinger.n - idx >= minArity - 1) { // no underflow at all
      leftFinger.dropFront(idx)
      passDown(rootTouched = false, leftFinger, null)
      return
    }

    val depth = searchBoundary(t)
    passUp(depth)
    FibaNode.nullOut(nodes, 0, depth)
    FibaNode.nullOut(neighbors, 0, depth)
    FibaNode.nullOut(ancestors, 0, depth)
  }

  /** Step 1: the eviction boundary search. Fills the scratch arrays with
    * one boundary triple per level of the cut, from the boundary top s
    * down, and returns the number of levels.
    */
  private def searchBoundary(t: Long): Int = {
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

    depth
  }

  /** Step 2: the pass up over the `depth` levels of the cut — local
    * evictions and arity repair — then step 3.
    */
  private def passUp(depth: Int): Unit = {
    // `node` is nodes(l) inside the boundary; above s = nodes(0) (l = -1)
    // it is a left-spine node whose ancestor a merge popped.
    val s = nodes(0)
    // Highest node changed. s is c0 of its parent, which neither Π̂ nor Π↙
    // reads; a move or merge that reaches the parent raises it below.
    var top = s
    val rootAtStart = root
    var rightDirtyTop: FibaNode[V] = null // a move drained a right-spine neighbor

    var l = depth - 1
    var node = nodes(l)
    var evictHere = true
    var done = false
    while (!done) {
      if (evictHere) {
        val idx = idxs(l)
        if (!node.isLeaf) {
          var i = 0
          while (i < idx) { freeNode(node.children(i)); i += 1 }
        }
        node.dropFront(idx)
      }
      evictHere = true

      val neighbor = if (l >= 0) neighbors(l) else if (node eq root) null else node.parent.children(1)
      if (node eq root) {
        if (!root.isLeaf && root.n == 0) { // Fig 5: make child root
          root = root.children(0)
          node.children(0) = null
          freeNode(node)
        }
        done = true
      } else if (node.arity >= minArity) {
        done = l <= 0
        if (!done) { l -= 1; node = nodes(l) }
      } else if (neighbor == null) {
        // Nothing survives to the right at any level above (only possible
        // when s is the root): Fig 4 makes node the root, detached from the
        // dead upper path first, and the next turn's root check (Fig 5)
        // promotes its only child if it has one.
        val p = node.parent
        p.children(p.childSlot(node)) = null
        root = node
        freeNode(nodes(0)) // the old root and its whole remaining (dead) path
        evictHere = false
      } else {
        val ancestor = if (l >= 0) ancestors(l) else node.parent
        val aLvl = if (l >= 0) ancLevels(l) else -1
        // the separator is the first entry of the ancestor the cut keeps
        // (its own local eviction waits for the pass to reach it), or entry
        // 0 above s
        val a = if (aLvl >= 0) idxs(aLvl) else 0
        if (aLvl < 0) top = ancestor
        val deficit = minArity - node.arity
        val surplus = neighbor.arity - minArity
        if (deficit <= surplus) {
          moveBatch(node, neighbor, ancestor, a, deficit)
          if (neighbor.rightSpine) rightDirtyTop = neighbor // repaired in step 3
          else upAgg(neighbor)
          done = l <= 0
          if (!done) { l -= 1; node = nodes(l) }
        } else {
          mergeIntoNeighbor(node, neighbor, ancestor, a)
          // Eager ancestor pop: entries [0..a] (evicted + rotated separator)
          // and children [0..a] (evicted subtrees + the dead path chain).
          var i = 0
          while (i <= a) { freeNode(ancestor.children(i)); i += 1 }
          ancestor.dropFront(a + 1)
          l = aLvl
          node = ancestor
          evictHere = false
        }
      }
    }

    // Step 3; a root that changed identity has both spines hang fresh off it.
    if (root ne rootAtStart) passDown(rootTouched = true, root, root)
    else passDown(rootTouched = false, top, rightDirtyTop)
  }

  // ---- batch rebalancing primitives (paper Figs 18 & 19) -------------------

  /** Fig 18 `moveBatch`: rotate the separator (entry `a` of the ancestor)
    * plus the first k-1 entries (and k children) of the neighbor into
    * `node`, and rotate the neighbor's k-th entry up into the ancestor's
    * separator slot. Brings `node` back to MIN_ARITY without overflowing
    * anyone.
    */
  protected final def moveBatch(node: FibaNode[V], neighbor: FibaNode[V],
                                ancestor: FibaNode[V], a: Int, k: Int): Unit = {
    val internal = !node.isLeaf
    node.append(ancestor.times(a), ancestor.values, a, if (internal) neighbor.children(0) else null)
    var i = 0
    while (i < k - 1) {
      node.append(neighbor.times(i), neighbor.values, i, if (internal) neighbor.children(i + 1) else null)
      i += 1
    }
    ancestor.times(a) = neighbor.times(k - 1)
    lane.copy1(neighbor.values, k - 1, ancestor.values, a)
    neighbor.dropFront(k)
  }

  /** Fig 19 `mergeNotSibling`: prepend what is left of `node` plus the
    * separator (entry `a` of the ancestor) onto `neighbor`, emptying
    * `node`; the caller pops ancestor [0..a].
    */
  protected final def mergeIntoNeighbor(node: FibaNode[V], neighbor: FibaNode[V],
                                        ancestor: FibaNode[V], a: Int): Unit = {
    val k = node.n     // node's k entries and the separator go in front
    val m = neighbor.n // of the neighbor's m entries
    System.arraycopy(neighbor.times, 0, neighbor.times, k + 1, m)
    lane.copy(neighbor.values, 0, neighbor.values, k + 1, m)
    System.arraycopy(node.times, 0, neighbor.times, 0, k)
    lane.copy(node.values, 0, neighbor.values, 0, k)
    neighbor.times(k) = ancestor.times(a)
    lane.copy1(ancestor.values, a, neighbor.values, k)
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
  }
}
