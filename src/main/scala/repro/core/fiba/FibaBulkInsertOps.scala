package repro.core.fiba

import repro.core.Swag

/** Pending events of one level of bulk insertion's pass up, as parallel
  * arrays reused across levels and calls. Event i targets `target(i)`
  * at height `level(i)` above the leaves (0 = leaf); recompute-only
  * events ride along until their level is reached. An insertion event's
  * `child` (if non-null) splices in immediately right of its entry.
  */
private[fiba] final class Treelets[V](lane: Lane[V]) {
  var target    = new Array[FibaNode[V]](16)
  var time      = new Array[Long](16)
  var value     = lane.newStore(16)
  var child     = new Array[FibaNode[V]](16)
  var level     = new Array[Int](16)
  var recompute = new Array[Boolean](16)
  var size = 0

  /** Append an event and return its index; the caller then puts an
    * insertion event's value in that slot of `value` (which this call may
    * have replaced by a larger store).
    */
  def add(tg: FibaNode[V], t: Long, c: FibaNode[V], lvl: Int, rc: Boolean): Int = {
    if (size == time.length) grow()
    target(size) = tg; time(size) = t
    child(size) = c; level(size) = lvl; recompute(size) = rc
    size += 1
    size - 1
  }

  /** Copy event j of `from` to the end of this buffer. */
  def addFrom(from: Treelets[V], j: Int): Unit = {
    val i = add(from.target(j), from.time(j), from.child(j), from.level(j), from.recompute(j))
    lane.copy1(from.value, j, value, i)
  }

  /** Empty the buffer, dropping its references. */
  def clear(): Unit = {
    FibaNode.nullOut(target, 0, size)
    lane.release(value, 0, size)
    FibaNode.nullOut(child, 0, size)
    size = 0
  }

  private def grow(): Unit = {
    val cap = 2 * time.length
    target = java.util.Arrays.copyOf(target.asInstanceOf[Array[AnyRef]], cap).asInstanceOf[Array[FibaNode[V]]]
    time = java.util.Arrays.copyOf(time, cap)
    val v = lane.newStore(cap); lane.copy(value, 0, v, 0, size); value = v
    child = java.util.Arrays.copyOf(child.asInstanceOf[Array[AnyRef]], cap).asInstanceOf[Array[FibaNode[V]]]
    level = java.util.Arrays.copyOf(level, cap)
    recompute = java.util.Arrays.copyOf(recompute, cap)
  }
}

/** Bulk insertion (§5): amortized O(log d + m(1 + log(d/m))). It is
  * also the tree's only insertion: single insert is §6's small insertion,
  * and an entry whose leaf is full splits through the same pass up as a
  * bulk of one.
  *
  * Three steps:
  *  1. *insertion-sites search*: locate each bulk entry's target node in
  *     timestamp order; consecutive searches only climb to the least
  *     common ancestor of successive sites. Entries whose timestamp
  *     already exists are combined immediately and become recomputation
  *     treelets riding from the leaf level; new timestamps become
  *     insertion treelets at their leaf.
  *  2. *pass up — interleave & split*: level by level, gather each
  *     target's treelets, merge them into the node (the merge step of
  *     merge sort), and `bulkSplit` any overflowed node into arity-(µ+1)
  *     nodes plus one arity-[µ,2µ] node (Claim 1), promoting separators
  *     as next-level treelets — which stay timestamp-sorted for free.
  *  3. the shared *pass down* ([[FibaBase.passDown]]) of the touched
  *     spines, repairing Π̂(root), Π↙/Π↘ and flags; the highest spine node
  *     touched per side starts the walk, so in-order bulks never pay more
  *     than the treelet height, and a grown root repairs both spines.
  *
  * A bulk into an empty window takes the same three steps: every site is
  * the root leaf, so the pass up is a bottom-up bulk load in O(m), with
  * each piece's Π↑ computed once as it is cut.
  *
  * Nothing is allocated per entry: the bulk is read in place from the
  * caller's arrays, treelets live in two reused [[Treelets]] buffers (this
  * level's and the next), and an interleave that fits merges straight
  * into its node; one that overflows merges into one scratch area, and
  * `bulkSplit` cuts its pieces straight out of it into fixed-size nodes.
  * The treelet buffers and the scratch area grow to fit, and one that grew
  * past [[Swag.RetainedBulk]] entries is dropped once it is emptied.
  */
trait FibaBulkInsertOps[V] { self: FibaBase[V] =>

  // treelets of the level being processed and of the next one
  private var cur = new Treelets[V](lane)
  private var nxt = new Treelets[V](lane)
  // interleave scratch: entry i at scrT/scrV(i), child left of it at scrC(i)
  private var scrT = Array.emptyLongArray
  private var scrV = lane.newStore(0)
  private var scrC = new Array[FibaNode[V]](1)

  /** Height above the leaves of the node [[fingerSearchTop]] or
    * [[ascendToCover]] last returned.
    */
  private var searchTopLevel = 0

  /** Insert (t, v); combines with the existing value if t is present.
    * This is §6's small insertion: a collision, or a leaf with room, is
    * changed in place and repaired by `repairUpFrom` (an append to the
    * right finger by one combine); only an entry whose leaf is full goes
    * through the pass up, as one insertion treelet.
    */
  final def insertOne(t: Long, v: V): Unit = {
    var node = fingerSearchTop(t)
    while (true) {
      val idx = node.lowerBound(t)
      if (idx < node.n && node.times(idx) == t) {
        combineAt(node, idx, v)
        repairUpFrom(node)
        return
      }
      if (node.isLeaf) {
        if (node.n < maxEntries) {
          node.insertAt(idx, t)
          lane.put(v, node.values, idx)
          // An entry that lands last in the right finger extends its Π↘
          // (Π̂ at a root leaf) by associativity; no other aggregate covers
          // the right finger, so an in-order append is O(1).
          val vs = node.values
          if ((node eq rightFinger) && idx == node.n - 1) lane.combineInto(vs, aggSlot, vs, aggSlot, vs, idx)
          else repairUpFrom(node)
        } else {
          val e = cur.add(node, t, null, 0, rc = false)
          lane.put(v, cur.value, e)
          passUpAndDown()
        }
        return
      }
      node = node.children(idx)
    }
  }

  /** Insert the bulk `times(i)`, `values(i)` for i in [from, until),
    * strictly increasing in time; values colliding with existing
    * timestamps are combined. The slice's bounds and order are checked
    * before the window changes.
    */
  final def bulkInsertNative(times: Array[Long], values: Array[V], from: Int, until: Int): Unit = {
    if (from < 0 || from > until || until > times.length || until > values.length)
      throw new IllegalArgumentException(s"bulk slice [$from, $until) out of bounds")
    var i = from + 1
    while (i < until) {
      require(times(i) > times(i - 1), "bulk must be strictly increasing in time")
      i += 1
    }
    val m = until - from
    if (m == 1) insertOne(times(from), values(from)) // "small insertion" (§6): no site search
    else if (m > 1) {
      try insertSorted(times, values, from, until)
      finally { cur = emptied(cur); nxt = emptied(nxt) } // also resets the buffers if a check threw
    }
  }

  /** Value i of `node` ← value i ⊗ v (a timestamp collision). */
  private def combineAt(node: FibaNode[V], i: Int, v: V): Unit = {
    lane.put(v, tmp, 0)
    lane.combineInto(node.values, i, node.values, i, tmp, 0)
  }

  /** Entries the largest bulk buffer reused across calls can hold. */
  private[core] final def retainedBulkEntries: Int = scrT.length max cur.time.length max nxt.time.length

  /** `b` cleared for reuse, or a fresh buffer if it grew past the bound. */
  private def emptied(b: Treelets[V]): Treelets[V] =
    if (b.time.length > Swag.RetainedBulk) new Treelets[V](lane) else { b.clear(); b }

  private def newScratch(cap: Int): Unit = {
    scrT = new Array[Long](cap); scrV = lane.newStore(cap); scrC = new Array[FibaNode[V]](cap + 1)
  }

  /** Insert the slice [from, until) (≥ 2 entries) of `times`/`values`. */
  private def insertSorted(times: Array[Long], values: Array[V], from: Int, until: Int): Unit = {
    // ---- Step 1: insertion-sites search (successor-style LCA hopping).
    // Step 1 adds no timestamp, so the youngest one holds throughout; an
    // empty window has none, and every site is its root leaf.
    val youngest = if (isEmpty) Long.MaxValue else youngestTime
    var prevSite: FibaNode[V] = null
    var prevLevel = 0
    var i = from
    while (i < until) {
      val t = times(i)
      // Appends (the common in-order case) go straight through the right
      // finger in O(1); other entries hop to the LCA of consecutive sites.
      var node =
        if (prevSite == null || t > youngest) fingerSearchTop(t)
        else ascendToCover(prevSite, prevLevel, t)
      var level = searchTopLevel
      var placed = false
      while (!placed) {
        val idx = node.lowerBound(t)
        if (idx < node.n && node.times(idx) == t) {
          combineAt(node, idx, values(i)) // combine now
          cur.add(node, t, null, level, rc = true)
          placed = true
        } else if (node.isLeaf) {
          val e = cur.add(node, t, null, 0, rc = false)
          lane.put(values(i), cur.value, e)
          placed = true
        } else { node = node.children(idx); level -= 1 }
      }
      prevSite = node
      prevLevel = level
      i += 1
    }

    passUpAndDown()
  }

  /** Steps 2 and 3 on the treelets queued in `cur`: the pass up, level
    * by level, then the pass down the touched spines.
    */
  private def passUpAndDown(): Unit = {
    // Dirty markers are overwritten as levels ascend, so each ends at the
    // highest touched node of its kind — where the pass down starts.
    var dirtyLeftTop: FibaNode[V]  = null
    var dirtyRightTop: FibaNode[V] = null
    var rootDirty = false
    val rootAtStart = root
    var level = 0
    while (cur.size > 0) {
      var j = 0
      while (j < cur.size) {
        if (cur.level(j) > level) { // ride along to its own level
          nxt.addFrom(cur, j)
          j += 1
        } else {
          val target = cur.target(j)
          var k = j
          var inserts = 0
          while (k < cur.size && (cur.target(k) eq target) && cur.level(k) <= level) {
            if (!cur.recompute(k)) inserts += 1
            k += 1
          }
          val total = target.n + inserts
          var lastPiece: FibaNode[V] = null
          if (total > maxEntries) {
            if (scrT.length < total) newScratch(math.max(total, 2 * scrT.length))
            interleave(target, j, k, total, scrT, scrV, scrC)
            lastPiece = bulkSplitAndPromote(target, total, level)
            if (scrT.length > Swag.RetainedBulk) newScratch(0)
            else {
              lane.release(scrV, 0, total)
              if (!target.isLeaf) FibaNode.nullOut(scrC, 0, total + 1)
            }
          } else {
            if (inserts > 0) {
              interleave(target, j, k, total, target.times, target.values, target.children)
              target.n = total
            }
            // A non-spine node gets a fresh up aggregate and propagates a
            // recomputation treelet to its parent; spine and root nodes
            // stop it (the pass down repairs them via the dirty markers).
            if ((target ne root) && !target.leftSpine && !target.rightSpine) {
              upAgg(target)
              nxt.add(target.parent, cur.time(j), null, level + 1, rc = true)
            }
          }
          // spine bookkeeping: later (higher) levels overwrite, so each
          // marker ends at the highest touched node of its kind
          if (target.leftSpine) dirtyLeftTop = target
          if (target.rightSpine) dirtyRightTop = target
          if (lastPiece != null && lastPiece.rightSpine) dirtyRightTop = lastPiece
          if (target eq root) rootDirty = true
          j = k
        }
      }
      val done = emptied(cur); cur = nxt; nxt = done
      level += 1
    }

    // Step 3. A grown root supersedes all lower markers: both spines hang
    // fresh off it.
    if (root ne rootAtStart) passDown(rootTouched = true, root, root)
    else passDown(rootDirty, dirtyLeftTop, dirtyRightTop)
  }

  // ---- search --------------------------------------------------------------

  /** Node whose subtree must contain t, found by finger search: ascend
    * from the closer finger while t falls outside the current subtree.
    * Records the node's height in `searchTopLevel`.
    */
  private def fingerSearchTop(t: Long): FibaNode[V] = {
    var level = 0
    var node = root
    if (!root.isLeaf) {
      val lo = leftFinger.firstTime
      val hi = rightFinger.lastTime
      if (t - lo >= hi - t) { // nearer the young end: ascend from the right finger
        node = rightFinger
        while ((node ne root) && t <= node.parent.lastTime) { node = node.parent; level += 1 }
      } else { // nearer the old end: ascend from the left finger
        node = leftFinger
        while ((node ne root) && t >= node.parent.firstTime) { node = node.parent; level += 1 }
      }
    }
    searchTopLevel = level
    node
  }

  /** Climb from `from` (at height `fromLevel`) to the lowest node whose
    * subtree covers `t` (successor search: only up to the LCA of
    * consecutive sites). Records the node's height in `searchTopLevel`.
    */
  private def ascendToCover(from: FibaNode[V], fromLevel: Int, t: Long): FibaNode[V] = {
    var node = from
    var level = fromLevel
    var covered = false
    while (!covered && (node ne root)) {
      val p = node.parent
      val slot = p.childSlot(node)
      if (slot < p.n && t <= p.times(slot)) {
        covered = true
        // the boundary entry itself lives in p
        if (t == p.times(slot)) { node = p; level += 1 }
      } else { node = p; level += 1 }
    }
    searchTopLevel = level
    node
  }

  // ---- interleave & bulk split ----------------------------------------------

  /** Merge the insertion treelets among [from, until) of `cur`
    * (time-sorted, targeting `node`) with the node's entries, back to
    * front, into `dT`/`dV`/`dC` (entry i at `dT`/`dV`(i), the child left of
    * it at `dC`(i)): the node's own arrays when the `total` merged entries
    * fit, the scratch area when they overflow. Recompute treelets in the
    * run are skipped (the caller refreshes aggregates). Children carried
    * by treelets land right of their entry. Linear in the merged length —
    * no sorting. The caller sets the node's count after a merge in place.
    */
  private def interleave(node: FibaNode[V], from: Int, until: Int, total: Int,
                         dT: Array[Long], dV: AnyRef, dC: Array[FibaNode[V]]): Unit = {
    val leaf = node.isLeaf
    var out = total - 1
    var oi = node.n - 1 // original entry cursor
    var ti = until - 1  // treelet cursor
    while (ti >= from) {
      if (cur.recompute(ti)) ti -= 1
      else if (oi >= 0 && node.times(oi) > cur.time(ti)) {
        dT(out) = node.times(oi); lane.copy1(node.values, oi, dV, out)
        if (!leaf) dC(out + 1) = node.children(oi + 1)
        out -= 1; oi -= 1
      } else {
        if (oi >= 0 && node.times(oi) == cur.time(ti))
          throw new AssertionError("bulk insert: collision not combined in step 1")
        dT(out) = cur.time(ti); lane.copy1(cur.value, ti, dV, out)
        if (!leaf) { val c = cur.child(ti); c.parent = node; dC(out + 1) = c }
        out -= 1; ti -= 1
      }
    }
    if (dT ne node.times) { // the node's first oi + 1 entries and child 0 are not in place
      System.arraycopy(node.times, 0, dT, 0, oi + 1)
      lane.copy(node.values, 0, dV, 0, oi + 1)
      if (!leaf) System.arraycopy(node.children, 0, dC, 0, oi + 2)
    }
  }

  /** Split an overflowed merge (`total` > 2µ-1 entries in the scratch
    * area, destined for `node`) into arity-(µ+1) pieces plus a final
    * arity-[µ,2µ] piece (Claim 1), appending the promoted separators as
    * insertion treelets for the parent (a fresh root is grown first when
    * `node` is the root). The node keeps the first piece — preserving
    * identity and left-spine flag; the last piece inherits the right-spine
    * flag. Non-spine pieces get fresh up aggregates; the pass down repairs
    * spine pieces and re-aims the fingers. Returns the last piece.
    */
  private def bulkSplitAndPromote(node: FibaNode[V], total: Int, level: Int): FibaNode[V] = {
    val mu = minArity
    val grewRoot = node eq root
    if (grewRoot) { // a fresh root takes the node as its only child c0, the left-spine top
      root = allocNode(leaf = false)
      root.children(0) = node
      node.parent = root
      node.leftSpine = true
    }
    val parent = node.parent

    // piece sizes: q pieces of µ entries, one final piece of r entries
    var r = total
    var q = 0
    while (r > maxEntries) { r -= (mu + 1); q += 1 }

    // Middle pieces are never on a spine: they get their up aggregate at
    // once. Spine pieces (the first on the left spine, the last on the
    // right spine) are repaired by the pass down; their formulas never
    // read a spine child's aggregate.
    node.load(scrT, scrV, scrC, 0, mu)
    var cursor = mu // scratch index of the next separator
    var last = node
    var pi = 1
    while (pi <= q) { // promote a separator, then cut the next piece
      val np = allocNode(node.isLeaf)
      val e = nxt.add(parent, scrT(cursor), np, level + 1, rc = false)
      lane.copy1(scrV, cursor, nxt.value, e)
      val take = if (pi < q) mu else r
      np.load(scrT, scrV, scrC, cursor + 1, take)
      if (pi < q) upAgg(np)
      cursor += take + 1
      last = np
      pi += 1
    }

    // the last piece inherits right-spine status (a just-grown root's last
    // piece becomes the right-spine top)
    if (node.rightSpine || grewRoot) {
      node.rightSpine = false
      last.rightSpine = true
    } else upAgg(last)
    if (!node.leftSpine && !node.rightSpine) upAgg(node)
    last
  }
}
