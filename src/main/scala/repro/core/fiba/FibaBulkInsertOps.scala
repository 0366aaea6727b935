package repro.core.fiba

import repro.core.Swag

/** Pending events of one level of bulk insertion's pass up, as parallel
  * arrays reused across levels and calls. Event i targets `target(i)`
  * at height `level(i)` above the leaves (at least 1: a leaf takes its
  * run in step 1); recompute-only events ride along until their level is
  * reached. An insertion event's
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
  * and an entry whose leaf is full splits as a run of one.
  *
  * Three steps:
  *  1. *insertion-sites search*: one finger search per leaf, in timestamp
  *     order; consecutive searches only climb to the least common
  *     ancestor of successive sites. The descent tracks the leaf's
  *     exclusive upper bound (the last separator passed to the right, or
  *     none on the right spine and at a root leaf), and every following
  *     bulk entry below it joins the leaf's *run*. The run merges straight from the caller's
  *     arrays into the leaf, combining collisions in place (existing ⊗
  *     new); a leaf that overflows splits at once (Claim 1), which is safe
  *     for later searches because no parent changes until level 1. An
  *     entry whose timestamp exists in an inner node is combined there and
  *     becomes a recomputation treelet riding from that node's level.
  *  2. *pass up — interleave & split*: level by level from level 1,
  *     gather each target's treelets, merge them into the node (the merge
  *     step of merge sort), and `bulkSplit` any overflowed node into
  *     arity-(µ+1) nodes plus one arity-[µ,2µ] node (Claim 1), promoting
  *     separators as next-level treelets — which stay timestamp-sorted for
  *     free.
  *  3. the shared *pass down* ([[FibaBase.passDown]]) of the touched
  *     spines, repairing Π̂(root), Π↙/Π↘ and flags; the highest spine node
  *     touched per side starts the walk, so in-order bulks never pay more
  *     than the treelet height, and a grown root repairs both spines.
  *
  * A bulk into an empty window takes the same three steps: it is one run
  * into the root leaf, so the split is a bottom-up bulk load in O(m), with
  * each piece's Π↑ computed once as it is cut.
  *
  * Nothing is allocated per entry: the bulk is read in place from the
  * caller's arrays, a leaf's run that fits merges straight into the leaf,
  * and the treelets of the levels above live in two reused [[Treelets]]
  * buffers (this level's and the next). A merge that overflows, at a leaf
  * or above, goes into one scratch area, and `bulkSplit` cuts its pieces
  * straight out of it into fixed-size nodes. The treelet buffers and the
  * scratch area grow to fit, and one that grew past [[Swag.RetainedBulk]]
  * entries is dropped once it is emptied.
  */
trait FibaBulkInsertOps[V] { self: FibaBase[V] =>

  // treelets of the level being processed and of the next one
  private var cur = new Treelets[V](lane)
  private var nxt = new Treelets[V](lane)
  // merge scratch: entry i at scrT/scrV(i), child left of it at scrC(i)
  private var scrT = Array.emptyLongArray
  private var scrV = lane.newStore(0)
  private var scrC = new Array[FibaNode[V]](1)
  // a single insert's run of one, in the form of a caller's bulk
  private val oneT = new Array[Long](1)
  private val oneV = new Array[AnyRef](1).asInstanceOf[Array[V]]

  /** Height above the leaves of the node [[fingerSearchTop]] or
    * [[ascendToCover]] last returned, and the node's exclusive upper
    * bound on timestamps (meaningless if it is on the right spine or the
    * root, which have none).
    */
  private var searchTopLevel = 0
  private var searchTopBound = 0L

  // Highest touched node of each kind, where the pass down starts. Later
  // (higher) nodes overwrite them as the pass up climbs.
  private var dirtyLeftTop: FibaNode[V]  = null
  private var dirtyRightTop: FibaNode[V] = null
  private var rootDirty = false

  /** Insert (t, v); combines with the existing value if t is present.
    * This is §6's small insertion: a collision, or a leaf with room, is
    * changed in place and repaired by `repairUpFrom` (an append to the
    * right finger by one combine); only an entry whose leaf is full goes
    * through the pass up, as a run of one.
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
          val rootAtStart = root
          oneT(0) = t; oneV(0) = v
          insertRun(node, oneT, oneV, 0, 1)
          oneV(0) = null.asInstanceOf[V]
          passUpAndDown(rootAtStart)
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
    val rootAtStart = root
    // ---- Step 1: insertion-sites search (successor-style LCA hopping),
    // one search per leaf. Only the right finger's run adds a timestamp
    // above the youngest, and it takes every entry left, so the youngest
    // holds for every search; an empty window has none, and its root leaf
    // takes the whole bulk as one run.
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
      var bound = searchTopBound
      var placed = false
      while (!placed) {
        if (node.isLeaf) { // its run: the entries below its upper bound, if it has one
          var j = i + 1
          while (j < until && ((node eq root) || node.rightSpine || times(j) < bound)) j += 1
          insertRun(node, times, values, i, j)
          i = j
          placed = true
        } else {
          val idx = node.lowerBound(t)
          if (idx < node.n && node.times(idx) == t) {
            combineAt(node, idx, values(i)) // combine now
            nxt.add(node, t, null, level, rc = true)
            i += 1
            placed = true
          } else {
            if (idx < node.n) bound = node.times(idx)
            node = node.children(idx); level -= 1
          }
        }
      }
      prevSite = node
      prevLevel = level
    }

    passUpAndDown(rootAtStart)
  }

  /** Step 1 at one leaf: merge the run [from, until) of `times`/`values`,
    * which all fall inside the leaf's bounds, into it. A merge that fits
    * goes straight into the leaf; one that overflows goes through the
    * scratch area and splits. Either way the leaf's treelets for level 1
    * go into `nxt`.
    */
  private def insertRun(leaf: FibaNode[V], times: Array[Long], values: Array[V], from: Int, until: Int): Unit = {
    // count the collisions, to know the merged length
    var dup = 0
    var oi = leaf.lowerBound(times(from))
    var ri = from
    while (oi < leaf.n && ri < until) {
      val a = leaf.times(oi)
      if (a <= times(ri)) { if (a == times(ri)) { dup += 1; ri += 1 }; oi += 1 } else ri += 1
    }
    val total = leaf.n + (until - from) - dup
    if (total > maxEntries) {
      ensureScratch(total)
      mergeRun(leaf, times, values, from, until, total, scrT, scrV)
    } else mergeRun(leaf, times, values, from, until, total, leaf.times, leaf.values)
    settle(leaf, total, 0, times(from))
  }

  /** Merge the run [from, until) of `times`/`values` with the leaf's
    * entries, back to front, into `dT`/`dV`: the leaf's own arrays when the
    * `total` merged entries fit, the scratch area when they overflow. A
    * collision combines existing ⊗ new in the leaf, as in step 1 above the
    * leaves.
    */
  private def mergeRun(leaf: FibaNode[V], times: Array[Long], values: Array[V], from: Int, until: Int,
                       total: Int, dT: Array[Long], dV: AnyRef): Unit = {
    var out = total - 1
    var oi = leaf.n - 1 // original entry cursor
    var ri = until - 1  // run cursor
    while (ri >= from) {
      if (oi >= 0 && leaf.times(oi) >= times(ri)) {
        if (leaf.times(oi) == times(ri)) { combineAt(leaf, oi, values(ri)); ri -= 1 }
        dT(out) = leaf.times(oi); lane.copy1(leaf.values, oi, dV, out)
        oi -= 1
      } else {
        dT(out) = times(ri); lane.put(values(ri), dV, out)
        ri -= 1
      }
      out -= 1
    }
    if (dT ne leaf.times) { // the leaf's first oi + 1 entries are not in place
      System.arraycopy(leaf.times, 0, dT, 0, oi + 1)
      lane.copy(leaf.values, 0, dV, 0, oi + 1)
    }
  }

  /** Steps 2 and 3 on the treelets step 1 queued in `nxt`: the pass up,
    * level by level from level 1, then the pass down the touched spines.
    */
  private def passUpAndDown(rootAtStart: FibaNode[V]): Unit = {
    var level = 0
    while (nxt.size > 0) {
      val done = emptied(cur); cur = nxt; nxt = done
      level += 1
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
          if (total > maxEntries) {
            ensureScratch(total)
            interleave(target, j, k, total, scrT, scrV, scrC)
          } else if (inserts > 0) interleave(target, j, k, total, target.times, target.values, target.children)
          settle(target, total, level, cur.time(j))
          j = k
        }
      }
    }
    cur = emptied(cur)

    // Step 3. A grown root supersedes all lower markers: both spines hang
    // fresh off it.
    if (root ne rootAtStart) passDown(rootTouched = true, root, root)
    else passDown(rootDirty, dirtyLeftTop, dirtyRightTop)
    dirtyLeftTop = null; dirtyRightTop = null; rootDirty = false
  }

  /** After `node` at `level` took its merge of `total` entries (in the
    * scratch area if they overflow, else in place): an overflow splits; a
    * non-spine node that fit gets a fresh up aggregate and propagates a
    * recomputation treelet (at time t) to its parent; spine and root nodes
    * stop it, and the dirty markers name them for the pass down.
    */
  private def settle(node: FibaNode[V], total: Int, level: Int, t: Long): Unit = {
    if (total > maxEntries) bulkSplitAndPromote(node, total, level)
    else {
      node.n = total
      if ((node ne root) && !node.leftSpine && !node.rightSpine) {
        upAgg(node)
        nxt.add(node.parent, t, null, level + 1, rc = true)
      }
    }
    if (node.leftSpine) dirtyLeftTop = node
    if (node.rightSpine) dirtyRightTop = node
    if (node eq root) rootDirty = true
  }

  private def ensureScratch(total: Int): Unit =
    if (scrT.length < total) newScratch(math.max(total, 2 * scrT.length))

  // ---- search --------------------------------------------------------------

  /** Node whose subtree must contain t, found by finger search: ascend
    * from the closer finger while t falls outside the current subtree.
    * Records the node's height and upper bound.
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
        if (node ne root) searchTopBound = node.parent.firstTime // it is c0
      }
    }
    searchTopLevel = level
    node
  }

  /** Climb from `from` (at height `fromLevel`) to the lowest node whose
    * subtree covers `t` (successor search: only up to the LCA of
    * consecutive sites). Records the node's height and upper bound.
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
        searchTopBound = p.times(slot)
        // the boundary entry itself lives in p
        if (t == p.times(slot)) { node = p; level += 1 }
      } else { node = p; level += 1 }
    }
    searchTopLevel = level
    node
  }

  // ---- interleave & bulk split ----------------------------------------------

  /** Merge the insertion treelets among [from, until) of `cur`
    * (time-sorted, targeting the inner node `node`) with the node's
    * entries, back to front, into `dT`/`dV`/`dC` (entry i at `dT`/`dV`(i),
    * the child left of it at `dC`(i)): the node's own arrays when the
    * `total` merged entries fit, the scratch area when they overflow. Recompute treelets in the
    * run are skipped (the caller refreshes aggregates). Children carried
    * by treelets land right of their entry. Linear in the merged length —
    * no sorting. The caller sets the node's count after a merge in place.
    */
  private def interleave(node: FibaNode[V], from: Int, until: Int, total: Int,
                         dT: Array[Long], dV: AnyRef, dC: Array[FibaNode[V]]): Unit = {
    var out = total - 1
    var oi = node.n - 1 // original entry cursor
    var ti = until - 1  // treelet cursor
    while (ti >= from) {
      if (cur.recompute(ti)) ti -= 1
      else if (oi >= 0 && node.times(oi) > cur.time(ti)) {
        dT(out) = node.times(oi); lane.copy1(node.values, oi, dV, out)
        dC(out + 1) = node.children(oi + 1)
        out -= 1; oi -= 1
      } else {
        if (oi >= 0 && node.times(oi) == cur.time(ti))
          throw new AssertionError("bulk insert: collision not combined in step 1")
        dT(out) = cur.time(ti); lane.copy1(cur.value, ti, dV, out)
        val c = cur.child(ti); c.parent = node; dC(out + 1) = c
        out -= 1; ti -= 1
      }
    }
    if (dT ne node.times) { // the node's first oi + 1 entries and child 0 are not in place
      System.arraycopy(node.times, 0, dT, 0, oi + 1)
      lane.copy(node.values, 0, dV, 0, oi + 1)
      System.arraycopy(node.children, 0, dC, 0, oi + 2)
    }
  }

  /** Split an overflowed merge (`total` > 2µ-1 entries in the scratch
    * area, destined for `node`) into arity-(µ+1) pieces plus a final
    * arity-[µ,2µ] piece (Claim 1), appending the promoted separators as
    * insertion treelets for the parent (a fresh root is grown first when
    * `node` is the root). The node keeps the first piece — preserving
    * identity and left-spine flag; the last piece inherits the right-spine
    * flag and becomes the right dirty marker. Non-spine pieces get fresh up
    * aggregates; the pass down repairs spine pieces and re-aims the
    * fingers. Last, the scratch area drops its references (or is dropped,
    * if it grew past the bound).
    */
  private def bulkSplitAndPromote(node: FibaNode[V], total: Int, level: Int): Unit = {
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
      dirtyRightTop = last
    } else upAgg(last)
    if (!node.leftSpine && !node.rightSpine) upAgg(node)

    if (scrT.length > Swag.RetainedBulk) newScratch(0)
    else {
      lane.release(scrV, 0, total)
      if (!node.isLeaf) FibaNode.nullOut(scrC, 0, total + 1)
    }
  }
}
