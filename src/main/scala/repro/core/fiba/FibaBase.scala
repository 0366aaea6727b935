package repro.core.fiba

import repro.core.Monoid

/** Shared state and aggregate machinery of the FiBA finger B-tree (§3.2).
  *
  * Invariants (re-established by the end of every operation):
  *  - height: all leaves at the same depth;
  *  - order: strictly increasing timestamps in node+subtree order;
  *  - arity: non-root arity in [minArity, 2*minArity], root in [2, 2*minArity]
  *    (a root leaf may hold any number of entries in [0, 2*minArity-1]);
  *  - aggregates: root stores Π̂ (inner), left-spine nodes Π↙, right-spine
  *    nodes Π↘, and everything else Π↑ (up), so `query()` is
  *    Π↙(leftFinger) ⊗ Π̂(root) ⊗ Π↘(rightFinger) — constant time.
  *
  * Every update ends in the same step 3, [[passDown]]: bulk evict (§4),
  * bulk insert (§5) and §6's small updates (through [[repairUpFrom]]) each
  * name the root and the highest spine nodes they touched, and it repairs
  * Π̂(root), Π↙, Π↘, the spine flags and the fingers from there.
  */
abstract class FibaBase[V](val minArity: Int, val monoid: Monoid[V], val useFreeList: Boolean) {
  require(minArity >= 2, "MIN_ARITY must be > 1")
  val maxArity: Int = 2 * minArity
  /** Max entries per node = MAX_ARITY - 1. */
  protected val maxEntries: Int = maxArity - 1
  /** Slot of a node's `agg` in its value store, after the entry slots. */
  protected final val aggSlot: Int = maxEntries

  /** Where values and aggregates live: inline longs for a packed monoid. */
  protected final val lane: Lane[V] = Lane(monoid)
  /** One-slot scratch store for an operand or a partial result. */
  protected final val tmp: AnyRef = lane.newStore(1)

  protected var root: FibaNode[V] = allocNode(leaf = true)
  lane.setIdentity(root.values, aggSlot)
  protected var leftFinger: FibaNode[V]  = root
  protected var rightFinger: FibaNode[V] = root

  // ---- node lifetime (§6) ------------------------------------------------

  /** A fresh node of the given kind. */
  protected final def allocNode(leaf: Boolean): FibaNode[V] = new FibaNode[V](leaf, maxEntries, lane)

  /** Release `n` and its whole subtree, which the caller has unlinked from
    * the tree. By default this is §6's deferred free list at O(1): the JVM
    * collector reclaims the subtree once nothing reaches it. The `nofl`
    * ablation instead walks the subtree and clears every node, O(subtree)
    * like a C++ `delete` per node, skipping child slots the caller already
    * detached (nulled).
    */
  protected final def freeNode(n: FibaNode[V]): Unit = if (!useFreeList) {
    if (!n.isLeaf) {
      var i = 0
      while (i <= n.n) { val c = n.children(i); if (c != null) freeNode(c); i += 1 }
    }
    n.clear()
    n.parent = null
  }

  // ---- public window accessors -------------------------------------------

  /** Emptiness is structural: a bulk evict cannot afford to count the
    * entries it discards (the whole point of O(log m)), so no global
    * entry counter is kept — `sizeByTraversal` serves tests/diagnostics.
    */
  final def isEmpty: Boolean = root.isLeaf && root.n == 0

  /** Oldest timestamp; the window must be nonempty. */
  final def oldestTime: Long = leftFinger.firstTime
  /** Youngest timestamp; the window must be nonempty. */
  final def youngestTime: Long = rightFinger.lastTime

  /** Π↙(leftFinger) ⊗ Π̂(root) ⊗ Π↘(rightFinger); Π̂(root) alone for a
    * root leaf. Constant time.
    */
  final def queryAgg(): V = {
    val a = aggSlot
    if (root.isLeaf) lane.get(root.values, a)
    else {
      lane.combineInto(tmp, 0, root.values, a, rightFinger.values, a)
      lane.combineInto(tmp, 0, leftFinger.values, a, tmp, 0)
      lane.get(tmp, 0)
    }
  }

  // ---- location-sensitive aggregate formulas ------------------------------
  // Each folds left in timestamp order, from the identity or a copy of its
  // first operand, into a value slot: the node's `agg`, or (d, di) for Π̂.

  private final def foldEntries(y: FibaNode[V], d: AnyRef, di: Int): Unit = {
    lane.setIdentity(d, di)
    var i = 0
    while (i < y.n) { lane.combineInto(d, di, d, di, y.values, i); i += 1 }
  }

  /** Π↑(y): all children and values in timestamp order, into y's `agg`.
    * Children must store up aggregates (never call on a node with spine
    * children).
    */
  protected final def upAgg(y: FibaNode[V]): Unit = {
    val a = aggSlot
    val d = y.values
    if (y.isLeaf) foldEntries(y, d, a)
    else {
      lane.copy1(y.children(0).values, a, d, a)
      var i = 0
      while (i < y.n) {
        lane.combineInto(d, a, d, a, d, i)
        lane.combineInto(d, a, d, a, y.children(i + 1).values, a)
        i += 1
      }
    }
  }

  /** Π̂(y): y's values and inner children, excluding c0 and c_{a-1}, into
    * slot `di` of store `d`.
    */
  protected final def innerAgg(y: FibaNode[V], d: AnyRef, di: Int): Unit = {
    if (y.isLeaf) foldEntries(y, d, di)
    else if (y.n == 0) lane.setIdentity(d, di)
    else {
      lane.copy1(y.values, 0, d, di)
      var i = 1
      while (i < y.n) {
        lane.combineInto(d, di, d, di, y.children(i).values, aggSlot)
        lane.combineInto(d, di, d, di, y.values, i)
        i += 1
      }
    }
  }

  /** Π↙(y) = Π̂(y) ⊗ Π↑(c_{a-1}) ⊗ (1 if parent is root else Π↙(parent)),
    * into y's `agg`.
    */
  protected final def leftAgg(y: FibaNode[V]): Unit = {
    val a = aggSlot
    val d = y.values
    innerAgg(y, d, a)
    if (!y.isLeaf) lane.combineInto(d, a, d, a, y.lastChild.values, a)
    if (y.parent != null && (y.parent ne root)) lane.combineInto(d, a, d, a, y.parent.values, a)
  }

  /** Π↘(y) = (1 if parent is root else Π↘(parent)) ⊗ Π↑(c0) ⊗ Π̂(y), into
    * y's `agg` (Π̂(y) goes through `tmp`).
    */
  protected final def rightAgg(y: FibaNode[V]): Unit = {
    val a = aggSlot
    val d = y.values
    innerAgg(y, tmp, 0)
    if (y.parent != null && (y.parent ne root)) lane.copy1(y.parent.values, a, d, a)
    else lane.setIdentity(d, a)
    if (!y.isLeaf) lane.combineInto(d, a, d, a, y.children(0).values, a)
    lane.combineInto(d, a, d, a, tmp, 0)
  }

  // ---- aggregate repair ----------------------------------------------------

  /** Repair stored aggregates after a local change at `n` (§6): recompute
    * up aggregates until the first spine or root ancestor, then hand that
    * node to the pass down.
    */
  protected final def repairUpFrom(n: FibaNode[V]): Unit = {
    var cur = n
    while ((cur ne root) && !cur.leftSpine && !cur.rightSpine) {
      upAgg(cur)
      cur = cur.parent
    }
    passDown(cur eq root, if (cur.leftSpine) cur else null, if (cur.rightSpine) cur else null)
  }

  /** Step 3 of every update (§4, §5; §6's small updates are its one-node
    * case): recompute Π̂(root) when the root was touched or is a top, then
    * repair each non-null spine from its top down to the finger, refreshing
    * spine flags and re-aiming the finger. A top equal to the root stands
    * for the root and that whole spine; a root leaf gets both fingers. Spine
    * aggregates read their parent's, so each walk runs top-down, and the
    * spine nodes above a top must already be valid.
    */
  protected final def passDown(rootTouched: Boolean, leftTop: FibaNode[V], rightTop: FibaNode[V]): Unit = {
    if (rootTouched || (leftTop eq root) || (rightTop eq root)) {
      // a root that changed identity may still point up and carry the
      // flags of the spine it came from
      root.parent = null; root.leftSpine = false; root.rightSpine = false
      innerAgg(root, root.values, aggSlot)
    }
    if (root.isLeaf) { leftFinger = root; rightFinger = root }
    else {
      if (leftTop != null) repairLeftSpineFrom(if (leftTop eq root) root.children(0) else leftTop)
      if (rightTop != null) repairRightSpineFrom(if (rightTop eq root) root.lastChild else rightTop)
    }
  }

  /** Recompute Π↙ top-down from `top` (a left-spine node whose parent's
    * aggregate is already valid) to the leftmost leaf; refreshes spine
    * flags along the walk and re-aims the left finger.
    */
  private def repairLeftSpineFrom(top: FibaNode[V]): Unit = {
    var cur = top
    while (true) {
      cur.leftSpine = true
      leftAgg(cur)
      if (cur.isLeaf) { leftFinger = cur; return }
      cur = cur.children(0)
    }
  }

  /** Mirror image of [[repairLeftSpineFrom]] for the right spine. */
  private def repairRightSpineFrom(top: FibaNode[V]): Unit = {
    var cur = top
    while (true) {
      cur.rightSpine = true
      rightAgg(cur)
      if (cur.isLeaf) { rightFinger = cur; return }
      cur = cur.lastChild
    }
  }

  // ---- size and contents (O(n)) ------------------------------------------

  /** Number of distinct timestamps, by traversal. */
  final def sizeByTraversal: Int = {
    def rec(n: FibaNode[V]): Int = {
      var s = n.n
      if (!n.isLeaf) { var i = 0; while (i <= n.n) { s += rec(n.children(i)); i += 1 } }
      s
    }
    rec(root)
  }

  /** All window entries in timestamp order as pairs — O(n); `snapshot()`. */
  final def toEntries: IndexedSeq[(Long, V)] = {
    val times = new Array[Long](sizeByTraversal)
    val values = new Array[AnyRef](times.length).asInstanceOf[Array[V]]
    copyEntriesTo(times, values)
    IndexedSeq.tabulate(times.length)(i => (times(i), values(i)))
  }

  /** Copy the window's entries in timestamp order into `times`/`values`
    * from index 0; both must hold [[sizeByTraversal]] entries. O(n), with
    * no allocation per entry beyond what `values` boxes.
    */
  final def copyEntriesTo(times: Array[Long], values: Array[V]): Unit = {
    def rec(n: FibaNode[V], from: Int): Int = {
      var k = from
      var i = 0
      while (i < n.n) {
        if (!n.isLeaf) k = rec(n.children(i), k)
        times(k) = n.times(i); values(k) = lane.get(n.values, i)
        k += 1; i += 1
      }
      if (n.isLeaf) k else rec(n.lastChild, k)
    }
    rec(root, 0)
  }

  // ---- invariant validation (tests) ---------------------------------------

  /** The root's value store, for tests of the lane's layout. */
  private[core] final def rootValues: AnyRef = root.values

  /** Recursively recompute what every stored aggregate should be and check
    * all structural invariants. Throws on the first violation. O(n); for
    * property tests only. Use exact monoids (Long sum / Vector concat) —
    * floating-point sums may drift between groupings. A packed monoid's
    * aggregates must match bit for bit.
    */
  final def validate(): Unit = {
    def fail(msg: String): Nothing = throw new AssertionError(s"FiBA invariant violated: $msg\n${dump()}")

    // Reference Π↑ ignoring stored aggs.
    def value(n: FibaNode[V], i: Int): V = lane.get(n.values, i)
    def refFold(n: FibaNode[V]): V = (0 until n.n).foldLeft(monoid.identity)((acc, i) => monoid.combine(acc, value(n, i)))
    def refUp(n: FibaNode[V]): V =
      if (n.isLeaf) refFold(n)
      else {
        var acc = refUp(n.children(0))
        var i = 0
        while (i < n.n) {
          acc = monoid.combine(acc, value(n, i))
          acc = monoid.combine(acc, refUp(n.children(i + 1)))
          i += 1
        }
        acc
      }
    def refInner(n: FibaNode[V]): V =
      if (n.isLeaf) refFold(n)
      else if (n.n == 0) monoid.identity
      else {
        var acc = value(n, 0)
        var i = 1
        while (i < n.n) {
          acc = monoid.combine(acc, refUp(n.children(i)))
          acc = monoid.combine(acc, value(n, i))
          i += 1
        }
        acc
      }
    def refLeft(n: FibaNode[V]): V = {
      var acc = refInner(n)
      if (!n.isLeaf) acc = monoid.combine(acc, refUp(n.lastChild))
      if (n.parent != null && (n.parent ne root)) acc = monoid.combine(acc, refLeft(n.parent))
      acc
    }
    def refRight(n: FibaNode[V]): V = {
      var acc = if (n.parent != null && (n.parent ne root)) refRight(n.parent) else monoid.identity
      if (!n.isLeaf) acc = monoid.combine(acc, refUp(n.children(0)))
      monoid.combine(acc, refInner(n))
    }

    var leafDepth = -1
    def rec(n: FibaNode[V], depth: Int, lo: Option[Long], hi: Option[Long],
            onLeft: Boolean, onRight: Boolean): Unit = {
      // flat layout: fixed capacities (entries, then agg), nothing pinned
      // past the count
      if (n.times.length != maxEntries || lane.slots(n.values) != maxEntries + 1)
        fail(s"entry arrays of capacity ${n.times.length}/${lane.slots(n.values)}, not $maxEntries/${maxEntries + 1}, in $n")
      var i = n.n
      while (i < maxEntries) { if (lane.isSet(n.values, i)) fail(s"value slot $i past the count is set in $n"); i += 1 }
      if (!n.isLeaf) {
        if (n.children.length != maxArity)
          fail(s"children array of capacity ${n.children.length}, not $maxArity, in $n")
        i = 0
        while (i < maxArity) {
          if ((n.children(i) == null) != (i > n.n)) fail(s"child slot $i disagrees with entry count ${n.n} in $n")
          i += 1
        }
      }
      // order within node and against subtree bounds
      i = 0
      while (i < n.n) {
        if (i > 0 && n.times(i - 1) >= n.times(i)) fail(s"unordered entries in $n")
        lo.foreach(b => if (n.times(i) <= b) fail(s"entry ${n.times(i)} <= lower bound $b in $n"))
        hi.foreach(b => if (n.times(i) >= b) fail(s"entry ${n.times(i)} >= upper bound $b in $n"))
        i += 1
      }
      // arity
      if (n eq root) {
        if (!n.isLeaf && (n.arity < 2 || n.arity > maxArity)) fail(s"root arity ${n.arity}")
        if (n.isLeaf && n.n > maxEntries) fail(s"root leaf entries ${n.n}")
      } else {
        if (n.arity < minArity || n.arity > maxArity) fail(s"arity ${n.arity} in $n")
      }
      // flags
      if ((n eq root) && (n.leftSpine || n.rightSpine)) fail(s"root carries spine flag: $n")
      if ((n ne root) && n.leftSpine != onLeft) fail(s"leftSpine flag wrong in $n (expect $onLeft)")
      if ((n ne root) && n.rightSpine != onRight) fail(s"rightSpine flag wrong in $n (expect $onRight)")
      // height
      if (n.isLeaf) {
        if (leafDepth == -1) leafDepth = depth
        else if (leafDepth != depth) fail(s"leaf depth $depth != $leafDepth")
      }
      // aggregate
      val expected =
        if (n eq root) refInner(n)
        else if (onLeft) refLeft(n)
        else if (onRight) refRight(n)
        else refUp(n)
      if (!lane.holds(n.values, aggSlot, expected))
        fail(s"agg mismatch in $n: stored=${lane.get(n.values, aggSlot)} expected=$expected")
      // children
      i = 0
      while (!n.isLeaf && i <= n.n) {
        val c = n.children(i)
        if (c.parent ne n) fail(s"parent pointer wrong for child $i of $n")
        val childLo = if (i == 0) lo else Some(n.times(i - 1))
        val childHi = if (i == n.n) hi else Some(n.times(i))
        rec(c, depth + 1,
            childLo, childHi,
            onLeft = (n eq root) && i == 0 || onLeft && i == 0,
            onRight = (n eq root) && i == n.n || onRight && i == n.n)
        i += 1
      }
    }
    rec(root, 0, None, None, onLeft = false, onRight = false)

    // fingers
    var lf = root; while (!lf.isLeaf) lf = lf.children(0)
    var rf = root; while (!rf.isLeaf) rf = rf.lastChild
    if (leftFinger ne lf) fail("left finger off")
    if (rightFinger ne rf) fail("right finger off")
    if (root.parent != null) fail("root has a parent")
  }

  /** Multi-line dump of the tree for failure messages. */
  final def dump(): String = {
    val sb = new StringBuilder
    def rec(n: FibaNode[V], indent: Int): Unit = {
      sb.append("  " * indent).append(n.toString)
      if (n eq leftFinger) sb.append(" <LF")
      if (n eq rightFinger) sb.append(" <RF")
      sb.append('\n')
      if (!n.isLeaf) n.children.iterator.take(n.n + 1).foreach(rec(_, indent + 1))
    }
    rec(root, 0)
    sb.toString
  }
}
