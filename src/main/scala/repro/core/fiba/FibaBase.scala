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

  protected var root: FibaNode[V] = newNode(leaf = true)
  root.agg = monoid.identity
  protected var leftFinger: FibaNode[V]  = root
  protected var rightFinger: FibaNode[V] = root

  // ---- deferred free list (§6) -------------------------------------------

  /** Deferred free list: bulk evict pushes only the O(log m) boundary
    * children; reuse pops one node and pushes its children — O(1)/alloc.
    */
  private val pool = new java.util.ArrayDeque[FibaNode[V]]()

  private def newNode(leaf: Boolean): FibaNode[V] = new FibaNode[V](leaf, maxEntries)

  /** Release `n` and its whole subtree. Child slots already detached
    * (nulled) by the caller are skipped.
    */
  protected final def freeNode(n: FibaNode[V]): Unit = {
    n.parent = null
    if (useFreeList) pool.push(n)
    else { // ablation: eager recursive reclamation, O(subtree) like delete
      if (!n.isLeaf) {
        var i = 0
        while (i <= n.n) { val c = n.children(i); if (c != null) freeNode(c); i += 1 }
      }
      n.reset(n.isLeaf)
    }
  }

  protected final def allocNode(leaf: Boolean): FibaNode[V] = {
    if (useFreeList && !pool.isEmpty) {
      val n = pool.pop()
      if (!n.isLeaf) {
        var i = 0
        while (i <= n.n) { val c = n.children(i); if (c != null) pool.push(c); i += 1 }
      }
      n.reset(leaf)
      n
    } else newNode(leaf)
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
    if (root.isLeaf) root.agg
    else monoid.combine(leftFinger.agg, monoid.combine(root.agg, rightFinger.agg))
  }

  // ---- location-sensitive aggregate formulas ------------------------------

  private final def foldEntries(y: FibaNode[V]): V = {
    var acc = monoid.identity
    var i = 0
    while (i < y.n) { acc = monoid.combine(acc, y.value(i)); i += 1 }
    acc
  }

  /** Π↑(y): all children and values in timestamp order. Children must
    * store up aggregates (never call on a node with spine children).
    */
  protected final def upAgg(y: FibaNode[V]): V = {
    if (y.isLeaf) foldEntries(y)
    else {
      var acc = y.children(0).agg
      var i = 0
      while (i < y.n) {
        acc = monoid.combine(acc, y.value(i))
        acc = monoid.combine(acc, y.children(i + 1).agg)
        i += 1
      }
      acc
    }
  }

  /** Π̂(y): y's values and inner children, excluding c0 and c_{a-1}. */
  protected final def innerAgg(y: FibaNode[V]): V = {
    if (y.isLeaf) foldEntries(y)
    else if (y.n == 0) monoid.identity
    else {
      var acc = y.value(0)
      var i = 1
      while (i < y.n) {
        acc = monoid.combine(acc, y.children(i).agg)
        acc = monoid.combine(acc, y.value(i))
        i += 1
      }
      acc
    }
  }

  /** Π↙(y) = Π̂(y) ⊗ Π↑(c_{a-1}) ⊗ (1 if parent is root else Π↙(parent)). */
  protected final def leftAgg(y: FibaNode[V]): V = {
    var acc = innerAgg(y)
    if (!y.isLeaf) acc = monoid.combine(acc, y.lastChild.agg)
    if (y.parent != null && (y.parent ne root)) acc = monoid.combine(acc, y.parent.agg)
    acc
  }

  /** Π↘(y) = (1 if parent is root else Π↘(parent)) ⊗ Π↑(c0) ⊗ Π̂(y). */
  protected final def rightAgg(y: FibaNode[V]): V = {
    var acc = if (y.parent != null && (y.parent ne root)) y.parent.agg else monoid.identity
    if (!y.isLeaf) acc = monoid.combine(acc, y.children(0).agg)
    monoid.combine(acc, innerAgg(y))
  }

  // ---- aggregate repair ----------------------------------------------------

  /** Repair stored aggregates after a local change at `n` (§6): recompute
    * up aggregates until the first spine or root ancestor, then hand that
    * node to the pass down.
    */
  protected final def repairUpFrom(n: FibaNode[V]): Unit = {
    var cur = n
    while ((cur ne root) && !cur.leftSpine && !cur.rightSpine) {
      cur.agg = upAgg(cur)
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
      root.agg = innerAgg(root)
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
      cur.agg = leftAgg(cur)
      if (cur.isLeaf) { leftFinger = cur; return }
      cur = cur.children(0)
    }
  }

  /** Mirror image of [[repairLeftSpineFrom]] for the right spine. */
  private def repairRightSpineFrom(top: FibaNode[V]): Unit = {
    var cur = top
    while (true) {
      cur.rightSpine = true
      cur.agg = rightAgg(cur)
      if (cur.isLeaf) { rightFinger = cur; return }
      cur = cur.lastChild
    }
  }

  // ---- size (diagnostics only; O(n)) --------------------------------------

  /** Number of distinct timestamps, by traversal — test/diagnostic use. */
  final def sizeByTraversal: Int = {
    def rec(n: FibaNode[V]): Int =
      if (n.isLeaf) n.n else n.n + n.children.iterator.take(n.n + 1).map(rec).sum
    rec(root)
  }

  /** All window entries in timestamp order — O(n); used for state-store
    * checkpointing by the streaming operator and by tests.
    */
  final def toEntries: IndexedSeq[(Long, V)] = {
    val buf = scala.collection.mutable.ArrayBuffer.empty[(Long, V)]
    def rec(n: FibaNode[V]): Unit = {
      if (n.isLeaf) {
        var i = 0
        while (i < n.n) { buf += ((n.times(i), n.value(i))); i += 1 }
      } else {
        var i = 0
        while (i < n.n) {
          rec(n.children(i))
          buf += ((n.times(i), n.value(i)))
          i += 1
        }
        rec(n.lastChild)
      }
    }
    rec(root)
    buf.toIndexedSeq
  }

  // ---- invariant validation (tests) ---------------------------------------

  /** Recursively recompute what every stored aggregate should be and check
    * all structural invariants. Throws on the first violation. O(n); for
    * property tests only. Use exact monoids (Long sum / Vector concat) —
    * floating-point sums may drift between groupings.
    */
  final def validate(): Unit = {
    def fail(msg: String): Nothing = throw new AssertionError(s"FiBA invariant violated: $msg\n${dump()}")

    // Reference Π↑ ignoring stored aggs.
    def refUp(n: FibaNode[V]): V =
      if (n.isLeaf) foldEntries(n)
      else {
        var acc = refUp(n.children(0))
        var i = 0
        while (i < n.n) {
          acc = monoid.combine(acc, n.value(i))
          acc = monoid.combine(acc, refUp(n.children(i + 1)))
          i += 1
        }
        acc
      }
    def refInner(n: FibaNode[V]): V =
      if (n.isLeaf) foldEntries(n)
      else if (n.n == 0) monoid.identity
      else {
        var acc = n.value(0)
        var i = 1
        while (i < n.n) {
          acc = monoid.combine(acc, refUp(n.children(i)))
          acc = monoid.combine(acc, n.value(i))
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
      // flat layout: fixed capacities, nothing pinned past the count
      if (n.times.length != maxEntries || n.values.length != maxEntries)
        fail(s"entry arrays of capacity ${n.times.length}/${n.values.length}, not $maxEntries, in $n")
      var i = n.n
      while (i < maxEntries) { if (n.values(i) != null) fail(s"value slot $i past the count is set in $n"); i += 1 }
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
      if (n.agg != expected) fail(s"agg mismatch in $n: stored=${n.agg} expected=$expected")
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
