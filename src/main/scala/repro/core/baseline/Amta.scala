package repro.core.baseline

import repro.core.{Monoid, Swag}
import scala.collection.mutable.ArrayBuffer

/** AMTA-style amortized monoid tree aggregator [Villalba et al. 2019].
  *
  * In-order window kept as a left-to-right forest of perfect binary
  * aggregation trees. Appending adds a rank-0 tree and merges equal-rank
  * trees from the right like a binary counter — amortized O(1) per insert.
  * `bulkEvict(t)` drops whole trees from the left and splits the one tree
  * straddling the boundary along its search path, keeping the O(log n)
  * right-hand subtrees — O(log n) per bulk evict regardless of bulk size,
  * matching AMTA's published bound. (Our single evict is also the O(log n)
  * boundary cut; AMTA proper amortizes it to O(1) — noted in DESIGN.md.)
  * No bulk insert: like the paper's `amta`, bulk inserts loop.
  */
final class Amta[V](val monoid: Monoid[V]) extends Swag[V] {

  /** Perfect binary tree node; leaves carry one window entry. */
  private final class TNode(
      val rank: Int,
      val agg: V,
      val minT: Long,
      val maxT: Long,
      val leaves: Int,
      val left: TNode,
      val right: TNode,
  )

  private def leaf(t: Long, v: V) = new TNode(0, v, t, t, 1, null, null)
  private def join(l: TNode, r: TNode) =
    new TNode(l.rank + 1, monoid.combine(l.agg, r.agg), l.minT, r.maxT, l.leaves + r.leaves, l, r)

  // Oldest tree first. Ranks are strictly increasing right-to-left among
  // freshly appended trees; eviction leftovers on the left may be smaller.
  private val forest = ArrayBuffer.empty[TNode]
  private var count = 0

  val name        = "amta"
  val supportsOoo = false

  def size: Int = count
  def isEmpty: Boolean = forest.isEmpty
  def oldestTime: Long = forest.head.minT
  def youngestTime: Long = forest.last.maxT

  def query(): V = {
    var acc = monoid.identity
    var i = 0
    while (i < forest.length) { acc = monoid.combine(acc, forest(i).agg); i += 1 }
    acc
  }

  def insert(t: Long, v: V): Unit = {
    if (!isEmpty && t <= youngestTime)
      throw new IllegalArgumentException(s"$name is in-order only: t=$t <= max=$youngestTime")
    forest += leaf(t, v)
    count += 1
    // Binary-counter carry: merge equal-rank trees at the right end.
    while (forest.length >= 2 &&
           forest(forest.length - 1).rank == forest(forest.length - 2).rank) {
      val r = forest.remove(forest.length - 1)
      val l = forest.remove(forest.length - 1)
      forest += join(l, r)
    }
  }

  def evict(): Unit = if (!isEmpty) bulkEvict(oldestTime)

  override def bulkEvict(t: Long): Unit = {
    // Drop whole trees that are entirely <= t.
    var dropped = 0
    while (forest.nonEmpty && forest.head.maxT <= t) {
      dropped += forest.head.leaves
      forest.remove(0)
    }
    // Split the straddling tree (if any) along the boundary path.
    if (forest.nonEmpty && forest.head.minT <= t) {
      val straddler = forest.remove(0)
      val survivors = ArrayBuffer.empty[TNode]
      var cur = straddler
      while (cur != null) {
        if (cur.rank == 0) { // leaf: survives iff strictly newer than t
          if (cur.minT > t) survivors += cur else dropped += 1
          cur = null
        } else if (cur.left.maxT <= t) { // whole left half evicted
          dropped += cur.left.leaves
          cur = cur.right
        } else { // boundary inside the left half; right half survives whole
          survivors += cur.right // appended after deeper (older) survivors: fix order below
          cur = cur.left
        }
      }
      // The descent collects survivors youngest-first (root's right half
      // first, deeper = older); reverse to oldest-first before prepending.
      forest.prependAll(survivors.reverse)
    }
    count -= dropped
  }
}
