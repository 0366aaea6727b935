package repro.core.fiba

import repro.core.{Monoid, Swag}

/** The complete FiBA finger B-tree: native bulk eviction (§4,
  * `FibaBulkEvictOps`, which is also single evict at m = 1) and bulk
  * insertion (§5, `FibaBulkInsertOps`, which is also single insert: §6's
  * small insertion in place, and a full leaf's split through §5's pass
  * up).
  * Nodes are allocated fresh, and the JVM collector is §6's deferred free
  * list: a bulk evict unlinks each evicted subtree in O(1).
  * `useFreeList = false` reproduces the paper's "nofl" memory-management
  * ablation (Fig 10): evicted subtrees are walked and cleared eagerly,
  * costing O(m) per bulk evict instead of O(log m).
  */
final class FibaTree[V](minArity0: Int, monoid0: Monoid[V], useFreeList0: Boolean = true)
    extends FibaBase[V](minArity0, monoid0, useFreeList0)
    with FibaBulkEvictOps[V]
    with FibaBulkInsertOps[V]

/** The `Swag` face of a `FibaTree`, shared by `BFiba` and `NbFiba`, which
  * differ only in how they run bulk operations.
  */
sealed abstract class FibaSwag[V](minArity: Int, val monoid: Monoid[V], useFreeList: Boolean)
    extends Swag[V] {
  protected final val tree = new FibaTree[V](minArity, monoid, useFreeList)
  val supportsOoo = true

  def size: Int = tree.sizeByTraversal // O(n), like a snapshot
  def isEmpty: Boolean = tree.isEmpty
  def oldestTime: Long = tree.oldestTime
  def youngestTime: Long = tree.youngestTime
  def query(): V = tree.queryAgg()
  def insert(t: Long, v: V): Unit = tree.insertOne(t, v)
  def evict(): Unit = tree.evictOldest()
  override def snapshot(): Option[IndexedSeq[(Long, V)]] = Some(tree.toEntries)
  override def snapshotInto(times: Array[Long], values: Array[V]): Boolean = { tree.copyEntriesTo(times, values); true }
  override private[core] def retainedBulkEntries: Int = super.retainedBulkEntries max tree.retainedBulkEntries

  /** Expose the tree for invariant checks in tests. */
  def underlying: FibaTree[V] = tree
}

/** The new algorithm of this paper: FiBA with native bulk operations.
  * `useFreeList = false` is Fig 10's "nofl" ablation, named `_nofl`.
  */
final class BFiba[V](minArity: Int, monoid: Monoid[V], useFreeList: Boolean = true)
    extends FibaSwag[V](minArity, monoid, useFreeList) {
  val name = s"b_fiba$minArity" + (if (useFreeList) "" else "_nofl")
  override def bulkEvict(t: Long): Unit = tree.bulkEvictNative(t)
  override def bulkInsert(times: Array[Long], values: Array[V], from: Int, until: Int): Unit =
    tree.bulkInsertNative(times, values, from, until)
}

/** The prior state of the art [Tangwongsan et al. 2019]: the same tree but
  * bulk operations emulated by loops over single inserts/evicts.
  */
final class NbFiba[V](minArity: Int, monoid: Monoid[V])
    extends FibaSwag[V](minArity, monoid, useFreeList = true) {
  val name = s"nb_fiba$minArity"
  // bulkEvict and bulkInsert: Swag's default single-operation loops
}
