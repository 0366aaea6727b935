package repro.core.fiba

import repro.core.{Monoid, Swag}

/** The complete FiBA finger B-tree with native bulk eviction (§4) and
  * bulk insertion (§5). `useFreeList = false` reproduces the paper's
  * "nofl" memory-management ablation (Fig 10): evicted subtrees are
  * reclaimed eagerly, costing O(m) per bulk evict instead of O(log m).
  */
final class FibaTree[V](minArity0: Int, monoid0: Monoid[V], useFreeList0: Boolean = true)
    extends FibaBase[V](minArity0, monoid0, useFreeList0)
    with FibaSingleOps[V]
    with FibaBulkEvictOps[V]
    with FibaBulkInsertOps[V]

/** The `Swag` face of a `FibaTree`, shared by `BFiba` and `NbFiba`, which
  * differ only in how they run bulk operations.
  */
sealed abstract class FibaSwag[V](minArity: Int, val monoid: Monoid[V], useFreeList: Boolean)
    extends Swag[V] {
  protected final val tree = new FibaTree[V](minArity, monoid, useFreeList)
  val supportsOoo = true

  def size: Int = tree.sizeByTraversal // O(n); diagnostics only
  def minTime: Option[Long] = tree.minTimeOpt
  def maxTime: Option[Long] = tree.maxTimeOpt
  def query(): V = tree.queryAgg()
  def insert(t: Long, v: V): Unit = tree.insertOne(t, v)
  def evict(): Unit = tree.evictOldest()
  override def snapshot(): Option[IndexedSeq[(Long, V)]] = Some(tree.toEntries)

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
  override def bulkInsert(entries: IndexedSeq[(Long, V)]): Unit = tree.bulkInsertNative(entries)
}

/** The prior state of the art [Tangwongsan et al. 2019]: the same tree but
  * bulk operations emulated by loops over single inserts/evicts.
  */
final class NbFiba[V](minArity: Int, monoid: Monoid[V])
    extends FibaSwag[V](minArity, monoid, useFreeList = true) {
  val name = s"nb_fiba$minArity"
  /** Swag's single-evict loop, reading the tree's primitive oldest time. */
  override def bulkEvict(t: Long): Unit =
    while (!tree.isEmpty && tree.oldestTime <= t) tree.evictOldest()
  // bulkInsert: Swag's default single-insert loop
}
