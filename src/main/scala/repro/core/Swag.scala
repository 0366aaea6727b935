package repro.core

/** The sliding-window aggregation abstract data type of §3.1.
  *
  * A window holds (timestamp, value) entries with strictly increasing
  * timestamps; inserting an existing timestamp combines the values with
  * the monoid (in window order: existing ⊗ new).
  *
  * `bulkEvict(t)` removes every entry with timestamp ≤ t.
  * `bulkInsert(times, values, from, until)` inserts the timestamp-ordered
  * bulk held in that slice of two parallel arrays, interleaving with the
  * current window and combining on collisions.
  * The default bulk implementations loop over single operations — that is
  * exactly how the paper's non-bulk baselines (nb_fiba, twostacks, daba,
  * amta-without-bulk-insert) emulate bulks.
  */
trait Swag[V] {
  def monoid: Monoid[V]

  /** Algorithm label used in bench tables (e.g. "b_fiba4"). */
  def name: String

  /** True if the algorithm accepts inserts below the current max time. */
  def supportsOoo: Boolean

  /** Number of distinct timestamps currently in the window. */
  def size: Int

  /** True if the window holds no entry. */
  def isEmpty: Boolean

  /** Oldest timestamp; undefined on an empty window. */
  def oldestTime: Long

  /** Youngest timestamp; undefined on an empty window. */
  def youngestTime: Long

  /** Monoidal combination of all window values in timestamp order. */
  def query(): V

  /** Insert a single (t, v); combines when t is already present. */
  def insert(t: Long, v: V): Unit

  /** Evict the single oldest entry; no-op on an empty window. */
  def evict(): Unit

  /** Remove all entries with timestamp ≤ t. */
  def bulkEvict(t: Long): Unit = {
    while (!isEmpty && oldestTime <= t) evict()
  }

  /** Insert the bulk `times(i)`, `values(i)` for i in [from, until),
    * strictly increasing in time. The arrays are only read.
    */
  def bulkInsert(times: Array[Long], values: Array[V], from: Int, until: Int): Unit = {
    var i = from
    while (i < until) { insert(times(i), values(i)); i += 1 }
  }

  // the tuple adapter's unpacked bulk, reused across calls
  private[this] var tupT = Array.emptyLongArray
  private[this] var tupV = Array.empty[AnyRef]

  /** Insert a timestamp-ordered bulk given as pairs: unpacks it into two
    * buffers reused across calls and inserts it as one slice. The buffers
    * grow to fit and are dropped after a bulk that grew them past
    * [[Swag.RetainedBulk]], so a huge bulk (a prefill) is not pinned.
    */
  final def bulkInsert(entries: IndexedSeq[(Long, V)]): Unit = {
    val m = entries.length
    if (tupT.length < m) {
      val cap = math.max(m, 2 * tupT.length)
      tupT = new Array[Long](cap); tupV = new Array[AnyRef](cap)
    }
    var i = 0
    while (i < m) { val e = entries(i); tupT(i) = e._1; tupV(i) = e._2.asInstanceOf[AnyRef]; i += 1 }
    // every implementation is generic in V, where Array[V] erases to Object
    try bulkInsert(tupT, tupV.asInstanceOf[Array[V]], 0, m)
    finally {
      if (tupT.length > Swag.RetainedBulk) { tupT = Array.emptyLongArray; tupV = Array.empty[AnyRef] }
      else java.util.Arrays.fill(tupV, 0, m, null)
    }
  }

  /** Entries the largest bulk buffer reused across calls can hold. */
  private[core] def retainedBulkEntries: Int = tupT.length

  /** Full window contents in timestamp order, if the algorithm can
    * enumerate them (FiBA and the brute-force reference can; the
    * aggregate-only stacks cannot). Used for streaming checkpoints.
    */
  def snapshot(): Option[IndexedSeq[(Long, V)]] = None

  /** The window's contents in timestamp order, copied into `times` and
    * `values` from index 0; both must hold `size` entries. False if the
    * algorithm cannot enumerate them. Unlike `snapshot()`, FiBA copies
    * without a tuple per entry.
    */
  def snapshotInto(times: Array[Long], values: Array[V]): Boolean = snapshot() match {
    case Some(es) =>
      var i = 0
      while (i < es.length) { times(i) = es(i)._1; values(i) = es(i)._2; i += 1 }
      true
    case None => false
  }
}

private[core] object Swag {
  /** Bulk buffers reused across calls keep at most this many entries
    * between bulks; one that grew past it is dropped. It is above every
    * bulk the figures and the benchmark slide by (m <= 4096).
    */
  final val RetainedBulk = 1 << 14
}
