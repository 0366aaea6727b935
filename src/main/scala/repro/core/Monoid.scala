package repro.core

/** A monoid `(S, ⊗, 1)` — the aggregation algebra of §3.1.
  *
  * `combine` must be associative; it need not be commutative or
  * invertible, and every sliding-window algorithm in this repo must work
  * for the general (non-commutative, non-invertible) case. `identity`
  * gives meaning to the aggregate of an empty (sub)window.
  */
trait Monoid[V] extends Serializable {
  /** The neutral element 1. */
  def identity: V

  /** The associative combine operator ⊗. */
  def combine(x: V, y: V): V

  /** Human-readable name used in bench tables. */
  def name: String

  /** Fold a sequence left-to-right (timestamp order). */
  final def combineAll(vs: IterableOnce[V]): V =
    vs.iterator.foldLeft(identity)(combine)
}

/** A monoid whose values fit `width` longs. A FiBA tree over one keeps
  * values and partial aggregates inline in `Array[Long]`s, as §6's nodes
  * do, instead of boxing each one. Offsets count longs: a value occupies
  * `[off, off + width)`.
  */
trait PackedMonoid[V] extends Monoid[V] {
  def width: Int

  /** Write `v` at `dst(di)`. */
  def pack(v: V, dst: Array[Long], di: Int): Unit

  /** The value held at `src(si)`. */
  def unpack(src: Array[Long], si: Int): V

  /** `dst(di) = a(ai) ⊗ b(bi)`, counted as one combine; correct when
    * `dst(di)` is `a(ai)` or `b(bi)`.
    */
  def combineInto(dst: Array[Long], di: Int, a: Array[Long], ai: Int, b: Array[Long], bi: Int): Unit
}
