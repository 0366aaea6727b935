package repro.core.fiba

import repro.core.{Monoid, PackedMonoid}

/** How a tree stores values and partial aggregates: in stores of slots,
  * one value per slot. A [[PackedMonoid]] of width w gets `Array[Long]`
  * stores, w longs per slot, so values sit inline as in §6's nodes; any
  * other monoid gets `Array[AnyRef]` stores of references, and releases
  * vacated slots so they pin nothing. A tree picks its lane once, from the
  * monoid; all its code runs on either.
  */
private[fiba] sealed abstract class Lane[V](/** Array elements per slot. */ val width: Int) {
  require(width >= 1, s"a packed monoid's width must be at least 1, not $width")
  def newStore(slots: Int): AnyRef
  /** Slots `store` holds, or -1 if it is not this lane's kind of store. */
  def slots(store: AnyRef): Int
  def put(v: V, dst: AnyRef, di: Int): Unit
  def get(src: AnyRef, si: Int): V
  /** `dst(di) = a(ai) ⊗ b(bi)`, one combine; `dst(di)` may be an operand. */
  def combineInto(dst: AnyRef, di: Int, a: AnyRef, ai: Int, b: AnyRef, bi: Int): Unit
  def copy1(src: AnyRef, si: Int, dst: AnyRef, di: Int): Unit
  /** Drop references held in slots [from, until); a no-op for longs. */
  def release(store: AnyRef, from: Int, until: Int): Unit
  /** True if slot i holds a reference (never, for longs). */
  def isSet(store: AnyRef, i: Int): Boolean
  /** True if slot si holds exactly `v`. */
  def holds(store: AnyRef, si: Int, v: V): Boolean

  final def copy(src: AnyRef, si: Int, dst: AnyRef, di: Int, count: Int): Unit =
    System.arraycopy(src, si * width, dst, di * width, count * width)
  final def setIdentity(dst: AnyRef, di: Int): Unit = copy1(identity, 0, dst, di)
  /** A one-slot store holding the monoid's identity. */
  protected def identity: AnyRef
}

private[fiba] object Lane {
  def apply[V](monoid: Monoid[V]): Lane[V] = monoid match {
    case p: PackedMonoid[V @unchecked] => new LongLane(p)
    case m                             => new RefLane(m)
  }
}

private final class RefLane[V](monoid: Monoid[V]) extends Lane[V](1) {
  private def a(s: AnyRef) = s.asInstanceOf[Array[AnyRef]]
  protected val identity: AnyRef = Array[AnyRef](monoid.identity.asInstanceOf[AnyRef])
  def newStore(slots: Int): AnyRef = new Array[AnyRef](slots)
  def slots(store: AnyRef): Int = store match { case s: Array[AnyRef] => s.length; case _ => -1 }
  def put(v: V, dst: AnyRef, di: Int): Unit = a(dst)(di) = v.asInstanceOf[AnyRef]
  def get(src: AnyRef, si: Int): V = a(src)(si).asInstanceOf[V]
  def combineInto(dst: AnyRef, di: Int, x: AnyRef, xi: Int, y: AnyRef, yi: Int): Unit =
    a(dst)(di) = monoid.combine(get(x, xi), get(y, yi)).asInstanceOf[AnyRef]
  def copy1(src: AnyRef, si: Int, dst: AnyRef, di: Int): Unit = a(dst)(di) = a(src)(si)
  def release(store: AnyRef, from: Int, until: Int): Unit = java.util.Arrays.fill(a(store), from, until, null)
  def isSet(store: AnyRef, i: Int): Boolean = a(store)(i) != null
  def holds(store: AnyRef, si: Int, v: V): Boolean = get(store, si) == v
}

private final class LongLane[V](monoid: PackedMonoid[V]) extends Lane[V](monoid.width) {
  private def l(s: AnyRef) = s.asInstanceOf[Array[Long]]
  protected val identity: AnyRef = { val s = newStore(1); put(monoid.identity, s, 0); s }
  def newStore(slots: Int): AnyRef = new Array[Long](slots * width)
  def slots(store: AnyRef): Int = store match { case s: Array[Long] => s.length / width; case _ => -1 }
  def put(v: V, dst: AnyRef, di: Int): Unit = monoid.pack(v, l(dst), di * width)
  def get(src: AnyRef, si: Int): V = monoid.unpack(l(src), si * width)
  def combineInto(dst: AnyRef, di: Int, x: AnyRef, xi: Int, y: AnyRef, yi: Int): Unit =
    monoid.combineInto(l(dst), di * width, l(x), xi * width, l(y), yi * width)
  def copy1(src: AnyRef, si: Int, dst: AnyRef, di: Int): Unit =
    if (width == 1) l(dst)(di) = l(src)(si) else copy(src, si, dst, di, 1)
  def release(store: AnyRef, from: Int, until: Int): Unit = ()
  def isSet(store: AnyRef, i: Int): Boolean = false
  def holds(store: AnyRef, si: Int, v: V): Boolean = {
    val s = newStore(1)
    put(v, s, 0)
    java.util.Arrays.equals(l(s), 0, width, l(store), si * width, (si + 1) * width)
  }
}
