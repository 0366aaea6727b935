package repro.bench

import repro.core.Monoid
import repro.core.Monoids._

/** The paper's three benchmark monoids, spanning the cost spectrum:
  * sum (fast), geomean (medium), bloom (slow). Each case knows how to
  * lift a timestamp into a value.
  */
object MonoidCases {

  /** Run `f` once per benchmark monoid (type-erased loop helper). */
  def forEach(f: Runner => Unit): Unit = {
    f(new Runner { type V = Double
      val monoid: Monoid[Double] = SumD
      def lift(t: Long): Double = (t % 101).toDouble })
    f(new Runner { type V = GeoMean
      val monoid: Monoid[GeoMean] = GeoMeanM
      def lift(t: Long): GeoMean = GeoMean.lift(1.0 + (t % 101).toDouble) })
    f(new Runner { type V = Bloom
      val monoid: Monoid[Bloom] = BloomM
      def lift(t: Long): Bloom = Bloom.lift(t) })
  }

  trait Runner {
    type V
    def monoid: Monoid[V]
    def lift(t: Long): V
    final def name: String = monoid.name
  }
}
