package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.core.Monoids._
import repro.core.TestGen._

/** Monoid laws (associativity + identity) for every instance. */
class MonoidSpec extends AnyFunSuite {

  private def laws[V](m: Monoid[V], gen: Gen[V], exact: (V, V) => Boolean): Unit = {
    test(s"${m.name}: identity is neutral") {
      forAllN(gen) { v =>
        assert(exact(m.combine(m.identity, v), v))
        assert(exact(m.combine(v, m.identity), v))
      }
    }
    test(s"${m.name}: combine is associative") {
      forAllN3(gen, gen, gen) { (a, b, c) =>
        assert(exact(m.combine(m.combine(a, b), c), m.combine(a, m.combine(b, c))))
      }
    }
  }

  private val eqAny = (a: Any, b: Any) => a == b
  private def approx(a: Double, b: Double) =
    (a.isInfinite && b.isInfinite && a == b) || math.abs(a - b) <= 1e-9 * (1 + math.abs(a) + math.abs(b))

  laws(SumD, Gen.choose(-1e6, 1e6), (a: Double, b: Double) => approx(a, b))
  laws(CountL, Gen.choose(-1000000L, 1000000L), eqAny)
  laws(MaxD, Gen.oneOf(Gen.choose(-1e6, 1e6), Gen.const(Double.NegativeInfinity)), eqAny)
  laws(MinD, Gen.oneOf(Gen.choose(-1e6, 1e6), Gen.const(Double.PositiveInfinity)), eqAny)
  laws(GeoMeanM,
       Gen.zip(Gen.choose(-100.0, 100.0), Gen.choose(0L, 1000L)).map { case (s, n) => GeoMean(s, n) },
       (a: GeoMean, b: GeoMean) => approx(a.logSum, b.logSum) && a.n == b.n)
  laws(BloomM, Gen.choose(Long.MinValue, Long.MaxValue).map(Bloom.lift), eqAny)
  laws(ConcatM, Gen.listOf(Gen.choose(0L, 50L)).map(_.toVector), eqAny)

  test("bloom: lifted elements are contained after combines") {
    val xs = (1L to 50L).toVector
    val bf = BloomM.combineAll(xs.map(Bloom.lift))
    xs.foreach(x => assert(bf.contains(x), s"bloom lost $x"))
  }

  test("bloom: identity contains nothing it was not given") {
    val empty = BloomM.identity
    assert((1L to 100L).count(empty.contains) == 0)
  }

  test("geomean: result of lifted values is the geometric mean") {
    val g = GeoMeanM.combineAll(Vector(1.0, 2.0, 4.0, 8.0).map(GeoMean.lift))
    assert(math.abs(g.result - math.pow(64.0, 0.25)) < 1e-9)
  }

  test("geomean: empty result is defined") {
    assert(GeoMeanM.identity.result == 0.0)
  }

  test("concat is non-commutative (ordering bugs cannot cancel out)") {
    assert(ConcatM.combine(Vector(1L), Vector(2L)) != ConcatM.combine(Vector(2L), Vector(1L)))
  }

  test("combineAll folds left-to-right") {
    assert(ConcatM.combineAll(List(Vector(1L), Vector(2L), Vector(3L))) == Vector(1L, 2L, 3L))
  }
}
